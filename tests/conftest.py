"""Shared fixtures: small deterministic graphs for fast unit tests."""

from __future__ import annotations

import importlib
import os
import sys

import numpy as np
import pytest

from repro.bench.timing import python_calls  # noqa: F401  (re-exported to the tests)
from repro.data import amazon_graph, taobao_graph
from repro.graph import AttributedHeterogeneousGraph, Graph
from repro.storage.rows import RowBlock, pack_rows
from repro.utils.rng import make_rng
from tests.gradcheck import float64_dtype


def tail_mass(values: np.ndarray, top_fraction: float) -> float:
    """Fraction of the total mass carried by the top ``top_fraction`` values.

    A heavy-tailed (power-law-ish) sample concentrates most of its mass in a
    tiny head — e.g. the top 10% of vertices carrying >50% of total degree.
    Tests use this as a robust, assumption-light heavy-tail check.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction}")
    values = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    total = values.sum()
    if total <= 0:
        return 0.0
    k = max(1, int(round(top_fraction * values.size)))
    return float(values[:k].sum() / total)


def gini_coefficient(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative sample (0 = uniform, →1 = skewed).

    Another assumption-light skewness measure used by the theorem tests:
    power-law importance scores should have a high Gini.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))
    if np.any(values < 0):
        raise ValueError("gini requires non-negative values")
    n = values.size
    if n == 0 or values.sum() == 0:
        return 0.0
    index = np.arange(1, n + 1)
    return float((2.0 * np.sum(index * values) / (n * values.sum())) - (n + 1.0) / n)


def cache_get(cache, vertex: int):
    """Scalar lookup on a ``NeighborCache``: the oracle its ``get_many`` must
    equal (pinned side first, then the LRU side, which moves recency)."""
    if cache.is_pinned(vertex):
        cache.hits += 1
        return cache.peek(vertex)
    found, _ = cache._lru.get_many([vertex])  # moves recency
    if not found.size:
        cache.misses += 1
        return None
    cache.hits += 1
    return cache._rows.row(vertex)


def should_probe(health, part: int) -> bool:
    """One read about to be routed around ``part``: whether it probes
    instead (every ``probe_every``-th such read of the part). The scalar
    decision ``HealthTracker.probe_mask`` must equal, read after read."""
    health._routed_around[part] += 1
    if health._routed_around[part] % health.probe_every == 0:
        health.metrics.counter("health.probes").inc()
        return True
    return False


def cache_admit(cache, vertex: int, row: np.ndarray) -> None:
    """Scalar demand fill on a ``NeighborCache`` (the ``admit_many`` oracle)."""
    if cache._lru.capacity > 0 and not cache.is_pinned(vertex):
        cache._lru.put_many(np.array([vertex]))
        row = np.asarray(row, dtype=np.int64)
        cache._rows.put(np.array([vertex]), np.array([0, row.size]), row, live=cache._lru.keys)


def block_rows(block) -> "dict[int, np.ndarray]":
    """A neighbors read's ``RowBlock`` as ``{vertex: row}``, in block order."""
    bounds = block.offsets.tolist()
    return {
        v: block.indices[a:b] for v, a, b in zip(block.ids.tolist(), bounds, bounds[1:])
    }


def pack_block(ids, rows: "dict[int, np.ndarray]") -> RowBlock:
    """The ``RowBlock`` a neighbors read of ``ids`` (deduplicated, in
    first-seen order) must equal, packed from its rows by vertex."""
    ids = np.asarray(ids, dtype=np.int64)
    return RowBlock(ids, *pack_rows([np.asarray(rows[v], dtype=np.int64) for v in ids.tolist()]))


def replica_holders(registry, vertex: int) -> "tuple[int, ...]":
    """Parts whose cache holds ``vertex``, ascending, read off the registry."""
    return tuple(p for p in range(registry.n_parts) if vertex in registry.held_by(p))


def out_weights(graph, vertex: int) -> np.ndarray:
    """Edge weights aligned with ``graph.out_neighbors(vertex)``."""
    indptr, _, weights = graph.csr_arrays()
    return weights[indptr[vertex] : indptr[vertex + 1]]


def in_neighbors(graph, vertex: int) -> np.ndarray:
    """In-neighbor ids of ``vertex`` in edge order (the out-row when undirected)."""
    if not graph.directed:
        return graph.out_neighbors(vertex)
    src, dst, _ = graph.edge_array()
    return src[dst == vertex]


def draw_graph(data, max_n: int = 30) -> Graph:
    """A hypothesis-drawn simple-graph input (``data`` is ``st.data()``):
    directed or undirected, with parallel edges, self-loops and isolated
    vertices, and small enough that many vertices tie on any score."""
    from hypothesis import strategies as st

    n = data.draw(st.integers(1, max_n), label="n")
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n), label="edges")
    src, dst = (np.array(col, dtype=np.int64) for col in (zip(*edges) if edges else ((), ())))
    return Graph(n, src, dst, directed=data.draw(st.booleans(), label="directed"))


@pytest.fixture
def float64_tape():
    """Run the test with ``repro.nn``'s tape in float64: gradient checks and
    the oracles that are only exact in float64 (see ``tests/gradcheck.py``)."""
    with float64_dtype():
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(12345)


@pytest.fixture
def tiny_graph() -> Graph:
    """A 6-vertex directed graph with known structure.

    Edges: 0->1, 0->2, 1->2, 2->3, 3->4, 4->0, 4->5 (weights 1..7).
    """
    src = np.array([0, 0, 1, 2, 3, 4, 4])
    dst = np.array([1, 2, 2, 3, 4, 0, 5])
    w = np.arange(1, 8, dtype=np.float64)
    return Graph(6, src, dst, weights=w, directed=True)


@pytest.fixture
def tiny_undirected() -> Graph:
    src = np.array([0, 1, 2, 3])
    dst = np.array([1, 2, 3, 0])
    return Graph(4, src, dst, directed=False)


@pytest.fixture
def tiny_ahg():
    """2 users, 3 items, 2 behaviour edge types + item_item."""
    # u0=0, u1=1, i0=2, i1=3, i2=4; features zero-padded to width 3.
    return AttributedHeterogeneousGraph(
        n_vertices=5,
        src=np.array([0, 0, 1, 1, 2]),
        dst=np.array([2, 3, 3, 4, 3]),
        vertex_types=np.array([0, 0, 1, 1, 1]),
        edge_types=np.array([0, 1, 0, 0, 2]),
        vertex_type_names=["user", "item"],
        edge_type_names=["click", "buy", "item_item"],
        directed=True,
        vertex_features=np.array(
            [[0, 1, 0], [1, 1, 0], [0, 2, 3], [1, 2, 3], [2, 2, 3]], dtype=np.float32
        ),
    )


@pytest.fixture(scope="session")
def small_powerlaw():
    """A session-cached power-law graph (1000 vertices) for storage tests."""
    from repro.data import powerlaw_graph

    return powerlaw_graph(1000, alpha=2.3, max_degree=80, seed=7)


@pytest.fixture(scope="session")
def small_taobao():
    """A session-cached small taobao-sim AHG."""
    return taobao_graph(n_users=400, n_items=120, mean_user_degree=6.0, seed=3)


@pytest.fixture(scope="session")
def small_amazon():
    """A session-cached small amazon-sim AHG."""
    return amazon_graph(n_products=300, n_communities=6, seed=3)


#: The ``repro report`` invocation the CLI / obs tests share (2 steps -> 2 traces).
REPORT_ARGV = ["report", "--scale", "0.1", "--steps", "2", "--workers", "3", "--seed", "0"]


def run_cli(argv: "list[str]") -> str:
    """Run ``repro.cli.main(argv)``, assert exit 0, return its stdout."""
    import contextlib
    import io

    from repro.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


#: The directory of the ``bench_*.py`` experiment scripts.
BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "benchmarks")


def bench_script(name: str):
    """Import ``benchmarks/<name>.py`` the way ``load_experiments`` does.

    The scripts import one another by name, so their directory goes on
    ``sys.path``.
    """
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    return importlib.import_module(name)


def bench_payload(experiment_id: str, out_dir) -> dict:
    """``repro bench ID --smoke --json`` into ``out_dir``: the checked payload."""
    import json

    from tests.format_checkers import check_experiment_payload

    stdout = run_cli(
        ["bench", experiment_id, "--smoke", "--json", "--out-dir", str(out_dir)]
    )
    payload = json.loads(stdout)
    assert check_experiment_payload(payload) == []
    assert payload["experiment_id"] == experiment_id
    return payload


@pytest.fixture(scope="session")
def report_run(tmp_path_factory):
    """One ``repro report --json --out DIR`` run: ``(payload, out_dir)``."""
    import json

    out_dir = tmp_path_factory.mktemp("report")
    stdout = run_cli([*REPORT_ARGV, "--json", "--out", str(out_dir)])
    return json.loads(stdout), out_dir


@pytest.fixture(scope="session")
def report_text() -> str:
    """The rendered (non ``--json``) output of the same run."""
    return run_cli(REPORT_ARGV)
