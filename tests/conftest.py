"""Shared fixtures: small deterministic graphs for fast unit tests."""

from __future__ import annotations

import importlib
import os
import sys

import numpy as np
import pytest

from repro.bench.timing import python_calls  # noqa: F401  (re-exported to the tests)
from repro.data import amazon_graph, taobao_graph
from repro.graph import Graph, GraphBuilder
from repro.utils.rng import make_rng


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
    b = GraphBuilder(directed=True)
    for i in range(2):
        b.add_vertex(f"u{i}", "user", features=np.array([float(i), 1.0]))
    for i in range(3):
        b.add_vertex(f"i{i}", "item", features=np.array([float(i), 2.0, 3.0]))
    b.add_edge("u0", "i0", etype="click")
    b.add_edge("u0", "i1", etype="buy")
    b.add_edge("u1", "i1", etype="click")
    b.add_edge("u1", "i2", etype="click")
    b.add_edge("i0", "i1", etype="item_item")
    return b.build_ahg()


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
