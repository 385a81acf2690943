"""Vectorized frontier-sampling kernels: throughput, determinism, alias build.

Measured on the canonical 2-hop workload (taobao-small-sim at scale 0.3,
fan-outs 10x5, 64-seed batches):

* **The kernel beats the loop it replaced.** The uniform sampler (the hot
  path of the GraphSAGE workload) runs the same multi-hop expansion through
  its broadcast kernel and through :func:`_expand_per_row` — one scalar
  ``rng.integers`` per frontier row over the same adjacency block, kept
  here for this comparison only. Same seed, same draws (asserted);
  wall-clock median and IQR of interleaved passes, acceptance bar >= 3x
  (through :func:`~repro.bench.timing.assert_faster`). The other four samplers
  report kernel throughput; their equivalence to scalar oracles is tier-1
  (``tests/test_sampling_kernels.py``), where it runs on every PR.
* **Determinism survives.** Same seed, same output — including straight
  after a dynamic-graph refresh (``SnapshotProvider.advance`` hands the
  sampler a new snapshot object on the next draw).
* **Grouped alias construction is exact.** The vectorized grouped Vose
  build must imply per-slot draw probabilities equal to the normalized
  weights (the distribution per-list ``AliasTable``s sample), and its
  one-shot construction is timed against building per-list tables in a
  Python loop.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, ExperimentReport
from repro.bench.timing import assert_faster, time_arms
from repro.data import dynamic_taobao, make_dataset
from repro.sampling import (
    CsrAdjacency,
    FullNeighborSampler,
    GraphProvider,
    ImportanceNeighborSampler,
    TopKNeighborSampler,
    UniformNeighborSampler,
    WeightedNeighborSampler,
)
from repro.utils.alias import AliasTable, GroupedAliasTable
from repro.utils.rng import make_rng

HOP_NUMS = [10, 5]
BATCH_SIZE = 64
SEED = 7
STEPS = 24
SMOKE_STEPS = 6
MIN_UNIFORM_SPEEDUP = 3.0


def _samplers(graph) -> "dict[str, object]":
    provider = GraphProvider(graph)
    return {
        "uniform": UniformNeighborSampler(provider),
        "weighted": WeightedNeighborSampler(provider),
        "topk": TopKNeighborSampler(provider),
        "importance": ImportanceNeighborSampler(provider, graph.out_degrees()),
        "full": FullNeighborSampler(provider),
    }


def _expand_per_row(provider, batch, rng) -> "list[np.ndarray]":
    """Uniform 2-hop expansion, one scalar draw per frontier row."""
    layers = [batch]
    for count in HOP_NUMS:
        frontier = layers[-1]
        block, rows = provider.frontier_block(frontier)
        children = np.repeat(frontier[:, None], count, axis=1)
        for i, row in enumerate(rows.tolist()):
            nbrs = block.neighbors(row)
            if nbrs.size:
                children[i] = nbrs[rng.integers(nbrs.size, size=count)]
        layers.append(children.reshape(-1))
    return layers


def _batches(graph, steps: int) -> "list[np.ndarray]":
    rng = make_rng(SEED)
    return [
        rng.integers(0, graph.n_vertices, size=BATCH_SIZE).astype(np.int64)
        for _ in range(steps)
    ]


def _expansion_pass(expand, batches: "list[np.ndarray]"):
    """One same-seed pass of ``expand(batch, rng)`` over ``batches``."""

    def run() -> None:
        rng = make_rng(SEED)
        for batch in batches:
            expand(batch, rng)

    return run


def _context_rows(steps: int) -> int:
    """Context rows one pass produces (identical across samplers)."""
    per_batch = BATCH_SIZE * (1 + HOP_NUMS[0] + HOP_NUMS[0] * HOP_NUMS[1])
    return steps * per_batch


def _determinism(graph) -> "tuple[bool, bool]":
    """(same-seed determinism, determinism after a dynamic-graph refresh)."""
    batch = _batches(graph, 1)[0]
    a, b = (
        UniformNeighborSampler(GraphProvider(graph)).sample(
            batch, HOP_NUMS, make_rng(SEED)
        )
        for _ in range(2)
    )
    static_ok = all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))

    dyn = dynamic_taobao(n_vertices=400, n_timestamps=3, seed=SEED)

    def expand_after_refresh():
        provider = dyn.provider()
        sampler = UniformNeighborSampler(provider)
        seeds = np.arange(0, 64, dtype=np.int64)
        sampler.sample(seeds, HOP_NUMS, make_rng(SEED))  # builds the t=0 snapshot
        provider.advance(1)  # new snapshot object on the next draw
        return sampler.sample(seeds, HOP_NUMS, make_rng(SEED))

    r1, r2 = expand_after_refresh(), expand_after_refresh()
    refresh_ok = all(np.array_equal(x, y) for x, y in zip(r1.layers, r2.layers))
    return static_ok, refresh_ok


def _alias_max_prob_error(csr) -> float:
    """max |implied - normalized weights| over the grouped alias slots."""
    implied = GroupedAliasTable(csr.weights, csr.indptr).probabilities()
    expected = np.zeros_like(implied)
    for v in range(csr.n_vertices):
        w = csr.weights_of(v)
        if w.size:
            expected[csr.indptr[v] : csr.indptr[v + 1]] = w / w.sum()
    return float(np.max(np.abs(implied - expected))) if implied.size else 0.0


def _run(smoke: bool) -> ExperimentReport:
    graph = make_dataset("taobao-small-sim", scale=0.3, seed=0)
    steps = SMOKE_STEPS if smoke else STEPS
    rounds = 2 if smoke else 7
    report = ExperimentReport(
        "sampling_kernels",
        "CSR sampling kernels on the 2-hop workload "
        f"({steps} batches of {BATCH_SIZE} seeds, fan-outs {HOP_NUMS}, "
        f"{graph.n_vertices} vertices)",
    )

    batches = _batches(graph, steps)
    rows = _context_rows(steps)
    samplers = _samplers(graph)
    provider = samplers["uniform"].provider
    expansions = {"per-row loop": lambda batch, rng: _expand_per_row(provider, batch, rng)}
    for name, sampler in samplers.items():
        expansions[name] = lambda batch, rng, s=sampler: s.sample(batch, HOP_NUMS, rng)
    for expand in expansions.values():
        expand(batches[0], make_rng(SEED))  # warm-up: snapshot + tables
    same_draws = all(
        np.array_equal(x, y)
        for x, y in zip(
            expansions["uniform"](batches[0], make_rng(SEED)).layers,
            expansions["per-row loop"](batches[0], make_rng(SEED)),
        )
    )
    timings = time_arms(
        {name: _expansion_pass(expand, batches) for name, expand in expansions.items()},
        rounds,
    )
    loop = timings["per-row loop"]
    for name in samplers:
        t = timings[name]
        measured = {
            **t.columns("kernel_ms"),
            "kernel_krows_per_s": round(rows / t.median / 1e3, 1),
        }
        if name == "uniform":
            measured.update(
                **loop.columns("per_row_loop_ms"),
                speedup=round(loop.median / t.median, 2),
                same_draws=same_draws,
            )
        report.add(f"2-hop expansion: {name}", measured)

    static_ok, refresh_ok = _determinism(graph)
    report.add(
        "same-seed determinism",
        {"identical": static_ok, "after_dynamic_refresh": refresh_ok},
    )

    csr = CsrAdjacency.from_graph(graph)
    max_diff = _alias_max_prob_error(csr)
    nonzero = [v for v in range(csr.n_vertices) if csr.degrees[v] > 0]
    build = time_arms(
        {
            "per-list": lambda: [AliasTable(csr.weights_of(v)) for v in nonzero],
            "grouped": lambda: GroupedAliasTable(csr.weights, csr.indptr),
        },
        rounds,
    )
    report.add(
        "grouped alias construction",
        {
            "max_prob_error": f"{max_diff:.2e}",
            **build["per-list"].columns("per_list_build_ms"),
            **build["grouped"].columns("grouped_build_ms"),
            "build_speedup": round(build["per-list"].median / build["grouped"].median, 2),
        },
    )

    report.note(
        f"timings are wall-clock median and IQR of {rounds} interleaved rounds "
        "over identical same-seed batch sequences; the per-row loop draws the "
        "uniform sampler's children one frontier row at a time on the same block"
    )
    report.meta = {
        "uniform": (loop, timings["uniform"]),
        "uniform_same_draws": same_draws,
        "deterministic": static_ok,
        "refresh_deterministic": refresh_ok,
        "alias_max_prob_error": max_diff,
    }
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    meta = report.meta
    assert meta["deterministic"], "sampling kernels are not same-seed deterministic"
    assert meta["refresh_deterministic"], (
        "sampling kernels lost determinism after a dynamic CSR refresh"
    )
    assert meta["uniform_same_draws"], (
        "the timed per-row loop and the uniform kernel drew different children"
    )
    assert meta["alias_max_prob_error"] < 1e-9, (
        "grouped alias probabilities drifted from the normalized weights"
    )
    if smoke:
        return  # two rounds of six batches do not time anything
    assert_faster(*meta["uniform"], MIN_UNIFORM_SPEEDUP)


EXPERIMENTS = (Experiment("sampling_kernels", _run, _check),)
