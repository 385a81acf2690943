"""Vectorized frontier-sampling kernels: throughput, determinism, alias build.

Measured on the canonical 2-hop workload (taobao-small-sim at scale 0.3,
fan-outs 10x5, 64-seed batches):

* **The kernel beats the loop it replaced.** The uniform sampler (the hot
  path of the GraphSAGE workload) runs the same multi-hop expansion through
  its broadcast kernel and through :func:`_expand_per_row` — one scalar
  ``rng.integers`` per frontier row over the same adjacency block, kept
  here for this comparison only. Same seed, same draws (asserted);
  min-of-repeats wall-clock, acceptance bar >= 3x. The other four samplers
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

import time

import numpy as np

from repro.bench import Experiment, ExperimentReport
from repro.data import dynamic_taobao, make_dataset
from repro.sampling import (
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


def _time_expansion(expand, batches: "list[np.ndarray]", repeats: int) -> float:
    """Min wall-clock seconds for one full pass of ``expand(batch, rng)``."""
    expand(batches[0], make_rng(SEED))  # warm-up: snapshot + tables
    best = float("inf")
    for _ in range(repeats):
        rng = make_rng(SEED)
        t0 = time.perf_counter()
        for batch in batches:
            expand(batch, rng)
        best = min(best, time.perf_counter() - t0)
    return best


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
        provider = dyn.provider(0)
        sampler = UniformNeighborSampler(provider)
        seeds = np.arange(0, 64, dtype=np.int64)
        sampler.sample(seeds, HOP_NUMS, make_rng(SEED))  # builds the t=0 snapshot
        provider.advance(1)  # new snapshot object on the next draw
        return sampler.sample(seeds, HOP_NUMS, make_rng(SEED))

    r1, r2 = expand_after_refresh(), expand_after_refresh()
    refresh_ok = all(np.array_equal(x, y) for x, y in zip(r1.layers, r2.layers))
    return static_ok, refresh_ok


def _alias_exactness_and_build(graph, repeats: int) -> "tuple[float, float, float]":
    """(max |implied - normalized weights|, per-list build s, grouped build s)."""
    from repro.sampling import CsrAdjacency

    csr = CsrAdjacency.from_graph(graph)
    grouped = GroupedAliasTable(csr.weights, csr.indptr)
    implied = grouped.probabilities()
    expected = np.zeros_like(implied)
    for v in range(csr.n_vertices):
        w = csr.weights_of(v)
        if w.size:
            expected[csr.indptr[v] : csr.indptr[v + 1]] = w / w.sum()
    max_diff = float(np.max(np.abs(implied - expected))) if implied.size else 0.0

    nonzero = [v for v in range(csr.n_vertices) if csr.degrees[v] > 0]
    best_ref = best_grp = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for v in nonzero:
            AliasTable(csr.weights_of(v))
        best_ref = min(best_ref, time.perf_counter() - t0)
        t0 = time.perf_counter()
        GroupedAliasTable(csr.weights, csr.indptr)
        best_grp = min(best_grp, time.perf_counter() - t0)
    return max_diff, best_ref, best_grp


def _run(smoke: bool) -> ExperimentReport:
    graph = make_dataset("taobao-small-sim", scale=0.3, seed=0)
    steps = SMOKE_STEPS if smoke else STEPS
    repeats = 2 if smoke else 5
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
    loop_s = _time_expansion(
        lambda batch, rng: _expand_per_row(provider, batch, rng), batches, repeats
    )
    same_draws = all(
        np.array_equal(x, y)
        for x, y in zip(
            samplers["uniform"].sample(batches[0], HOP_NUMS, make_rng(SEED)).layers,
            _expand_per_row(provider, batches[0], make_rng(SEED)),
        )
    )
    for name, sampler in samplers.items():
        seconds = _time_expansion(
            lambda batch, rng: sampler.sample(batch, HOP_NUMS, rng), batches, repeats
        )
        measured = {
            "kernel_ms": round(seconds * 1e3, 2),
            "kernel_krows_per_s": round(rows / seconds / 1e3, 1),
        }
        if name == "uniform":
            uniform_speedup = loop_s / seconds
            measured.update(
                per_row_loop_ms=round(loop_s * 1e3, 2),
                speedup=round(uniform_speedup, 2),
                same_draws=same_draws,
            )
        report.add(f"2-hop expansion: {name}", measured)

    static_ok, refresh_ok = _determinism(graph)
    report.add(
        "same-seed determinism",
        {"identical": static_ok, "after_dynamic_refresh": refresh_ok},
    )

    max_diff, ref_build_s, grp_build_s = _alias_exactness_and_build(graph, repeats)
    report.add(
        "grouped alias construction",
        {
            "max_prob_error": f"{max_diff:.2e}",
            "per_list_build_ms": round(ref_build_s * 1e3, 2),
            "grouped_build_ms": round(grp_build_s * 1e3, 2),
            "build_speedup": round(ref_build_s / max(grp_build_s, 1e-12), 2),
        },
    )

    report.note(
        "expansion timings are wall-clock min-of-repeats over identical "
        "same-seed batch sequences; the per-row loop draws the uniform "
        "sampler's children one frontier row at a time on the same block"
    )
    report.meta = {
        "uniform_speedup": uniform_speedup,
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
        return  # two repeats of six batches do not time anything
    assert meta["uniform_speedup"] >= MIN_UNIFORM_SPEEDUP, (
        f"uniform 2-hop expansion speedup {meta['uniform_speedup']:.2f}x "
        f"under the {MIN_UNIFORM_SPEEDUP}x bar"
    )


EXPERIMENTS = (Experiment("sampling_kernels", _run, _check),)
