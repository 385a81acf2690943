"""Vectorized frontier-sampling kernels vs the scalar reference backend.

Four claims of the sampling-kernels PR, measured on the canonical 2-hop
workload (taobao-small-sim at scale 0.3, fan-outs 10x5, 64-seed batches):

* **Batched expansion wins.** Every neighborhood sampler
  (uniform/weighted/topk/importance/full) runs the same multi-hop
  expansion with the batched kernels and with the scalar ``reference``
  oracle over the same adjacency block; min-of-repeats wall-clock
  throughput is reported per sampler. The acceptance bar is >= 3x on the
  uniform sampler (the hot path of the GraphSAGE workload).
* **Determinism survives.** Same seed, same batched output — including
  straight after a dynamic-graph refresh (``SnapshotProvider.advance``
  hands the sampler a new snapshot object on the next draw).
* **The oracle agrees.** uniform, topk and full must match the reference
  exactly (the broadcast uniform draw consumes the RNG like the per-row
  scalar calls); draw frequencies of weighted/importance are chi-square
  tested batched-vs-reference over the heaviest frontier vertices.
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
from repro.utils.stats import chi_square_homogeneity

HOP_NUMS = [10, 5]
BATCH_SIZE = 64
SEED = 7
STEPS = 24
SMOKE_STEPS = 6
MIN_UNIFORM_SPEEDUP = 3.0
#: Equivalence p-value floor: both backends draw the same distribution, so
#: under H0 p is uniform — 1e-4 gives a 0.01% false-alarm rate per sampler.
MIN_P_VALUE = 1e-4


def _samplers(graph, backend: str) -> "dict[str, object]":
    provider = GraphProvider(graph)
    degrees = graph.out_degrees()
    return {
        "uniform": UniformNeighborSampler(provider, backend=backend),
        "weighted": WeightedNeighborSampler(provider, backend=backend),
        "topk": TopKNeighborSampler(provider, backend=backend),
        "importance": ImportanceNeighborSampler(provider, degrees, backend=backend),
        "full": FullNeighborSampler(provider, backend=backend),
    }


def _batches(graph, steps: int) -> "list[np.ndarray]":
    rng = make_rng(SEED)
    return [
        rng.integers(0, graph.n_vertices, size=BATCH_SIZE).astype(np.int64)
        for _ in range(steps)
    ]


def _time_expansion(sampler, batches: "list[np.ndarray]", repeats: int) -> float:
    """Min wall-clock seconds for one full pass of 2-hop expansions."""
    sampler.sample(batches[0], HOP_NUMS, make_rng(SEED))  # warm-up: snapshot + tables
    best = float("inf")
    for _ in range(repeats):
        rng = make_rng(SEED)
        t0 = time.perf_counter()
        for batch in batches:
            sampler.sample(batch, HOP_NUMS, rng)
        best = min(best, time.perf_counter() - t0)
    return best


def _context_rows(steps: int) -> int:
    """Context rows one pass produces (identical across backends/samplers)."""
    per_batch = BATCH_SIZE * (1 + HOP_NUMS[0] + HOP_NUMS[0] * HOP_NUMS[1])
    return steps * per_batch


def _determinism(graph, sampler_factory) -> "tuple[bool, bool]":
    """(same-seed determinism, determinism after a dynamic-graph refresh)."""
    batch = _batches(graph, 1)[0]
    a = sampler_factory().sample(batch, HOP_NUMS, make_rng(SEED))
    b = sampler_factory().sample(batch, HOP_NUMS, make_rng(SEED))
    static_ok = all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers))

    dyn = dynamic_taobao(n_vertices=400, n_timestamps=3, seed=SEED)

    def expand_after_refresh():
        provider = dyn.provider(0)
        sampler = UniformNeighborSampler(provider, backend="batched")
        seeds = np.arange(0, 64, dtype=np.int64)
        sampler.sample(seeds, HOP_NUMS, make_rng(SEED))  # builds the t=0 snapshot
        provider.advance(1)  # new snapshot object on the next draw
        return sampler.sample(seeds, HOP_NUMS, make_rng(SEED))

    r1, r2 = expand_after_refresh(), expand_after_refresh()
    refresh_ok = all(np.array_equal(x, y) for x, y in zip(r1.layers, r2.layers))
    return static_ok, refresh_ok


def _equivalence_pvalue(graph, name: str, draws: int) -> float:
    """Chi-square p: batched vs reference child frequencies, heavy vertices."""
    degrees = graph.out_degrees()
    parents = np.argsort(degrees)[-16:].astype(np.int64)
    counts = {}
    for offset, backend in enumerate(("batched", "reference")):
        sampler = _samplers(graph, backend)[name]
        # Distinct seeds: the backends must agree as *distributions*, not
        # because they happen to consume the same RNG stream.
        rng = make_rng(SEED + 1 + offset)
        acc = np.zeros((parents.size, graph.n_vertices), dtype=np.int64)
        for _ in range(draws):
            children, _ = sampler.sample_children(parents, HOP_NUMS[0], rng)
            for row, kids in enumerate(children):
                acc[row] += np.bincount(kids, minlength=graph.n_vertices)
        counts[backend] = acc.ravel()
    _, p = chi_square_homogeneity(counts["batched"], counts["reference"])
    return float(p)


def _backends_match_exactly(graph, name: str) -> bool:
    """uniform/topk/full: batched output must equal the reference bit-for-bit."""
    batch = _batches(graph, 1)[0]
    a = _samplers(graph, "batched")[name].sample(batch, HOP_NUMS, make_rng(SEED))
    b = _samplers(graph, "reference")[name].sample(batch, HOP_NUMS, make_rng(SEED))
    return all(np.array_equal(x, y) for x, y in zip(a.layers, b.layers)) and all(
        np.array_equal(x, y) for x, y in zip(a.pad_masks, b.pad_masks)
    )


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
    draws = 60 if smoke else 400
    report = ExperimentReport(
        "sampling_kernels",
        "Batched CSR sampling kernels vs scalar reference "
        f"({steps} batches of {BATCH_SIZE} seeds, fan-outs {HOP_NUMS}, "
        f"{graph.n_vertices} vertices)",
    )

    batches = _batches(graph, steps)
    rows = _context_rows(steps)
    speedups: "dict[str, float]" = {}
    for name, sampler in _samplers(graph, "reference").items():
        ref_s = _time_expansion(sampler, batches, repeats)
        bat_s = _time_expansion(_samplers(graph, "batched")[name], batches, repeats)
        speedups[name] = ref_s / bat_s if bat_s else 1.0
        report.add(
            f"2-hop expansion: {name}",
            {
                "reference_ms": round(ref_s * 1e3, 2),
                "batched_ms": round(bat_s * 1e3, 2),
                "batched_krows_per_s": round(rows / bat_s / 1e3, 1),
                "speedup": round(speedups[name], 2),
            },
        )

    static_ok, refresh_ok = _determinism(
        graph, lambda: _samplers(graph, "batched")["uniform"]
    )
    report.add(
        "same-seed determinism (batched)",
        {"identical": static_ok, "after_dynamic_refresh": refresh_ok},
    )

    pvalues = {
        name: _equivalence_pvalue(graph, name, draws)
        for name in ("weighted", "importance")
    }
    exact = {
        name: _backends_match_exactly(graph, name)
        for name in ("uniform", "topk", "full")
    }
    report.add(
        "backend equivalence",
        {
            **{f"chisq_p_{k}": round(v, 4) for k, v in pvalues.items()},
            **{f"{k}_exact": v for k, v in exact.items()},
        },
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
        "same-seed batch sequences (the weighted/importance reference draws "
        "by inverse CDF, one rng.choice per row); equivalence rows compare "
        "child draw frequencies on the 16 heaviest vertices"
    )
    report.meta = {
        "uniform_speedup": speedups["uniform"],
        "deterministic": static_ok,
        "refresh_deterministic": refresh_ok,
        "pvalues": pvalues,
        **{f"{k}_exact": v for k, v in exact.items()},
        "alias_max_prob_error": max_diff,
    }
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    meta = report.meta
    assert meta["deterministic"], "batched kernels are not same-seed deterministic"
    assert meta["refresh_deterministic"], (
        "batched kernels lost determinism after a dynamic CSR refresh"
    )
    for name, p in meta["pvalues"].items():
        assert p >= MIN_P_VALUE, f"{name} backend equivalence rejected (p={p:.2e})"
    assert meta["uniform_exact"] and meta["topk_exact"] and meta["full_exact"], (
        "uniform/topk/full diverged from the reference oracle"
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
