"""Table 5 — AGGREGATE/COMBINE time with vs without materialization caching.

Paper: storing the newest intermediate ĥ^(k) vectors and sharing sampled
neighborhoods within (and across) mini-batches speeds the operators up by
12.9x on Taobao-small and 13.7x on Taobao-large. We measure the identical
operator pipeline through the uncached (full-multiplicity recomputation)
and cached execution paths of the MinibatchExecutor at steady state.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.bench import Experiment, ExperimentReport
from repro.bench.timing import assert_faster, time_arms
from repro.data import make_dataset
from repro.ops import (
    ConcatCombiner,
    MaterializationCache,
    MinibatchExecutor,
    make_aggregator,
)
from repro.sampling import GraphProvider, UniformNeighborSampler
from repro.utils.rng import make_rng

PAPER = {
    "taobao-small-sim": {"uncached_ms": 7.33, "cached_ms": 0.57, "speedup": 12.9},
    "taobao-large-sim": {"uncached_ms": 17.21, "cached_ms": 1.26, "speedup": 13.7},
}
BATCH = 512
FANOUTS = [10, 10]
DIM = 32
WARMUP_BATCHES = 12
MEASURE_BATCHES = 4
ROUNDS = 12


def _executor(graph, rng) -> MinibatchExecutor:
    feats = getattr(graph, "vertex_features", None)
    features = (
        np.asarray(feats, dtype=np.float64)
        if feats is not None
        else rng.normal(size=(graph.n_vertices, 16))
    )
    f = features.shape[1]
    aggs = [
        make_aggregator("mean", f, DIM, rng),
        make_aggregator("mean", DIM, DIM, rng),
    ]
    combs = [
        ConcatCombiner(f, DIM, DIM, rng),
        ConcatCombiner(DIM, DIM, DIM, rng),
    ]
    sampler = UniformNeighborSampler(GraphProvider(graph))
    return MinibatchExecutor(features, sampler, aggs, combs, FANOUTS)


def _run(smoke: bool) -> ExperimentReport:
    report = ExperimentReport(
        "t5", "Operator time per mini-batch: uncached vs materialization cache"
    )
    timings = {}
    for name, scale in (("taobao-small-sim", 0.6), ("taobao-large-sim", 0.35)):
        graph = make_dataset(name, scale=scale, seed=0)
        rng = make_rng(0)
        ex = _executor(graph, rng)
        srng = make_rng(5)
        batches = [srng.integers(0, graph.n_vertices, BATCH) for _ in range(MEASURE_BATCHES)]

        # The seeded hit rate is read after one pass of each arm (the cached
        # one behind its warm-up); the timed rounds then cycle the batches.
        for batch in batches:
            ex.embed_batch_uncached(batch, srng)
        cache = MaterializationCache(2, graph.n_vertices)
        for _ in range(WARMUP_BATCHES):
            ex.embed_batch_cached(srng.integers(0, graph.n_vertices, BATCH), srng, cache)
        for batch in batches:
            ex.embed_batch_cached(batch, srng, cache)
        hit_rate = cache.hit_rate
        uncached, cached = itertools.cycle(batches), itertools.cycle(batches)
        timings[name] = t = time_arms(
            {
                "uncached": lambda: ex.embed_batch_uncached(next(uncached), srng),
                "cached": lambda: ex.embed_batch_cached(next(cached), srng, cache),
            },
            ROUNDS,
        )
        report.add(
            name,
            {
                **t["uncached"].columns("uncached_ms"),
                **t["cached"].columns("cached_ms"),
                "speedup": round(t["uncached"].median / t["cached"].median, 1),
                "hit_rate": round(hit_rate, 3),
            },
            paper=PAPER[name],
        )
    report.note(
        f"batch={BATCH}, fanouts={FANOUTS}, d={DIM}; cached path measured at "
        f"steady state after {WARMUP_BATCHES} warm-up batches; *_ms median and "
        f"IQR of {ROUNDS} interleaved single-batch rounds"
    )
    report.meta = {"timings": timings}
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    for rec in report.records:
        assert rec.measured["hit_rate"] > 0.4, rec.label
    for arms in report.meta["timings"].values():
        # Order-of-magnitude contract: the cache wins by a large factor.
        assert_faster(arms["uncached"], arms["cached"], 4.0)


EXPERIMENTS = (
    Experiment(
        "t5",
        _run,
        _check,
        # Seeded sampling decides the hit rate; the *_ms columns and their
        # ratio are wall-clock and ungated.
        (r":hit_rate$",),
    ),
)
