"""Table 4 — latency of the three sampler families.

Paper (batch 512, cache rate ~20%):

    dataset       workers  TRAVERSE  NEIGHBORHOOD  NEGATIVE
    Taobao-small  25       2.59 ms   45.31 ms      6.22 ms
    Taobao-large  100      2.62 ms   52.53 ms      7.52 ms

The contracts to reproduce: NEIGHBORHOOD is an order of magnitude costlier
than TRAVERSE/NEGATIVE (it touches the distributed adjacency), everything
finishes in tens of milliseconds, and the 6x-larger graph moves the numbers
only slightly. Both measured wall-clock (of our Python samplers, median and
IQR over interleaved rounds) and modelled distributed cost are reported; the
scaling claim is asserted (and gated) on the modelled column, the wall-clock
ones only as orderings.
"""

from __future__ import annotations

from repro.bench import Experiment, ExperimentReport
from repro.bench.timing import assert_faster, time_arms
from repro.data import make_dataset
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    StoreProvider,
    UniformNeighborSampler,
    VertexTraverseSampler,
)
from repro.storage import ImportanceCachePolicy
from repro.storage.cluster import make_store
from repro.utils.rng import make_rng

BATCH = 512
ROUNDS = 7
PAPER_MS = {
    "taobao-small-sim": {"traverse": 2.59, "neighborhood": 45.31, "negative": 6.22},
    "taobao-large-sim": {"traverse": 2.62, "neighborhood": 52.53, "negative": 7.52},
}


def _run(smoke: bool) -> ExperimentReport:
    report = ExperimentReport("t4", "Sampling latency per 512-vertex batch (ms)")
    timings = {}
    for name, workers, scale in (
        ("taobao-small-sim", 25, 1.0),
        ("taobao-large-sim", 100, 1.0),
    ):
        graph = make_dataset(name, scale=scale, seed=0)
        store = make_store(graph, workers, seed=0)
        store.set_cache_policy(
            ImportanceCachePolicy(), budget=int(0.2 * graph.n_vertices)
        )
        rng = make_rng(3)
        traverse = VertexTraverseSampler(graph)
        neighborhood = UniformNeighborSampler(StoreProvider(store, from_part=0))
        negative = DegreeBiasedNegativeSampler(graph)
        batch = traverse.sample(BATCH, rng)
        for _ in range(3):  # the draws the gated neighborhood sample follows
            traverse.sample(BATCH, rng)
        # The seeded columns come from the first expansion alone: the timed
        # rounds below read the store again and move the hit rate.
        store.reset_ledger()
        neighborhood.sample(batch, [2, 2], rng)
        modelled_neigh = store.ledger.modelled_millis()
        cache_rate = 100.0 * store.cache_hit_rate()
        timings[name] = time_arms(
            {
                "traverse": lambda: traverse.sample(BATCH, rng),
                "neighborhood": lambda: neighborhood.sample(batch, [2, 2], rng),
                "negative": lambda: negative.sample(batch, 5, rng),
            },
            ROUNDS,
        )
        report.add(
            name,
            {
                **timings[name]["traverse"].columns("traverse_ms"),
                **timings[name]["neighborhood"].columns("neighborhood_ms"),
                **timings[name]["negative"].columns("negative_ms"),
                "neigh_modelled_ms": round(modelled_neigh, 2),
                "cache_hit_pct": round(cache_rate, 1),
            },
            paper={
                "traverse_ms": PAPER_MS[name]["traverse"],
                "neighborhood_ms": PAPER_MS[name]["neighborhood"],
                "negative_ms": PAPER_MS[name]["negative"],
            },
        )
    report.note(
        f"batch=512, hop_nums=[2,2], neg_num=5, importance cache ~20%; *_ms "
        f"median and IQR of {ROUNDS} interleaved rounds"
    )
    report.meta = {"timings": timings}
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    for arms in report.meta["timings"].values():
        # NEIGHBORHOOD dominates the other two samplers.
        assert_faster(arms["neighborhood"], arms["traverse"], 1.0)
        assert_faster(arms["neighborhood"], arms["negative"], 1.0)
    small, large = report.records
    # Sampling cost grows slowly with the 6x graph (paper: ~1.15x).
    assert large.measured["neigh_modelled_ms"] < small.measured["neigh_modelled_ms"] * 3


EXPERIMENTS = (
    Experiment(
        "t4",
        _run,
        _check,
        # Ledger prices x seeded access counts: exact. The *_ms wall-clock
        # columns are ungated.
        (r":(neigh_modelled_ms|cache_hit_pct)$",),
    ),
)
