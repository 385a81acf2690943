"""Distributed store: routing accounting, caches, build pipeline."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.graph.dynamic import EdgeEvent
from repro.sampling import StoreProvider, UniformNeighborSampler
from repro.storage import (
    CostModel,
    ImportanceCachePolicy,
    LRUCachePolicy,
    RandomCachePolicy,
)
from repro.storage.cluster import build_distributed, make_store
from repro.storage.costmodel import (
    EV_CACHE_HIT,
    EV_COORDINATION,
    EV_EDGE_INGESTED,
    EV_LOCAL_READ,
    EV_REMOTE_RPC,
)
from repro.utils.rng import make_rng


def test_local_read_accounted(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    v = 0
    owner = store.owner(v)
    store.neighbors(v, from_part=owner)
    assert store.ledger.count(EV_LOCAL_READ) == 1
    assert store.ledger.count(EV_REMOTE_RPC) == 0


def test_remote_read_accounted(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    v = 0
    other = (store.owner(v) + 1) % 4
    result = store.neighbors(v, from_part=other)
    assert store.ledger.count(EV_REMOTE_RPC) == 1
    np.testing.assert_array_equal(
        np.sort(result), np.sort(small_powerlaw.out_neighbors(v))
    )


def test_neighbors_correct_regardless_of_route(small_powerlaw):
    store = make_store(
        small_powerlaw, 4,
        cache_policy=ImportanceCachePolicy(), cache_budget_fraction=0.2, seed=0,
    )
    rng = make_rng(1)
    for v in rng.integers(0, small_powerlaw.n_vertices, 50):
        got = store.neighbors(int(v), from_part=int(rng.integers(4)))
        np.testing.assert_array_equal(
            np.sort(got), np.sort(small_powerlaw.out_neighbors(int(v)))
        )


def test_importance_cache_hits(small_powerlaw):
    store = make_store(
        small_powerlaw, 4,
        cache_policy=ImportanceCachePolicy(), cache_budget_fraction=0.3, seed=0,
    )
    # Access high-importance vertices remotely: should mostly hit the cache.
    from repro.storage.importance import importance_scores

    scores = importance_scores(small_powerlaw, 2)
    hot = np.argsort(scores)[::-1][:50]
    for v in hot:
        owner = store.owner(int(v))
        store.neighbors(int(v), from_part=(owner + 1) % 4)
    assert store.ledger.count(EV_CACHE_HIT) > 25


def test_lru_cache_demand_fills(small_powerlaw):
    store = make_store(
        small_powerlaw, 4,
        cache_policy=LRUCachePolicy(), cache_budget_fraction=0.5, seed=0,
    )
    v = 0
    other = (store.owner(v) + 1) % 4
    store.neighbors(v, from_part=other)  # miss + fill
    store.neighbors(v, from_part=other)  # hit
    assert store.ledger.count(EV_CACHE_HIT) == 1
    assert store.ledger.count(EV_REMOTE_RPC) == 1


def test_random_policy_selects_budget(small_powerlaw):
    rng = make_rng(0)
    ids = RandomCachePolicy().select(small_powerlaw, 100, rng)
    assert ids.size == 100
    assert np.unique(ids).size == 100


def test_set_cache_policy_resets(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    store.set_cache_policy(RandomCachePolicy(), budget=50)
    assert any(len(s.neighbor_cache) > 0 for s in store.servers)


def test_unknown_worker_or_vertex(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    with pytest.raises(StorageError):
        store.neighbors(0, from_part=9)
    with pytest.raises(StorageError):
        store.owner(10**9)


def test_modelled_cost_ordering(small_powerlaw):
    """Remote-heavy workloads must model as slower than local-heavy ones."""
    store = make_store(small_powerlaw, 4, seed=0)
    rng = make_rng(2)
    vs = rng.integers(0, small_powerlaw.n_vertices, 100)
    for v in vs:
        store.neighbors(int(v), from_part=store.owner(int(v)))
    local_cost = store.ledger.modelled_millis()
    store.reset_ledger()
    for v in vs:
        store.neighbors(int(v), from_part=(store.owner(int(v)) + 1) % 4)
    remote_cost = store.ledger.modelled_millis()
    assert remote_cost > local_cost * 10


def test_vertex_attr_routing(small_taobao):
    store = make_store(small_taobao, 2, seed=0)
    feats = small_taobao.vertex_features
    for v in range(small_taobao.n_vertices):
        store.servers[store.owner(v)].ingest_vertex_attr(v, feats[v])
    got = store.vertex_attr(3, from_part=store.owner(3))
    np.testing.assert_allclose(got, feats[3])


def test_server_shard_isolation(small_powerlaw):
    store = make_store(small_powerlaw, 3, seed=0)
    v = 0
    owner = store.owner(v)
    foreign = store.servers[(owner + 1) % 3]
    with pytest.raises(StorageError):
        foreign.local_neighbors(v)


def test_build_distributed_report(small_powerlaw):
    store, report = build_distributed(small_powerlaw, 4)
    assert report.n_workers == 4
    assert report.n_edges == small_powerlaw.n_edges
    assert store.n_workers == 4
    # Modelled total: slowest worker's edges at the ingest price plus the
    # coordination rounds — the prices the build ledger charges, no clock.
    prices = CostModel()
    assert report.per_worker_edges == tuple(store.assignment.edge_counts().tolist())
    assert sum(report.per_worker_edges) == small_powerlaw.n_edges
    assert report.total_seconds == (
        max(report.per_worker_edges) * prices.edge_ingest_us / 1e6
        + 3 * prices.coordination_us / 1e6
    )
    # Wall-clock diagnostics: what building each real shard took here.
    assert len(report.per_worker_seconds) == 4
    assert all(t > 0 for t in report.per_worker_seconds)
    assert report.critical_path_seconds == max(report.per_worker_seconds)


def test_build_ledger_matches_the_row_at_a_time_build(small_powerlaw):
    """Build-ledger events, order and modelled µs for this fixture (seed 7),
    captured from the builder-per-worker build the columnar one replaced."""
    ledgers, events = [], []

    class Tap(CostModel):
        def accumulator(self):
            ledger = super().accumulator()
            ledger.trace_hook = lambda event, times: events.append((event, times))
            ledgers.append(ledger)
            return ledger

    build_distributed(small_powerlaw, 4, cost_model=Tap())
    assert events == [(EV_EDGE_INGESTED, n) for n in (742, 688, 584, 615)] + [
        (EV_COORDINATION, 3)
    ]
    assert [dict(ledger.counts) for ledger in ledgers] == [
        {EV_EDGE_INGESTED: 2629, EV_COORDINATION: 3},
        {},
    ]
    assert sum(ledger.modelled_micros() for ledger in ledgers) == 153154.8


def test_apply_edge_events_rejects_unknown_dst(small_powerlaw):
    """An out-of-range dst used to land in the shard row and fail far away
    (``unknown vertex -3`` from a later sampler read)."""
    store = make_store(small_powerlaw, 4, seed=0)
    n = small_powerlaw.n_vertices
    for bad in (EdgeEvent(0, 1, n + 5, "add"), EdgeEvent(0, 1, -3, "remove")):
        with pytest.raises(StorageError) as exc:
            store.apply_edge_events([EdgeEvent(0, 0, 7, "add"), bad])
        assert str(bad) in str(exc.value)
    # The valid event ahead of each bad one applied; the bad ones touched nothing.
    assert store.ledger.count(EV_EDGE_INGESTED) == 2
    np.testing.assert_array_equal(
        store.servers[store.owner(1)].local_neighbors(1), small_powerlaw.out_neighbors(1)
    )
    np.testing.assert_array_equal(
        store.servers[store.owner(0)].local_neighbors(0),
        np.append(small_powerlaw.out_neighbors(0), [7, 7]),
    )
    sampler = UniformNeighborSampler(StoreProvider(store, 0))
    sampler.sample(np.array([0, 1]), [3], make_rng(0))


def test_build_work_decreases_with_workers(small_powerlaw):
    """The Figure 7 trend: more workers -> less work on the critical path.

    Asserted on the deterministic per-worker edge counts (wall-clock at this
    scale is sub-millisecond and noisy); the benches measure real time at a
    scale where it is stable.
    """
    zero_coord = CostModel(coordination_us=0.0)
    store2, _ = build_distributed(small_powerlaw, 2, cost_model=zero_coord)
    store8, _ = build_distributed(small_powerlaw, 8, cost_model=zero_coord)
    max2 = store2.assignment.edge_counts().max()
    max8 = store8.assignment.edge_counts().max()
    assert max8 < max2


def test_cache_hit_rate_property(small_powerlaw):
    store = make_store(
        small_powerlaw, 4,
        cache_policy=ImportanceCachePolicy(), cache_budget_fraction=0.2, seed=0,
    )
    assert store.cache_hit_rate() == 0.0
    for v in range(40):
        store.neighbors(v, from_part=(store.owner(v) + 1) % 4)
    assert 0.0 <= store.cache_hit_rate() <= 1.0
