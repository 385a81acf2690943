"""ReplicaRegistry and HealthTracker units, plus the routing regressions.

Covers the registry as a view of the caches (``held_by`` and
``first_holders`` equal what the caches answer for after any churn), the
suspect/recover/probe state machine (``probe_mask`` against the scalar
decision), and three regressions the unified read path fixed:

* failover probes must not count as cache lookups (they used to inflate
  ``misses`` on every scanned server and corrupt ``cache_hit_rate()``);
* ``apply_edge_events`` must re-pin fresh adjacency on every server that
  held the vertex pinned (it used to drop the entry and never re-pin,
  silently shrinking the hot vertex's failover coverage);
* a read routed around its owner is never served from the owner's own
  cache (a retry-exhausted read used to fail over to it, and a suspect's
  reads used to route to it).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import powerlaw_graph
from repro.errors import RetryExhaustedError, RuntimeConfigError, StorageError
from repro.graph.dynamic import EdgeEvent
from repro.runtime import FaultPlan, RetryPolicy, RpcRuntime
from repro.runtime.health import HealthTracker
from repro.runtime.metrics import MetricsRegistry
from repro.storage.cache import ImportanceCachePolicy, NeighborCache
from repro.storage.cluster import make_store
from repro.storage.costmodel import (
    EV_FAILOVER_READ,
    EV_REMOTE_RPC,
    EV_REPLICA_REFRESH,
    EV_SUSPECT_ROUTE,
)
from repro.storage.replicas import ReplicaRegistry
from tests.conftest import pack_block, pin_row, replica_holders, shard_row, should_probe


# --------------------------------------------------------------------- #
# ReplicaRegistry: a view of the caches
# --------------------------------------------------------------------- #
def test_registry_validates_parts(small_powerlaw):
    with pytest.raises(StorageError):
        ReplicaRegistry([])
    reg = make_store(small_powerlaw, 2, seed=0).replicas
    for bad in (-1, 2):
        with pytest.raises(StorageError):
            reg.held_by(bad)
        with pytest.raises(StorageError):
            reg.audit({bad: set()})


_CHURN_GRAPH = powerlaw_graph(48, alpha=2.1, max_degree=12, seed=2)
_V = st.integers(0, 47)
_PART = st.integers(0, 2)
_CHURN_OPS = st.one_of(
    st.tuples(st.just("pin"), _PART, st.lists(_V, max_size=4, unique=True)),
    st.tuples(st.just("unpin_many"), _PART, st.lists(_V, max_size=8)),
    st.tuples(st.just("admit_many"), _PART, st.lists(_V, max_size=8, unique=True)),
    st.tuples(st.just("invalidate_many"), _PART, st.lists(_V, max_size=8)),
    st.tuples(
        st.just("set_cache_policy"),
        st.sampled_from(["importance", "random", "lru"]),
        st.integers(0, 10),
    ),
    st.tuples(st.just("commit_migration"), _PART, st.lists(_V, max_size=8, unique=True)),
)


def _public_holders(store, vertex):
    """Parts whose cache answers for ``vertex`` through its public surface."""
    return tuple(
        p
        for p, server in enumerate(store.servers)
        if vertex in server.neighbor_cache.pinned_vertices()
        or server.neighbor_cache.peek(vertex) is not None
    )


def _migrate_batch(store, vertices, part):
    """Move ``vertices`` to ``part`` as the placement protocol does, one batch
    per old owner: ingest on ``part``, release on the owner, then one commit
    of the lot (ids ``part`` owns already included)."""
    ids = np.array(vertices, dtype=np.int64)
    owners = store.assignment.vertex_to_part[ids].copy()
    for old in np.unique(owners[owners != part]).tolist():
        moved = ids[owners == old]
        store.servers[part].ingest(store.servers[old].local_rows(moved), {})
        store.servers[old].release(moved)
    assert store.commit_migration(ids, part).tolist() == owners.tolist()


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_CHURN_OPS, max_size=25), vertex_cut=st.booleans())
def test_holders_equal_cache_contents_under_churn(ops, vertex_cut):
    """Whatever moves the caches, the registry reads them: no upkeep to miss.
    On a vertex-cut store, whose per-edge map is stored, a batch commit moves
    exactly the out-edges of the vertices that changed owner."""
    from repro.storage.cache import LRUCachePolicy, RandomCachePolicy
    from repro.storage.partition import VertexCutPartitioner

    policies = {
        "importance": ImportanceCachePolicy,
        "random": RandomCachePolicy,
        "lru": LRUCachePolicy,
    }
    store = make_store(
        _CHURN_GRAPH, 3, partitioner=VertexCutPartitioner() if vertex_cut else None,
        cache_policy=LRUCachePolicy(), cache_budget_fraction=0.1, seed=0,
    )
    src, _, _ = _CHURN_GRAPH.edge_array()
    edge_map = store.assignment.edge_to_part.copy()
    for step, (op, a, b) in enumerate(ops):
        if op == "set_cache_policy":
            store.set_cache_policy(policies[a](), budget=b)
            continue
        cache = store.servers[a].neighbor_cache
        if op == "pin":
            try:
                cache.pin(pack_block(b, {v: np.array([step], dtype=np.int64) for v in b}))
            except StorageError:  # pin capacity exhausted
                pass
        elif op == "admit_many":
            cache.admit_many(
                pack_block(b, {v: np.array([v, step], dtype=np.int64) for v in b})
            )
        elif op == "commit_migration":
            owners = store.assignment.vertex_to_part[b]
            _migrate_batch(store, b, a)
            moved = np.array(b, dtype=np.int64)[owners != a]
            edge_map[np.isin(src, moved)] = a
            np.testing.assert_array_equal(store.assignment.edge_to_part, edge_map)
            if vertex_cut:  # a stored map: other edges keep their parts
                assert store.assignment._edge_to_part is not None
        else:
            getattr(cache, op)(b)
        truth = {v: _public_holders(store, v) for v in range(48)}
        reg = store.replicas
        ids = np.arange(48)
        owners = store.assignment.vertex_to_part[ids]
        for skip in (set(), {0}):
            first = [
                min((p for p in truth[v] if p != owners[v] and p not in skip), default=-1)
                for v in range(48)
            ]
            assert reg.first_holders(ids, owners, skip).tolist() == first
        for p in range(3):
            assert reg.held_by(p) == tuple(v for v in range(48) if p in truth[v])
        contents = {p: {v for v in range(48) if p in truth[v]} for p in range(3)}
        assert reg.audit(contents) == {"missing": [], "stale": []}


def test_store_installs_caches_into_registry(small_powerlaw):
    store = make_store(
        small_powerlaw,
        3,
        cache_policy=ImportanceCachePolicy(),
        cache_budget_fraction=0.05,
        seed=0,
    )
    pinned = set(store.servers[0].neighbor_cache.pinned_vertices())
    assert pinned
    for v in pinned:
        assert replica_holders(store.replicas, v) == (0, 1, 2)
    # Swapping one server's cache drops its old registrations.
    store.servers[1].neighbor_cache = NeighborCache(0)
    for v in pinned:
        assert replica_holders(store.replicas, v) == (0, 2)


# --------------------------------------------------------------------- #
# HealthTracker
# --------------------------------------------------------------------- #
def test_health_suspects_after_consecutive_failures():
    h = HealthTracker(2, suspect_after=3)
    h.record_failure(1)
    h.record_failure(1)
    assert 1 not in h.suspect_parts
    h.record_failure(1)
    assert 1 in h.suspect_parts
    assert h.suspect_parts == frozenset({1})
    assert h.metrics.counter("health.suspects").value == 1
    assert h.metrics.gauge("health.suspect_parts").value == 1


def test_health_success_resets_failure_streak():
    h = HealthTracker(1, suspect_after=3)
    h.record_failure(0)
    h.record_failure(0)
    h.record_success(0)  # interleaved success: streak back to zero
    h.record_failure(0)
    h.record_failure(0)
    assert 0 not in h.suspect_parts


def test_health_recovers_after_consecutive_successes():
    h = HealthTracker(1, suspect_after=2, recover_after=2)
    h.record_failure(0)
    h.record_failure(0)
    assert 0 in h.suspect_parts
    h.record_success(0)
    h.record_failure(0)  # breaks the ok streak while suspect
    h.record_success(0)
    assert 0 in h.suspect_parts
    h.record_success(0)
    assert 0 not in h.suspect_parts
    assert h.metrics.counter("health.recoveries").value == 1
    assert h.metrics.gauge("health.suspect_parts").value == 0


def test_health_probe_cadence():
    h = HealthTracker(1, probe_every=4)
    assert h.probe_mask(np.zeros(8, dtype=np.int64)).tolist() == [False, False, False, True] * 2
    assert h.metrics.counter("health.probes").value == 2
    h = HealthTracker(1, probe_every=4)  # one read per call: the count carries over
    decisions = [bool(h.probe_mask(np.zeros(1, dtype=np.int64))[0]) for _ in range(8)]
    assert decisions == [False, False, False, True] * 2
    assert h.metrics.counter("health.probes").value == 2


@settings(max_examples=120, deadline=None)
@given(
    n_parts=st.integers(1, 4),
    probe_every=st.integers(1, 9),
    data=st.data(),
)
def test_probe_mask_matches_the_scalar_decisions(n_parts, probe_every, data):
    """Batches of interleaved parts, on counters carried over from earlier
    reads: the mask, the counters and ``health.probes`` equal the scalar
    decision taken read after read."""
    part = st.integers(0, n_parts - 1)
    batches = data.draw(st.lists(st.lists(part, max_size=24), max_size=5))
    carried = data.draw(st.lists(st.integers(0, 20), min_size=n_parts, max_size=n_parts))
    bulk, oracle = (HealthTracker(n_parts, probe_every=probe_every) for _ in range(2))
    bulk._routed_around, oracle._routed_around = list(carried), list(carried)
    for batch in batches:
        mask = bulk.probe_mask(np.array(batch, dtype=np.int64))
        assert mask.tolist() == [should_probe(oracle, p) for p in batch]
        assert bulk._routed_around == oracle._routed_around
        assert bulk.metrics.summary_rows() == oracle.metrics.summary_rows()


def test_health_reset_and_validation():
    with pytest.raises(RuntimeConfigError):
        HealthTracker(0)
    with pytest.raises(RuntimeConfigError):
        HealthTracker(1, suspect_after=0)
    with pytest.raises(RuntimeConfigError):
        HealthTracker(1, recover_after=0)
    with pytest.raises(RuntimeConfigError):
        HealthTracker(1, probe_every=0)
    h = HealthTracker(2, suspect_after=1)
    with pytest.raises(RuntimeConfigError):
        h.record_failure(5)
    h.record_failure(0)
    assert 0 in h.suspect_parts


def test_runtime_feeds_health_tracker(small_powerlaw):
    """Delivery outcomes flow into the shared tracker automatically."""
    store = make_store(small_powerlaw, 2, seed=0)
    runtime = RpcRuntime(store)
    store.attach_runtime(runtime)
    v = next(u for u in range(1000) if store.owner(u) == 1)
    store.neighbors(v, from_part=0)
    assert 1 not in runtime.health.suspect_parts
    assert runtime.health.metrics is runtime.metrics


# --------------------------------------------------------------------- #
# Suspect routing through the store
# --------------------------------------------------------------------- #
def test_suspect_owner_routes_to_replica(small_powerlaw):
    store = make_store(small_powerlaw, 3, seed=0)
    runtime = RpcRuntime(store)
    store.attach_runtime(runtime)
    v = next(
        u for u in range(1000)
        if store.owner(u) == 2 and small_powerlaw.out_neighbors(u).size
    )
    cache = NeighborCache(2)
    pin_row(cache, v, small_powerlaw.out_neighbors(v))
    store.servers[1].neighbor_cache = cache
    for _ in range(3):
        runtime.health.record_failure(2)
    assert 2 in runtime.health.suspect_parts
    row = store.neighbors(v, from_part=0)
    np.testing.assert_array_equal(row, small_powerlaw.out_neighbors(v))
    assert store.ledger.count(EV_SUSPECT_ROUTE) == 1
    assert runtime.metrics.counter("health.suspect_routes").value == 1
    # The suspect server was never contacted: the read cost no RPC events.
    assert runtime.metrics.counter("rpc.requests").value == 0


def test_suspect_without_replica_goes_through(small_powerlaw):
    store = make_store(small_powerlaw, 3, seed=0)
    runtime = RpcRuntime(store)
    store.attach_runtime(runtime)
    v = next(u for u in range(1000) if store.owner(u) == 2)
    for _ in range(3):
        runtime.health.record_failure(2)
    row = store.neighbors(v, from_part=0)
    np.testing.assert_array_equal(row, small_powerlaw.out_neighbors(v))
    assert store.ledger.count(EV_SUSPECT_ROUTE) == 0
    assert runtime.metrics.counter("rpc.requests").value == 1


def test_suspect_recovers_through_probes(small_powerlaw):
    """Probed reads reach the suspect; fault-free deliveries heal it."""
    store = make_store(small_powerlaw, 2, seed=0)
    runtime = RpcRuntime(
        store, health=HealthTracker(2, recover_after=2, probe_every=1)
    )
    store.attach_runtime(runtime)
    vs = [
        u for u in range(1000)
        if store.owner(u) == 1 and small_powerlaw.out_neighbors(u).size
    ][:2]
    for _ in range(3):
        runtime.health.record_failure(1)
    assert 1 in runtime.health.suspect_parts
    for v in vs:  # probe_every=1: every read probes straight through
        store.neighbors(v, from_part=0)
    assert 1 not in runtime.health.suspect_parts


# --------------------------------------------------------------------- #
# Regression: failover must not count as cache lookups (satellite 3)
# --------------------------------------------------------------------- #
def test_failover_does_not_touch_cache_counters(small_powerlaw):
    store = make_store(small_powerlaw, 3, seed=0)
    v = next(
        u for u in range(1000)
        if store.owner(u) == 2 and small_powerlaw.out_neighbors(u).size
    )
    cache = NeighborCache(2)
    pin_row(cache, v, small_powerlaw.out_neighbors(v))
    store.servers[1].neighbor_cache = cache
    store.fail_worker(2)
    # The issuer's own (legitimate) lookup misses; the replica holder must
    # see no traffic on its counters at all.
    issuer_misses = store.servers[0].neighbor_cache.misses
    store.neighbors(v, from_part=0)
    assert store.ledger.count(EV_FAILOVER_READ) == 1
    assert store.servers[1].neighbor_cache.hits == 0
    assert store.servers[1].neighbor_cache.misses == 0
    assert store.servers[0].neighbor_cache.misses == issuer_misses + 1
    assert store.cache_hit_rate() == 0.0  # one honest issuer miss, no hits


def _owner_only_copy(graph, store):
    """A vertex of part 1 whose only cached copy sits in part 1's own cache."""
    v = next(u for u in range(1000) if store.owner(u) == 1 and graph.out_neighbors(u).size)
    cache = NeighborCache(2)
    pin_row(cache, v, graph.out_neighbors(v))
    store.servers[1].neighbor_cache = cache
    return v


def test_retry_exhausted_read_does_not_fail_over_to_the_owner(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    store.attach_runtime(
        RpcRuntime(
            store,
            faults=FaultPlan(drop_rate=1.0, seed=0),
            retry=RetryPolicy(max_attempts=1),
        )
    )
    v = _owner_only_copy(small_powerlaw, store)
    with pytest.raises(RetryExhaustedError, match=f"of vertex {v}: "):
        store.neighbors(v, from_part=0)
    assert store.ledger.count(EV_FAILOVER_READ) == 0


def test_suspect_owner_is_not_routed_around_to_its_own_cache(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    runtime = RpcRuntime(store)
    store.attach_runtime(runtime)
    v = _owner_only_copy(small_powerlaw, store)
    for _ in range(runtime.health.suspect_after):
        runtime.health.record_failure(1)
    assert 1 in runtime.health.suspect_parts
    row = store.neighbors(v, from_part=0)  # no replica: it probes through
    np.testing.assert_array_equal(row, small_powerlaw.out_neighbors(v))
    assert store.ledger.count(EV_SUSPECT_ROUTE) == 0
    assert store.ledger.count(EV_REMOTE_RPC) == 1


def test_replica_peek_skips_failed_holders(small_powerlaw):
    store = make_store(small_powerlaw, 3, seed=0)
    v = next(
        u for u in range(1000)
        if store.owner(u) == 2 and small_powerlaw.out_neighbors(u).size
    )
    cache = NeighborCache(2)
    pin_row(cache, v, small_powerlaw.out_neighbors(v))
    store.servers[1].neighbor_cache = cache
    store.fail_worker(2)
    store.fail_worker(1)  # the only replica holder is down too
    with pytest.raises(StorageError):
        store.neighbors(v, from_part=0)


# --------------------------------------------------------------------- #
# Regression: updates re-pin fresh adjacency on all holders (satellite 4)
# --------------------------------------------------------------------- #
def _importance_store(graph):
    return make_store(
        graph,
        3,
        cache_policy=ImportanceCachePolicy(),
        cache_budget_fraction=0.05,
        seed=0,
    )


def test_update_repins_fresh_adjacency_everywhere(small_powerlaw):
    store = _importance_store(small_powerlaw)
    v = store.servers[0].neighbor_cache.pinned_vertices()[0]
    assert replica_holders(store.replicas, v) == (0, 1, 2)
    owner = store.owner(v)
    fresh_dst = next(
        u for u in range(1000) if u not in small_powerlaw.out_neighbors(v)
    )
    applied = store.apply_edge_events([EdgeEvent(timestamp=0, src=v, dst=fresh_dst)])
    assert applied == 1
    expected = shard_row(store.servers[owner], v)
    assert fresh_dst in expected
    for server in store.servers:
        assert server.neighbor_cache.is_pinned(v)
        np.testing.assert_array_equal(server.neighbor_cache.peek(v), expected)
    # The replica set survived the update wholesale.
    assert replica_holders(store.replicas, v) == (0, 1, 2)
    # Refresh pushes are charged for every non-owner holder.
    assert store.ledger.count(EV_REPLICA_REFRESH) == 2


def test_update_keeps_failover_coverage(small_powerlaw):
    store = _importance_store(small_powerlaw)
    v = store.servers[0].neighbor_cache.pinned_vertices()[0]
    owner = store.owner(v)
    fresh_dst = next(
        u for u in range(1000) if u not in small_powerlaw.out_neighbors(v)
    )
    store.apply_edge_events([EdgeEvent(timestamp=0, src=v, dst=fresh_dst)])
    expected = shard_row(store.servers[owner], v)
    store.fail_worker(owner)
    issuer = next(p for p in range(3) if p != owner)
    got = store.neighbors(v, from_part=issuer)
    np.testing.assert_array_equal(got, expected)
    assert fresh_dst in got


def test_update_does_not_repin_lru_copies(small_powerlaw):
    """Demand-filled copies just drop; they re-fill on the next access."""
    from repro.storage.cache import LRUCachePolicy

    store = make_store(
        small_powerlaw,
        2,
        cache_policy=LRUCachePolicy(),
        cache_budget_fraction=0.05,
        seed=0,
    )
    v = next(
        u for u in range(1000)
        if store.owner(u) == 1 and small_powerlaw.out_neighbors(u).size
    )
    store.neighbors(v, from_part=0)  # demand-fills the issuer's LRU
    assert replica_holders(store.replicas, v) == (0,)
    store.apply_edge_events([EdgeEvent(timestamp=0, src=v, dst=int(v))])
    assert replica_holders(store.replicas, v) == ()
    assert not store.servers[0].neighbor_cache.is_pinned(v)
    assert store.ledger.count(EV_REPLICA_REFRESH) == 0


def test_metrics_registry_shared_between_runtime_and_health():
    metrics = MetricsRegistry()
    h = HealthTracker(1, suspect_after=1, metrics=metrics)
    h.record_failure(0)
    assert metrics.counter("health.suspects").value == 1
