"""Distributed store: routing accounting, caches, build pipeline."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.timing import python_calls
from repro.data import make_dataset, powerlaw_graph
from repro.errors import ReadUnavailableError, RetryExhaustedError, StorageError
from repro.graph.dynamic import EdgeEvent
from repro.obs import AccessRecorder
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    HealthTracker,
    MetricsRegistry,
    RetryPolicy,
    RpcRuntime,
    Tracer,
)
from repro.runtime.rpc import KIND_ATTRS, KIND_NEIGHBORS
from repro.sampling import StoreProvider, UniformNeighborSampler
from repro.storage import (
    CostModel,
    ImportanceCachePolicy,
    LRUCachePolicy,
    RandomCachePolicy,
)
from repro.storage.cluster import (
    DistributedGraphStore,
    build_distributed,
    make_store,
)
from repro.storage.costmodel import (
    EV_ATTR_CACHE_HIT,
    EV_ATTR_DECODE,
    EV_CACHE_FILL,
    EV_CACHE_HIT,
    EV_COORDINATION,
    EV_DEGRADED_READ,
    EV_EDGE_INGESTED,
    EV_FAILOVER_READ,
    EV_ITEM_SHIPPED,
    EV_LOCAL_READ,
    EV_REMOTE_RPC,
    EV_REPLICA_REFRESH,
    EV_SUSPECT_ROUTE,
)
from repro.storage.partition.hashcut import EdgeCutPartitioner
from repro.utils.rng import make_rng
from repro.storage.server import RowBlock
from tests.conftest import (
    block_rows,
    cache_admit,
    cache_get,
    pack_block,
    replica_holders,
    should_probe,
)


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
    (``unknown vertex -3`` from a later sampler read); a float dst was
    truncated into the int64 row, and a float or bool src escaped as a bare
    ``IndexError`` / ``TypeError`` (``True`` would alias vertex 1)."""
    store = make_store(small_powerlaw, 4, seed=0)
    n = small_powerlaw.n_vertices
    bads = (
        EdgeEvent(0, 1, n + 5, "add"),
        EdgeEvent(0, 1, -3, "remove"),
        EdgeEvent(0, 1, 2.5, "add"),
        EdgeEvent(0, 1, np.float64(2.0), "add"),
        EdgeEvent(0, 3.5, 1, "add"),
        EdgeEvent(0, True, 1, "add"),
    )
    for bad in bads:
        with pytest.raises(StorageError) as exc:
            store.apply_edge_events([EdgeEvent(0, 0, 7, "add"), bad, EdgeEvent(0, 0, 8)])
        assert str(bad) in str(exc.value)
    # The valid event ahead of each bad one applied; the bad ones and every
    # event after them touched nothing.
    assert store.ledger.count(EV_EDGE_INGESTED) == len(bads)
    np.testing.assert_array_equal(
        store.servers[store.owner(1)].local_neighbors(1), small_powerlaw.out_neighbors(1)
    )
    np.testing.assert_array_equal(
        store.servers[store.owner(0)].local_neighbors(0),
        np.append(small_powerlaw.out_neighbors(0), [7] * len(bads)),
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


# --------------------------------------------------------------------- #
# The bulk-arm read path against the per-vertex dispatch it replaced
# --------------------------------------------------------------------- #
def per_event_apply(store, events):
    """The per-event write loop the store used to run.

    Kept here as the oracle for ``apply_edge_events``: each event is
    validated, charged and applied to its row on its own, then every holder
    of the source is visited — its copy invalidated, a pinned one re-pinned
    with the fresh row and, off the owner, charged one refresh push.
    """
    applied = 0
    n_vertices = store.graph.n_vertices
    for ev in events:
        for x in (ev.src, ev.dst):
            integer = isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            if not (integer and 0 <= x < n_vertices):
                raise StorageError(
                    f"unknown vertex {x!r}: not an integer in [0, {n_vertices}) in {ev}"
                )
        src = int(ev.src)
        owner = store.owner(src)
        if owner in store.failed_workers:
            raise StorageError(f"cannot apply update: owner worker {owner} is down")
        server = store.servers[owner]
        store.ledger.record(EV_EDGE_INGESTED)
        if not server.edit_rows({src: [(ev.kind, int(ev.dst))]}).get(src, []):
            continue  # a remove that matched no arc: every copy is still exact
        applied += 1
        for p in replica_holders(store.replicas, src):
            cache = store.servers[p].neighbor_cache
            pinned = cache.is_pinned(src)
            cache.invalidate(src)
            if pinned:
                fresh = server.local_neighbors(src)
                cache.pin(src, fresh)
                if p != owner:
                    store.ledger.record(EV_REPLICA_REFRESH)
                    store.ledger.record(EV_ITEM_SHIPPED, times=int(fresh.size))
    return applied


def replica_peek(store, vertex, from_part):
    """A healthy replica's copy of ``vertex``'s row, or None: the servers
    other than the issuer, the fail-stopped ones and the vertex's owner,
    asked in part order with ``peek`` (no accounting, no recency)."""
    skip = {from_part, store.owner(vertex), *store.failed_workers}
    for p, server in enumerate(store.servers):
        if p not in skip:
            row = server.neighbor_cache.peek(vertex)
            if row is not None:
                return row
    return None


def failover_read(store, vertex, from_part, kind):
    """One read whose owner is unreachable: a replica's row, else an empty
    row under ``degraded_reads`` (neighbors only), else
    :class:`ReadUnavailableError`."""
    runtime = store.runtime
    rec = runtime.recorder
    owner = store.owner(vertex)
    if kind == KIND_NEIGHBORS:
        row = replica_peek(store, vertex, from_part)
        if row is not None:
            store.ledger.record(EV_FAILOVER_READ)
            if rec is not None:
                rec.record(vertex, owner, from_part, "failover")
            return row
        if store.degraded_reads:
            store.ledger.record(EV_DEGRADED_READ)
            runtime.metrics.counter("reads.degraded").inc()
            if rec is not None:
                rec.record(vertex, owner, from_part, "degraded")
            return np.zeros(0, dtype=np.int64)
    raise ReadUnavailableError(vertex, owner, kind)


def per_vertex_dispatch(store, kind, vertices, from_part, runtime, read_span):
    """The ordered per-vertex dispatch loop the store used to run.

    Kept here as the oracle for ``_resolve_read_traced``: one vertex at a
    time through the scalar ``get`` / ``admit`` / ``local_neighbors`` /
    ``ledger.record`` calls, the scalar replica lookup and probe decision,
    in batch order.
    """
    health = runtime.health
    nb_cache = store.servers[from_part].neighbor_cache
    rec = runtime.recorder
    arr = np.asarray(vertices, dtype=np.int64).reshape(-1)
    if arr.size:
        uniq, first_idx = np.unique(arr, return_index=True)
        uniq = uniq[np.argsort(first_idx, kind="stable")]
    else:
        uniq = arr
    oob = (uniq < 0) | (uniq >= store.graph.n_vertices)
    if oob.any():
        raise StorageError(f"unknown vertex {int(uniq[oob][0])}")
    owners = store.assignment.vertex_to_part[uniq]

    results = {}
    remote_v, remote_owner = [], []
    for v, owner in zip(uniq.tolist(), owners.tolist()):
        server = store.servers[owner]
        if owner == from_part:
            if rec is not None:
                rec.record(v, owner, from_part, "local")
            if kind == KIND_NEIGHBORS:
                store.ledger.record(EV_LOCAL_READ)
                results[v] = server.local_neighbors(v)
            else:
                if not server.attrs.has_vertex_attr(v):
                    raise StorageError(f"vertex {v} has no attributes stored")
                was_cached = v in server.attrs.iv_cache
                results[v] = server.local_vertex_attr(v)
                store.ledger.record(
                    EV_ATTR_CACHE_HIT if was_cached else EV_ATTR_DECODE
                )
            continue
        if kind == KIND_NEIGHBORS:
            cached = cache_get(nb_cache, v)
            if cached is not None:
                store.ledger.record(EV_CACHE_HIT)
                if rec is not None:
                    rec.record(v, owner, from_part, "cache_hit")
                results[v] = cached
                continue
        if owner in store._failed:
            results[v] = failover_read(store, v, from_part, kind)
            continue
        if kind == KIND_ATTRS and not server.attrs.has_vertex_attr(v):
            raise StorageError(f"vertex {v} has no attributes stored")
        if (
            kind == KIND_NEIGHBORS
            and owner in health.suspect_parts
            and not should_probe(health, owner)
        ):
            row = replica_peek(store, v, from_part)
            if row is not None:
                store.ledger.record(EV_SUSPECT_ROUTE)
                runtime.metrics.counter("health.suspect_routes").inc()
                if rec is not None:
                    rec.record(v, owner, from_part, "suspect")
                results[v] = row
                continue
        remote_v.append(v)
        remote_owner.append(owner)

    read_span.annotate(
        vertices=int(uniq.size), resolved_local=len(results), remote=len(remote_v)
    )
    if remote_v:
        _per_vertex_remote(store, kind, from_part, runtime, remote_v, remote_owner, results)
    return pack_block(uniq, results) if kind == KIND_NEIGHBORS else results


def _per_vertex_remote(store, kind, from_part, runtime, remote_v, remote_owner, results):
    """The remote arm of :func:`per_vertex_dispatch`, one row at a time."""
    issuer = store.servers[from_part]
    demand_fill = (
        kind == KIND_NEIGHBORS
        and store.cache_policy is not None
        and store.cache_policy.demand_filled
    )
    rec = runtime.recorder
    with runtime.tracer.span("batch.plan", kind=kind) as plan_span:
        requests = runtime.plan(kind, from_part, remote_v, remote_owner)
        plan_span.annotate(reads=len(remote_v), batches=len(requests))
    for req, resp in zip(requests, runtime.execute(requests)):
        if resp.ok:
            store.ledger.record(EV_REMOTE_RPC)
            if rec is not None:
                for v in req.vertices.tolist():
                    rec.record(v, req.dst_part, from_part, "remote")
            if kind == KIND_NEIGHBORS:
                rows = block_rows(resp.payload)
                assert list(rows) == req.vertices.tolist()
                shipped = sum(int(row.size) for row in rows.values())
                store.ledger.record(EV_ITEM_SHIPPED, times=shipped)
                for v, row in rows.items():
                    results[v] = row
                    if demand_fill:
                        cache_admit(issuer.neighbor_cache, v, row)
                        store.ledger.record(EV_CACHE_FILL)
            else:
                for v, row in resp.payload.items():
                    results[v] = row
                    store.ledger.record(
                        EV_ATTR_CACHE_HIT if resp.meta.get(v) else EV_ATTR_DECODE
                    )
        else:
            for v in req.vertices.tolist():
                try:
                    results[v] = failover_read(store, v, from_part, kind)
                except ReadUnavailableError as exc:
                    raise RetryExhaustedError(
                        f"{kind} of vertex {v}: {resp.error}, "
                        "and no healthy replica holds it",
                        resp.attempts,
                    ) from exc


N_PARTS = 4
POLICIES = {
    "none": None,
    "importance": ImportanceCachePolicy,
    "random": RandomCachePolicy,
    "lru": LRUCachePolicy,
}
#: scenario -> (fault plan kwargs, retry attempts, degraded_reads)
SCENARIOS = {
    "fault_free": ({}, 8, False),
    "drops_5": ({"drop_rate": 0.05}, 8, False),
    "drops_25": ({"drop_rate": 0.25, "timeout_rate": 0.05}, 8, False),
    "retry_exhausted": ({"drop_rate": 0.4}, 2, False),
    "fail_stop": ({"drop_rate": 0.05}, 8, False),
    "degraded": ({"drop_rate": 0.05}, 8, True),
    "suspect": ({"drop_rate": 0.05}, 8, False),
    "fail_stop_suspect": ({"drop_rate": 0.05}, 8, False),
}
#: The scenarios that take a worker offline, and those that make one suspect.
FAIL_STOP = ("fail_stop", "degraded", "fail_stop_suspect")
SUSPECT = ("suspect", "fail_stop_suspect")


def _parity_store(graph, feats, policy, scenario, per_vertex):
    faults, attempts, degraded = SCENARIOS[scenario]
    policy_cls = POLICIES[policy]
    store = DistributedGraphStore(
        graph,
        EdgeCutPartitioner().partition(graph, N_PARTS),
        cache_policy=policy_cls() if policy_cls else None,
        cache_budget_fraction=0.1 if policy_cls else 0.0,
        attr_cache_capacity=48,  # small enough for the IV-LRU front to evict
        seed=11,
        degraded_reads=degraded,
    )
    for v in range(graph.n_vertices):
        store.servers[store.owner(v)].ingest_vertex_attr(v, feats[v])
    metrics = MetricsRegistry()
    runtime = RpcRuntime(
        store,
        faults=FaultPlan(seed=5, **faults),
        retry=RetryPolicy(max_attempts=attempts),
        metrics=metrics,
        health=HealthTracker(
            N_PARTS, suspect_after=2, recover_after=2, probe_every=3, metrics=metrics
        ),
    )
    runtime.recorder = AccessRecorder(graph.n_vertices, N_PARTS)
    store.attach_runtime(runtime)
    if per_vertex:
        store._resolve_read_traced = functools.partial(per_vertex_dispatch, store)
        store.apply_edge_events = functools.partial(per_event_apply, store)
    return store


def _nonzero_ledger(store):
    # The per-event loop can record ``item_shipped`` zero times (a refresh
    # of a row emptied by removes), which leaves a zero key behind.
    return {event: n for event, n in store.ledger.counts.items() if n}


def _shard_state(store):
    """Every shard's rows and edge count, as comparable bytes, read through
    the public shard calls."""
    out = []
    for server in store.servers:
        owned = [v for v in range(store.graph.n_vertices) if server.owns(v)]
        block = server.local_rows(owned)
        out.append(
            (
                server.n_local_edges,
                tuple(owned),
                block.offsets.tobytes(),
                block.indices.tobytes(),
            )
        )
    return out


def _observable_state(store):
    runtime = store.runtime
    rec = runtime.recorder
    caches = [s.neighbor_cache for s in store.servers]
    contents = {
        p: set(c.pinned_vertices()) | set(c._lru.keys()) for p, c in enumerate(caches)
    }
    return {
        "ledger": _nonzero_ledger(store),
        "shards": _shard_state(store),
        "caches": [
            (c.hits, c.misses, c._lru.keys(), c._lru.evictions, c.pinned_vertices())
            for c in caches
        ],
        "iv_fronts": [
            (tuple(s.attrs.iv_cache._store), s.attrs.iv_cache.hits, s.attrs.iv_cache.misses)
            for s in store.servers
        ],
        "audit": store.replicas.audit(contents),
        "held_by": [store.replicas.held_by(p) for p in range(N_PARTS)],
        "clock": runtime.clock.now_us,
        "metrics": runtime.metrics.summary_rows(),
        "fault_rng": runtime.faults._rng.bit_generator.state,
        "store_rng": store._rng.bit_generator.state,
        "recorder": (
            rec.vertex_reads.tolist(),
            rec.cross_part_reads.tolist(),
            rec.route_reads,
            rec.traffic.tolist(),
            rec.vertex_owner.tolist(),
            rec._window_reads.tolist(),
            rec._window_remote.tolist(),
        ),
    }


def _both(stores, call):
    """Run ``call`` on the bulk store and the oracle; outcomes must agree."""
    outcomes = []
    for store in stores:
        try:
            outcomes.append(("ok", call(store)))
        except (StorageError, RetryExhaustedError) as exc:
            outcomes.append((type(exc), str(exc)))
    (kind_a, a), (kind_b, b) = outcomes
    assert kind_a == kind_b, outcomes
    if kind_a != "ok":
        assert a == b
        return kind_a
    if isinstance(a, RowBlock):
        for got, want in zip(a, b):
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for v in a:
            np.testing.assert_array_equal(a[v], b[v])
    else:
        np.testing.assert_array_equal(a, b)
    return a


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_bulk_arms_match_per_vertex_dispatch(small_powerlaw, policy, scenario):
    graph = small_powerlaw
    n = graph.n_vertices
    feats = make_rng(3).normal(size=(n, 6)).astype(np.float32)
    stores = [
        _parity_store(graph, feats, policy, scenario, per_vertex)
        for per_vertex in (False, True)
    ]
    bulk, oracle = stores
    assert _observable_state(bulk)["audit"] == {"missing": [], "stale": []}
    assert _observable_state(bulk) == _observable_state(oracle)
    rng = make_rng(17)
    owners = bulk.assignment.vertex_to_part
    down = 1  # the worker the fail-stop scenarios take offline
    seen_errors = set()

    def check():
        state = _observable_state(bulk)
        assert state == _observable_state(oracle)
        assert state["audit"] == {"missing": [], "stale": []}

    for step in range(14):
        issuer = (0, 2, 3)[step % 3]
        if step == 4 and scenario in FAIL_STOP:
            for store in stores:
                store.fail_worker(down)
        if step in (4, 8, 12) and scenario in SUSPECT:
            for store in stores:
                store.runtime.health.record_failure(2)
                store.runtime.health.record_failure(2)
                assert 2 in store.runtime.health.suspect_parts
        failed = bool(bulk.failed_workers)

        for size in (1, 3, 1200, 40):
            batch = rng.integers(0, n, size=size)
            if size == 40:
                batch = np.concatenate([batch, batch[::2], batch[:5]])
            if failed and not bulk.degraded_reads:
                # Keep what a healthy server or a replica can serve; the
                # uncovered rest is read one by one below, where the error
                # leaves both stores in the same state.
                batch = np.array(
                    [
                        v
                        for v in batch.tolist()
                        if owners[v] != down
                        or any(p != down for p in replica_holders(bulk.replicas, v))
                    ],
                    dtype=np.int64,
                )
            out = _both(stores, lambda s: s.get_neighbors_batch(batch, from_part=issuer))
            if isinstance(out, RowBlock):
                assert out.ids.tolist() == list(dict.fromkeys(batch.tolist()))
            else:
                seen_errors.add(out)
            check()
            attrs_batch = batch[owners[batch] != down] if failed else batch
            out = _both(
                stores, lambda s: s.get_attrs_batch(attrs_batch[:300], from_part=issuer)
            )
            if isinstance(out, dict):
                for v, row in out.items():
                    np.testing.assert_array_equal(row, feats[v])
            else:
                seen_errors.add(out)
            check()

        if failed:
            lost = int(np.flatnonzero(owners == down)[step])
            for read in ("neighbors", "vertex_attr"):
                out = _both(stores, lambda s: getattr(s, read)(lost, from_part=issuer))
                if not isinstance(out, np.ndarray):
                    seen_errors.add(out)
            check()

        events = []
        for src in rng.integers(0, n, size=24).tolist():
            if failed and owners[src] == down:
                continue
            row = bulk.servers[owners[src]].local_neighbors(src)
            roll = int(rng.integers(3))
            if roll == 0 and row.size:
                events.append(EdgeEvent(0, src, int(row[rng.integers(row.size)]), "remove"))
            elif roll == 1:
                events.append(EdgeEvent(0, src, int(rng.integers(n)), "add"))
            else:  # usually a no-op remove
                events.append(EdgeEvent(0, src, int(rng.integers(n)), "remove"))
        assert bulk.apply_edge_events(events) == oracle.apply_edge_events(events)
        check()

    # Errors every caller can hit leave no trace in either store.
    for bad_call in (
        lambda s: s.get_neighbors_batch([0, n], from_part=0),
        lambda s: s.get_attrs_batch([-1], from_part=0),
        lambda s: s.neighbors(0, from_part=N_PARTS),
    ):
        assert _both(stores, bad_call) is StorageError
    if bulk.failed_workers:
        assert _both(stores, lambda s: s.neighbors(0, from_part=down)) is StorageError
    check()

    counters = {c.name: c.value for c in bulk.runtime.metrics.counters()}
    if scenario == "retry_exhausted":
        assert RetryExhaustedError in seen_errors
    if scenario in ("fail_stop", "fail_stop_suspect"):
        assert ReadUnavailableError in seen_errors
        if policy in ("random", "lru"):  # importance pins one set everywhere
            assert bulk.ledger.count(EV_FAILOVER_READ) > 0
    if scenario == "degraded":
        assert counters["reads.degraded"] > 0
    if scenario in SUSPECT and policy in ("random", "lru"):
        assert counters["health.suspect_routes"] > 0
        assert counters["health.probes"] > 0
        assert counters["health.recoveries"] > 0


@pytest.mark.parametrize("scenario", ["fail_stop", "retry_exhausted"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_an_unservable_id_between_servable_ones_raises_the_same_error(
    small_powerlaw, policy, scenario
):
    """Fresh twin stores read batches that put unservable ids between
    servable ones: the store and the per-vertex oracle raise alike."""
    graph = small_powerlaw
    feats = make_rng(3).normal(size=(graph.n_vertices, 6)).astype(np.float32)
    stores = [
        _parity_store(graph, feats, policy, scenario, per_vertex)
        for per_vertex in (False, True)
    ]
    bulk = stores[0]
    owners = bulk.assignment.vertex_to_part
    issuer, down = 0, 1
    for store in stores:
        if scenario == "fail_stop":
            store.fail_worker(down)
        else:  # every RPC is dropped, and once is all it gets
            store.runtime.faults = FaultInjector(FaultPlan(drop_rate=1.0, seed=5))
            store.runtime.retry = RetryPolicy(max_attempts=1)

    def servable(v):
        owner = int(owners[v])
        if owner == issuer or (scenario == "fail_stop" and owner != down):
            return True
        return any(p not in (owner, down) for p in replica_holders(bulk.replicas, v))

    by_kind = {True: [], False: []}
    for v in make_rng(9).permutation(graph.n_vertices)[:400].tolist():
        by_kind[servable(v)].append(v)
    ok, lost = by_kind[True][:6], by_kind[False][:3]
    assert len(ok) == 6 and len(lost) == 3
    batch = [ok[0], ok[1], lost[0], ok[2], lost[1], ok[3], ok[4], lost[2], ok[5]]
    expected = ReadUnavailableError if scenario == "fail_stop" else RetryExhaustedError
    assert _both(stores, lambda s: s.get_neighbors_batch(batch, from_part=issuer)) is expected
    assert _both(stores, lambda s: s.get_attrs_batch(batch, from_part=issuer)) is expected


# --------------------------------------------------------------------- #
# apply_edge_events: one rebuild per touched row vs the per-event loop
# --------------------------------------------------------------------- #
_WRITE_GRAPH = powerlaw_graph(160, alpha=2.1, max_degree=30, seed=4)
_BAD_EVENTS = (
    EdgeEvent(0, 1, 160, "add"),
    EdgeEvent(0, 2, -1, "remove"),
    EdgeEvent(0, 160, 3),
    EdgeEvent(0, 4, 2.5),
    EdgeEvent(0, 1.0, 5),
    EdgeEvent(0, False, 6, "remove"),
)


def _write_state(store):
    caches = [s.neighbor_cache for s in store.servers]
    return {
        "ledger": _nonzero_ledger(store),
        "shards": _shard_state(store),
        "caches": [
            (c.pinned_vertices(), c._lru.keys(), [c.peek(v).tolist() for v in c.cached_vertices()])
            for c in caches
        ],
        "held_by": [store.replicas.held_by(p) for p in range(N_PARTS)],
    }


@st.composite
def _write_batches(draw, hot):
    """Event batches over a few hot sources: repeated srcs, add-then-remove
    of one dst, removes of present and absent arcs, maybe one bad event."""
    events = []
    for _ in range(draw(st.integers(0, 14))):
        src = draw(st.sampled_from(hot))
        row = _WRITE_GRAPH.out_neighbors(src).tolist()
        dst = draw(st.sampled_from(row) if row and draw(st.booleans()) else st.integers(0, 159))
        shape = draw(st.sampled_from(["add", "remove", "add_remove"]))
        if shape == "add_remove":
            events += [EdgeEvent(0, src, dst, "add"), EdgeEvent(0, src, dst, "remove")]
        else:
            events.append(EdgeEvent(0, src, dst, shape))
    if draw(st.booleans()):
        events.insert(draw(st.integers(0, len(events))), draw(st.sampled_from(_BAD_EVENTS)))
    return events


def _importance_twins():
    stores = [
        make_store(
            _WRITE_GRAPH,
            N_PARTS,
            cache_policy=ImportanceCachePolicy(),
            cache_budget_fraction=0.1,
            seed=0,
        )
        for _ in range(2)
    ]
    stores[1].apply_edge_events = functools.partial(per_event_apply, stores[1])
    return stores


_PINNED = _importance_twins()[0].servers[0].neighbor_cache.pinned_vertices()
_HOT = sorted(_PINNED[:6]) + [v for v in range(40) if v not in _PINNED][:6]


@settings(max_examples=120, deadline=None)
@given(batches=st.lists(_write_batches(_HOT), min_size=1, max_size=3))
def test_batched_writes_match_the_per_event_loop(batches):
    bulk, oracle = _importance_twins()
    for events in batches:
        outcomes = []
        for store in (bulk, oracle):
            try:
                outcomes.append(store.apply_edge_events(events))
            except StorageError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        state = _write_state(bulk)
        assert state == _write_state(oracle)
        for server in bulk.servers:  # every pin holds its owner's current row
            for v in server.neighbor_cache.pinned_vertices():
                row = bulk.servers[bulk.owner(v)].local_neighbors(v)
                np.testing.assert_array_equal(server.neighbor_cache.peek(v), row)


def test_write_batch_python_call_ceiling():
    # Gate the write path on a count, not a clock: the Python calls under
    # repro/ for one 128-event batch on a warm LRU store. The per-event loop
    # made 891; the count is per touched row and per server, not per event.
    graph = make_dataset("taobao-small-sim", scale=0.3, seed=0)
    n = graph.n_vertices
    store = make_store(
        graph, 4, cache_policy=LRUCachePolicy(), cache_budget_fraction=0.1, seed=0
    )
    store.attach_runtime(RpcRuntime(store))
    rng = make_rng(0)
    for part in range(4):
        store.get_neighbors_batch(rng.integers(0, n, size=512), from_part=part)
    hot = rng.integers(0, n, size=32).tolist()
    events = []
    for j, src in enumerate(rng.choice(hot, size=128).tolist()):
        row = graph.out_neighbors(src)
        if j % 2 and row.size:
            events.append(EdgeEvent(0, src, int(row[rng.integers(row.size)]), "remove"))
        else:
            events.append(EdgeEvent(0, src, int(rng.integers(n)), "add"))
    applied = []
    calls = python_calls(
        lambda: applied.append(store.apply_edge_events(events)), under="/repro/"
    )
    assert applied == [123] and store.ledger.count(EV_EDGE_INGESTED) == 128
    assert 0 < calls <= 43


# --------------------------------------------------------------------- #
# _resolve_read: ledger determinism and id validation on the batched path
# --------------------------------------------------------------------- #
def _graph(scale=0.15):
    return make_dataset("taobao-small-sim", scale=scale, seed=0)


def test_resolve_read_ledger_event_order_deterministic():
    graph = _graph()
    rows = []
    for _ in range(2):
        store = make_store(
            graph,
            4,
            cache_policy=ImportanceCachePolicy(),
            cache_budget_fraction=0.1,
            seed=7,
        )
        tracer = Tracer(seed=7)
        store.attach_runtime(RpcRuntime(store, tracer=tracer))
        rng = make_rng(7)
        for _ in range(3):
            batch = rng.integers(0, graph.n_vertices, size=96)
            store.get_neighbors_batch(batch, from_part=0)
        rows.append(list(tracer.ledger_rows))
    assert rows[0] == rows[1]
    events = [r for r in rows[0]]
    assert events, "expected ledger events from the batched reads"


def test_resolve_read_rejects_out_of_range_batch():
    store = make_store(_graph(scale=0.1), 2, seed=0)
    outside = r"vertex ids span \[0, 1000000000\], outside \[0, \d+\)"
    with pytest.raises(StorageError, match=outside):
        store.get_neighbors_batch([0, 1, 10**9], from_part=0)


# --------------------------------------------------------------------- #
# Read entry: malformed ids are rejected before anything moves
# --------------------------------------------------------------------- #
_MALFORMED_READS = {
    "float_batch": lambda s: s.get_neighbors_batch(np.array([1.5, 2.7]), 0),
    "bool_batch": lambda s: s.get_neighbors_batch([True], 0),
    "bool_vertex": lambda s: s.neighbors(True, 0),
    "float_vertex": lambda s: s.neighbors(1.9, 0),
    "2d_batch": lambda s: s.get_neighbors_batch(np.array([[1, 2], [3, 4]]), 0),
    "object_batch": lambda s: s.get_neighbors_batch([1, None], 0),
    "float_attr_batch": lambda s: s.get_attrs_batch(np.array([1.0]), 0),
    "bool_attr_vertex": lambda s: s.vertex_attr(True, 0),
    "float_owner": lambda s: s.owner(1.5),
    "float_issuer": lambda s: s.get_neighbors_batch([1, 2], from_part=0.5),
    "bool_issuer": lambda s: s.neighbors(1, from_part=True),
    "bool_failed_worker": lambda s: s.fail_worker(True),
    "float_failed_worker": lambda s: s.fail_worker(1.5),
    "bool_restored_worker": lambda s: s.restore_worker(True),
    "bool_migration_target": lambda s: s.commit_migration(_owned_by_one(s), True),
    "float_migration_target": lambda s: s.commit_migration(_owned_by_one(s), 1.5),
}


def _owned_by_one(store):
    """A vertex worker 1 owns: moving it "to" ``True`` / ``1.5`` is moving it to 1."""
    return int(np.flatnonzero(store.assignment.vertex_to_part == 1)[0])


@pytest.mark.parametrize("read", sorted(_MALFORMED_READS))
def test_malformed_ids_are_rejected_before_any_charge(read):
    graph = make_dataset("taobao-small-sim", scale=0.1, seed=1)
    store = make_store(
        graph, 2, cache_policy=LRUCachePolicy(), cache_budget_fraction=0.2, seed=0
    )
    store.attach_runtime(RpcRuntime(store))
    for v in range(graph.n_vertices):
        store.servers[store.owner(v)].ingest_vertex_attr(v, np.ones(2))
    store.get_neighbors_batch(np.arange(0, 60, 3), from_part=0)  # warm the LRU

    def state():
        caches = [s.neighbor_cache for s in store.servers]
        return (
            dict(store.ledger.counts),
            [(c.hits, c.misses, c._lru.keys()) for c in caches],
            store.runtime.metrics.summary_rows(),
            store.failed_workers,
            store.assignment.vertex_to_part.tolist(),
        )

    before = state()
    with pytest.raises(StorageError):
        _MALFORMED_READS[read](store)
    assert state() == before


# --------------------------------------------------------------------- #
# The read contract: one block, rows in first-seen order of the request
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("arm", ["pinned", "lru", "failover", "suspect", "degraded"])
def test_read_block_follows_the_deduplicated_request(small_powerlaw, arm):
    graph = small_powerlaw
    n, down, issuer = graph.n_vertices, 2, 0
    store = make_store(
        graph,
        N_PARTS,
        cache_policy=LRUCachePolicy() if arm == "lru" else RandomCachePolicy(),
        cache_budget_fraction=0.3,
        seed=1,
        degraded_reads=arm == "degraded",
    )
    runtime = RpcRuntime(store, health=HealthTracker(N_PARTS, suspect_after=1))
    store.attach_runtime(runtime)
    rng = make_rng(5)
    # Empty rows: one written empty by removes, plus any the graph has.
    hollow = int(np.argmax(graph.out_degrees()))
    store.apply_edge_events(
        [EdgeEvent(0, hollow, int(u), "remove") for u in graph.out_neighbors(hollow)]
    )
    empty = np.flatnonzero(graph.out_degrees() == 0)[:3].tolist() + [hollow]
    if arm in ("failover", "degraded"):
        store.fail_worker(down)
    if arm == "suspect":
        runtime.health.record_failure(down)

    def expected(v):
        owner = store.owner(v)
        if owner not in store.failed_workers:
            return store.servers[owner].local_neighbors(v)
        copies = [s.neighbor_cache.peek(v) for s in store.servers if s.part_id != owner]
        return next((c for c in copies if c is not None), np.zeros(0, np.int64))

    for _ in range(3):
        batch = np.concatenate([rng.integers(0, n, size=300), empty])
        batch = np.concatenate([batch, batch[::3]])
        rng.shuffle(batch)
        if arm == "failover":  # drop what no replica covers: those raise
            batch = np.array(
                [v for v in batch.tolist() if expected(v).size or store.owner(v) != down],
                dtype=np.int64,
            )
        block = store.get_neighbors_batch(batch, from_part=issuer)
        assert block.ids.tolist() == list(dict.fromkeys(batch.tolist()))
        assert block.offsets[0] == 0 and block.offsets[-1] == block.indices.size
        assert all(a.dtype == np.int64 for a in block)
        for v, row in block_rows(block).items():
            np.testing.assert_array_equal(row, expected(v))
    event = {
        "pinned": EV_CACHE_HIT,
        "lru": EV_CACHE_HIT,
        "failover": EV_FAILOVER_READ,
        "suspect": EV_SUSPECT_ROUTE,
        "degraded": EV_DEGRADED_READ,
    }[arm]
    assert store.ledger.count(event) > 0
    assert store.ledger.count(EV_LOCAL_READ) > 0 and store.ledger.count(EV_REMOTE_RPC) > 0
