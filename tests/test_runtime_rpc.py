"""RPC runtime: batching equivalence, fault handling, retry semantics."""

import numpy as np
import pytest

from repro.data import make_dataset
from repro.errors import (
    ReproRuntimeError,
    RetryExhaustedError,
    RuntimeConfigError,
)
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    Request,
    RetryPolicy,
    RpcRuntime,
)
from repro.runtime.rpc import KIND_NEIGHBORS
from repro.sampling import CsrAdjacency, StoreProvider, UniformNeighborSampler
from repro.storage.cache import NeighborCache
from repro.storage.cluster import make_store
from repro.storage.costmodel import EV_ITEM_SHIPPED, EV_REMOTE_RPC
from repro.utils.rng import make_rng


def _graph():
    return make_dataset("taobao-small-sim", scale=0.1, seed=0)


# --------------------------------------------------------------------- #
# Batching equivalence (seeded property test)
# --------------------------------------------------------------------- #
class PerVertexProvider(StoreProvider):
    """The unbatched oracle: one ``store.neighbors`` read per frontier entry
    — no dedup, no coalescing — packed into the same block."""

    def frontier_block(self, frontier):
        ids, rows = np.unique(frontier, return_inverse=True)
        fetched = {v: self.neighbors(v) for v in frontier.tolist()}
        return CsrAdjacency.from_rows([fetched[v] for v in ids.tolist()], ids), rows


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 99])
@pytest.mark.parametrize("n_workers", [2, 4])
def test_batched_reads_match_unbatched_with_fewer_rpcs(seed, n_workers):
    graph = _graph()
    results = []
    for provider in (PerVertexProvider, StoreProvider):
        store = make_store(graph, n_workers, seed=0)
        sampler = UniformNeighborSampler(provider(store, from_part=0))
        rng = make_rng(seed)
        out = sampler.sample(np.arange(48), [6, 4], rng)
        results.append((out, store))
    (out_u, store_u), (out_b, store_b) = results
    for a, b in zip(out_u.layers, out_b.layers):
        assert np.array_equal(a, b)
    assert store_b.ledger.count(EV_REMOTE_RPC) < store_u.ledger.count(EV_REMOTE_RPC)
    assert store_b.ledger.count(EV_REMOTE_RPC) > 0
    # Dedup ships each remote row at most once per hop: never more items
    # than the one-read-per-vertex path.
    assert (
        store_b.ledger.count(EV_ITEM_SHIPPED)
        <= store_u.ledger.count(EV_ITEM_SHIPPED)
    )


def test_get_neighbors_batch_matches_pointwise_reads():
    graph = _graph()
    store_a = make_store(graph, 3, seed=0)
    store_b = make_store(graph, 3, seed=0)
    vertices = np.arange(60)
    batch = store_b.get_neighbors_batch(vertices, from_part=1)
    assert set(batch) == set(int(v) for v in vertices)
    for v in vertices:
        assert np.array_equal(batch[int(v)], store_a.neighbors(int(v), from_part=1))
    assert store_b.ledger.count(EV_REMOTE_RPC) <= store_b.n_workers - 1
    assert store_b.ledger.count(EV_REMOTE_RPC) < store_a.ledger.count(EV_REMOTE_RPC)


def test_get_attrs_batch_matches_pointwise_reads():
    graph = _graph()
    feats = make_rng(0).normal(size=(graph.n_vertices, 8))
    stores = []
    for _ in range(2):
        store = make_store(graph, 3, seed=0)
        for v in range(graph.n_vertices):
            store.servers[store.owner(v)].ingest_vertex_attr(v, feats[v])
        stores.append(store)
    store_a, store_b = stores
    vertices = np.arange(40)
    batch = store_b.get_attrs_batch(vertices, from_part=0)
    for v in vertices:
        assert np.array_equal(batch[int(v)], store_a.vertex_attr(int(v), from_part=0))
    assert store_b.ledger.count(EV_REMOTE_RPC) <= store_b.n_workers - 1
    assert store_b.ledger.count(EV_REMOTE_RPC) < store_a.ledger.count(EV_REMOTE_RPC)


def test_batch_read_deduplicates_repeated_vertices():
    graph = _graph()
    store = make_store(graph, 2, seed=0)
    v = next(
        u for u in range(graph.n_vertices) if store.owner(u) != 0
    )
    batch = store.get_neighbors_batch([v, v, v, v], from_part=0)
    assert store.ledger.count(EV_REMOTE_RPC) == 1
    assert np.array_equal(batch[v], store.servers[store.owner(v)].local_neighbors(v))


# --------------------------------------------------------------------- #
# Fault handling: retries, typed failure, reproducibility
# --------------------------------------------------------------------- #
def _faulted_run(seed, drop_rate=0.2, max_attempts=8):
    graph = _graph()
    store = make_store(graph, 4, seed=0)
    store.attach_runtime(
        RpcRuntime(
            store,
            faults=FaultPlan(drop_rate=drop_rate, seed=seed),
            retry=RetryPolicy(max_attempts=max_attempts),
        )
    )
    sampler = UniformNeighborSampler(StoreProvider(store, from_part=0))
    out = sampler.sample(np.arange(48), [6, 4], make_rng(seed))
    return out, store


def test_faulted_workload_completes_and_is_reproducible():
    out_a, store_a = _faulted_run(seed=3)
    out_b, store_b = _faulted_run(seed=3)
    for a, b in zip(out_a.layers, out_b.layers):
        assert np.array_equal(a, b)
    # Bit-for-bit replay: same virtual time, same retry counts, same
    # latency distribution.
    assert store_a.runtime.clock.now_us == store_b.runtime.clock.now_us
    ma, mb = store_a.runtime.metrics, store_b.runtime.metrics
    assert ma.counter("rpc.retries").value == mb.counter("rpc.retries").value
    assert (
        ma.histogram("rpc.latency_us").samples
        == mb.histogram("rpc.latency_us").samples
    )
    # Faults actually fired and were absorbed by retries.
    assert ma.counter("rpc.drops").value > 0
    assert ma.counter("rpc.retries").value > 0


def test_faulted_results_match_fault_free_results():
    out_faulted, _ = _faulted_run(seed=5)
    graph = _graph()
    store = make_store(graph, 4, seed=0)
    sampler = UniformNeighborSampler(StoreProvider(store, from_part=0))
    out_clean = sampler.sample(np.arange(48), [6, 4], make_rng(5))
    for a, b in zip(out_faulted.layers, out_clean.layers):
        assert np.array_equal(a, b)


def test_retry_exhaustion_raises_typed_runtime_error():
    graph = _graph()
    store = make_store(graph, 4, seed=0)
    store.attach_runtime(
        RpcRuntime(
            store,
            faults=FaultPlan(drop_rate=1.0, seed=0),
            retry=RetryPolicy(max_attempts=3),
        )
    )
    with pytest.raises(RetryExhaustedError) as excinfo:
        store.get_neighbors_batch(np.arange(40), from_part=0)
    # The typed error is both a ReproRuntimeError and a builtin RuntimeError.
    assert isinstance(excinfo.value, ReproRuntimeError)
    assert isinstance(excinfo.value, RuntimeError)
    assert excinfo.value.attempts == 3
    assert store.runtime.metrics.counter("rpc.retries").value > 0


def test_retry_exhaustion_falls_over_to_cache_replica():
    graph = _graph()
    store = make_store(graph, 4, seed=0)
    store.attach_runtime(
        RpcRuntime(
            store,
            faults=FaultPlan(drop_rate=1.0, seed=0),
            retry=RetryPolicy(max_attempts=1),
        )
    )
    v = next(u for u in range(graph.n_vertices) if store.owner(u) != 0)
    row = store.servers[store.owner(v)].local_neighbors(v)
    replica = NeighborCache(4)
    replica.pin(v, row)
    healthy = next(p for p in range(4) if p not in (0, store.owner(v)))
    store.servers[healthy].neighbor_cache = replica
    batch = store.get_neighbors_batch([v], from_part=0)
    assert np.array_equal(batch[v], row)
    from repro.storage.costmodel import EV_FAILOVER_READ

    assert store.ledger.count(EV_FAILOVER_READ) == 1


def test_backoff_is_capped_exponential():
    policy = RetryPolicy(
        max_attempts=6, base_backoff_us=100.0, multiplier=2.0, cap_us=500.0
    )
    assert [policy.backoff_us(a) for a in range(1, 6)] == [
        100.0,
        200.0,
        400.0,
        500.0,
        500.0,
    ]
    with pytest.raises(RuntimeConfigError):
        policy.backoff_us(0)


def test_virtual_clock_charges_backoff_time():
    graph = _graph()
    plan = FaultPlan(drop_rate=0.3, seed=11)
    store_f = make_store(graph, 4, seed=0)
    store_f.attach_runtime(RpcRuntime(store_f, faults=plan))
    store_c = make_store(graph, 4, seed=0)
    store_c.attach_runtime(RpcRuntime(store_c))
    vertices = np.arange(80)
    store_f.get_neighbors_batch(vertices, from_part=0)
    store_c.get_neighbors_batch(vertices, from_part=0)
    if store_f.runtime.metrics.counter("rpc.retries").value > 0:
        assert store_f.runtime.clock.now_us > store_c.runtime.clock.now_us


def test_fault_injector_stream_is_seeded():
    plan = FaultPlan(drop_rate=0.5, timeout_rate=0.2, seed=9)
    first = FaultInjector(plan)
    a = [first.roll() for _ in range(50)]
    inj = FaultInjector(plan)
    b = [inj.roll() for _ in range(50)]
    assert a == b
    assert {"drop", "timeout", "ok"} >= set(a)


def test_fault_plan_validation():
    with pytest.raises(RuntimeConfigError):
        FaultPlan(drop_rate=1.5)
    with pytest.raises(RuntimeConfigError):
        FaultPlan(drop_rate=0.7, timeout_rate=0.7)
    with pytest.raises(RuntimeConfigError):
        FaultPlan(slow_factor=0.5)
    with pytest.raises(RuntimeConfigError):
        RetryPolicy(max_attempts=0)


# --------------------------------------------------------------------- #
# Envelopes and the request planner
# --------------------------------------------------------------------- #
def test_plan_validation():
    graph = _graph()
    store = make_store(graph, 3, seed=0)
    runtime = RpcRuntime(store)
    with pytest.raises(RuntimeConfigError):
        runtime.plan("bogus", 0, [1], [1])
    assert runtime.plan(KIND_NEIGHBORS, 0, [], []) == []
    requests = runtime.plan(KIND_NEIGHBORS, 0, [5, 3, 9, 4], [2, 1, 2, 1])
    # One request per owner, in first-appearance order, with consecutive ids.
    assert [r.dst_part for r in requests] == [2, 1]
    assert [r.vertices for r in requests] == [(5, 9), (3, 4)]
    assert [r.req_id for r in requests] == [0, 1]
    assert runtime.plan(KIND_NEIGHBORS, 0, [7], [1])[0].req_id == 2


def test_attach_runtime_rejects_foreign_store():
    from repro.errors import StorageError

    graph = _graph()
    store_a = make_store(graph, 2, seed=0)
    store_b = make_store(graph, 2, seed=0)
    with pytest.raises(StorageError):
        store_b.attach_runtime(RpcRuntime(store_a))


@pytest.mark.slow
def test_stress_many_steps_with_faults_complete():
    graph = make_dataset("taobao-small-sim", scale=0.3, seed=0)
    store = make_store(graph, 4, seed=0)
    store.attach_runtime(
        RpcRuntime(store, faults=FaultPlan(drop_rate=0.2, timeout_rate=0.05, seed=1))
    )
    sampler = UniformNeighborSampler(StoreProvider(store, from_part=0))
    rng = make_rng(1)
    for step in range(20):
        out = sampler.sample(np.arange(step, step + 64), [10, 5], rng)
        assert out.layers[2].size == 64 * 50
    metrics = store.runtime.metrics
    assert metrics.counter("rpc.retries").value > 0
    assert metrics.histogram("rpc.latency_us").count == metrics.counter(
        "rpc.completed"
    ).value


def test_execute_empty_requests():
    store = make_store(_graph(), 2, seed=0)
    runtime = RpcRuntime(store)
    store.attach_runtime(runtime)
    assert runtime.execute([]) == []


# --------------------------------------------------------------------- #
# Vectorized read path: plan against the per-read planner it replaced
# --------------------------------------------------------------------- #
def plan_per_read(kind, src_part, reads, first_id=0):
    """The planner as it once was: one ``(vertex, owner)`` pair at a time,
    deduplicating per destination — the oracle for ``RpcRuntime.plan``."""
    by_dest = {}
    for vertex, owner in reads:
        group = by_dest.setdefault(owner, [])
        if vertex not in group:
            group.append(vertex)
    return [
        Request(first_id + i, kind, src_part, owner, tuple(vertices))
        for i, (owner, vertices) in enumerate(by_dest.items())
    ]


@pytest.mark.parametrize("src_part", [0, 3])
def test_plan_grouped_matches_plan(src_part):
    """The grouped planner against the per-read one, from two requesters."""
    runtime = RpcRuntime(make_store(_graph(), 5, seed=0))
    rng = make_rng(9)
    for _ in range(20):
        n = int(rng.integers(0, 30))
        vertices = rng.choice(1000, size=n, replace=False)
        owners = rng.integers(0, 5, size=n)
        reads = list(zip(vertices.tolist(), owners.tolist()))
        expected = plan_per_read(KIND_NEIGHBORS, src_part, reads, runtime._next_req_id)
        assert runtime.plan(KIND_NEIGHBORS, src_part, vertices, owners) == expected
        # ``rows`` ships each destination's slice, as the KV push's
        # per-request ``searchsorted`` over the sorted key array did.
        order = np.argsort(vertices)
        keys, key_owners = vertices[order], owners[order]
        rows = rng.normal(size=(n, 3))
        planned = runtime.plan(KIND_NEIGHBORS, src_part, keys, key_owners, rows=rows)
        for req in planned:
            assert req.body.tobytes() == rows[np.searchsorted(keys, req.vertices)].tobytes()
        assert sum(len(req.vertices) for req in planned) == n
