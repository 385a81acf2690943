"""Failure-semantics parity: scalar and batch reads behave identically.

Every read entry point resolves through the same unified path, so for any
{read kind} x {failure mode} the scalar wrappers (``neighbors`` /
``vertex_attr``) and the batch entry points (``get_neighbors_batch`` /
``get_attrs_batch``) must return identical data, emit identical ledger
events (modulo per-destination RPC coalescing for multi-vertex batches)
and raise identical error types. The matrix here fixes the seed and runs
both paths against identically built stores for each mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import powerlaw_graph
from repro.errors import (
    ReadUnavailableError,
    RetryExhaustedError,
    StorageError,
)
from repro.graph.graph import Graph
from repro.runtime import FaultPlan, RpcRuntime
from repro.storage.cache import NeighborCache
from repro.storage.cluster import DistributedGraphStore, make_store
from repro.storage.costmodel import (
    EV_DEGRADED_READ,
    EV_FAILOVER_READ,
    EV_REMOTE_RPC,
)
from repro.utils.rng import make_rng
from tests.conftest import bench_script, block_rows

N_WORKERS = 3
SEED = 11
FaultMatrixCell = bench_script("bench_fault_matrix").FaultMatrixCell
run_fault_matrix = bench_script("bench_fault_matrix").run_fault_matrix


@pytest.fixture(scope="module")
def fm_graph() -> Graph:
    return powerlaw_graph(300, alpha=2.2, max_degree=40, seed=SEED)


def _fresh_store(
    graph: Graph, faults: "FaultPlan | None" = None, with_attrs: bool = True
) -> DistributedGraphStore:
    store = make_store(graph, N_WORKERS, seed=0)
    if faults is not None:
        store.attach_runtime(RpcRuntime(store, faults=faults))
    if with_attrs:
        feats = make_rng(0).normal(size=(graph.n_vertices, 4))
        for v in range(graph.n_vertices):
            store.servers[store.owner(v)].ingest_vertex_attr(v, feats[v])
    return store


def _events(store: DistributedGraphStore) -> "dict[str, int]":
    return {k: v for k, v in store.ledger.counts.items() if v}


def _remote_vertices(store: DistributedGraphStore, from_part: int, n: int):
    """First ``n`` vertices not owned by ``from_part`` (deterministic)."""
    out = [
        v
        for v in range(store.graph.n_vertices)
        if store.owner(v) != from_part
    ]
    return out[:n]


def _pin_replica(store: DistributedGraphStore, part: int, vertex: int):
    """Give server ``part`` a one-entry cache replica of ``vertex``."""
    cache = NeighborCache(4)
    cache.pin(vertex, store.graph.out_neighbors(vertex))
    store.servers[part].neighbor_cache = cache  # setter rebinds the registry


# --------------------------------------------------------------------- #
# Healthy mode: scalar == batch, data and ledger
# --------------------------------------------------------------------- #
def test_healthy_neighbors_scalar_equals_batch(fm_graph):
    scalar, batch = _fresh_store(fm_graph), _fresh_store(fm_graph)
    vertices = list(range(40))
    rows = block_rows(batch.get_neighbors_batch(vertices, from_part=0))
    assert list(rows) == vertices
    for v in vertices:
        np.testing.assert_array_equal(
            rows[v], scalar.neighbors(v, from_part=0)
        )
    ev_s, ev_b = _events(scalar), _events(batch)
    # Identical events except RPC coalescing: the batch path charges one
    # remote_rpc per destination server, the scalar path one per vertex.
    assert ev_b.pop(EV_REMOTE_RPC) <= N_WORKERS - 1
    assert ev_s.pop(EV_REMOTE_RPC) > N_WORKERS - 1
    assert ev_s == ev_b


def test_healthy_attrs_scalar_equals_batch(fm_graph):
    scalar, batch = _fresh_store(fm_graph), _fresh_store(fm_graph)
    vertices = list(range(40))
    rows = batch.get_attrs_batch(vertices, from_part=0)
    for v in vertices:
        np.testing.assert_array_equal(
            rows[v], scalar.vertex_attr(v, from_part=0)
        )
    ev_s, ev_b = _events(scalar), _events(batch)
    assert ev_b.pop(EV_REMOTE_RPC) <= N_WORKERS - 1
    ev_s.pop(EV_REMOTE_RPC)
    assert ev_s == ev_b


def test_single_vertex_reads_emit_identical_events(fm_graph):
    """A batch of one is *literally* a scalar read: same events, no modulo."""
    (v,) = _remote_vertices(_fresh_store(fm_graph, with_attrs=False), 0, 1)
    for kind in ("neighbors", "attrs"):
        scalar, batch = _fresh_store(fm_graph), _fresh_store(fm_graph)
        if kind == "neighbors":
            a = scalar.neighbors(v, from_part=0)
            b = batch.get_neighbors_batch([v], from_part=0).indices
        else:
            a = scalar.vertex_attr(v, from_part=0)
            b = batch.get_attrs_batch([v], from_part=0)[v]
        np.testing.assert_array_equal(a, b)
        assert _events(scalar) == _events(batch)


# --------------------------------------------------------------------- #
# Failed owner
# --------------------------------------------------------------------- #
def test_failed_owner_neighbors_failover_parity(fm_graph):
    scalar, batch = _fresh_store(fm_graph), _fresh_store(fm_graph)
    victim = 2
    (v,) = [
        u for u in range(fm_graph.n_vertices)
        if scalar.owner(u) == victim and fm_graph.out_neighbors(u).size
    ][:1]
    for store in (scalar, batch):
        _pin_replica(store, part=1, vertex=v)
        store.fail_worker(victim)
    a = scalar.neighbors(v, from_part=0)
    b = batch.get_neighbors_batch([v], from_part=0).indices
    np.testing.assert_array_equal(a, fm_graph.out_neighbors(v))
    np.testing.assert_array_equal(a, b)
    assert _events(scalar) == _events(batch)
    assert scalar.ledger.count(EV_FAILOVER_READ) == 1


def test_failed_owner_neighbors_no_replica_raises_parity(fm_graph):
    scalar, batch = _fresh_store(fm_graph), _fresh_store(fm_graph)
    victim = 2
    (v,) = [u for u in range(fm_graph.n_vertices) if scalar.owner(u) == victim][:1]
    scalar.fail_worker(victim)
    batch.fail_worker(victim)
    with pytest.raises(ReadUnavailableError):
        scalar.neighbors(v, from_part=0)
    with pytest.raises(ReadUnavailableError):
        batch.get_neighbors_batch([v], from_part=0)
    assert _events(scalar) == _events(batch)


def test_failed_owner_attrs_raises_parity(fm_graph):
    """Attribute rows have no replicas: both paths raise StorageError —
    the batch path used to happily dispatch RPCs to the dead owner."""
    scalar, batch = _fresh_store(fm_graph), _fresh_store(fm_graph)
    victim = 2
    (v,) = [u for u in range(fm_graph.n_vertices) if scalar.owner(u) == victim][:1]
    # Even a neighbor-cache replica must not save an attrs read.
    for store in (scalar, batch):
        _pin_replica(store, part=1, vertex=v)
        store.fail_worker(victim)
    with pytest.raises(StorageError):
        scalar.vertex_attr(v, from_part=0)
    with pytest.raises(StorageError):
        batch.get_attrs_batch([v], from_part=0)
    assert _events(scalar) == _events(batch)


# --------------------------------------------------------------------- #
# Failed issuer
# --------------------------------------------------------------------- #
def test_failed_issuer_rejected_on_all_entry_points(fm_graph):
    store = _fresh_store(fm_graph)
    store.fail_worker(0)
    for read in (
        lambda: store.neighbors(5, from_part=0),
        lambda: store.vertex_attr(5, from_part=0),
        lambda: store.get_neighbors_batch([5, 6], from_part=0),
        lambda: store.get_attrs_batch([5, 6], from_part=0),
    ):
        with pytest.raises(StorageError, match="issuing worker 0 is down"):
            read()
    # Nothing was charged: validation precedes any routing.
    assert _events(store) == {}


def test_unknown_issuer_rejected_on_all_entry_points(fm_graph):
    store = _fresh_store(fm_graph)
    for read in (
        lambda: store.neighbors(5, from_part=9),
        lambda: store.vertex_attr(5, from_part=9),
        lambda: store.get_neighbors_batch([5], from_part=9),
        lambda: store.get_attrs_batch([5], from_part=9),
    ):
        with pytest.raises(StorageError, match="unknown worker"):
            read()


# --------------------------------------------------------------------- #
# Retry exhausted
# --------------------------------------------------------------------- #
def test_retry_exhausted_raises_parity(fm_graph):
    blackout = FaultPlan(drop_rate=1.0, seed=SEED)
    scalar = _fresh_store(fm_graph, faults=blackout)
    batch = _fresh_store(fm_graph, faults=blackout)
    (v,) = _remote_vertices(scalar, 0, 1)
    with pytest.raises(RetryExhaustedError):
        scalar.neighbors(v, from_part=0)
    with pytest.raises(RetryExhaustedError):
        batch.get_neighbors_batch([v], from_part=0)
    with pytest.raises(RetryExhaustedError):
        scalar.vertex_attr(v, from_part=0)
    with pytest.raises(RetryExhaustedError):
        batch.get_attrs_batch([v], from_part=0)
    assert _events(scalar) == _events(batch)


def test_retry_exhausted_falls_over_to_replica_parity(fm_graph):
    blackout = FaultPlan(drop_rate=1.0, seed=SEED)
    scalar = _fresh_store(fm_graph, faults=blackout)
    batch = _fresh_store(fm_graph, faults=blackout)
    (v,) = [
        u for u in _remote_vertices(scalar, 0, 50)
        if fm_graph.out_neighbors(u).size
    ][:1]
    replica_part = next(
        p for p in range(N_WORKERS) if p not in (0, scalar.owner(v))
    )
    for store in (scalar, batch):
        _pin_replica(store, replica_part, v)
    a = scalar.neighbors(v, from_part=0)
    b = batch.get_neighbors_batch([v], from_part=0).indices
    np.testing.assert_array_equal(a, fm_graph.out_neighbors(v))
    np.testing.assert_array_equal(a, b)
    assert _events(scalar) == _events(batch)
    assert scalar.ledger.count(EV_FAILOVER_READ) == 1


# --------------------------------------------------------------------- #
# Degraded reads
# --------------------------------------------------------------------- #
def test_degraded_reads_parity_and_attrs_never_degrade(fm_graph):
    stores = [
        make_store(fm_graph, N_WORKERS, seed=0, degraded_reads=True)
        for _ in range(2)
    ]
    victim = 2
    (v,) = [u for u in range(fm_graph.n_vertices) if stores[0].owner(u) == victim][:1]
    feats = make_rng(0).normal(size=(fm_graph.n_vertices, 4))
    for store in stores:
        for u in range(fm_graph.n_vertices):
            store.servers[store.owner(u)].ingest_vertex_attr(u, feats[u])
        store.fail_worker(victim)
    scalar, batch = stores
    a = scalar.neighbors(v, from_part=0)
    b = batch.get_neighbors_batch([v], from_part=0).indices
    assert a.size == 0 and b.size == 0
    assert scalar.ledger.count(EV_DEGRADED_READ) == 1
    assert _events(scalar) == _events(batch)
    # Attribute reads raise even in degraded mode — a feature row cannot
    # be faked with an empty placeholder.
    with pytest.raises(StorageError):
        scalar.vertex_attr(v, from_part=0)
    with pytest.raises(StorageError):
        batch.get_attrs_batch([v], from_part=0)


# --------------------------------------------------------------------- #
# The sweep itself (tiny configuration, tier-1 fast)
# --------------------------------------------------------------------- #
def test_run_fault_matrix_shape_and_ordering(fm_graph):
    rows = run_fault_matrix(
        fm_graph,
        drop_rates=(0.0,),
        failed_workers=(0, 1),
        policies=("none", "importance"),
        n_workers=N_WORKERS,
        n_batches=1,
        batch_size=32,
        seed=SEED,
    )
    assert len(rows) == 4
    by_label = {r.cell.label: r for r in rows}
    healthy_none = by_label["drop=0% failed=0 cache=none"]
    assert healthy_none.availability == 1.0
    assert healthy_none.degraded_reads == 0
    failed_none = by_label["drop=0% failed=1 cache=none"]
    failed_imp = by_label["drop=0% failed=1 cache=importance"]
    assert failed_imp.availability > failed_none.availability
    assert failed_none.reads_total == failed_imp.reads_total > 0


def test_run_fault_matrix_is_deterministic(fm_graph):
    kwargs = dict(
        drop_rates=(0.2,),
        failed_workers=(1,),
        policies=("importance",),
        n_workers=N_WORKERS,
        n_batches=1,
        batch_size=32,
        seed=SEED,
    )
    a = run_fault_matrix(fm_graph, **kwargs)
    b = run_fault_matrix(fm_graph, **kwargs)
    assert [r.availability for r in a] == [r.availability for r in b]
    assert [r.retries for r in a] == [r.retries for r in b]
    assert [r.p95_latency_us for r in a] == [r.p95_latency_us for r in b]


def test_run_fault_matrix_validation(fm_graph):
    with pytest.raises(ValueError, match="unknown policy"):
        run_fault_matrix(fm_graph, policies=("fifo",))
    with pytest.raises(ValueError, match="cannot fail"):
        run_fault_matrix(
            fm_graph, n_workers=2, failed_workers=(2,), policies=("none",)
        )


def test_fault_matrix_cell_label():
    cell = FaultMatrixCell(drop_rate=0.2, n_failed=1, policy="lru")
    assert cell.label == "drop=20% failed=1 cache=lru"


def test_fault_matrix_cli(tmp_path):
    from tests.conftest import bench_payload

    payload = bench_payload("fault_matrix", tmp_path)
    by_label = {r["label"]: r["measured"] for r in payload["records"]}
    assert len(by_label) == 12  # 2 drop rates x 2 failed counts x 3 policies
    assert by_label["drop=0% failed=1 cache=importance"]["availability"] >= 0.99
    assert (tmp_path / "fault_matrix.txt").read_text().startswith("[fault_matrix]")
