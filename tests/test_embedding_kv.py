"""The parameter-server embedding KV store: pull/push, batching, staleness,
faults, and end-to-end parity with the in-process sparse training path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import powerlaw_graph
from repro.errors import RetryExhaustedError, RuntimeConfigError, StorageError
from repro.nn.optim import SparseAdam
from repro.nn.tensor import Tensor
from repro.runtime.faults import FaultPlan
from repro.runtime.rpc import RpcRuntime
from repro.storage import EmbeddingKVStore
from repro.storage.cluster import make_store
from repro.utils.rng import make_rng

N_ROWS, DIM, WORKERS = 60, 6, 4


@pytest.fixture(scope="module")
def graph():
    return powerlaw_graph(N_ROWS, alpha=2.3, max_degree=20, seed=7)


def _kv(graph, **kwargs):
    store = make_store(graph, WORKERS, seed=0)
    defaults = dict(optimizer="adam", lr=0.05, seed=3)
    defaults.update(kwargs)
    return store, EmbeddingKVStore(store, N_ROWS, DIM, name="t", **defaults)


# --------------------------------------------------------------------- #
# Pull
# --------------------------------------------------------------------- #
def test_pull_returns_init_rows(graph):
    store, kv = _kv(graph)
    table = kv.materialize()
    ids = np.array([0, 13, 27, 13, 59])
    np.testing.assert_array_equal(kv.pull(ids), table[ids])


def test_pull_batches_one_rpc_per_remote_shard(graph):
    store, kv = _kv(graph)
    # ids covering all 4 shards, with duplicates; issuer owns shard 0
    ids = np.array([0, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3])
    kv.pull(ids, from_part=0)
    # shards 1..3 are remote: exactly one coalesced request each
    assert store.runtime.metrics.counter("rpc.requests").value == WORKERS - 1
    assert store.ledger.counts.get("remote_rpc") == WORKERS - 1
    # locally-owned rows (0 and 4) never crossed the wire
    assert store.ledger.counts.get("emb_row_local") == 2
    shipped = store.ledger.counts.get("item_shipped")
    assert shipped == 6 * DIM  # 6 distinct remote rows x dim scalars


def test_pull_validates_ids(graph):
    _, kv = _kv(graph)
    with pytest.raises(StorageError):
        kv.pull(np.array([N_ROWS]))
    with pytest.raises(StorageError):
        kv.pull(np.array([-1]))
    assert kv.pull(np.array([], dtype=np.int64)).shape == (0, DIM)


# --------------------------------------------------------------------- #
# Push
# --------------------------------------------------------------------- #
def test_push_updates_only_touched_rows(graph):
    _, kv = _kv(graph)
    before = kv.materialize()
    ids = np.array([5, 17, 42])
    kv.push(ids, np.ones((3, DIM)))
    after = kv.materialize()
    untouched = np.setdiff1d(np.arange(N_ROWS), ids)
    np.testing.assert_array_equal(after[untouched], before[untouched])
    assert not np.array_equal(after[ids], before[ids])
    versions = kv.row_versions()
    assert versions[ids].tolist() == [1, 1, 1]
    assert versions[untouched].sum() == 0


def test_push_coalesces_duplicate_ids(graph):
    """Duplicate ids in one push sum their gradients, bump versions once."""
    _, kv = _kv(graph)
    kv.push(np.array([9, 9]), np.ones((2, DIM)))
    store2, kv2 = _kv(graph)
    kv2.push(np.array([9]), np.full((1, DIM), 2.0))
    np.testing.assert_array_equal(kv.materialize(), kv2.materialize())
    assert kv.row_versions()[9] == 1


def test_push_validates_shapes(graph):
    _, kv = _kv(graph)
    with pytest.raises(StorageError):
        kv.push(np.array([1, 2]), np.ones((3, DIM)))
    with pytest.raises(StorageError):
        kv.push(np.array([1]), np.ones((1, DIM + 1)))


def test_minibatch_lookup_outside_pull_raises(graph):
    _, kv = _kv(graph)
    mb = kv.minibatch(np.array([1, 2, 3]))
    with pytest.raises(StorageError):
        mb.lookup(np.array([4]))


# --------------------------------------------------------------------- #
# Parity with the in-process sparse reference
# --------------------------------------------------------------------- #
def test_kv_training_bit_identical_to_inprocess_sparse(graph):
    """minibatch/lookup/push through the RPC runtime produces the exact
    table an in-process SparseAdam run produces: same rows, same bits."""
    store, kv = _kv(graph)
    ref = Tensor(kv.materialize(), requires_grad=True)
    ref.accumulates_sparse = True
    opt = SparseAdam([ref], lr=0.05)

    rng = make_rng(0)
    for _ in range(15):
        ids = rng.integers(0, N_ROWS, size=24)
        mb = kv.minibatch(ids)
        (mb.lookup(ids) ** 2).sum().backward()
        assert mb.push() == np.unique(ids).size
        ref.zero_grad()
        (ref.gather_rows(ids) ** 2).sum().backward()
        opt.step()
    np.testing.assert_array_equal(kv.materialize(), ref.data)
    # the run actually exercised the wire
    assert store.runtime.metrics.counter("rpc.requests").value > 0


def test_kv_adagrad_backend(graph):
    store, kv = _kv(graph, optimizer="adagrad", lr=0.2)
    before = kv.materialize()
    kv.push(np.array([3]), np.ones((1, DIM)))
    expected = before[3] - 0.2 * 1.0 / (np.sqrt(1.0) + 1e-8)
    np.testing.assert_allclose(kv.materialize()[3], expected, atol=1e-12)


def test_unknown_optimizer_rejected(graph):
    store = make_store(graph, WORKERS, seed=0)
    with pytest.raises(StorageError):
        EmbeddingKVStore(store, N_ROWS, DIM, optimizer="sgd")


# --------------------------------------------------------------------- #
# Faults, retries, determinism
# --------------------------------------------------------------------- #
def _faulty_run(graph, drop_rate=0.2, timeout_rate=0.1, seed=5, steps=10):
    store = make_store(graph, WORKERS, seed=0)
    runtime = RpcRuntime(
        store,
        faults=FaultPlan(
            drop_rate=drop_rate, timeout_rate=timeout_rate, seed=seed
        ),
    )
    store.attach_runtime(runtime)
    kv = EmbeddingKVStore(store, N_ROWS, DIM, optimizer="adam", lr=0.05, seed=3)
    rng = make_rng(1)
    for _ in range(steps):
        ids = rng.integers(0, N_ROWS, size=16)
        mb = kv.minibatch(ids)
        (mb.lookup(ids) ** 2).sum().backward()
        mb.push()
    return store, kv


def test_faulty_run_is_deterministic(graph):
    s1, kv1 = _faulty_run(graph)
    s2, kv2 = _faulty_run(graph)
    np.testing.assert_array_equal(kv1.materialize(), kv2.materialize())
    assert s1.runtime.clock.now_us == s2.runtime.clock.now_us
    assert (
        s1.runtime.metrics.counter("rpc.retries").value
        == s2.runtime.metrics.counter("rpc.retries").value
    )


def test_faults_do_not_change_applied_updates(graph):
    """Drops/timeouts are retried and a request is served only on its final
    successful delivery — so pushes apply exactly once and the trained
    table matches the fault-free run bit-for-bit."""
    s_faulty, kv_faulty = _faulty_run(graph)
    s_clean, kv_clean = _faulty_run(graph, drop_rate=0.0, timeout_rate=0.0)
    assert s_faulty.runtime.metrics.counter("rpc.retries").value > 0
    np.testing.assert_array_equal(kv_faulty.materialize(), kv_clean.materialize())
    np.testing.assert_array_equal(kv_faulty.row_versions(), kv_clean.row_versions())


def test_failed_shard_raises_retry_exhausted(graph):
    store, kv = _kv(graph)
    kv.pull(np.arange(8))  # warm path works
    store.fail_worker(1)
    victim = np.array([9])  # owner = 9 % 4 = 1; not in the pull cache
    with pytest.raises(RetryExhaustedError):
        kv.pull(victim)
    with pytest.raises(RetryExhaustedError):
        kv.push(victim, np.ones((1, DIM)))


def test_service_registry_rejects_collisions(graph):
    store, kv = _kv(graph)
    with pytest.raises(RuntimeConfigError):
        store.runtime.register_service("neighbors", lambda req: None)
    with pytest.raises(RuntimeConfigError):
        EmbeddingKVStore(store, N_ROWS, DIM, name="t")  # kinds already taken
    with pytest.raises(RuntimeConfigError):
        store.runtime.plan("emb.pull/nope", 0, [1], [1])


# --------------------------------------------------------------------- #
# Versions and bounded staleness
# --------------------------------------------------------------------- #
def test_staleness_zero_reads_are_exact(graph):
    _, kv = _kv(graph, staleness=0)
    row = np.array([1])  # owned by shard 1, remote to issuer 0
    first = kv.pull(row)
    kv.push(np.array([5]), np.ones((1, DIM)))  # unrelated push ages the cache
    again = kv.pull(row)
    np.testing.assert_array_equal(first, again)
    assert kv.cached_version_lag() == 0


def test_bounded_staleness_serves_and_bounds_lag(graph):
    """Worker 2 caches a row; worker 0 pushes to it. Within the staleness
    window worker 2 reads its cached (stale) copy; the version lag never
    exceeds the bound; past the window the read refetches fresh bits."""
    store, kv = _kv(graph, staleness=2)
    row = np.array([1])  # owned by shard 1: remote to both workers 0 and 2
    cached = kv.pull(row, from_part=2)
    for _ in range(2):  # 2 push rounds touch the row (worker 0's writes)
        kv.push(row, np.ones((1, DIM)), from_part=0)
    authoritative = kv.materialize()[1]
    assert not np.array_equal(cached[0], authoritative)

    stale_read = kv.pull(row, from_part=2)  # age 2 <= bound 2: cache hit
    np.testing.assert_array_equal(stale_read, cached)
    assert (
        store.runtime.metrics.counter(
            "emb.pull.cache_hits", labels={"table": "t"}
        ).value
        == 1
    )
    assert kv.cached_version_lag() <= 2
    assert kv.row_versions()[1] == 2

    kv.push(np.array([5]), np.ones((1, DIM)), from_part=0)  # age now 3
    fresh_read = kv.pull(row, from_part=2)  # past bound: refetch
    np.testing.assert_array_equal(fresh_read[0], authoritative)


def test_own_pushes_invalidate_own_cache(graph):
    """Read-your-writes: a worker's push drops its cached copy even when a
    large staleness bound would otherwise allow serving it."""
    _, kv = _kv(graph, staleness=10)
    row = np.array([1])
    kv.pull(row, from_part=0)
    kv.push(row, np.ones((1, DIM)), from_part=0)
    read = kv.pull(row, from_part=0)
    np.testing.assert_array_equal(read[0], kv.materialize()[1])


def test_staleness_validation(graph):
    store = make_store(graph, WORKERS, seed=0)
    with pytest.raises(StorageError):
        EmbeddingKVStore(store, N_ROWS, DIM, staleness=-1)


# --------------------------------------------------------------------- #
# KV-backed model training
# --------------------------------------------------------------------- #
def test_deepwalk_kv_backend_trains_and_batches(graph):
    from repro.algorithms import DeepWalk

    model = DeepWalk(
        dim=8, walks_per_vertex=2, walk_length=6, epochs=1, seed=0,
        backend="kv", kv_workers=3,
    ).fit(graph)
    emb = model.embeddings()
    assert emb.shape == (N_ROWS, 8)
    assert np.isfinite(model.final_loss)
    # the skip-gram loop issued batched, deduplicated remote pulls/pushes
    metrics = model.kv_store.runtime.metrics
    n_rpcs = metrics.counter("rpc.requests").value
    assert n_rpcs > 0
    assert model.kv_store.ledger.counts.get("remote_rpc") == n_rpcs
    # batching bound: per step each table issues at most (workers - 1)
    # pull requests and (workers - 1) push requests
    pulled = metrics.counter("emb.pull.rows", labels={"table": "deepwalk.center"})
    assert pulled.value > 0


def test_deepwalk_kv_backend_deterministic(graph):
    from repro.algorithms import DeepWalk

    kwargs = dict(
        dim=8, walks_per_vertex=2, walk_length=6, epochs=1, seed=0,
        backend="kv", kv_workers=3,
    )
    a = DeepWalk(**kwargs).fit(graph).embeddings()
    b = DeepWalk(**kwargs).fit(graph).embeddings()
    np.testing.assert_array_equal(a, b)


def test_line_kv_backend_trains(graph):
    from repro.algorithms import LINE

    model = LINE(
        dim=8, steps=10, batch_size=32, seed=0, backend="kv", kv_workers=3
    ).fit(graph)
    assert model.embeddings().shape == (N_ROWS, 8)
    assert model.kv_store.runtime.metrics.counter("rpc.requests").value > 0


def test_unknown_backend_rejected():
    from repro.algorithms import DeepWalk, LINE
    from repro.errors import TrainingError

    with pytest.raises(TrainingError):
        DeepWalk(backend="remote")
    with pytest.raises(TrainingError):
        LINE(backend="remote")
