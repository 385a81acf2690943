"""The parameter-server embedding KV store: pull/push, batching, staleness,
faults, and end-to-end parity with the in-process sparse training path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import powerlaw_graph
from repro.errors import RetryExhaustedError, RuntimeConfigError, StorageError
from repro.nn.init import embedding_init
from repro.nn.optim import Adam
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


def _init():
    return embedding_init((N_ROWS, DIM), make_rng(3))


def row_versions(kv) -> np.ndarray:
    """Authoritative per-row versions, gathered from every shard."""
    out = np.empty(kv.n_rows, dtype=np.int64)
    for p, shard in enumerate(kv.shards):
        out[p :: kv.n_parts] = shard.versions
    return out


def cached_version_lag(kv) -> int:
    """Max (authoritative - cached) version over the cache entries a pull
    would still serve: the quantity the staleness bound holds down."""
    versions = row_versions(kv)
    return max(
        (
            int(versions[g]) - ver
            for cache in kv._caches.values()
            for g, (_, ver, rnd) in cache.items()
            if kv._round - rnd <= kv.staleness
        ),
        default=0,
    )


def _kv(graph, **kwargs):
    store = make_store(graph, WORKERS, seed=0)
    defaults = dict(lr=0.05)
    defaults.update(kwargs)
    return store, EmbeddingKVStore(store, _init(), name="t", **defaults)


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
    versions = row_versions(kv)
    assert versions[ids].tolist() == [1, 1, 1]
    assert versions[untouched].sum() == 0


def test_push_coalesces_duplicate_ids(graph):
    """Duplicate ids in one push sum their gradients, bump versions once."""
    _, kv = _kv(graph)
    kv.push(np.array([9, 9]), np.ones((2, DIM)))
    store2, kv2 = _kv(graph)
    kv2.push(np.array([9]), np.full((1, DIM), 2.0))
    np.testing.assert_array_equal(kv.materialize(), kv2.materialize())
    assert row_versions(kv)[9] == 1


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
    table an in-process row-sparse Adam run produces: same rows, same bits."""
    store, kv = _kv(graph)
    ref = Tensor(kv.materialize(), requires_grad=True)
    ref.accumulates_sparse = True
    opt = Adam([ref], lr=0.05)

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
    kv = EmbeddingKVStore(store, _init(), lr=0.05)
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
    np.testing.assert_array_equal(row_versions(kv_faulty), row_versions(kv_clean))


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
        EmbeddingKVStore(store, _init(), name="t")  # kinds already taken
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
    assert cached_version_lag(kv) == 0


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
    assert cached_version_lag(kv) <= 2
    assert row_versions(kv)[1] == 2

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
        EmbeddingKVStore(store, _init(), staleness=-1)


@pytest.mark.parametrize("shape", [(N_ROWS,), (0, DIM), (N_ROWS, 0), (2, 3, 4)])
def test_init_shape_validation(graph, shape):
    store = make_store(graph, WORKERS, seed=0)
    with pytest.raises(StorageError):
        EmbeddingKVStore(store, np.zeros(shape))


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
    """Where the tables live is checked at construction, before any walk or
    rng draw, and always as a ``TrainingError``."""
    from repro.algorithms import LINE, DeepWalk, Node2Vec
    from repro.errors import TrainingError

    for kwargs in (
        dict(backend="remote"),
        dict(backend="kv", kv_workers=2.5),
        dict(backend="kv", kv_workers=0),
        dict(backend="kv", kv_staleness=-1),
        dict(backend="kv", kv_staleness=0.5),
    ):
        for cls in (DeepWalk, Node2Vec, LINE):
            with pytest.raises(TrainingError):
                cls(**kwargs)


# --------------------------------------------------------------------- #
# Oracle: the parameter-server training loops the models ran before they
# shared ``train_steps`` with the in-process tables, kept verbatim.
# --------------------------------------------------------------------- #
def _oracle_tables(model, graph, rng, dim, roles):
    store = make_store(graph, model.kv_workers, seed=model.seed)
    return store, [
        EmbeddingKVStore(
            store, embedding_init((graph.n_vertices, dim), rng),
            name=f"{model.name}.{role}", lr=model.lr,
            staleness=model.kv_staleness,
        )
        for role in roles
    ]


def _train_skipgram_kv(
    pairs, kv_center, kv_context, negative_sampler, rng, epochs, neg_num,
    batch_size=1024, from_part=0,
):
    from repro.algorithms.base import pair_batches
    from repro.nn.loss import skipgram_negative_loss

    last_loss = float("inf")
    for _ in range(epochs):
        losses = []
        for c_ids, u_ids, neg_ids in pair_batches(
            pairs, negative_sampler, rng, batch_size, neg_num
        ):
            mb_center = kv_center.minibatch(c_ids, from_part=from_part)
            mb_context = kv_context.minibatch(u_ids, neg_ids, from_part=from_part)
            loss = skipgram_negative_loss(
                mb_center.lookup(c_ids),
                mb_context.lookup(u_ids),
                mb_context.lookup(neg_ids),
            )
            loss.backward()
            mb_center.push()
            mb_context.push()
            losses.append(loss.item())
        last_loss = float(np.mean(losses))
    return last_loss


def _skipgram_kv_oracle(model, graph):
    """DeepWalk / node2vec on parameter-server tables: (store, tables,
    embeddings, final loss)."""
    from repro.algorithms.base import unit_rows
    from repro.sampling.negative import DegreeBiasedNegativeSampler
    from repro.sampling.randomwalk import walk_context_pairs

    rng = make_rng(model.seed)
    pairs = walk_context_pairs(model._walks(graph, rng), model.window)
    store, tables = _oracle_tables(model, graph, rng, model.dim, ("center", "context"))
    center, context = tables
    loss = _train_skipgram_kv(
        pairs, center, context, DegreeBiasedNegativeSampler(graph), rng,
        model.epochs, model.neg_num,
    )
    return store, tables, unit_rows(center.materialize()), loss


def _line_kv_oracle(model, graph):
    """LINE on parameter-server tables: (store, tables, embeddings, None)."""
    from repro.algorithms.base import edge_batches, unit_rows
    from repro.nn.loss import skipgram_negative_loss

    rng = make_rng(model.seed)
    batches = edge_batches(
        graph, rng, model.steps, model.batch_size, model.neg_num, weighted=True
    )
    store, tables = _oracle_tables(
        model, graph, rng, model.dim // 2, ("first", "second", "ctx")
    )
    first, second, second_ctx = tables
    for src, dst, neg_ids in batches:
        mb_first = first.minibatch(src, dst, neg_ids)
        mb_second = second.minibatch(src)
        mb_ctx = second_ctx.minibatch(dst, neg_ids)
        loss1 = skipgram_negative_loss(
            mb_first.lookup(src), mb_first.lookup(dst), mb_first.lookup(neg_ids)
        )
        loss2 = skipgram_negative_loss(
            mb_second.lookup(src), mb_ctx.lookup(dst), mb_ctx.lookup(neg_ids)
        )
        (loss1 + loss2).backward()
        mb_first.push()
        mb_second.push()
        mb_ctx.push()
    emb = unit_rows(np.concatenate([first.materialize(), second.materialize()], axis=1))
    return store, tables, emb, None


@pytest.mark.parametrize(
    "model_name,kwargs,oracle",
    [
        ("DeepWalk", dict(walks_per_vertex=2, walk_length=6, kv_staleness=1),
         _skipgram_kv_oracle),
        ("Node2Vec", dict(walks_per_vertex=2, walk_length=6, kv_staleness=2),
         _skipgram_kv_oracle),
        ("LINE", dict(steps=12, batch_size=32, kv_staleness=2), _line_kv_oracle),
    ],
    ids=["deepwalk", "node2vec", "line"],
)
def test_kv_fit_matches_the_pull_push_loop_bit_for_bit(graph, model_name, kwargs, oracle):
    """A ``backend="kv"`` fit runs ``train_steps`` over the parameter-server
    table store; the hand-written pull → loss → backward → push loop it
    replaced gives the same tables, loss, ledger, RPC count and clock."""
    import repro.algorithms

    cls = getattr(repro.algorithms, model_name)
    kwargs = dict(dim=8, seed=5, backend="kv", kv_workers=3, **kwargs)
    model = cls(**kwargs).fit(graph)
    store, tables, emb, loss = oracle(cls(**kwargs), graph)

    assert model.embeddings().tobytes() == emb.tobytes()
    if loss is not None:
        assert model.final_loss == loss
    runtime = model.kv_store.runtime
    for table in tables:
        fitted = runtime._services[table.kind_pull].__self__
        assert fitted.materialize().tobytes() == table.materialize().tobytes()
        assert fitted.staleness == model.kv_staleness
    assert model.kv_store.ledger.counts == store.ledger.counts
    requests = runtime.metrics.counter("rpc.requests").value
    assert requests > 0
    assert requests == store.runtime.metrics.counter("rpc.requests").value
    assert runtime.clock.now_us == store.runtime.clock.now_us
