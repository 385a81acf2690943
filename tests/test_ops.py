"""Operator layer: aggregators, combiners, registries, materialization."""

import numpy as np
import pytest

from repro.errors import OperatorError
from repro.nn.gradcheck import check_gradients
from repro.nn.tensor import Tensor
from repro.ops import (
    AGGREGATOR_REGISTRY,
    COMBINER_REGISTRY,
    MaterializationCache,
    MinibatchExecutor,
    make_aggregator,
    make_combiner,
)
from repro.sampling import GraphProvider, UniformNeighborSampler
from repro.utils.rng import make_rng

rng = make_rng(21)


@pytest.mark.parametrize("name", ["mean", "sum", "maxpool", "lstm", "attention"])
def test_aggregator_shapes(name):
    agg = make_aggregator(name, 6, 4, rng)
    x = Tensor(make_rng(0).normal(size=(12, 6)))  # batch 3, fanout 4
    out = agg(x, 4)
    assert out.shape == (3, 4)


@pytest.mark.parametrize("name", ["mean", "sum", "maxpool", "attention"])
def test_aggregator_gradients(name):
    agg = make_aggregator(name, 3, 2, rng)
    x = Tensor(make_rng(1).normal(size=(4, 3)))
    check_gradients(lambda: (agg(x, 2) ** 2).sum(), agg.parameters(), atol=1e-4)


def test_lstm_aggregator_gradient():
    agg = make_aggregator("lstm", 3, 2, rng)
    x = Tensor(make_rng(2).normal(size=(4, 3)))
    check_gradients(lambda: (agg(x, 2) ** 2).sum(), agg.parameters(), atol=1e-4)


def test_mean_aggregator_is_permutation_invariant():
    agg = make_aggregator("mean", 3, 4, rng)
    x = make_rng(3).normal(size=(4, 3))
    out1 = agg(Tensor(x), 4).numpy()
    out2 = agg(Tensor(x[::-1].copy()), 4).numpy()
    np.testing.assert_allclose(out1, out2, atol=1e-12)


def test_maxpool_duplicate_neighbors_are_idempotent():
    # Max over {a, a} equals max over {a}: duplicated rows change nothing.
    agg = make_aggregator("maxpool", 2, 3, rng)
    row = np.array([[1.5, -0.5]])
    single = agg(Tensor(np.repeat(row, 2, axis=0)), 2).numpy()
    quad = agg(Tensor(np.repeat(row, 4, axis=0)), 4).numpy()
    np.testing.assert_allclose(single, quad, atol=1e-12)


def test_maxpool_permutation_invariant():
    agg = make_aggregator("maxpool", 2, 3, rng)
    x = make_rng(30).normal(size=(4, 2))
    out1 = agg(Tensor(x), 4).numpy()
    out2 = agg(Tensor(x[::-1].copy()), 4).numpy()
    np.testing.assert_allclose(out1, out2, atol=1e-12)


def test_fanout_divisibility_checked():
    agg = make_aggregator("lstm", 3, 2, rng)
    with pytest.raises(OperatorError):
        agg(Tensor(np.zeros((5, 3))), 2)


@pytest.mark.parametrize("name", ["sum", "concat", "gru"])
def test_combiner_shapes(name):
    comb = make_combiner(name, 4, 4, 4, rng)
    h_self = Tensor(make_rng(4).normal(size=(3, 4)))
    h_neigh = Tensor(make_rng(5).normal(size=(3, 4)))
    assert comb(h_self, h_neigh).shape == (3, 4)


def test_concat_combiner_mixed_dims():
    comb = make_combiner("concat", 4, 6, 5, rng)
    out = comb(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 6))))
    assert out.shape == (2, 5)


def test_sum_combiner_dim_check():
    with pytest.raises(OperatorError):
        make_combiner("sum", 4, 6, 5, rng)


def test_gru_combiner_state_dim_check():
    with pytest.raises(OperatorError):
        make_combiner("gru", 4, 4, 6, rng)


def test_combiner_gradients():
    comb = make_combiner("concat", 3, 3, 3, rng)
    a = Tensor(make_rng(6).normal(size=(2, 3)))
    b = Tensor(make_rng(7).normal(size=(2, 3)))
    check_gradients(lambda: (comb(a, b) ** 2).sum(), comb.parameters(), atol=1e-4)


def test_registries_populated():
    assert {"mean", "sum", "maxpool", "lstm", "attention"} <= set(AGGREGATOR_REGISTRY)
    assert {"sum", "concat", "gru"} <= set(COMBINER_REGISTRY)


def test_unknown_plugin_names():
    with pytest.raises(OperatorError):
        make_aggregator("median", 2, 2, rng)
    with pytest.raises(OperatorError):
        make_combiner("xor", 2, 2, 2, rng)


# --------------------------------------------------------------------- #
# Materialization cache
# --------------------------------------------------------------------- #
def _executor(graph, dim=8, fanouts=(4, 4)):
    gen = make_rng(8)
    f = 6
    features = make_rng(9).normal(size=(graph.n_vertices, f))
    aggs = [
        make_aggregator("mean", f, dim, gen),
        make_aggregator("mean", dim, dim, gen),
    ]
    combs = [
        make_combiner("concat", f, dim, dim, gen),
        make_combiner("concat", dim, dim, dim, gen),
    ]
    provider = GraphProvider(graph)
    return MinibatchExecutor(
        features, provider, UniformNeighborSampler(provider), aggs, combs, list(fanouts)
    )


def test_cache_lookup_update_roundtrip():
    cache = MaterializationCache(2)
    ids = np.array([3, 5])
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    cache.update(1, ids, vals)
    mask, missing = cache.lookup(1, np.array([3, 5, 7]))
    assert mask.tolist() == [True, True, False]
    assert missing == [7]
    np.testing.assert_array_equal(cache.get_rows(1, ids), vals)


def test_cache_get_missing_raises():
    cache = MaterializationCache(1)
    with pytest.raises(OperatorError):
        cache.get_rows(1, np.array([0]))


def test_cache_invalidate():
    cache = MaterializationCache(1)
    cache.update(1, np.array([0]), np.zeros((1, 2)))
    cache.invalidate()
    with pytest.raises(OperatorError):
        cache.get_rows(1, np.array([0]))


def test_cache_validations():
    with pytest.raises(OperatorError):
        MaterializationCache(0)
    cache = MaterializationCache(1)
    with pytest.raises(OperatorError):
        cache.update(1, np.array([0, 1]), np.zeros((1, 2)))


def test_cached_and_uncached_same_shape(small_powerlaw):
    ex = _executor(small_powerlaw)
    batch = make_rng(10).integers(0, small_powerlaw.n_vertices, 16)
    out_u = ex.embed_batch_uncached(batch, make_rng(11))
    cache = MaterializationCache(2)
    out_c = ex.embed_batch_cached(batch, make_rng(11), cache)
    assert out_u.shape == out_c.shape == (16, 8)
    assert np.isfinite(out_u).all() and np.isfinite(out_c).all()


def test_cache_hit_rate_rises_across_batches(small_powerlaw):
    ex = _executor(small_powerlaw)
    cache = MaterializationCache(2)
    gen = make_rng(12)
    ex.embed_batch_cached(gen.integers(0, 1000, 64), gen, cache)
    first_rate = cache.hit_rate
    for _ in range(4):
        ex.embed_batch_cached(gen.integers(0, 1000, 64), gen, cache)
    assert cache.hit_rate > first_rate


def test_warm_cache_returns_consistent_rows(small_powerlaw):
    ex = _executor(small_powerlaw)
    cache = MaterializationCache(2)
    gen = make_rng(13)
    batch = np.arange(32)
    first = ex.embed_batch_cached(batch, gen, cache)
    second = ex.embed_batch_cached(batch, gen, cache)
    # Fully warm: the second call is pure lookup, identical rows.
    np.testing.assert_array_equal(first, second)


def test_executor_validations(small_powerlaw):
    gen = make_rng(14)
    features = np.zeros((small_powerlaw.n_vertices, 4))
    provider = GraphProvider(small_powerlaw)
    sampler = UniformNeighborSampler(provider)
    agg = [make_aggregator("mean", 4, 4, gen)]
    comb = [make_combiner("concat", 4, 4, 4, gen)]
    with pytest.raises(OperatorError):
        MinibatchExecutor(features, provider, sampler, agg, comb, [2, 2])
    with pytest.raises(OperatorError):
        MinibatchExecutor(features, provider, sampler, agg, comb, [0])
    # A cache shallower than the executor's kmax is rejected.
    agg2 = agg + [make_aggregator("mean", 4, 4, gen)]
    comb2 = comb + [make_combiner("concat", 4, 4, 4, gen)]
    deep = MinibatchExecutor(features, provider, sampler, agg2, comb2, [2, 2])
    with pytest.raises(OperatorError):
        deep.embed_batch_cached(np.array([0]), gen, MaterializationCache(1))


# --------------------------------------------------------------------- #
# MaterializationCache: parity with the dict-based reference semantics
# --------------------------------------------------------------------- #
class _DictReference:
    """The pre-vectorization implementation, verbatim semantics."""

    def __init__(self, max_hop):
        self._store = [dict() for _ in range(max_hop + 1)]
        self.hits = 0
        self.misses = 0

    def lookup(self, hop, vertices):
        store = self._store[hop]
        mask = np.array([int(v) in store for v in vertices], dtype=bool)
        self.hits += int(mask.sum())
        self.misses += int((~mask).sum())
        return mask, [int(v) for v in vertices[~mask]]

    def get_rows(self, hop, vertices):
        store = self._store[hop]
        return np.stack([store[int(v)] for v in vertices])

    def update(self, hop, vertices, values):
        store = self._store[hop]
        for v, row in zip(vertices, values):
            store[int(v)] = row


def test_materialization_cache_parity_with_reference():
    rng = make_rng(5)
    ref = _DictReference(2)
    vec = MaterializationCache(2)
    for step in range(40):
        hop = int(rng.integers(1, 3))
        batch = rng.integers(0, 50, size=int(rng.integers(1, 12)))
        mask_r, missing_r = ref.lookup(hop, batch)
        mask_v, missing_v = vec.lookup(hop, batch)
        assert np.array_equal(mask_r, mask_v)
        assert missing_r == missing_v
        assert (ref.hits, ref.misses) == (vec.hits, vec.misses)
        if missing_r:
            miss = np.asarray(missing_r, dtype=np.int64)
            rows = rng.normal(size=(miss.size, 4))
            ref.update(hop, miss, rows)
            vec.update(hop, miss, rows)
        present = batch[mask_r] if mask_r.any() else None
        if present is not None and present.size:
            assert np.array_equal(
                ref.get_rows(hop, present), vec.get_rows(hop, present)
            )


def test_materialization_cache_update_last_write_wins():
    vec = MaterializationCache(1)
    verts = np.array([4, 9, 4, 2, 9])
    rows = np.arange(10, dtype=np.float64).reshape(5, 2)
    vec.update(1, verts, rows)
    ref = _DictReference(1)
    ref.update(1, verts, rows)
    for v in (4, 9, 2):
        assert np.array_equal(
            vec.get_rows(1, np.array([v])), ref.get_rows(1, np.array([v]))
        )


def test_materialization_cache_missing_vertex_message():
    vec = MaterializationCache(1)
    vec.update(1, np.array([3]), np.zeros((1, 2)))
    with pytest.raises(OperatorError, match="vertex 5 not materialized at hop 1"):
        vec.get_rows(1, np.array([3, 5]))
    with pytest.raises(OperatorError):
        MaterializationCache(1).get_rows(1, np.array([0]))
