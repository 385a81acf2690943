"""Operator layer: aggregators, the concat combiner, the registry, materialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import OperatorError
from repro.graph import Graph
from repro.nn import functional as F
from tests.gradcheck import check_gradients
from repro.nn.tensor import Tensor
from repro.ops import (
    AGGREGATOR_REGISTRY,
    ConcatCombiner,
    MaterializationCache,
    MinibatchExecutor,
    make_aggregator,
)
from repro.sampling import GraphProvider, UniformNeighborSampler
from repro.utils.rng import make_rng

rng = make_rng(21)

AGGREGATORS = ["mean", "maxpool"]


def fixed_reduce(agg, rows: Tensor, fanout: int) -> Tensor:
    """Oracle: AGGREGATE over already-gathered ``(B * fanout, d)`` neighbor
    rows, composed of the fixed-width kernels with ``agg``'s own parameters.

    ``agg(h, table)`` must equal ``fixed_reduce(agg,
    h.gather_rows(table.reshape(-1)), table.shape[1])`` bit for bit, values
    and gradients: gather-then-reduce is what the fused entry replaced.
    """
    if agg.name == "mean":
        return agg.dense(F.mean_rows_segmented(rows, fanout))
    assert agg.name == "maxpool"
    return agg.post(F.max_rows_segmented(agg.pre(rows), fanout))


@pytest.mark.parametrize("name", AGGREGATORS)
def test_aggregator_shapes(name):
    agg = make_aggregator(name, 6, 4, rng)
    h = Tensor(make_rng(0).normal(size=(12, 6)))
    assert agg(h, np.arange(12).reshape(3, 4)).shape == (3, 4)
    # The table addresses a level, it does not have to cover it.
    assert agg(h, np.array([[11, 0], [5, 5]])).shape == (2, 4)


@pytest.mark.usefixtures("float64_tape")
@pytest.mark.parametrize("name", AGGREGATORS)
def test_aggregator_gradients(name):
    agg = make_aggregator(name, 3, 2, rng)
    h = Tensor(make_rng(1).normal(size=(4, 3)), requires_grad=True)
    table = np.array([[0, 1], [3, 3], [2, 0]])
    check_gradients(lambda: (agg(h, table) ** 2).sum(), [h] + agg.parameters(), atol=1e-4)


@pytest.mark.parametrize("name", AGGREGATORS)
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12), batch=st.integers(1, 9), fanout=st.integers(1, 11),
    d=st.integers(2, 5), seed=st.integers(0, 2**16),
)
def test_aggregator_equals_gather_then_reduce(name, n, batch, fanout, d, seed):
    """The one entry against the rows+fanout composition it replaced.

    ``d >= 2``: over one column numpy's strided ``add.reduce`` collapses to
    its contiguous pairwise loop, which groups a fanout >= 8 sum differently
    from the SpMM's sequential one (both correct, one ulp apart).
    """
    gen = make_rng(seed)
    table = gen.integers(0, n, size=(batch, fanout))
    table[0] = table[0, 0]  # one vertex filling a whole child row
    own = np.arange(min(batch, n))
    table[own, 0] = own  # self-referencing: row b picks position b
    data = gen.normal(size=(n, d))

    def run(forward):
        agg = make_aggregator(name, d, 3, make_rng(seed + 1))
        h = Tensor(data, requires_grad=True)
        out = forward(agg, h)
        (out**2).sum().backward()
        return [out.numpy(), h.grad] + [p.grad for p in agg.parameters()]

    fused = run(lambda agg, h: agg(h, table))
    oracle = run(lambda agg, h: fixed_reduce(agg, h.gather_rows(table.reshape(-1)), fanout))
    for got, want in zip(fused, oracle):
        assert np.array_equal(got, want)


def test_mean_aggregator_is_permutation_invariant():
    agg = make_aggregator("mean", 3, 4, rng)
    h = Tensor(make_rng(3).normal(size=(4, 3)))
    out1 = agg(h, np.array([[0, 1, 2, 3]])).numpy()
    out2 = agg(h, np.array([[3, 2, 1, 0]])).numpy()
    np.testing.assert_allclose(out1, out2, atol=1e-12)


def test_maxpool_duplicate_neighbors_are_idempotent():
    # Max over {a, a} equals max over {a}: duplicated picks change nothing.
    agg = make_aggregator("maxpool", 2, 3, rng)
    h = Tensor(np.array([[1.5, -0.5]]))
    single = agg(h, np.zeros((1, 2), dtype=np.int64)).numpy()
    quad = agg(h, np.zeros((1, 4), dtype=np.int64)).numpy()
    np.testing.assert_allclose(single, quad, atol=1e-12)


def test_maxpool_permutation_invariant():
    agg = make_aggregator("maxpool", 2, 3, rng)
    h = Tensor(make_rng(30).normal(size=(4, 2)))
    out1 = agg(h, np.array([[0, 1, 2, 3]])).numpy()
    out2 = agg(h, np.array([[3, 2, 1, 0]])).numpy()
    np.testing.assert_allclose(out1, out2, atol=1e-12)


@pytest.mark.parametrize(
    "table,shape",
    [
        (np.zeros((3, 0), dtype=np.int64), r"\(3, 0\)"),  # zero-width: no neighbor
        (np.array([0, 1, 2]), r"\(3,\)"),  # 1-D
        (np.zeros((2, 2, 2), dtype=np.int64), r"\(2, 2, 2\)"),
        (np.array([[0.0, 1.0]]), r"\(1, 2\) of float64"),  # not integer
    ],
    ids=["zero_width", "one_dim", "three_dim", "float"],
)
@pytest.mark.parametrize("name", AGGREGATORS)
def test_aggregator_rejects_malformed_table(name, table, shape):
    agg = make_aggregator(name, 3, 2, rng)
    h = Tensor(np.ones((4, 3)))
    with np.errstate(all="raise"), pytest.raises(OperatorError, match=shape):
        agg(h, table)


@pytest.mark.parametrize("name", ["concat"])
def test_combiner_shapes(name):
    comb = {"concat": ConcatCombiner}[name](4, 4, 4, rng)
    h_self = Tensor(make_rng(4).normal(size=(3, 4)))
    h_neigh = Tensor(make_rng(5).normal(size=(3, 4)))
    assert comb(h_self, h_neigh).shape == (3, 4)


def test_concat_combiner_mixed_dims():
    comb = ConcatCombiner(4, 6, 5, rng)
    out = comb(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 6))))
    assert out.shape == (2, 5)


@pytest.mark.usefixtures("float64_tape")
def test_combiner_gradients():
    comb = ConcatCombiner(3, 3, 3, rng)
    a = Tensor(make_rng(6).normal(size=(2, 3)))
    b = Tensor(make_rng(7).normal(size=(2, 3)))
    check_gradients(lambda: (comb(a, b) ** 2).sum(), comb.parameters(), atol=1e-4)


def test_registries_populated():
    assert set(AGGREGATORS) == set(AGGREGATOR_REGISTRY)


def test_unknown_plugin_names():
    with pytest.raises(OperatorError):
        make_aggregator("median", 2, 2, rng)


# --------------------------------------------------------------------- #
# Materialization cache
# --------------------------------------------------------------------- #
def _executor(graph, dim=8, fanouts=(4, 4), aggregator="mean"):
    gen = make_rng(8)
    f = 6
    features = make_rng(9).normal(size=(graph.n_vertices, f))
    aggs = [
        make_aggregator(aggregator, f, dim, gen),
        make_aggregator(aggregator, dim, dim, gen),
    ]
    combs = [
        ConcatCombiner(f, dim, dim, gen),
        ConcatCombiner(dim, dim, dim, gen),
    ]
    sampler = UniformNeighborSampler(GraphProvider(graph))
    return MinibatchExecutor(features, sampler, aggs, combs, list(fanouts))


def test_cache_lookup_update_roundtrip():
    cache = MaterializationCache(2, 10)
    ids = np.array([3, 5])
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    cache.update(1, ids, vals)
    mask, missing = cache.lookup(1, np.array([3, 5, 7]))
    assert mask.tolist() == [True, True, False]
    assert missing.tolist() == [7]
    np.testing.assert_array_equal(cache.get_rows(1, ids), vals)


def test_cache_get_missing_raises():
    cache = MaterializationCache(1, 4)
    with pytest.raises(OperatorError):
        cache.get_rows(1, np.array([0]))


def test_cache_validations():
    with pytest.raises(OperatorError):
        MaterializationCache(0, 4)
    with pytest.raises(OperatorError):
        MaterializationCache(1, 0)
    cache = MaterializationCache(1, 4)
    with pytest.raises(OperatorError):
        cache.update(1, np.array([0, 1]), np.zeros((1, 2)))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda c: c.lookup(5, np.array([0])), r"hop 5 outside \[1, 2\]"),
        (lambda c: c.get_rows(3, np.array([0])), r"hop 3 outside \[1, 2\]"),
        # Hop 0 is the feature matrix: nothing to materialize there.
        (lambda c: c.update(0, np.array([0]), np.zeros((1, 2))), r"hop 0 outside \[1, 2\]"),
        (lambda c: c.lookup(1, np.array([0, 6])), r"row ids span \[0, 6\], outside \[0, 6\)"),
        (lambda c: c.get_rows(1, np.array([-1])), r"row ids span \[-1, -1\], outside \[0, 6\)"),
        (lambda c: c.update(2, np.array([9]), np.zeros((1, 2))), r"row ids span \[9, 9\], outside \[0, 6\)"),
        (lambda c: c.update(1, np.array([0, 1]), np.zeros(2)), r"\(2, 2\) values, got shape \(2,\)"),
        (lambda c: c.update(1, np.array([0]), np.zeros((1, 3))), r"\(1, 2\) values, got shape \(1, 3\)"),
        (lambda c: c.update(2, np.array([0, 1]), np.zeros((3, 2))), r"\(2, d\) values, got shape \(3, 2\)"),
    ],
    ids=[
        "lookup_deep_hop", "get_rows_deep_hop", "update_hop_zero", "lookup_id_high",
        "get_rows_id_negative", "update_id_high", "update_1d_values",
        "update_row_width", "update_length",
    ],
)
def test_cache_typed_errors_leave_it_untouched(call, message):
    cache = MaterializationCache(2, 6)
    held = np.array([[1.0, 2.0], [3.0, 4.0]])
    cache.update(1, np.array([2, 4]), held)
    cache.lookup(1, np.array([2, 3]))
    with pytest.raises(OperatorError, match=message):
        call(cache)
    assert (cache.hits, cache.misses) == (1, 1)
    np.testing.assert_array_equal(cache.get_rows(1, np.array([2, 4])), held)


def test_cached_and_uncached_same_shape(small_powerlaw):
    ex = _executor(small_powerlaw)
    batch = make_rng(10).integers(0, small_powerlaw.n_vertices, 16)
    out_u = ex.embed_batch_uncached(batch, make_rng(11))
    cache = MaterializationCache(2, small_powerlaw.n_vertices)
    out_c = ex.embed_batch_cached(batch, make_rng(11), cache)
    assert out_u.shape == out_c.shape == (16, 8)
    assert np.isfinite(out_u).all() and np.isfinite(out_c).all()


@pytest.mark.parametrize("name", AGGREGATORS)
def test_cached_equals_uncached_when_every_draw_is_forced(name):
    """Out-degree 1 everywhere and equal fanouts: the expansion tree and the
    deduplicated expansion must pick the same children, so the two Table-5
    recursions compute the same vectors (duplicates and all)."""
    n = 30
    dst = make_rng(2).permutation(n)
    graph = Graph(n, np.arange(n), dst, directed=True)
    ex = _executor(graph, fanouts=(3, 3), aggregator=name)
    batch = np.array([4, 9, 4, 0, 29, 9])
    cache = MaterializationCache(2, n)
    out_u = ex.embed_batch_uncached(batch, make_rng(1))
    cold = ex.embed_batch_cached(batch, make_rng(1), cache)
    warm = ex.embed_batch_cached(batch, make_rng(1), cache)
    # Not bitwise: the tree's matmuls see each row at other positions.
    np.testing.assert_allclose(cold, out_u, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(warm, cold)
    assert np.abs(out_u).sum() > 0


def test_cache_hit_rate_rises_across_batches(small_powerlaw):
    ex = _executor(small_powerlaw)
    cache = MaterializationCache(2, small_powerlaw.n_vertices)
    gen = make_rng(12)
    ex.embed_batch_cached(gen.integers(0, 1000, 64), gen, cache)
    first_rate = cache.hit_rate
    for _ in range(4):
        ex.embed_batch_cached(gen.integers(0, 1000, 64), gen, cache)
    assert cache.hit_rate > first_rate


def test_warm_cache_returns_consistent_rows(small_powerlaw):
    ex = _executor(small_powerlaw)
    cache = MaterializationCache(2, small_powerlaw.n_vertices)
    gen = make_rng(13)
    batch = np.arange(32)
    first = ex.embed_batch_cached(batch, gen, cache)
    second = ex.embed_batch_cached(batch, gen, cache)
    # Fully warm: the second call is pure lookup, identical rows.
    np.testing.assert_array_equal(first, second)


def test_executor_validations(small_powerlaw):
    gen = make_rng(14)
    n = small_powerlaw.n_vertices
    features = np.zeros((n, 4))
    sampler = UniformNeighborSampler(GraphProvider(small_powerlaw))
    agg = [make_aggregator("mean", 4, 4, gen)]
    comb = [ConcatCombiner(4, 4, 4, gen)]
    with pytest.raises(OperatorError):
        MinibatchExecutor(features, sampler, agg, comb, [2, 2])
    with pytest.raises(OperatorError):
        MinibatchExecutor(features, sampler, agg, comb, [0])
    # A cache shallower than the executor's kmax is rejected.
    agg2 = agg + [make_aggregator("mean", 4, 4, gen)]
    comb2 = comb + [ConcatCombiner(4, 4, 4, gen)]
    deep = MinibatchExecutor(features, sampler, agg2, comb2, [2, 2])
    with pytest.raises(OperatorError):
        deep.embed_batch_cached(np.array([0]), gen, MaterializationCache(1, n))


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize(
    "batch,message",
    [
        ([3, 1000], r"row ids span \[3, 1000\], outside \[0, 1000\)"),
        ([-1, 3], r"row ids span \[-1, 3\], outside \[0, 1000\)"),
        ([[1, 2], [3, 4]], r"got shape \(2, 2\)"),
        ([], r"got shape \(0,\)"),
    ],
    ids=["id_high", "id_negative", "two_dim", "empty"],
)
def test_executor_rejects_bad_batch_before_any_draw(small_powerlaw, cached, batch, message):
    ex = _executor(small_powerlaw)
    cache = MaterializationCache(2, small_powerlaw.n_vertices)
    gen = make_rng(3)
    before = gen.bit_generator.state
    with pytest.raises(OperatorError, match=message):
        if cached:
            ex.embed_batch_cached(np.array(batch, dtype=np.int64), gen, cache)
        else:
            ex.embed_batch_uncached(np.array(batch, dtype=np.int64), gen)
    assert gen.bit_generator.state == before
    assert (cache.hits, cache.misses) == (0, 0)


# --------------------------------------------------------------------- #
# MaterializationCache against a dict[(hop, vertex)] -> row model
# --------------------------------------------------------------------- #
class CacheMachine(RuleBasedStateMachine):
    """Any interleaving of the four operations — duplicate ids inside one
    update, re-updates of held ids, growth past the first 64-row buffer —
    leaves the rows, the hit / miss counters and ``hit_rate`` what a dict
    written one vertex at a time would hold."""

    N, HOPS, D = 150, 2, 3
    hops = st.integers(1, HOPS)
    ids = st.lists(st.integers(0, N - 1), max_size=50)

    def __init__(self):
        super().__init__()
        self.cache = MaterializationCache(self.HOPS, self.N)
        self.model: dict = {}
        self.hits = self.misses = 0
        self.written = 0

    @rule(hop=hops, verts=ids)
    def update(self, hop, verts):
        rows = self.written + np.arange(len(verts) * self.D, dtype=float).reshape(-1, self.D)
        self.written += rows.size
        self.cache.update(hop, np.array(verts, dtype=np.int64), rows)
        for v, row in zip(verts, rows):
            self.model[hop, v] = row  # in order: the last write wins

    @rule(hop=hops, verts=ids)
    def lookup(self, hop, verts):
        verts = np.array(verts, dtype=np.int64)
        held = np.array([(hop, int(v)) in self.model for v in verts], dtype=bool)
        mask, missing = self.cache.lookup(hop, verts)
        np.testing.assert_array_equal(mask, held)
        np.testing.assert_array_equal(missing, verts[~held])
        self.hits += int(held.sum())
        self.misses += int((~held).sum())

    @rule(hop=hops, data=st.data())
    def get_rows(self, hop, data):
        held = sorted(v for h, v in self.model if h == hop)
        if not held:
            with pytest.raises(OperatorError):
                self.cache.get_rows(hop, np.array([0]))
            return
        verts = data.draw(st.lists(st.sampled_from(held), min_size=1, max_size=20))
        np.testing.assert_array_equal(
            self.cache.get_rows(hop, np.array(verts)),
            np.stack([self.model[hop, v] for v in verts]),
        )
        absent = sorted(set(range(self.N)) - set(held))
        with pytest.raises(OperatorError, match=f"vertex {absent[0]} not materialized"):
            self.cache.get_rows(hop, np.array([held[0], absent[0]]))

    @invariant()
    def counters_agree(self):
        assert (self.cache.hits, self.cache.misses) == (self.hits, self.misses)
        total = self.hits + self.misses
        assert self.cache.hit_rate == (self.hits / total if total else 0.0)


def test_materialization_cache_parity_with_reference():
    from hypothesis.stateful import run_state_machine_as_test

    run_state_machine_as_test(
        CacheMachine,
        settings=settings(max_examples=60, stateful_step_count=25, deadline=None),
    )


def test_materialization_cache_grows_and_keeps_held_rows():
    cache = MaterializationCache(1, 500)
    first = np.arange(10)
    cache.update(1, first, np.tile(first[:, None], (1, 2)).astype(float))
    more = np.arange(5, 400)  # overlaps the held ids, far past 64 rows
    cache.update(1, more, np.tile(-more[:, None], (1, 2)).astype(float))
    np.testing.assert_array_equal(cache.get_rows(1, first[:5])[:, 0], first[:5])
    np.testing.assert_array_equal(cache.get_rows(1, more)[:, 0], -more)


def test_materialization_cache_update_last_write_wins():
    cache = MaterializationCache(1, 10)
    verts = np.array([4, 9, 4, 2, 9])
    rows = np.arange(10, dtype=np.float64).reshape(5, 2)
    cache.update(1, verts, rows)
    np.testing.assert_array_equal(
        cache.get_rows(1, np.array([4, 9, 2])), rows[[2, 4, 3]]
    )


def test_materialization_cache_missing_vertex_message():
    cache = MaterializationCache(1, 10)
    cache.update(1, np.array([3]), np.zeros((1, 2)))
    with pytest.raises(OperatorError, match="vertex 5 not materialized at hop 1"):
        cache.get_rows(1, np.array([3, 5]))
    with pytest.raises(OperatorError):
        MaterializationCache(1, 10).get_rows(1, np.array([0]))
