"""Minibatch k-hop blocks, SIGN, and the hep gather."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SIGN, GNNFramework
from repro.algorithms.base import node_features
from repro.algorithms.framework import _GNNEncoder
from repro.algorithms.hep import typed_adjacency
from repro.algorithms.sign import propagate_sign
from repro.data import train_test_split_edges
from repro.errors import SamplingError
from repro.graph import Graph
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.sampling import (
    GraphProvider,
    UniformNeighborSampler,
    build_block,
    build_block_from_tables,
)
from repro.sampling.kernels import CsrAdjacency
from repro.tasks import evaluate_link_prediction
from repro.utils.rng import make_rng
from tests.test_ops import fixed_reduce

AGGREGATORS = ["mean", "maxpool"]


@pytest.fixture(scope="module")
def taobao_setup(small_taobao):
    model = GNNFramework(dim=16, kmax=2, fanout=4)
    features = node_features(small_taobao, make_rng(model.seed), 16)
    sampler = UniformNeighborSampler(GraphProvider(small_taobao))
    tables = model._sample_hop_tables(small_taobao, sampler, make_rng(3))
    return small_taobao, features, sampler, tables


# ---------------------------------------------------------------------- #
# Block construction
# ---------------------------------------------------------------------- #
def test_block_structure_invariants(taobao_setup):
    graph, _, _, tables = taobao_setup
    seeds = np.array([5, 2, 9, 2, 40])  # dupes on purpose
    block = build_block_from_tables(seeds, tables)
    assert block.n_hops == 2
    np.testing.assert_array_equal(block.seeds, np.unique(seeds))
    for k in range(block.n_hops):
        layer, above = block.layers[k], block.layers[k + 1]
        # Levels are sorted unique and supersets of the level above.
        np.testing.assert_array_equal(layer, np.unique(layer))
        assert np.isin(above, layer).all()
        # Relabeled indices map back to exactly the global hop-table draws.
        np.testing.assert_array_equal(layer[block.self_index[k]], above)
        np.testing.assert_array_equal(
            layer[block.child_index[k]], tables[k][above]
        )
    assert block.total_rows() == sum(le.size for le in block.layers)
    assert block.n_input_rows == block.layers[0].size


def test_block_live_sampling_deterministic(taobao_setup):
    graph, _, sampler, _ = taobao_setup
    seeds = np.arange(0, 60, 7)
    b1 = build_block(seeds, sampler, [4, 4], make_rng(11))
    b2 = build_block(seeds, sampler, [4, 4], make_rng(11))
    for la, lb in zip(b1.layers, b2.layers):
        np.testing.assert_array_equal(la, lb)
    for ca, cb in zip(b1.child_index, b2.child_index):
        np.testing.assert_array_equal(ca, cb)


def test_block_validation(taobao_setup):
    _, _, sampler, tables = taobao_setup
    with pytest.raises(SamplingError):
        build_block(np.array([], dtype=np.int64), sampler, [4], make_rng(0))
    with pytest.raises(SamplingError):
        build_block(np.array([1]), sampler, [], make_rng(0))
    block = build_block_from_tables(np.array([3, 7, 1]), tables)
    np.testing.assert_array_equal(
        block.seed_positions(np.array([7, 3, 7])), [2, 1, 2]
    )
    assert block.seed_positions(np.array([[1], [7]])).tolist() == [[0], [2]]
    assert block.seed_positions([]).shape == (0,)
    for outside in ([4], [3, 0]):  # not seeds, inside the seeds' id span
        with pytest.raises(SamplingError, match="outside the block's seed set"):
            block.seed_positions(np.array(outside))
    for outside in ([-1], [8], [10**9]):  # outside the seeds' id span
        with pytest.raises(SamplingError, match=r"seed ids span \[.*\], outside \[0, 8\)"):
            block.seed_positions(np.array(outside))
    # A float is not an id: 1.5 used to truncate to seed 1's row.
    for not_ids in (np.array([1.5]), np.array([3.0]), np.array([True])):
        with pytest.raises(SamplingError, match="seed ids must be an array of integers"):
            block.seed_positions(not_ids)


def test_block_builders_reject_bad_ids_before_any_draw(taobao_setup):
    """Every id is checked against ``[0, n_vertices)`` before it addresses a
    table: out-of-range seeds were an ``IndexError`` from inside the sampler
    kernel (live) or a block holding vertex -1 (tables), an out-of-range
    hop-table entry a block holding vertex 10**6."""
    graph, _, sampler, tables = taobao_setup
    n = graph.n_vertices
    for bad in ([-1], [n], [n + 5, 3], [[1, 2], [3, 4]], [2.7]):
        rng = make_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(SamplingError):
            build_block(np.array(bad), sampler, [4, 4], rng)
        assert rng.bit_generator.state == before
        with pytest.raises(SamplingError):
            build_block_from_tables(np.array(bad), tables)
    # The frontier API itself: 2.7 was drawn for as vertex 2, n was a bare
    # IndexError from the kernel.
    for bad in ([2.7], [n], [[1, 2], [3, 4]]):
        rng = make_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(SamplingError):
            sampler.sample_children(np.array(bad), 3, rng)
        assert rng.bit_generator.state == before
    poisoned = [tables[0], tables[1].copy()]
    poisoned[1][0, 0] = 10**6
    with pytest.raises(SamplingError, match=r"outside \[0, \d+\)"):
        build_block_from_tables(np.array([0, 1]), poisoned)
    poisoned[1][0, 0] = -1
    with pytest.raises(SamplingError, match=r"outside \[0, \d+\)"):
        build_block_from_tables(np.array([0, 1]), poisoned)
    # A float table was truncated: 1.7 looked up vertex 1.
    with pytest.raises(SamplingError, match="hop table entries must be"):
        build_block_from_tables(np.array([0, 1]), [tables[0] + 0.7, tables[1]])
    for malformed in ([tables[0], tables[1][:-1]], [tables[0][:, :0]], [tables[0][0]]):
        with pytest.raises(SamplingError, match="hop tables must be"):
            build_block_from_tables(np.array([0]), malformed)


# ---------------------------------------------------------------------- #
# Direct-address level construction == the sort-and-search builder
# ---------------------------------------------------------------------- #
def sorted_block(seeds, hop_nums, sample_hop):
    """Oracle: the builder ``compact_level`` replaced — each level is
    ``np.unique`` of the level above plus its children, each index table a
    binary search of the sorted level."""
    kmax = len(hop_nums)
    layers = [None] * kmax + [np.unique(np.asarray(seeds, dtype=np.int64))]
    children_at = [None] * kmax
    for k in range(kmax - 1, -1, -1):
        children_at[k] = sample_hop(k, layers[k + 1])
        layers[k] = np.unique(np.concatenate([layers[k + 1], children_at[k].ravel()]))
    self_index = [np.searchsorted(layers[k], layers[k + 1]) for k in range(kmax)]
    child_index = [np.searchsorted(layers[k], children_at[k]) for k in range(kmax)]
    return layers, self_index, child_index


def _assert_block_equals(block, oracle):
    for got_level, want_level in zip(
        (block.layers, block.self_index, block.child_index), oracle
    ):
        assert len(got_level) == len(want_level)
        for got, want in zip(got_level, want_level):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_blocks_equal_sorted_oracle_on_random_multigraphs(data):
    n = data.draw(st.integers(1, 40), label="n")
    vertex = st.integers(0, n - 1)
    # A multigraph: parallel edges, self-loops and vertices with no out-edges.
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n), label="edges")
    src, dst = (np.array(col, dtype=np.int64) for col in (zip(*edges) if edges else ((), ())))
    sampler = UniformNeighborSampler(GraphProvider(Graph(n, src, dst)))
    hop_nums = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3), label="hops")
    seeds = np.array(data.draw(st.lists(vertex, min_size=1, max_size=2 * n), label="seeds"))
    seed = data.draw(st.integers(0, 2**16), label="rng")

    rng, oracle_rng = make_rng(seed), make_rng(seed)
    live = build_block(seeds, sampler, hop_nums, rng)
    _assert_block_equals(live, sorted_block(
        seeds, hop_nums,
        lambda k, frontier: sampler.sample_children(frontier, hop_nums[k], oracle_rng),
    ))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state

    everyone = np.arange(n, dtype=np.int64)
    tables = [sampler.sample_children(everyone, h, rng) for h in hop_nums]
    looked_up = build_block_from_tables(seeds, tables)
    _assert_block_equals(
        looked_up, sorted_block(seeds, hop_nums, lambda k, frontier: tables[k][frontier])
    )

    query = np.repeat(seeds, 2)
    make_rng(seed + 1).shuffle(query)
    for block in (live, looked_up):
        want = np.searchsorted(block.seeds, query)
        got = block.seed_positions(query)
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------- #
# Tentpole exactness: block forward == full forward on the same draws
# ---------------------------------------------------------------------- #
def hop_table_forward(encoder, features, hop_tables):
    """Oracle: Algorithm 1 over all n vertices straight off ``(n, fanout)``
    hop tables — no block, no relabeling, and AGGREGATE as gather-then-
    reduce over the materialised ``(n * fanout, d)`` neighbor matrix — so
    the block path and its fused gather-reduce are compared to an
    independent computation."""
    h = features
    for k, table in enumerate(hop_tables):
        neigh = h.gather_rows(table.reshape(-1))  # (n*fanout, d)
        h_neigh = fixed_reduce(encoder.aggregators[k], neigh, table.shape[1])
        h = F.l2_normalize(encoder.combiners[k](h, h_neigh))
    return h


def _hop_table_variants(graph, sampler, tables):
    """The fixture's fanout-4 draws, plus what a power-of-two sweep misses:
    fanouts where dividing by the count and multiplying by its reciprocal
    round differently, and child rows holding one vertex several times."""
    yield tables
    for fanouts in ([3, 5], [10, 3]):
        rng = make_rng(sum(fanouts))
        everyone = np.arange(graph.n_vertices, dtype=np.int64)
        yield [sampler.sample_children(everyone, f, rng) for f in fanouts]
    repeated = [t.copy() for t in tables]
    for table in repeated:
        table[:, 1] = table[:, 0]
        table[::3] = table[::3, :1]  # every third row: one vertex, four times
    yield repeated


@pytest.mark.parametrize("aggregator", AGGREGATORS)
def test_block_forward_bitwise_equals_full(taobao_setup, aggregator):
    graph, features, sampler, fixture_tables = taobao_setup
    encoder = _GNNEncoder(
        in_dim=features.shape[1],
        hidden_dim=16,
        out_dim=16,
        kmax=2,
        aggregator=aggregator,
        rng=make_rng(1),
    )
    feat_tensor = Tensor(features)
    seeds = np.unique(make_rng(9).integers(0, graph.n_vertices, size=80))
    for tables in _hop_table_variants(graph, sampler, fixture_tables):
        full = hop_table_forward(encoder, feat_tensor, tables).numpy()
        block = build_block_from_tables(seeds, tables)
        block_out = encoder(feat_tensor, block).numpy()
        # Ulp-identical, not merely close: same draws + row-wise ops.
        assert np.array_equal(full[block.seeds], block_out)
        # The all-vertex block (full-graph training, the final embedding
        # pass) is the oracle row for row.
        everyone = build_block_from_tables(np.arange(graph.n_vertices), tables)
        for k, table in enumerate(tables):
            assert np.array_equal(everyone.child_index[k], table)
        assert np.array_equal(encoder(feat_tensor, everyone).numpy(), full)


def test_block_backward_matches_full(taobao_setup):
    """Gradients through the block forward equal the full forward's."""
    graph, features, _, tables = taobao_setup
    seeds = np.arange(0, 50, 3)

    def loss_grads(use_block):
        encoder = _GNNEncoder(
            in_dim=features.shape[1], hidden_dim=16, out_dim=16, kmax=2,
            aggregator="mean", rng=make_rng(1),
        )
        feat_tensor = Tensor(features)
        if use_block:
            block = build_block_from_tables(seeds, tables)
            h = encoder(feat_tensor, block)
            rows = block.seed_positions(seeds)
        else:
            h = hop_table_forward(encoder, feat_tensor, tables)
            rows = seeds
        (h.gather_rows(rows) ** 2).sum().backward()
        return [p.grad.copy() for p in encoder.parameters()]

    for g_full, g_block in zip(loss_grads(False), loss_grads(True)):
        np.testing.assert_allclose(g_full, g_block, atol=1e-12)


def test_fused_aggregate_backward_bitwise_equals_gather_then_reduce(taobao_setup):
    """Over the all-vertex block every matmul sees the oracle's rows, so the
    SpMM AGGREGATE must reproduce gather-then-reduce gradients bit for bit
    — trainable features included, which drives the hop-0 backward too."""
    graph, features, sampler, fixture_tables = taobao_setup
    rows = np.arange(0, graph.n_vertices, 3)
    for tables in _hop_table_variants(graph, sampler, fixture_tables):

        def loss_grads(use_block):
            encoder = _GNNEncoder(
                in_dim=features.shape[1], hidden_dim=16, out_dim=16, kmax=2,
                aggregator="mean", rng=make_rng(1),
            )
            feat_tensor = Tensor(features, requires_grad=True)
            if use_block:
                block = build_block_from_tables(np.arange(graph.n_vertices), tables)
                h = encoder(feat_tensor, block)
            else:
                h = hop_table_forward(encoder, feat_tensor, tables)
            (h.gather_rows(rows) ** 2).sum().backward()
            return [p.grad for p in encoder.parameters()] + [feat_tensor.grad]

        for g_full, g_block in zip(loss_grads(False), loss_grads(True)):
            assert np.array_equal(g_full, g_block)


# ---------------------------------------------------------------------- #
# Minibatch training mode
# ---------------------------------------------------------------------- #
def test_minibatch_training_same_seed_deterministic(small_taobao):
    def fit():
        return GNNFramework(
            dim=12, kmax=2, fanout=4, epochs=2, max_steps_per_epoch=4,
            minibatch_blocks=True, seed=5,
        ).fit(small_taobao)

    m1, m2 = fit(), fit()
    np.testing.assert_array_equal(m1.embeddings(), m2.embeddings())
    assert m1.block_stats == m2.block_stats
    assert m1.block_stats["steps"] == 8
    # Blocks must actually be sub-graph sized.
    per_step = m1.block_stats["input_rows"] / m1.block_stats["steps"]
    assert 0 < per_step <= small_taobao.n_vertices


def test_minibatch_batch_stream_matches_full_graph(small_taobao):
    """The dedicated block RNG leaves the (src, dst, negs) stream intact:
    loss histories differ (different forwards) but both modes are driven by
    identical batches — checked via identical first-epoch batch draws."""
    from repro.sampling.negative import DegreeBiasedNegativeSampler
    from repro.sampling.traverse import EdgeTraverseSampler

    def first_batch(minibatch):
        model = GNNFramework(
            dim=8, kmax=1, fanout=3, epochs=1, max_steps_per_epoch=1,
            minibatch_blocks=minibatch, seed=7,
        )
        rng = make_rng(model.seed)
        # Replay exactly what fit() consumes from the main stream before
        # the first batch draw.
        features = node_features(small_taobao, make_rng(model.seed), 8)
        sampler = model._make_sampler(small_taobao)
        _GNNEncoder(
            in_dim=features.shape[1],
            hidden_dim=model.hidden_dim, out_dim=model.dim, kmax=model.kmax,
            aggregator=model.aggregator, rng=rng,
        )
        if not minibatch:
            model._sample_hop_tables(small_taobao, sampler, rng)
        src, dst = EdgeTraverseSampler(small_taobao).sample(model.batch_size, rng)
        negs = DegreeBiasedNegativeSampler(small_taobao).sample(
            src, model.neg_num, rng
        )
        return src, dst, negs

    full = first_batch(False)
    # Minibatch mode consumes one fewer main-rng draw round (no hop
    # tables up front), so streams are *not* literally identical — the
    # contract is that minibatch mode's batches are reproducible and the
    # main rng is never touched by block sampling.
    mb1, mb2 = first_batch(True), first_batch(True)
    for a, b in zip(mb1, mb2):
        np.testing.assert_array_equal(a, b)
    assert all(arr.size for arr in full)


def test_minibatch_quality_within_noise(small_taobao):
    split = train_test_split_edges(small_taobao, 0.2, seed=0)
    kwargs = dict(dim=16, kmax=2, fanout=4, epochs=3, seed=0)
    aucs = {}
    for mode in (False, True):
        model = GNNFramework(minibatch_blocks=mode, **kwargs).fit(split.train_graph)
        aucs[mode] = evaluate_link_prediction(
            model.embeddings(), split, per_type_average=False
        ).roc_auc
    assert aucs[True] > 60.0
    assert abs(aucs[True] - aucs[False]) < 12.0


# ---------------------------------------------------------------------- #
# SIGN
# ---------------------------------------------------------------------- #
def test_propagate_sign_matches_dense_oracle(tiny_graph):
    csr = CsrAdjacency.from_graph(tiny_graph)
    x = make_rng(3).normal(size=(tiny_graph.n_vertices, 4))
    z = propagate_sign(x, csr, hops=2)
    assert z.shape == (tiny_graph.n_vertices, 12)
    # Dense oracle: row-normalized adjacency powers.
    n = tiny_graph.n_vertices
    a = np.zeros((n, n))
    for v in range(n):
        nbrs = tiny_graph.out_neighbors(v)
        if nbrs.size:
            a[v, nbrs] = 1.0 / nbrs.size
    np.testing.assert_allclose(z[:, :4], x)
    np.testing.assert_allclose(z[:, 4:8], a @ x, atol=1e-12)
    np.testing.assert_allclose(z[:, 8:], a @ (a @ x), atol=1e-12)


def test_sign_trains_and_is_deterministic(small_taobao):
    def fit():
        return SIGN(dim=16, hops=2, epochs=2, seed=4).fit(small_taobao)

    m1, m2 = fit(), fit()
    emb = m1.embeddings()
    assert emb.shape == (small_taobao.n_vertices, 16)
    assert np.isfinite(emb).all()
    np.testing.assert_array_equal(emb, m2.embeddings())
    assert m1.loss_history and m1.loss_history[-1] <= m1.loss_history[0]


def test_sign_link_prediction_quality(small_taobao):
    split = train_test_split_edges(small_taobao, 0.2, seed=0)
    model = SIGN(dim=16, hops=2, epochs=4, seed=0).fit(split.train_graph)
    auc = evaluate_link_prediction(
        model.embeddings(), split, per_type_average=False
    ).roc_auc
    assert auc > 60.0


# ---------------------------------------------------------------------- #
# HEP typed-neighbor gather (vectorization oracle)
# ---------------------------------------------------------------------- #
def test_hep_typed_rows_match_per_vertex_reference(small_taobao):
    """HEP's pick — per type block, ``sample_leading`` over the vertices
    with a typed neighbor — against the per-vertex pad it batches."""
    graph = small_taobao
    indptr, indices, weights = graph.csr_arrays()
    vertex_types = graph.vertex_types
    n_types = len(graph.vertex_type_names)
    cap = 5
    typed = typed_adjacency(indptr, indices, weights, vertex_types, n_types)
    vertices = np.arange(graph.n_vertices, dtype=np.int64)
    for c in range(n_types):
        block = typed[c]
        valid = vertices[block.degrees > 0]
        rows = block.sample_leading(valid, cap)
        # Per-vertex reference: the old python-loop _pad(typed[:cap]).
        ref_valid, ref_rows = [], []
        for v in vertices:
            nbrs = graph.out_neighbors(v)
            tn = nbrs[vertex_types[nbrs] == c]
            if tn.size == 0:
                continue
            picked = tn[:cap]
            if picked.size < cap:
                picked = np.tile(picked, int(np.ceil(cap / picked.size)))[:cap]
            ref_valid.append(v)
            ref_rows.append(picked)
        np.testing.assert_array_equal(valid, np.asarray(ref_valid))
        np.testing.assert_array_equal(rows, np.stack(ref_rows))
        # The weights ride with their neighbors.
        for v in valid[:20]:
            row = slice(indptr[v], indptr[v + 1])
            typed_w = weights[row][vertex_types[indices[row]] == c]
            np.testing.assert_array_equal(block.weights_of(v), typed_w)
