"""The tape rule, ``no_grad`` and the fused gather-reduce.

Oracle for the tape rule: marking *every* leaf ``requires_grad=True`` puts
the whole graph back on the tape, which is what the engine recorded before
it learned to skip constants. A trainable leaf's ``.grad`` must come out
bit-equal either way, over every op of ``tensor.py`` / ``functional.py`` /
``loss.py`` and every which-operand-is-constant configuration.
"""

import itertools
from contextlib import nullcontext

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.algorithms.framework as framework
import repro.nn.tensor as tensor_module
from repro.algorithms import GNNFramework
from repro.algorithms.base import node_features
from repro.algorithms.framework import _GNNEncoder
from repro.algorithms.graphsage import GraphSAGE
from repro.errors import OperatorError
from repro.nn import functional as F
from repro.nn import loss as L
from repro.nn import no_grad
from tests.gradcheck import check_gradients, float64_dtype, sum_rows_segmented
from repro.nn.layers import Dense
from repro.nn.tensor import DTYPE, SparseGrad, Tensor
from repro.ops.aggregate import make_aggregator
from repro.sampling import GraphProvider, UniformNeighborSampler, build_block
from repro.utils.rng import make_rng

N, D, S = 6, 4, 3  # every DAG node is (N, D); S is the segment width

_fix = make_rng(2024)
W_ND = _fix.normal(size=(N, D))
W_2DD = _fix.normal(size=(2 * D, D))
IDX = np.array([3, 0, 3, 5, 1, 3])  # repeats on purpose
TABLE = _fix.integers(0, N, size=(N, S))
TABLE[0] = 2  # one row picking the same vertex S times
A_SPARSE = sp.random(N, N, density=0.4, random_state=7, format="csr")
LABELS = _fix.integers(0, D, size=N)
TARGETS = (_fix.random((N, D)) > 0.5).astype(np.float64)


def _segmented(fn):
    return lambda x: fn(x.gather_rows(TABLE.reshape(-1)), S)


#: name -> (arity, fn): every op maps ``arity`` (N, D) tensors to one.
OPS = {
    # tensor.py, unary
    "neg": (1, lambda x: -x),
    "pow": (1, lambda x: x**2),
    "transpose": (1, lambda x: (x.T * 0.5).T),
    "sum_all": (1, lambda x: x * x.sum()),
    "sum_axis0": (1, lambda x: x + x.sum(axis=0)),
    "sum_keepdims": (1, lambda x: x * x.sum(axis=1, keepdims=True)),
    "mean": (1, lambda x: x - x.mean(axis=1, keepdims=True)),
    "reshape": (1, lambda x: x.reshape(D, N).reshape(N, D)),
    "gather_rows": (1, lambda x: x.gather_rows(IDX)),
    "gather_1d": (1, lambda x: x * x.sum(axis=1).gather_rows(IDX).reshape(N, 1)),
    "rsub": (1, lambda x: 1.0 - x),
    "rtruediv": (1, lambda x: 1.0 / (x * x + 1.0)),
    # functional.py, unary
    "relu": (1, F.relu),
    "tanh": (1, F.tanh),
    "exp": (1, lambda x: F.exp(F.tanh(x))),
    "log_sigmoid": (1, F.log_sigmoid),
    "softmax": (1, F.softmax),
    "log_softmax": (1, F.log_softmax),
    "l2_normalize": (1, F.l2_normalize),
    "sparse_matmul": (1, lambda x: F.sparse_matmul(A_SPARSE, x)),
    "gather_sum_rows": (1, lambda x: F.gather_sum_rows(x, TABLE)),
    "mean_rows_segmented": (1, _segmented(F.mean_rows_segmented)),
    "max_rows_segmented": (1, _segmented(F.max_rows_segmented)),
    # loss.py
    "bce_with_logits": (1, lambda x: x * L.bce_with_logits(x, TARGETS)),
    "cross_entropy": (1, lambda x: x * L.cross_entropy(x, LABELS)),
    "mse": (1, lambda x: x * L.mse(x, W_ND)),
    "gaussian_kl": (2, lambda a, b: a * L.gaussian_kl(a, F.tanh(b))),
    "skipgram": (
        3,
        lambda a, b, c: a
        * L.skipgram_negative_loss(a, b, c.gather_rows(np.repeat(np.arange(N), 2))),
    ),
    # n-ary, tensor.py / functional.py
    "add": (2, lambda a, b: a + b),
    "add_broadcast": (2, lambda a, b: a + b.sum(axis=0)),
    "sub": (2, lambda a, b: a - b),
    "mul": (2, lambda a, b: a * b),
    "mul_broadcast": (2, lambda a, b: a * b.sum(axis=1, keepdims=True)),
    "truediv": (2, lambda a, b: a / (b * b + 1.0)),
    "matmul_22": (2, lambda a, b: (a @ b.T) @ W_ND),
    "matmul_21": (2, lambda a, b: a * (a @ b.sum(axis=0)).reshape(N, 1)),
    "matmul_12": (2, lambda a, b: b + a.sum(axis=1) @ b),
    "matmul_11": (2, lambda a, b: a * (a.sum(axis=0) @ b.sum(axis=0))),
    "concat": (2, lambda a, b: F.concat([a, b], axis=1) @ W_2DD),
    "dense": (3, lambda a, b, c: F.dense(a, b.T @ W_ND, c.sum(axis=0), "tanh")),
}
OP_NAMES = sorted(OPS)
# Every differentiable op of tensor.py / functional.py / loss.py: an op
# added to (or dropped from) src/ changes this count on purpose.
assert len(OPS) == 40  # 39 + the fused dense node


def _run(leaf_data, trainable, program):
    """Build ``program`` over fresh leaves, backprop a scalar that every
    node feeds, and return ``(leaves, nodes)``."""
    leaves = [Tensor(d.copy(), requires_grad=t) for d, t in zip(leaf_data, trainable)]
    nodes = list(leaves)
    for name, operands in program:
        arity, fn = OPS[name]
        nodes.append(fn(*(nodes[i % len(nodes)] for i in operands[:arity])))
    root = None
    for i, node in enumerate(nodes[len(leaves):]):
        term = (node * (W_ND + i)).sum()
        root = term if root is None else root + term
    if root.needs_grad:
        with np.errstate(all="ignore"):
            root.backward()
    return leaves, nodes


def _assert_tape_rule(leaf_data, trainable, program):
    mixed, mixed_nodes = _run(leaf_data, trainable, program)
    full, _ = _run(leaf_data, [True] * len(leaf_data), program)
    for leaf, oracle, is_trainable in zip(mixed, full, trainable):
        if is_trainable:
            assert (leaf.grad is None) == (oracle.grad is None)
            if oracle.grad is not None:
                assert leaf.grad.tobytes() == oracle.grad.tobytes()
        else:
            assert leaf.grad is None
    # What no trainable leaf reaches is off the tape entirely.
    for node in mixed_nodes[len(mixed):]:
        if not node.needs_grad:
            assert node._parents == () and node._backward is None


@pytest.mark.parametrize("name", OP_NAMES)
def test_every_op_every_constant_configuration(name):
    arity = OPS[name][0]
    leaf_data = [make_rng(11 + i).normal(size=(N, D)) for i in range(arity)]
    program = [(name, list(range(arity)))]
    for trainable in itertools.product([False, True], repeat=arity):
        _assert_tape_rule(leaf_data, list(trainable), program)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_random_dags_trainable_grads_bit_equal_to_full_tape(data):
    n_leaves = data.draw(st.integers(1, 4))
    trainable = data.draw(st.lists(st.booleans(), min_size=n_leaves, max_size=n_leaves))
    seed = data.draw(st.integers(0, 2**16))
    leaf_data = [0.7 * make_rng(seed + i).normal(size=(N, D)) for i in range(n_leaves)]
    program = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(OP_NAMES),
                st.lists(st.integers(0, 64), min_size=3, max_size=3),
            ),
            min_size=1,
            max_size=7,
        )
    )
    _assert_tape_rule(leaf_data, trainable, program)


def test_requires_grad_set_before_ops_is_honoured():
    x = Tensor(np.ones((2, 2)))
    x.requires_grad = True  # before any op is built from it: supported
    (x * 3.0).sum().backward()
    np.testing.assert_array_equal(x.grad, np.full((2, 2), 3.0))


# ---------------------------------------------------------------------- #
# no_grad
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", OP_NAMES)
def test_no_grad_records_nothing_and_matches_taped_forward(name, monkeypatch):
    arity, fn = OPS[name]
    datas = [make_rng(5 + i).normal(size=(N, D)) for i in range(arity)]
    taped = fn(*(Tensor(d, requires_grad=True) for d in datas))
    assert taped._parents != ()
    leaves = [Tensor(d, requires_grad=True) for d in datas]
    made = []
    real_init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    with no_grad():
        out = fn(*leaves)
    assert any(t is out for t in made)
    assert all(t._parents == () and t._backward is None for t in made)
    assert out.numpy().tobytes() == taped.numpy().tobytes()


def test_no_grad_nests_and_restores_on_exception():
    x = Tensor(np.ones(3), requires_grad=True)
    assert (x * 2.0)._parents != ()
    with no_grad():
        with no_grad():
            assert (x * 2.0)._parents == ()
        assert (x * 2.0)._parents == ()  # inner exit keeps the outer off
    assert (x * 2.0)._parents != ()
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert (x * 2.0)._parents != ()


def test_fit_embeddings_equal_taped_final_pass(small_taobao, monkeypatch):
    def fit():
        return GNNFramework(
            dim=12, kmax=2, fanout=3, epochs=1, max_steps_per_epoch=3,
            minibatch_blocks=True, seed=5,
        ).fit(small_taobao).embeddings()

    untaped = fit()
    monkeypatch.setattr(framework, "no_grad", nullcontext)
    assert untaped.tobytes() == fit().tobytes()


# ---------------------------------------------------------------------- #
# Row scatter-add and fused gather-reduce: bit-equal to what they replaced
# ---------------------------------------------------------------------- #
def flat_bincount_scatter(index, rows, n_rows):
    """Oracle: the flat-index ``bincount`` scatter-add ``gather_rows``'
    backward and ``SparseGrad.coalesce`` each carried a copy of."""
    d = rows.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n_rows * d).reshape(
        n_rows, d
    )


def _noncontiguous(rng, shape):
    return rng.normal(size=(shape[0], 2 * shape[1]))[:, ::2]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 9), m=st.integers(0, 40), d=st.integers(1, 5),
    seed=st.integers(0, 2**16), strided=st.booleans(),
)
def test_gather_rows_backward_bit_equal_to_flat_bincount(n, m, d, seed, strided):
    rng = make_rng(seed)
    index = rng.integers(0, n, size=m)
    g = _noncontiguous(rng, (m, d)) if strided else rng.normal(size=(m, d))
    with float64_dtype():  # bincount accumulates in float64 only
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        x.gather_rows(index).backward(g)
    assert x.grad.tobytes() == flat_bincount_scatter(index, g, n).tobytes()


@pytest.mark.usefixtures("float64_tape")
def test_sparse_grad_coalesce_bit_equal_to_flat_bincount():
    rng = make_rng(4)
    sparse = SparseGrad((50, 6))
    dense = np.zeros((50, 6))
    for m in (17, 1, 40):
        ids, rows = rng.integers(0, 50, size=m), rng.normal(size=(m, 6))
        sparse.append(ids, rows)
        dense += flat_bincount_scatter(ids, rows, 50)
    uniq, summed = sparse.coalesce()
    assert summed.tobytes() == dense[uniq].tobytes()
    assert not dense[np.setdiff1d(np.arange(50), uniq)].any()


@pytest.mark.parametrize("d", [0, 1, 6], ids=["1-D", "d1", "d6"])
def test_row_scatter_add_in_dtype_bit_equal_to_add_at(d):
    """In the tape's dtype each lookup's scatter-add accumulates as ``np.add.at``
    does (repeats in index order from zero, in DTYPE) and lookups add up in
    order, in the dense backward and the coalesced sparse entries alike."""
    rng = make_rng(11)
    n, shape = 30, (d,) if d else ()
    expected = np.zeros((n,) + shape, dtype=DTYPE)
    dense = Tensor(np.zeros((n,) + shape), requires_grad=True)
    sparse = SparseGrad(dense.shape)
    for m in (25, 3, 40):
        index = rng.integers(0, n, size=m)
        g = rng.normal(size=(m,) + shape).astype(DTYPE)
        dense.gather_rows(index).backward(g)
        sparse.append(index, g)
        part = np.zeros_like(expected)
        np.add.at(part, index, g)
        expected += part
    assert dense.grad.dtype == DTYPE
    assert dense.grad.tobytes() == expected.tobytes()
    uniq, summed = sparse.coalesce()
    assert summed.dtype == DTYPE and summed.tobytes() == expected[uniq].tobytes()


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous_g", "strided_g"])
@pytest.mark.parametrize("fanout", [1, 3, 4, 5, 8, 10])
def test_gather_sum_rows_bitwise_equals_gather_then_reduce(fanout, strided):
    rng = make_rng(fanout)
    n, batch, d = 23, 17, 7
    table = rng.integers(0, n, size=(batch, fanout))
    table[3] = table[3, 0]  # one vertex filling a whole child row
    table[5, fanout // 2 :] = table[5, 0]  # ... and part of another
    g = _noncontiguous(rng, (batch, d)) if strided else rng.normal(size=(batch, d))
    data = rng.normal(size=(n, d))

    def grads(reduce):
        x = Tensor(data, requires_grad=True)
        out = reduce(x)
        out.backward(g)
        return out.numpy(), x.grad

    pairs = {
        "sum": (
            lambda x: F.gather_sum_rows(x, table),
            lambda x: sum_rows_segmented(x.gather_rows(table.reshape(-1)), fanout),
        ),
        # True divide by the count: what MeanAggregator does.
        "mean": (
            lambda x: F.gather_sum_rows(x, table) / fanout,
            lambda x: F.mean_rows_segmented(x.gather_rows(table.reshape(-1)), fanout),
        ),
    }
    for fused, oracle in pairs.values():
        (out, grad), (ref_out, ref_grad) = grads(fused), grads(oracle)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grad, ref_grad)


@pytest.mark.usefixtures("float64_tape")
def test_gather_sum_rows_gradcheck():
    x = Tensor(make_rng(1).normal(size=(N, D)), requires_grad=True)
    check_gradients(lambda: (F.gather_sum_rows(x, TABLE) ** 2).sum(), [x])
    check_gradients(lambda: ((F.gather_sum_rows(x, TABLE) / S) ** 2).sum(), [x])


@pytest.mark.usefixtures("float64_tape")
@pytest.mark.parametrize("name", ["mean"])
def test_fused_aggregator_gradcheck(name):
    agg = make_aggregator(name, D, 5, make_rng(1))
    h = Tensor(make_rng(2).normal(size=(N, D)), requires_grad=True)
    check_gradients(
        lambda: (agg(h, TABLE) ** 2).sum(), [h] + agg.parameters()
    )


# ---------------------------------------------------------------------- #
# The fused dense node: bit-equal to the chain of public ops it replaced
# ---------------------------------------------------------------------- #
_COMPOSED = {
    "linear": lambda t: t,
    "relu": F.relu,
    "tanh": F.tanh,
    "sigmoid": lambda t: F._activation(F.ACTIVATIONS["sigmoid"], t),
}


def composed_dense(x, weight, bias, activation):
    """Oracle: ``act(x @ W + b)`` as three tape nodes."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return _COMPOSED[activation](out)


@settings(max_examples=200, deadline=None)
@given(
    activation=st.sampled_from(sorted(_COMPOSED)), bias=st.booleans(),
    rows=st.one_of(st.none(), st.integers(0, 7)), in_dim=st.integers(1, 5),
    out_dim=st.integers(1, 5), strided=st.booleans(), x_trains=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_dense_bit_equal_to_composed_ops(
    activation, bias, rows, in_dim, out_dim, strided, x_trains, seed
):
    rng = make_rng(seed)
    layer = Dense(in_dim, out_dim, rng, activation=activation, bias=bias)
    if bias:
        layer.bias.data[:] = rng.normal(size=out_dim)
    x_data = rng.normal(size=in_dim if rows is None else (rows, in_dim))
    out_shape = (out_dim,) if rows is None else (rows, out_dim)
    g = rng.normal(size=out_shape[:-1] + (2 * out_dim,))[..., ::2] if strided else rng.normal(size=out_shape)

    def run(forward):
        params = [Tensor(p.data.copy(), requires_grad=True) for p in layer.parameters()]
        x = Tensor(x_data.copy(), requires_grad=x_trains)
        out = forward(x, params[0], params[1] if bias else None, activation)
        with np.errstate(all="ignore"):
            out.backward(g)
        return out, [x] + params

    (fused, fused_leaves), (chain, chain_leaves) = run(F.dense), run(composed_dense)
    assert fused.numpy().tobytes() == chain.numpy().tobytes()
    assert [p for p in fused._parents] == fused_leaves  # one node: x, W, b in that order
    for got, want in zip(fused_leaves, chain_leaves):
        assert (got.grad is None) == (want.grad is None)
        if want.grad is not None:
            assert got.grad.shape == want.grad.shape
            assert got.grad.tobytes() == want.grad.tobytes()
    # The layer is the fused node and nothing else.
    assert layer(Tensor(x_data)).numpy().tobytes() == fused.numpy().tobytes()


def test_dense_shared_across_calls_accumulates_in_chain_order():
    """Three uses of one layer in one graph: the weight's and the bias's
    gradients are sums of three terms, so the order nodes deliver in shows."""
    rng = make_rng(8)
    datas = [rng.normal(size=(N, D)) for _ in range(3)]

    def grads(forward):
        w = Tensor(W_2DD[:D].copy(), requires_grad=True)
        b = Tensor(W_ND[0].copy(), requires_grad=True)
        h = Tensor(datas[0], requires_grad=True)
        total = None
        for data in datas:
            h = forward(h * Tensor(data), w, b, "tanh")
            total = h if total is None else total + h
        (total * W_ND).sum().backward()
        return w.grad, b.grad

    for got, want in zip(grads(F.dense), grads(composed_dense)):
        assert got.tobytes() == want.tobytes()


def test_dense_rank_and_activation_errors():
    layer = Dense(D, 3, make_rng(0), activation="relu")
    cube = Tensor(np.ones((2, N, D)), requires_grad=True)
    out = layer(cube)  # forward-only works at any rank >= 1 ...
    assert out.shape == (2, N, 3)
    with pytest.raises(OperatorError, match="unsupported matmul operand ranks"):
        out.backward(np.ones(out.shape))  # ... backward keeps its rank limit
    with pytest.raises(OperatorError):
        layer(Tensor(np.float64(2.0)))
    with pytest.raises(OperatorError, match="unknown activation"):
        F.dense(Tensor(W_ND), layer.weight, None, "swish")


# ---------------------------------------------------------------------- #
# Index bounds: nothing unchecked reaches a scipy kernel
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("bad", [[-1, 0], [0, N], [N + 5]])
def test_gather_rows_rejects_out_of_range_ids(bad):
    x = Tensor(W_ND, requires_grad=True)
    with pytest.raises(OperatorError, match=r"outside \[0, 6\)"):
        x.gather_rows(np.array(bad))
    with pytest.raises(OperatorError, match=r"outside \[0, 6\)"):
        F.gather_sum_rows(x, np.array([bad]))
    with pytest.raises(OperatorError, match=r"outside \[0, 6\)"):
        make_aggregator("mean", D, 3, make_rng(0))(x, np.array([bad]))


def test_gather_sum_rows_rejects_malformed_input():
    with pytest.raises(OperatorError):
        F.gather_sum_rows(Tensor(W_ND), IDX)  # 1-D table
    with pytest.raises(OperatorError):
        F.gather_sum_rows(Tensor(np.ones(3)), TABLE)  # 1-D states


def test_empty_index_and_empty_block_level():
    x = Tensor(W_ND, requires_grad=True)
    out = x.gather_rows(np.array([], dtype=np.int64))
    assert out.shape == (0, D)
    out.backward(np.zeros((0, D)))
    np.testing.assert_array_equal(x.grad, np.zeros((N, D)))
    # A block level with no vertices: (0, fanout) child table.
    empty_table = np.zeros((0, S), dtype=np.int64)
    x.zero_grad()
    pooled = F.gather_sum_rows(x, empty_table)
    assert pooled.shape == (0, D)
    pooled.backward(np.zeros((0, D)))
    np.testing.assert_array_equal(x.grad, np.zeros((N, D)))
    for name in ("mean", "maxpool"):
        agg = make_aggregator(name, D, 3, make_rng(0))
        assert agg(x, empty_table).shape == (0, 3)
    # Children drawn from a level that holds no rows are all out of range.
    with pytest.raises(OperatorError):
        F.gather_sum_rows(Tensor(np.zeros((0, D))), TABLE)


# ---------------------------------------------------------------------- #
# Guards: the saving cannot silently rot
# ---------------------------------------------------------------------- #
def test_block_step_leaves_constant_features_off_the_tape(small_taobao, monkeypatch):
    model = GNNFramework(dim=16, kmax=2, fanout=4)
    features = Tensor(node_features(small_taobao, make_rng(0), 16))
    sampler = UniformNeighborSampler(GraphProvider(small_taobao))
    block = build_block(np.arange(0, 90, 3), sampler, [4, 4], make_rng(2))
    encoder = _GNNEncoder(
        in_dim=features.shape[1], hidden_dim=16, out_dim=16, kmax=2,
        aggregator="mean", rng=make_rng(1),
    )
    gathers = []
    real_gather = Tensor.gather_rows

    def recording_gather(self, index):
        out = real_gather(self, index)
        gathers.append((self, out))
        return out

    monkeypatch.setattr(Tensor, "gather_rows", recording_gather)
    h = encoder(features, block)
    (h**2).sum().backward()
    assert features.grad is None
    # Hop 0 reads raw features only: its two gathers record no closure,
    # hop 1's self gather (over trained states) does.
    (src0, feats), (src1, self0), (src2, self1) = gathers
    assert src0 is features and src1 is feats
    assert feats._backward is None and self0._backward is None
    assert src2.needs_grad and self1._backward is not None
    assert all(p.grad is not None for p in encoder.parameters())


def test_tape_nodes_per_graphsage_block_step(small_taobao, monkeypatch):
    taped = []
    real_init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        taped.append(bool(self._parents))

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    steps = 3
    GraphSAGE(
        dim=12, kmax=2, fanout=2, epochs=1, max_steps_per_epoch=steps,
        batch_size=8, neg_num=2, minibatch_blocks=True, seed=3,
    ).fit(small_taobao)
    # Per step: hop 0 tapes 4 nodes (its gathers, SpMM and divide read
    # constants: AGGREGATE's dense, concat, COMBINE's dense, normalize), hop
    # 1 all 7, the seed-row gathers 3 and the skip-gram loss 14. Each of the
    # four Dense calls is one node; as matmul -> add -> activation it was
    # three, 36 a step.
    assert sum(taped) == 28 * steps


def test_row_scatter_adds_per_graphsage_block_step(small_taobao, monkeypatch):
    calls = []
    real = tensor_module._scatter_add_rows

    def counting(index, rows, n_rows):
        calls.append(n_rows)
        return real(index, rows, n_rows)

    monkeypatch.setattr(tensor_module, "_scatter_add_rows", counting)
    steps = 3
    model = GraphSAGE(
        dim=12, kmax=2, fanout=2, epochs=1, max_steps_per_epoch=steps,
        batch_size=8, neg_num=2, minibatch_blocks=True, seed=3,
    ).fit(small_taobao)
    # Per step: hop 1's self gather, the three seed-row gathers feeding the
    # loss and the loss's tiled centers. Hop 0 is constant and the two
    # AGGREGATEs are SpMMs, so none scatters into an (n_vertices, d) array.
    assert len(calls) == 5 * steps
    assert max(calls) <= 8 * (2 + 2) * (1 + 2) < small_taobao.n_vertices
    assert model.block_stats["steps"] == steps
