"""Differentiable functions: gradcheck + semantic behavior."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import OperatorError
from repro.nn import functional as F
from tests.gradcheck import check_gradients, sum_rows_segmented
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng

rng = make_rng(7)


def _param(*shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _sigmoid(x):
    """The sigmoid activation a ``Dense(..., "sigmoid")`` node applies."""
    return F._activation(F.ACTIVATIONS["sigmoid"], x)


@pytest.mark.parametrize(
    "fn",
    [F.relu, _sigmoid, F.tanh, F.exp, F.log_sigmoid],
    ids=["relu", "sigmoid", "tanh", "exp", "log_sigmoid"],
)
def test_activation_gradients(fn):
    x = Tensor(rng.normal(size=(4, 3)) + 0.05, requires_grad=True)
    check_gradients(lambda: (fn(x) ** 2).sum(), [x], atol=1e-4)


def test_sigmoid_extreme_values_stable():
    x = Tensor(np.array([-1000.0, 0.0, 1000.0]))
    s = _sigmoid(x).numpy()
    assert np.all(np.isfinite(s))
    np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-9)


def test_log_sigmoid_extreme_stable():
    x = Tensor(np.array([-500.0, 500.0]))
    out = F.log_sigmoid(x).numpy()
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(-500.0)
    assert out[1] == pytest.approx(0.0, abs=1e-9)


def test_softmax_rows_sum_to_one():
    x = _param(5, 4)
    s = F.softmax(x).numpy()
    np.testing.assert_allclose(s.sum(axis=1), 1.0)


def test_softmax_gradient():
    x = _param(3, 4)
    t = rng.normal(size=(3, 4))
    check_gradients(lambda: (F.softmax(x) * t).sum(), [x])


def test_log_softmax_matches_log_of_softmax():
    x = _param(3, 4)
    np.testing.assert_allclose(
        F.log_softmax(x).numpy(), np.log(F.softmax(x).numpy()), atol=1e-12
    )
    mult = rng.normal(size=(3, 4))
    check_gradients(lambda: (F.log_softmax(x) * mult).sum(), [x])


def test_concat_gradient():
    a = _param(2, 3)
    b = _param(2, 2)
    check_gradients(lambda: (F.concat([a, b], axis=-1) ** 2).sum(), [a, b])
    out = F.concat([a, b], axis=-1)
    assert out.shape == (2, 5)


def test_concat_axis0_gradient():
    a = _param(2, 3)
    b = _param(4, 3)
    check_gradients(lambda: (F.concat([a, b], axis=0) ** 2).sum(), [a, b])


def test_concat_empty_rejected():
    with pytest.raises(OperatorError):
        F.concat([])


def test_l2_normalize_rows():
    x = _param(4, 3)
    out = F.l2_normalize(x).numpy()
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0)
    mult = rng.normal(size=(4, 3))
    check_gradients(lambda: (F.l2_normalize(x) * mult).sum(), [x])


def test_sparse_matmul_matches_dense():
    a = sp.random(6, 6, density=0.4, random_state=0, format="csr")
    x = _param(6, 3)
    out = F.sparse_matmul(a, x)
    np.testing.assert_allclose(out.numpy(), a.toarray() @ x.data)
    check_gradients(lambda: (F.sparse_matmul(a, x) ** 2).sum(), [x])


def test_mean_rows_segmented():
    x = Tensor(np.arange(12, dtype=float).reshape(6, 2), requires_grad=True)
    out = F.mean_rows_segmented(x, 3)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out.numpy()[0], [2.0, 3.0])
    check_gradients(lambda: (F.mean_rows_segmented(x, 3) ** 2).sum(), [x])


def test_sum_rows_segmented():
    x = Tensor(np.arange(12, dtype=float).reshape(6, 2), requires_grad=True)
    out = sum_rows_segmented(x, 3)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out.numpy()[0], [6.0, 9.0])
    check_gradients(lambda: (sum_rows_segmented(x, 3) ** 2).sum(), [x])


def test_sum_rows_segmented_divisibility_checked():
    x = _param(5, 2)
    with pytest.raises(OperatorError):
        sum_rows_segmented(x, 2)


def test_max_rows_segmented():
    x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [0.0, 0.0], [4.0, 1.0]]), requires_grad=True)
    out = F.max_rows_segmented(x, 2)
    np.testing.assert_allclose(out.numpy(), [[3.0, 5.0], [4.0, 1.0]])
    check_gradients(lambda: (F.max_rows_segmented(x, 2) ** 2).sum(), [x])


def test_segment_divisibility_checked():
    x = _param(5, 2)
    with pytest.raises(OperatorError):
        F.mean_rows_segmented(x, 2)
    with pytest.raises(OperatorError):
        F.max_rows_segmented(x, 3)


# ---------------------------------------------------------------------- #
# Ragged (CSR-style) segment kernels, numpy level (SIGN's propagation)
# ---------------------------------------------------------------------- #
NP_KERNELS = [F.segment_sum_np, F.segment_mean_np]
NP_IDS = ["sum", "mean"]


def segment_loop(kernel, x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment oracle: one Python iteration per segment, sharing no code
    with the ``reduceat`` sweep it checks. Empty segments are zero rows."""
    reduce = np.sum if kernel is F.segment_sum_np else np.mean
    out = np.zeros((offsets.size - 1, x.shape[1]))
    for i, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
        if hi > lo:
            out[i] = reduce(x[lo:hi], axis=0)
    return out


def _ragged_input(sizes, d, seed):
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    return make_rng(seed).normal(size=(int(offsets[-1]), d)), offsets


# Random ragged offsets; the pinned examples hold an inner empty segment,
# end in empty segments, and are all empty. ("backends" in the id survives
# from when an autograd arm and a reference arm shipped beside this one.)
@pytest.mark.parametrize("kernel", NP_KERNELS, ids=NP_IDS)
@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 5), min_size=0, max_size=7),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@example(sizes=[3, 0, 4, 1, 4], d=4, seed=3)
@example(sizes=[2, 3, 0, 0], d=2, seed=4)
@example(sizes=[0, 0], d=1, seed=5)
def test_segment_backends_agree(kernel, sizes, d, seed):
    x, offsets = _ragged_input(sizes, d, seed)
    out = kernel(x, offsets)
    assert out.shape == (len(sizes), d)
    np.testing.assert_allclose(out, segment_loop(kernel, x, offsets), atol=1e-12)


def test_segment_sum_values_and_empty_segment():
    x = np.arange(8, dtype=float).reshape(4, 2)
    offsets = np.array([0, 1, 1, 4, 4])  # an inner and a trailing empty segment
    np.testing.assert_allclose(
        F.segment_sum_np(x, offsets), [[0.0, 1.0], [0.0, 0.0], [12.0, 15.0], [0.0, 0.0]]
    )
    np.testing.assert_allclose(
        F.segment_mean_np(x, offsets), [[0.0, 1.0], [0.0, 0.0], [4.0, 5.0], [0.0, 0.0]]
    )


@pytest.mark.parametrize(
    "ragged,fixed",
    [
        (F.segment_sum_np, sum_rows_segmented),
        (F.segment_mean_np, F.mean_rows_segmented),
    ],
    ids=NP_IDS,
)
def test_segment_matches_fixed_fanout_on_uniform_segments(ragged, fixed):
    x = make_rng(6).normal(size=(12, 3))
    np.testing.assert_allclose(
        ragged(x, np.arange(0, 13, 4)), fixed(Tensor(x), 4).numpy(), atol=1e-12
    )
