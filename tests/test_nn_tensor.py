"""Autograd tensor: every op gradient-checked against finite differences."""

import numpy as np
import pytest

from repro.errors import OperatorError
from tests.gradcheck import check_gradients
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng

rng = make_rng(99)


def _param(*shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


@pytest.mark.usefixtures("float64_tape")
def test_add_broadcast_gradient():
    a = _param(3, 4)
    b = _param(4)
    check_gradients(lambda: ((a + b) ** 2).sum(), [a, b])


@pytest.mark.usefixtures("float64_tape")
def test_mul_gradient():
    a = _param(3, 4)
    b = _param(3, 4)
    check_gradients(lambda: (a * b).sum(), [a, b])


@pytest.mark.usefixtures("float64_tape")
def test_sub_neg_gradient():
    a = _param(2, 3)
    b = _param(2, 3)
    check_gradients(lambda: ((a - b) * (a - b)).sum(), [a, b])


@pytest.mark.usefixtures("float64_tape")
def test_div_gradient():
    a = _param(3)
    b = Tensor(np.array([2.0, 3.0, 4.0]), requires_grad=True)
    check_gradients(lambda: (a / b).sum(), [a, b])


@pytest.mark.usefixtures("float64_tape")
def test_pow_gradient():
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    check_gradients(lambda: (a**3).sum(), [a])


@pytest.mark.usefixtures("float64_tape")
def test_matmul_2d_gradient():
    a = _param(3, 4)
    b = _param(4, 2)
    check_gradients(lambda: (a @ b).sum(), [a, b])


@pytest.mark.usefixtures("float64_tape")
def test_matmul_vec_gradient():
    a = _param(4)
    b = _param(4, 2)
    check_gradients(lambda: (a @ b).sum(), [a, b])
    c = _param(2, 4)
    d = _param(4)
    check_gradients(lambda: (c @ d).sum(), [c, d])


@pytest.mark.usefixtures("float64_tape")
def test_matmul_dot_gradient():
    a = _param(5)
    b = _param(5)
    check_gradients(lambda: a @ b, [a, b])


@pytest.mark.usefixtures("float64_tape")
def test_transpose_gradient():
    a = _param(3, 4)
    check_gradients(lambda: (a.T @ a).sum(), [a])


@pytest.mark.usefixtures("float64_tape")
def test_sum_axis_gradients():
    a = _param(3, 4)
    check_gradients(lambda: (a.sum(axis=0) ** 2).sum(), [a])
    check_gradients(lambda: (a.sum(axis=1, keepdims=True) ** 2).sum(), [a])
    check_gradients(lambda: a.sum(), [a])


@pytest.mark.usefixtures("float64_tape")
def test_mean_gradient():
    a = _param(4, 2)
    check_gradients(lambda: (a.mean(axis=0) ** 2).sum(), [a])


@pytest.mark.usefixtures("float64_tape")
def test_reshape_gradient():
    a = _param(6)
    check_gradients(lambda: (a.reshape(2, 3) ** 2).sum(), [a])


@pytest.mark.usefixtures("float64_tape")
def test_gather_rows_accumulates():
    a = _param(4, 3)
    idx = np.array([0, 0, 2])
    loss_fn = lambda: (a.gather_rows(idx) ** 2).sum()
    check_gradients(loss_fn, [a])
    a.zero_grad()
    loss_fn().backward()
    # Row 0 gathered twice -> gradient doubled relative to single gather.
    assert np.allclose(a.grad[0], 2 * 2 * a.data[0])
    assert np.allclose(a.grad[1], 0.0)


def test_grad_accumulates_across_backwards():
    a = _param(3)
    (a.sum()).backward()
    (a.sum()).backward()
    assert np.allclose(a.grad, 2.0)


def test_zero_grad():
    a = _param(3)
    a.sum().backward()
    a.zero_grad()
    assert a.grad is None


def test_backward_requires_scalar():
    a = _param(3)
    with pytest.raises(OperatorError):
        (a * 2).backward()


def test_backward_explicit_grad_shape():
    a = _param(3)
    out = a * 2
    out.backward(np.ones(3))
    assert np.allclose(a.grad, 2.0)
    with pytest.raises(OperatorError):
        (a * 2).backward(np.ones(4))


@pytest.mark.usefixtures("float64_tape")
def test_diamond_graph_gradient():
    """A value used twice must receive the sum of both path gradients."""
    a = _param(3)
    check_gradients(lambda: ((a * 2) + (a * 3)).sum(), [a])
    a.zero_grad()
    ((a * 2) + (a * 3)).sum().backward()
    assert np.allclose(a.grad, 5.0)


@pytest.mark.usefixtures("float64_tape")
def test_numpy_scalar_coercion():
    a = _param(3)
    out = 2.0 * a + np.ones(3)
    assert isinstance(out, Tensor)
    check_gradients(lambda: (2.0 * a + np.ones(3)).sum(), [a])


@pytest.mark.usefixtures("float64_tape")
def test_rsub_rdiv():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    check_gradients(lambda: ((3.0 - a) ** 2).sum(), [a])
    check_gradients(lambda: ((6.0 / a) ** 2).sum(), [a])


def test_item_and_shape():
    t = Tensor(np.array([[1.0, 2.0]]))
    assert t.shape == (1, 2)
    assert t.ndim == 2
    assert len(t) == 1
    assert Tensor(np.array(5.0)).item() == 5.0
