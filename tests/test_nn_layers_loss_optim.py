"""Layers, losses, optimizers: gradcheck + training convergence."""

import numpy as np
import pytest

from repro.errors import OperatorError, TrainingError
from repro.nn import (
    Adam,
    Dense,
    Embedding,
    Sequential,
    Tensor,
    bce_with_logits,
    cross_entropy,
    gaussian_kl,
    mse,
    skipgram_negative_loss,
)
from tests.gradcheck import check_gradients
from repro.nn.rnn import GRUCell
from repro.utils.rng import make_rng

rng = make_rng(11)


def test_dense_shapes_and_grad():
    layer = Dense(4, 3, rng, "relu")
    x = Tensor(rng.normal(size=(5, 4)))
    assert layer(x).shape == (5, 3)
    check_gradients(lambda: (layer(x) ** 2).sum(), layer.parameters(), atol=1e-4)


def test_dense_no_bias():
    layer = Dense(4, 3, rng, bias=False)
    assert layer.bias is None
    assert len(layer.parameters()) == 1


def test_dense_unknown_activation():
    with pytest.raises(OperatorError):
        Dense(2, 2, rng, "swish")


def test_embedding_lookup_and_grad():
    emb = Embedding(6, 4, rng)
    idx = np.array([1, 1, 5])
    out = emb(idx)
    assert out.shape == (3, 4)
    check_gradients(lambda: (emb(idx) ** 2).sum(), emb.parameters())
    assert emb.table.shape == (6, 4)


def test_sequential_chains():
    model = Sequential(Dense(4, 8, rng, "relu"), Dense(8, 2, rng))
    x = Tensor(rng.normal(size=(3, 4)))
    assert model(x).shape == (3, 2)
    assert len(model.parameters()) == 4


def test_module_dedups_shared_params():
    shared = Dense(3, 3, rng)

    class Twice(Sequential):
        def __init__(self):
            self.a = shared
            self.b = shared

    assert len(Twice().parameters()) == 2


def test_gru_state_evolution_and_grad():
    cell = GRUCell(3, 5, rng)
    x = Tensor(rng.normal(size=(2, 3)))
    h = cell.init_state(2)
    h2 = cell(x, h)
    assert h2.shape == (2, 5)
    check_gradients(lambda: (cell(x, cell.init_state(2)) ** 2).sum(), cell.parameters(), atol=1e-4)


def test_bce_matches_reference():
    logits = Tensor(np.array([[0.0], [2.0]]))
    targets = np.array([[1.0], [0.0]])
    expected = np.mean([np.log(2.0), 2.0 + np.log(1 + np.exp(-2.0))])
    assert bce_with_logits(logits, targets).item() == pytest.approx(expected)


def test_bce_shape_checked():
    with pytest.raises(OperatorError):
        bce_with_logits(Tensor(np.zeros((2, 1))), np.zeros((3, 1)))


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((4, 3)))
    loss = cross_entropy(logits, np.array([0, 1, 2, 0]))
    assert loss.item() == pytest.approx(np.log(3.0))


def test_cross_entropy_matches_log_softmax_reference():
    rng = make_rng(4)
    logits = rng.normal(size=(6, 5))
    labels = rng.integers(0, 5, size=6)
    log_probs = logits - np.log(
        np.exp(logits - logits.max(axis=1, keepdims=True)).sum(
            axis=1, keepdims=True
        )
    ) - logits.max(axis=1, keepdims=True)
    expected = -log_probs[np.arange(6), labels].mean()
    assert cross_entropy(Tensor(logits), labels).item() == pytest.approx(expected)


def test_cross_entropy_gradcheck():
    rng = make_rng(9)
    logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=5)
    check_gradients(lambda: cross_entropy(logits, labels), [logits])


def test_cross_entropy_validation():
    with pytest.raises(OperatorError):
        cross_entropy(Tensor(np.zeros(3)), np.array([0]))


def test_mse_zero_for_perfect():
    pred = Tensor(np.ones((2, 2)))
    assert mse(pred, np.ones((2, 2))).item() == 0.0


def test_skipgram_loss_decreases_for_aligned():
    d = 8
    aligned = skipgram_negative_loss(
        Tensor(np.ones((4, d))), Tensor(np.ones((4, d))), Tensor(-np.ones((8, d)))
    )
    opposed = skipgram_negative_loss(
        Tensor(np.ones((4, d))), Tensor(-np.ones((4, d))), Tensor(np.ones((8, d)))
    )
    assert aligned.item() < opposed.item()


def test_skipgram_shape_validation():
    with pytest.raises(OperatorError):
        skipgram_negative_loss(
            Tensor(np.ones((4, 2))), Tensor(np.ones((4, 2))), Tensor(np.ones((5, 2)))
        )


def test_gaussian_kl_zero_for_standard():
    mu = Tensor(np.zeros((3, 2)))
    logvar = Tensor(np.zeros((3, 2)))
    assert gaussian_kl(mu, logvar).item() == pytest.approx(0.0)


def test_gaussian_kl_positive():
    mu = Tensor(np.ones((3, 2)))
    logvar = Tensor(np.ones((3, 2)))
    assert gaussian_kl(mu, logvar).item() > 0


@pytest.mark.parametrize("row_sparse", [False, True], ids=["adam", "adam_row_sparse"])
def test_optimizers_minimize_quadratic(row_sparse):
    x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    x.accumulates_sparse = row_sparse
    opt = Adam([x], lr=0.1)
    for _ in range(150):
        opt.zero_grad()
        x_rows = x.gather_rows(np.arange(2))
        loss = (x_rows * x_rows).sum()
        loss.backward()
        opt.step()
    assert (x.sparse_grad is not None) == row_sparse
    assert np.abs(x.data).max() < 0.1


def test_optimizer_validations():
    x = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(TrainingError):
        Adam([x], lr=0.0)
    with pytest.raises(TrainingError):
        Adam([x], lr=-0.1)
    with pytest.raises(TrainingError):
        Adam([], lr=0.1)


def test_optimizer_skips_gradless_params():
    x = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([x], lr=0.1)
    opt.step()  # no grad accumulated: must be a no-op
    np.testing.assert_array_equal(x.data, np.ones(2))


def test_logistic_regression_converges():
    gen = make_rng(0)
    x_data = gen.normal(size=(300, 6))
    w_true = gen.normal(size=(6, 1))
    y = (x_data @ w_true > 0).astype(float)
    model = Dense(6, 1, gen)
    opt = Adam(model.parameters(), lr=0.05)
    first_loss = None
    for step in range(250):
        opt.zero_grad()
        loss = bce_with_logits(model(Tensor(x_data)), y)
        if first_loss is None:
            first_loss = loss.item()
        loss.backward()
        opt.step()
    assert loss.item() < first_loss * 0.4
    acc = np.mean((model(Tensor(x_data)).numpy() > 0) == y)
    assert acc > 0.93
