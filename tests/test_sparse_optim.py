"""Sparse-gradient autograd path and Adam's row-sparse step.

Covers the dense-Adam stale-momentum fix: a row-sparse gradient must update
only the rows a batch touches (untouched rows bit-identical across a step),
its touched-row math must match the dense step bit-for-bit where the
semantics coincide, and one optimizer must own dense weights and row-sparse
tables together.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.nn.layers import Dense, Embedding
from repro.nn.optim import Adam
from repro.nn.tensor import DTYPE, SparseGrad, Tensor
from repro.utils.rng import make_rng
from tests.gradcheck import float64_dtype


def _sparse_table(n: int, d: int, seed: int = 0) -> Tensor:
    rng = make_rng(seed)
    t = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    t.accumulates_sparse = True
    return t


def _backward_rows(t: Tensor, ids: np.ndarray, scale: float = 1.0) -> None:
    """One lookup + scalar loss so gather_rows records a sparse gradient."""
    (t.gather_rows(ids).sum() * scale).backward()


# --------------------------------------------------------------------- #
# The sparse autograd path itself
# --------------------------------------------------------------------- #
def test_gather_rows_accumulates_sparse_not_dense():
    t = _sparse_table(50, 4)
    _backward_rows(t, np.array([3, 7, 3]))
    assert t.grad is None
    assert t.sparse_grad is not None and len(t.sparse_grad) == 1
    ids, rows = t.sparse_grad.coalesce()
    assert ids.tolist() == [3, 7]
    # repeated id 3 accumulated twice (scatter-add semantics)
    np.testing.assert_array_equal(rows[0], np.full(4, 2.0))
    np.testing.assert_array_equal(rows[1], np.full(4, 1.0))


def test_sparse_grad_matches_dense_scatter():
    rng = make_rng(3)
    ids = rng.integers(0, 30, size=64)
    g = rng.normal(size=(64, 5))

    dense = Tensor(rng.normal(size=(30, 5)), requires_grad=True)
    dense.gather_rows(ids).backward(g)

    sparse = Tensor(dense.data.copy(), requires_grad=True)
    sparse.accumulates_sparse = True
    sparse.gather_rows(ids).backward(g)

    scattered = np.zeros(dense.grad.shape)
    rows, summed = sparse.sparse_grad.coalesce()
    scattered[rows] = summed
    np.testing.assert_array_equal(scattered, dense.grad)


def test_sparse_grad_accumulates_across_lookups():
    t = _sparse_table(20, 3)
    a = t.gather_rows(np.array([1, 2]))
    b = t.gather_rows(np.array([2, 5]))
    (a.sum() + b.sum()).backward()
    ids, rows = t.sparse_grad.coalesce()
    assert ids.tolist() == [1, 2, 5]
    np.testing.assert_array_equal(rows[1], np.full(3, 2.0))


def test_zero_grad_clears_sparse():
    t = _sparse_table(10, 2)
    _backward_rows(t, np.array([1]))
    t.zero_grad()
    assert t.sparse_grad is None and t.grad is None


def test_sparse_grad_coalesce_empty_raises():
    from repro.errors import OperatorError

    with pytest.raises(OperatorError):
        SparseGrad((4, 2)).coalesce()


def test_embedding_sparse_flag():
    rng = make_rng(0)
    emb = Embedding(40, 6, rng)
    assert not emb.table.accumulates_sparse
    emb.table.accumulates_sparse = True
    (emb(np.array([4, 4, 9])) ** 2).sum().backward()
    assert emb.table.grad is None
    ids, _ = emb.table.sparse_grad.coalesce()
    assert ids.tolist() == [4, 9]


# --------------------------------------------------------------------- #
# Untouched rows are frozen (the stale-momentum regression)
# --------------------------------------------------------------------- #
def test_untouched_rows_bit_identical():
    t = _sparse_table(100, 8, seed=1)
    before = t.data.copy()
    opt = Adam([t], lr=0.1)
    touched = np.array([2, 40, 97])
    for _ in range(5):
        opt.zero_grad()
        _backward_rows(t, touched)
        opt.step()
    untouched = np.setdiff1d(np.arange(100), touched)
    np.testing.assert_array_equal(t.data[untouched], before[untouched])
    assert not np.array_equal(t.data[touched], before[touched])


def test_adam_moves_exactly_the_touched_rows_of_a_row_sparse_table():
    """A table whose gradient lives in ``sparse_grad`` is stepped, not
    skipped: three steps on two rows move those two rows and no other."""
    t = _sparse_table(10, 4, seed=2)
    before = t.data.copy()
    opt = Adam([t], lr=0.1)
    for _ in range(3):
        opt.zero_grad()
        _backward_rows(t, np.array([3, 7]))
        assert t.grad is None
        opt.step()
    moved = np.flatnonzero((t.data != before).any(axis=1))
    assert moved.tolist() == [3, 7]


def test_dense_adam_moves_untouched_rows():
    """The documented dense behaviour the row-sparse step fixes: once
    momentum is non-zero, dense Adam drags zero-gradient rows every step."""
    t = Tensor(make_rng(0).normal(size=(10, 4)), requires_grad=True)
    opt = Adam([t], lr=0.1)
    t.grad = np.zeros_like(t.data)
    t.grad[3] = 1.0
    opt.step()
    after_first = t.data.copy()
    t.grad = np.zeros_like(t.data)  # nothing touched this step
    opt.step()
    # row 3's stale momentum moved it again despite a zero gradient
    assert not np.array_equal(t.data[3], after_first[3])


def test_both_gradient_kinds_on_one_leaf_raise_before_any_change():
    """A leaf carrying a dense and a row-sparse gradient is refused before
    any parameter, moment or step count moves, the valid leaves included."""
    rng = make_rng(4)
    layer = Dense(3, 2, rng)
    table = _sparse_table(6, 3, seed=5)
    params = layer.parameters() + [table]
    opt = Adam(params, lr=0.1)
    opt.zero_grad()
    (layer(table.gather_rows(np.array([0, 4]))) ** 2).sum().backward()
    opt.step()  # non-zero moments and per-row counts to protect

    opt.zero_grad()
    (layer(table.gather_rows(np.array([1, 4]))) ** 2).sum().backward()
    table.grad = np.ones_like(table.data)
    snapshot = (
        [p.data.copy() for p in params],
        [m.copy() for m in opt._m],
        [v.copy() for v in opt._v],
        opt._t,
        [None if t is None else t.copy() for t in opt._row_t],
    )
    with pytest.raises(TrainingError):
        opt.step()
    datas, ms, vs, step_count, row_ts = snapshot
    for before, p in zip(datas, params):
        np.testing.assert_array_equal(p.data, before)
    for before, m in zip(ms, opt._m):
        np.testing.assert_array_equal(m, before)
    for before, v in zip(vs, opt._v):
        np.testing.assert_array_equal(v, before)
    assert opt._t == step_count
    for before, t in zip(row_ts, opt._row_t):
        assert (before is None) == (t is None)
        if t is not None:
            np.testing.assert_array_equal(t, before)


# --------------------------------------------------------------------- #
# Dense <-> sparse parity where semantics coincide
# --------------------------------------------------------------------- #
def test_sparse_adam_full_touch_matches_dense_bitwise():
    """Rows touched every step: per-row t == shared t, so the dense-gradient
    and row-sparse-gradient steps of one Adam move the table identically."""
    rng = make_rng(7)
    n, d = 12, 5
    init = rng.normal(size=(n, d))
    all_ids = np.arange(n)

    dense = Tensor(init.copy(), requires_grad=True)
    dense_opt = Adam([dense], lr=0.05)
    sparse = Tensor(init.copy(), requires_grad=True)
    sparse.accumulates_sparse = True
    sparse_opt = Adam([sparse], lr=0.05)

    for step in range(10):
        g = make_rng(100 + step).normal(size=(n, d)).astype(DTYPE)
        dense.grad = g.copy()
        dense_opt.step()
        sparse.zero_grad()
        sparse.sparse_grad = SparseGrad(sparse.data.shape)
        sparse.sparse_grad.append(all_ids, g)
        sparse_opt.step()
    np.testing.assert_array_equal(dense.data, sparse.data)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_sparse_adam_touched_rows_match_per_row_reference(seed):
    """Property: the row-sparse step equals a scalar per-row Adam reference
    with per-row step counts, to float64 round-off, under random touch
    patterns."""
    with float64_dtype():  # the scalar reference steps in float64
        rng = make_rng(seed)
        n, d = 8, 3
        init = rng.normal(size=(n, d))
        t_counts = np.zeros(n, dtype=np.int64)
        m = np.zeros((n, d))
        v = np.zeros((n, d))
        ref = init.copy()
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8

        sparse = Tensor(init.copy(), requires_grad=True)
        sparse.accumulates_sparse = True
        opt = Adam([sparse], lr=lr)

        for _ in range(5):
            k = int(rng.integers(1, n + 1))
            ids = np.sort(rng.choice(n, size=k, replace=False))
            g = rng.normal(size=(k, d))
            sparse.zero_grad()
            sparse.sparse_grad = SparseGrad(sparse.data.shape)
            sparse.sparse_grad.append(ids, g)
            opt.step()
            for j, row in enumerate(ids):
                t_counts[row] += 1
                m[row] = b1 * m[row] + (1 - b1) * g[j]
                v[row] = b2 * v[row] + (1 - b2) * g[j] ** 2
                mhat = m[row] / (1 - b1 ** t_counts[row])
                vhat = v[row] / (1 - b2 ** t_counts[row])
                ref[row] -= lr * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_allclose(sparse.data, ref, rtol=0, atol=1e-12)


# --------------------------------------------------------------------- #
# One optimizer over dense weights and row-sparse tables
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 20),
    d=st.integers(1, 5),
    dense_steps=st.lists(st.booleans(), min_size=1, max_size=6),
)
def test_one_adam_over_a_mixed_list_equals_two_over_its_halves(
    seed, n, d, dense_steps
):
    """An encoder's ``Dense`` weights and a row-sparse table stepped by one
    Adam move bit-identically to the same pair stepped by an Adam each,
    under random touch patterns and with steps where the ``Dense`` layer is
    not in the loss (so it has no gradient)."""

    def build():
        layer = Dense(d, 2, make_rng(seed), activation="tanh")
        table = _sparse_table(n, d, seed=seed + 1)
        return layer, table

    joint_layer, joint_table = build()
    joint = [Adam(joint_layer.parameters() + [joint_table], lr=0.05)]
    split_layer, split_table = build()
    split = [Adam(split_layer.parameters(), lr=0.05), Adam([split_table], lr=0.05)]

    rng = make_rng(seed + 2)
    for use_dense in dense_steps:
        ids = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
        for layer, table, opts in (
            (joint_layer, joint_table, joint),
            (split_layer, split_table, split),
        ):
            for opt in opts:
                opt.zero_grad()
            rows = table.gather_rows(ids)
            out = layer(rows) if use_dense else rows
            (out * out).sum().backward()
            assert table.grad is None
            for opt in opts:
                opt.step()

    np.testing.assert_array_equal(joint_table.data, split_table.data)
    for a, b in zip(joint_layer.parameters(), split_layer.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
