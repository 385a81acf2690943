"""Differentiable functions over :class:`~repro.nn.tensor.Tensor`.

Activations, row-wise softmax/log-softmax, concatenation/stacking, dropout,
L2 row normalization (Algorithm 1 line 7's embedding normalization),
numerically stable log-sigmoid for the skip-gram losses, and the segment
kernels of the AGGREGATE step: fixed-width (``*_rows_segmented``), the
fused gather-reduce over a child table (``gather_sum_rows``) and the two
numpy-level ragged reductions SIGN's offline propagation uses
(``segment_{sum,mean}_np`` over CSR offsets).
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError
from repro.nn.tensor import Tensor, selection_matrix


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    mask = x.data > 0
    return Tensor(
        x.data * mask,
        _parents=(x,),
        _backward=lambda g: [(x, g * mask)],
    )


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    """Leaky ReLU with negative-side ``slope``."""
    mask = x.data > 0
    factor = np.where(mask, 1.0, slope)
    return Tensor(
        x.data * factor,
        _parents=(x,),
        _backward=lambda g: [(x, g * factor)],
    )


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid (numerically stable)."""
    s = _sigmoid_np(x.data)
    return Tensor(
        s,
        _parents=(x,),
        _backward=lambda g: [(x, g * s * (1.0 - s))],
    )


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    t = np.tanh(x.data)
    return Tensor(
        t,
        _parents=(x,),
        _backward=lambda g: [(x, g * (1.0 - t * t))],
    )


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    e = np.exp(x.data)
    return Tensor(e, _parents=(x,), _backward=lambda g: [(x, g * e)])


def log(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Elementwise natural log with an epsilon floor."""
    safe = np.maximum(x.data, eps)
    return Tensor(
        np.log(safe),
        _parents=(x,),
        _backward=lambda g: [(x, g / safe)],
    )


def log_sigmoid(x: Tensor) -> Tensor:
    """Numerically stable log(sigmoid(x)) = -softplus(-x)."""
    out = -np.logaddexp(0.0, -x.data)
    s = _sigmoid_np(x.data)
    return Tensor(
        out,
        _parents=(x,),
        _backward=lambda g: [(x, g * (1.0 - s))],
    )


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        dot = (g * s).sum(axis=axis, keepdims=True)
        return [(x, s * (g - dot))]

    return Tensor(s, _parents=(x,), _backward=backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed stably."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsum
    s = np.exp(out)

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        return [(x, g - s * g.sum(axis=axis, keepdims=True))]

    return Tensor(out, _parents=(x,), _backward=backward)


def concat(tensors: "list[Tensor]", axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` with split backward."""
    if not tensors:
        raise OperatorError("concat needs at least one tensor")
    datas = [t.data for t in tensors]
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        grads = []
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis if axis >= 0 else g.ndim + axis] = slice(lo, hi)
            grads.append((t, g[tuple(idx)]))
        return grads

    return Tensor(
        np.concatenate(datas, axis=axis), _parents=tuple(tensors), _backward=backward
    )


def stack(tensors: "list[Tensor]", axis: int = 0) -> Tensor:
    """Stack along a new ``axis``."""
    if not tensors:
        raise OperatorError("stack needs at least one tensor")

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        return [
            (t, np.take(g, i, axis=axis)) for i, t in enumerate(tensors)
        ]

    return Tensor(
        np.stack([t.data for t in tensors], axis=axis),
        _parents=tuple(tensors),
        _backward=backward,
    )


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: identity at eval time."""
    if not 0.0 <= rate < 1.0:
        raise OperatorError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return Tensor(
        x.data * keep,
        _parents=(x,),
        _backward=lambda g: [(x, g * keep)],
    )


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Row-wise L2 normalization (Algorithm 1's per-hop normalize step)."""
    norm = np.sqrt((x.data**2).sum(axis=axis, keepdims=True)) + eps
    out = x.data / norm

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        dot = (g * out).sum(axis=axis, keepdims=True)
        return [(x, (g - out * dot) / norm)]

    return Tensor(out, _parents=(x,), _backward=backward)


def sparse_matmul(matrix: "object", x: Tensor) -> Tensor:
    """``A @ x`` for a fixed (non-trainable) scipy sparse ``A``.

    The GCN family propagates through a constant normalized adjacency; only
    ``x`` receives gradients: ``dL/dx = A^T @ g``.
    """
    out = matrix @ x.data

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        return [(x, matrix.T @ g)]

    return Tensor(np.asarray(out), _parents=(x,), _backward=backward)


def gather_sum_rows(x: Tensor, table: np.ndarray) -> Tensor:
    """Fused gather-reduce ``out[b] = sum_j x[table[b, j]]``: ``(n, d) -> (B, d)``.

    AGGREGATE over a k-hop block as one SpMM: ``table`` is the block's
    ``(B, fanout)`` child-position table and the ``(B * fanout, d)``
    neighbor matrix is never materialised, forward or backward. Equal bit
    for bit to ``sum_rows_segmented(x.gather_rows(table.reshape(-1)),
    fanout)`` — see :func:`~repro.nn.tensor.selection_matrix` for why.
    """
    if x.ndim != 2:
        raise OperatorError(f"gather_sum_rows needs (n, d) input, got shape {x.shape}")
    return sparse_matmul(selection_matrix(table, x.shape[0]), x)


def mean_rows_segmented(x: Tensor, segment_size: int) -> Tensor:
    """Mean over fixed-size row segments: ``(B*s, d) -> (B, d)``.

    The shape transformation at the heart of AGGREGATE: hop-k context rows
    grouped per target vertex and averaged.
    """
    n, d = x.shape
    if n % segment_size != 0:
        raise OperatorError(
            f"row count {n} not divisible by segment size {segment_size}"
        )
    batch = n // segment_size
    out = x.data.reshape(batch, segment_size, d).mean(axis=1)

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        expanded = np.repeat(g / segment_size, segment_size, axis=0)
        return [(x, expanded)]

    return Tensor(out, _parents=(x,), _backward=backward)


def sum_rows_segmented(x: Tensor, segment_size: int) -> Tensor:
    """Sum over fixed-size row segments: ``(B*s, d) -> (B, d)``.

    The un-normalized AGGREGATE: one reduction kernel, no round trip
    through a mean (summing as ``mean * s`` costs a second elementwise
    pass and a divide/multiply of avoidable float error).
    """
    n, d = x.shape
    if n % segment_size != 0:
        raise OperatorError(
            f"row count {n} not divisible by segment size {segment_size}"
        )
    batch = n // segment_size
    out = x.data.reshape(batch, segment_size, d).sum(axis=1)

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        return [(x, np.repeat(g, segment_size, axis=0))]

    return Tensor(out, _parents=(x,), _backward=backward)


def max_rows_segmented(x: Tensor, segment_size: int) -> Tensor:
    """Max over fixed-size row segments (max-pooling AGGREGATE)."""
    n, d = x.shape
    if n % segment_size != 0:
        raise OperatorError(
            f"row count {n} not divisible by segment size {segment_size}"
        )
    batch = n // segment_size
    reshaped = x.data.reshape(batch, segment_size, d)
    argmax = reshaped.argmax(axis=1)  # (batch, d)
    out = np.take_along_axis(reshaped, argmax[:, None, :], axis=1)[:, 0, :]

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        full = np.zeros_like(reshaped)
        np.put_along_axis(full, argmax[:, None, :], g[:, None, :], axis=1)
        return [(x, full.reshape(n, d))]

    return Tensor(out, _parents=(x,), _backward=backward)


# ---------------------------------------------------------------------- #
# Ragged (CSR-style) segment kernels, numpy level
# ---------------------------------------------------------------------- #
def segment_sum_np(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Ragged segment sum (no autograd): rows ``offsets[i]:offsets[i+1]`` of
    ``(n, d)`` sum to row ``i`` of ``(B, d)``; empty segments yield zero rows.

    The offline SpMM precompute (SIGN): with ``x = features[csr.indices]``
    and ``offsets = csr.indptr`` this is one sparse-matrix row reduction.

    ``np.add.reduceat`` has two sharp edges filed off here: an index pair
    with ``start == end`` returns ``data[start]`` instead of the identity,
    and a start equal to ``len(data)`` (trailing empty segments) is out of
    range. Reducing only at the non-empty starts is exact — consecutive
    non-empty starts are separated precisely by one segment's rows, because
    the empty segments between them are zero-width.
    """
    data = np.asarray(x, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    out = np.zeros((sizes.size,) + data.shape[1:])
    nonempty = sizes > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(data, offsets[:-1][nonempty], axis=0)
    return out


def segment_mean_np(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Ragged segment mean (no autograd); empty segments yield zero rows."""
    sizes = np.diff(np.asarray(offsets, dtype=np.int64))
    return segment_sum_np(x, offsets) / np.maximum(sizes, 1)[:, None]
