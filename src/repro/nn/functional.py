"""Differentiable functions over :class:`~repro.nn.tensor.Tensor`.

Activations, row-wise softmax/log-softmax, concatenation/stacking, dropout,
L2 row normalization (Algorithm 1 line 7's embedding normalization),
numerically stable log-sigmoid for the skip-gram losses, and the segment
kernels of the AGGREGATE step — fixed-size (``*_rows_segmented``) and
ragged CSR-style (``segment_*`` over an offsets array, each one
``ufunc.reduceat`` sweep over the concatenated rows).
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
# Ragged (CSR-style) segment kernels
# ---------------------------------------------------------------------- #
def _check_segments(x: Tensor, offsets: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Validate ``(n, d)`` input and its CSR offsets; return (offsets, sizes)."""
    if x.ndim != 2:
        raise OperatorError(f"segment kernels need (n, d) input, got shape {x.shape}")
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 1:
        raise OperatorError("segment offsets must be a non-empty 1-D array")
    if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        raise OperatorError("segment offsets must be monotone from 0")
    if offsets[-1] != x.shape[0]:
        raise OperatorError(
            f"segment offsets cover {offsets[-1]} rows, tensor has {x.shape[0]}"
        )
    return offsets, np.diff(offsets)


def _reduceat(
    ufunc: np.ufunc, data: np.ndarray, offsets: np.ndarray, fill: float = 0.0
) -> np.ndarray:
    """Per-segment ``ufunc`` reduction; empty segments come out as ``fill``.

    ``np.add.reduceat`` has two sharp edges this wrapper files off: an
    index pair with ``start == end`` returns ``data[start]`` instead of the
    identity, and a start equal to ``len(data)`` (trailing empty segments)
    is out of range. Reducing only at the non-empty starts is exact —
    consecutive non-empty starts are separated precisely by one segment's
    rows, because the empty segments between them are zero-width.
    """
    sizes = np.diff(offsets)
    out = np.full((sizes.size,) + data.shape[1:], fill, dtype=np.float64)
    nonempty = sizes > 0
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(data, offsets[:-1][nonempty], axis=0)
    return out


def segment_sum_np(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Numpy-level ragged segment sum (no autograd): ``(n, d) -> (B, d)``.

    Shared by the autograd wrapper below and the offline SpMM precompute
    (SIGN): with ``x = features[csr.indices]`` and ``offsets = csr.indptr``
    this is one sparse-matrix row reduction.
    """
    return _reduceat(np.add, np.asarray(x, dtype=np.float64), offsets)


def segment_mean_np(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Numpy-level ragged segment mean; empty segments yield zero rows."""
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    return segment_sum_np(x, offsets) / np.maximum(sizes, 1)[:, None]


def segment_sum(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Ragged segment sum: rows ``offsets[i]:offsets[i+1]`` sum to row ``i``.

    The un-padded AGGREGATE kernel: neighbor states concatenated in CSR
    order reduce per target vertex whatever each vertex's degree is. Empty
    segments produce zero rows (a vertex with no neighbors aggregates
    nothing).
    """
    offsets, sizes = _check_segments(x, offsets)
    out = segment_sum_np(x.data, offsets)

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        return [(x, np.repeat(g, sizes, axis=0))]

    return Tensor(out, _parents=(x,), _backward=backward)


def segment_mean(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Ragged segment mean; empty segments yield zero rows."""
    offsets, sizes = _check_segments(x, offsets)
    counts = np.maximum(sizes, 1).astype(np.float64)
    out = segment_sum_np(x.data, offsets) / counts[:, None]

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        return [(x, np.repeat(g / counts[:, None], sizes, axis=0))]

    return Tensor(out, _parents=(x,), _backward=backward)


def segment_max(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Ragged segment max; empty segments yield zero rows.

    Gradients flow to the *first* maximal row per (segment, column) —
    ``np.argmax`` semantics, matching :func:`max_rows_segmented`.
    """
    offsets, sizes = _check_segments(x, offsets)
    n, d = x.shape
    seg_ids = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    out = _reduceat(np.maximum, x.data, offsets, fill=-np.inf)
    out[sizes == 0] = 0.0
    # First maximal position per (segment, column), for the backward scatter.
    pos = np.arange(n, dtype=np.int64) - offsets[seg_ids]
    hit = x.data == out[seg_ids]
    candidate = np.where(hit, pos[:, None], n)
    first = _reduceat(np.minimum, candidate, offsets, fill=n).astype(np.int64)

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        full = np.zeros_like(x.data)
        nz = sizes > 0
        if nz.any():
            rows = (offsets[:-1][nz][:, None] + first[nz]).ravel()
            cols = np.tile(np.arange(d, dtype=np.int64), int(nz.sum()))
            np.add.at(full, (rows, cols), g[nz].ravel())
        return [(x, full)]

    return Tensor(out, _parents=(x,), _backward=backward)


def segment_softmax(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Within-segment softmax along the rows: output has ``x``'s shape.

    Each column is normalized independently inside its segment — the
    attention-weight kernel for ragged neighbor lists (scores shaped
    ``(n, 1)`` normalize per target vertex). Empty segments contribute no
    rows; single-row segments come out as 1.
    """
    offsets, sizes = _check_segments(x, offsets)
    seg_ids = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    mx = _reduceat(np.maximum, x.data, offsets, fill=0.0)
    e = np.exp(x.data - mx[seg_ids])
    denom = _reduceat(np.add, e, offsets, fill=1.0)
    s = e / denom[seg_ids]

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        dot = _reduceat(np.add, g * s, offsets)
        return [(x, s * (g - dot[seg_ids]))]

    return Tensor(s, _parents=(x,), _backward=backward)
