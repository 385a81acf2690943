"""Differentiable functions over :class:`~repro.nn.tensor.Tensor`.

Activations (each a numpy-level pair in :data:`ACTIVATIONS`, shared with the
fused :func:`dense` node a ``Dense`` layer records), row-wise
softmax/log-softmax, concatenation, L2 row normalization
(Algorithm 1 line 7's embedding normalization), numerically stable
log-sigmoid for the skip-gram losses, and the segment kernels of the
AGGREGATE step: fixed-width (``*_rows_segmented``), the
fused gather-reduce over a child table (``gather_sum_rows``) and the two
numpy-level ragged reductions SIGN's offline propagation uses
(``segment_{sum,mean}_np`` over CSR offsets).
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError
from repro.nn.tensor import DTYPE, Tensor, _unbroadcast, selection_matrix


def _sigmoid_np(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """Numerically stable logistic sigmoid; ``out`` may alias ``x``."""
    if out is None:
        out = np.empty_like(x)
    pos = x >= 0
    tail = np.exp(x[~pos])
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    out[~pos] = tail / (1.0 + tail)
    return out


#: name -> ``(apply, chain)``, each activation written once at numpy level.
#: ``apply(x, out)`` computes ``y = act(x)`` into ``out`` (a fresh array when
#: None; ``out`` may be ``x`` itself) and ``chain(g, y)`` is ``g * act'(x)``
#: with the derivative read off the output ``y``. The standalone ops below
#: and the fused :func:`dense` node share them.
ACTIVATIONS = {
    "linear": (lambda x, out=None: x, lambda g, y: g),
    # x * (x > 0), not maximum(x, 0): negatives come out as -0.0.
    "relu": (
        lambda x, out=None: np.multiply(x, x > 0, out=out),
        lambda g, y: g * (y > 0),
    ),
    "tanh": (
        lambda x, out=None: np.tanh(x, out=out),
        lambda g, y: g * (1.0 - y * y),
    ),
    "sigmoid": (_sigmoid_np, lambda g, y: g * y * (1.0 - y)),
}


def _activation(pair: "tuple[object, object]", x: Tensor) -> Tensor:
    apply, chain = pair
    y = apply(x.data)
    return Tensor(y, _parents=(x,), _backward=lambda g: [(x, chain(g, y))])


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    return _activation(ACTIVATIONS["relu"], x)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return _activation(ACTIVATIONS["tanh"], x)


def dense(
    x: Tensor, weight: Tensor, bias: "Tensor | None" = None, activation: str = "linear"
) -> Tensor:
    """``act(x @ weight + bias)`` as one tape node and one output array.

    The bias is added and the activation applied in place on the matmul's
    result; the closure delivers the gradients of ``x``, ``weight`` and
    ``bias`` with the formulas — and in the order — the composed
    ``matmul -> add -> activation`` chain would, bit for bit. ``x`` is 1-D
    or 2-D for a backward pass (any rank >= 1 forward-only).
    """
    if activation not in ACTIVATIONS:
        raise OperatorError(f"unknown activation {activation!r}")
    apply, chain = ACTIVATIONS[activation]
    if x.ndim < 1 or weight.ndim != 2:
        raise OperatorError(
            f"dense needs >= 1-D input and a 2-D weight, got ranks {x.ndim} and {weight.ndim}"
        )
    out = x.data @ weight.data
    if bias is not None:
        out += bias.data
    out = apply(out, out)

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        g = chain(g, out)
        grads = Tensor._matmul_backward(x, weight, g)
        if bias is not None and bias.needs_grad:
            grads.append((bias, _unbroadcast(g, bias.shape)))
        return grads

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor(out, _parents=parents, _backward=backward)


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    e = np.exp(x.data)
    return Tensor(e, _parents=(x,), _backward=lambda g: [(x, g * e)])


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


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Row-wise L2 normalization (Algorithm 1's per-hop normalize step)."""
    norm = np.sqrt((x.data**2).sum(axis=axis, keepdims=True)) + eps
    out = x.data / norm

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        tmp = g * out
        dot = tmp.sum(axis=axis, keepdims=True)
        np.multiply(out, dot, out=tmp)
        np.subtract(g, tmp, out=tmp)
        tmp /= norm
        return [(x, tmp)]

    return Tensor(out, _parents=(x,), _backward=backward)


def sparse_matmul(matrix: "object", x: Tensor) -> Tensor:
    """``A @ x`` for a fixed (non-trainable) scipy sparse ``A``.

    A fixed propagation matrix (a normalized adjacency, a block's
    selection matrix); only ``x`` receives gradients: ``dL/dx = A^T @ g``.
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
    for bit to gathering those rows and summing each fanout-row segment —
    see :func:`~repro.nn.tensor.selection_matrix` for why.
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
    data = np.asarray(x, dtype=DTYPE)
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.diff(offsets)
    out = np.zeros((sizes.size,) + data.shape[1:], dtype=DTYPE)
    nonempty = sizes > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(data, offsets[:-1][nonempty], axis=0)
    return out


def segment_mean_np(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Ragged segment mean (no autograd); empty segments yield zero rows."""
    sizes = np.diff(np.asarray(offsets, dtype=np.int64))
    return segment_sum_np(x, offsets) / np.maximum(sizes, 1).astype(DTYPE)[:, None]
