"""Reverse-mode autograd tensor.

A :class:`Tensor` wraps a :data:`DTYPE` numpy array plus the closure needed
to backpropagate through the op that produced it. ``backward()`` runs a
topological sort and accumulates gradients into every ``requires_grad``
leaf. Broadcasting is supported on elementwise ops; gradients are
un-broadcast (summed) back to the operand shapes.

**Tape rule.** A tensor *needs a gradient* iff it is a ``requires_grad``
leaf or was produced from a parent that needs one. An op none of whose
parents needs a gradient records nothing — no parents, no closure — so
constants (raw features, targets, everything computed from them alone)
never reach the tape, and the n-ary closures skip an operand that does not
need one. The decision is taken once, when the op's output is constructed:
flipping ``requires_grad`` on a leaf *after* ops were built from it is not
supported. Under :func:`no_grad` no op records anything.

**One compute dtype.** Everything that reaches the tape — data, gradients,
row-sparse entries, selection operators, optimizer moments — is
:data:`DTYPE`, float32 as TensorFlow trains. numpy and scipy promote
float32 × float64 to float64, so build every new array with
``dtype=DTYPE``: one float64 operand upcasts the tape from there on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np
from scipy import sparse

from repro.errors import OperatorError, check_ids

#: The dtype of every array on the tape (module docstring).
DTYPE = np.float32

#: False inside :func:`no_grad`: ops record no parents and no closure.
_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Run the enclosed ops off the tape (inference-only forward).

    Every tensor produced inside has ``_parents == ()``, so intermediates
    die as the forward advances instead of living until a backward nobody
    runs. Nests, and restores the previous state on any exit.
    """
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def selection_matrix(table: np.ndarray, n_rows: int) -> sparse.csr_matrix:
    """The ``(B, n_rows)`` operator that sums each ``table`` row's picks.

    ``table`` is a ``(B, s)`` array of row ids into an ``(n_rows, d)``
    matrix ``x``. The result ``op`` holds a unit entry at ``(b, table[b,
    j])`` per pick, in stored order with duplicates kept, so ``op @ x`` is
    ``x[table].sum(axis=1)`` and ``op.T @ g`` scatter-adds ``g[b]`` into
    every row ``b`` picked. Both scipy kernels accumulate each output row
    sequentially in stored order starting from zero — the grouping of a
    strided ``add.reduce`` forward and of a ``bincount`` scatter backward —
    so the operator must never be canonicalised (``sum_duplicates`` or
    sorted indices regroup the additions).
    """
    table = check_ids(table, n_rows, OperatorError, "row ids", ndim=2)
    batch, width = table.shape
    indptr = np.arange(batch + 1, dtype=np.int64) * width
    return sparse.csr_matrix(
        (np.ones(table.size, dtype=DTYPE), table.reshape(-1), indptr), shape=(batch, n_rows)
    )


def _scatter_add_rows(index: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """``out[index[i]] += rows[i]`` into a fresh ``(n_rows, ...)`` array.

    ``sel.T @ rows`` for the one-pick-per-row :func:`selection_matrix` of
    ``index``, built directly in its transposed (CSC) form: repeated ids
    accumulate in index order from zero, exactly as a ``bincount`` would.
    ``index`` must already be validated against ``n_rows``.
    """
    m = index.size
    sel_t = sparse.csc_matrix(
        (np.ones(m, dtype=DTYPE), index, np.arange(m + 1, dtype=np.int64)), shape=(n_rows, m)
    )
    return sel_t @ rows


class SparseGrad:
    """Row-sparse gradient of a 1-D/2-D leaf: ``(ids, rows)`` entries.

    Embedding lookups touch a few hundred rows of a table with (potentially)
    millions; materializing the dense scatter makes every backward pass —
    and every optimizer step walking it — O(table) instead of O(batch).
    ``gather_rows`` appends one ``(index, grad_rows)`` entry per lookup when
    the leaf opts in (:attr:`Tensor.accumulates_sparse`); :meth:`coalesce`
    merges them into unique ids with summed rows (scatter-add semantics,
    identical to the dense accumulation it replaces).
    """

    __slots__ = ("shape", "_entries")

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.shape = shape
        self._entries: "list[tuple[np.ndarray, np.ndarray]]" = []

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Record one lookup's contribution (ids may repeat)."""
        self._entries.append(
            (np.asarray(ids, dtype=np.int64), np.asarray(rows, dtype=DTYPE))
        )

    def coalesce(self) -> "tuple[np.ndarray, np.ndarray]":
        """Merge all entries into ``(unique_ids, summed_rows)``.

        Unique ids come out sorted; repeated ids (within or across entries)
        have their gradient rows summed, **bit-identically** to the dense
        accumulation this replaces: each entry's repeats are reduced by the
        same scatter-add the dense backward uses, and entry partial sums are
        then added in entry order — the exact grouping of ``grad +=`` over
        per-lookup dense scatters. Summing one flat concatenation instead
        would regroup the additions and drift in the last ulp.
        """
        if not self._entries:
            raise OperatorError("coalesce() on an empty sparse gradient")
        uniq = np.unique(np.concatenate([e[0] for e in self._entries]))
        row_shape = self._entries[0][1].shape[1:]
        summed = np.zeros((uniq.size,) + row_shape, dtype=DTYPE)
        for ids, rows in self._entries:
            summed += _scatter_add_rows(np.searchsorted(uniq, ids), rows, uniq.size)
        return uniq, summed


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were 1 in the original shape.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff."""

    __slots__ = (
        "data",
        "grad",
        "sparse_grad",
        "accumulates_sparse",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
    )
    __array_priority__ = 100  # our operators win over numpy's

    def __init__(
        self,
        data: "np.ndarray | float | list",
        requires_grad: bool = False,
        _parents: "tuple[Tensor, ...]" = (),
        _backward: "Callable[[np.ndarray], None] | None" = None,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: np.ndarray | None = None
        #: Row-sparse gradient accumulated by ``gather_rows`` when
        #: :attr:`accumulates_sparse` is set on this leaf (embedding tables).
        self.sparse_grad: SparseGrad | None = None
        self.accumulates_sparse = False
        self.requires_grad = requires_grad
        if _parents and not (_recording and any(p.needs_grad for p in _parents)):
            # Tape rule: nothing upstream trains, so there is nothing to record.
            _parents, _backward = (), None
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    @property
    def needs_grad(self) -> bool:
        """Whether a backward pass has anything to deliver to or through
        this tensor: a ``requires_grad`` leaf, or an op output on the tape."""
        return self.requires_grad or bool(self._parents)

    def __repr__(self) -> str:
        grad_flag = ", grad" if self.requires_grad else ""
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        """The scalar value (raises for non-scalars)."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The raw array (no copy)."""
        return self.data

    # ------------------------------------------------------------------ #
    # Autograd machinery
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        """Clear this tensor's gradient (dense and sparse)."""
        self.grad = None
        self.sparse_grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise OperatorError(
                    "backward() without an explicit gradient needs a scalar"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=DTYPE)
            if grad.shape != self.data.shape:
                raise OperatorError(
                    f"gradient shape {grad.shape} != tensor shape {self.data.shape}"
                )
        # Topological order (children before parents).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad:
                node._accumulate(node_grad)
            if node._backward is not None:
                for parent, pgrad in node._backward(node_grad):
                    if pgrad is None:
                        continue
                    pid = id(parent)
                    if pid in grads:
                        grads[pid] = grads[pid] + pgrad
                    else:
                        grads[pid] = pgrad

    @staticmethod
    def _coerce(other: "Tensor | np.ndarray | float") -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic (broadcasting)
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        other = Tensor._coerce(other)
        out = Tensor(
            self.data + other.data,
            _parents=(self, other),
            _backward=lambda g: [
                (t, _unbroadcast(g, t.shape)) for t in (self, other) if t.needs_grad
            ],
        )
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor(
            -self.data,
            _parents=(self,),
            _backward=lambda g: [(self, -g)],
        )

    def __sub__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        other = Tensor._coerce(other)
        out = Tensor(
            self.data * other.data,
            _parents=(self, other),
            _backward=lambda g: [
                (t, _unbroadcast(g * co.data, t.shape))
                for t, co in ((self, other), (other, self))
                if t.needs_grad
            ],
        )
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        other = Tensor._coerce(other)

        def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
            grads = []
            if self.needs_grad:
                grads.append((self, _unbroadcast(g / other.data, self.shape)))
            if other.needs_grad:
                wrt_other = -g * self.data / (other.data**2)
                grads.append((other, _unbroadcast(wrt_other, other.shape)))
            return grads

        return Tensor(self.data / other.data, _parents=(self, other), _backward=backward)

    def __rtruediv__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        return Tensor._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise OperatorError("only scalar exponents are supported")
        out = Tensor(
            self.data**exponent,
            _parents=(self,),
            _backward=lambda g: [
                (self, g * exponent * self.data ** (exponent - 1))
            ],
        )
        return out

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def __matmul__(self, other: "Tensor | np.ndarray") -> "Tensor":
        other = Tensor._coerce(other)
        if self.ndim < 1 or other.ndim < 1:
            raise OperatorError("matmul needs at least 1-D operands")
        out = Tensor(
            self.data @ other.data,
            _parents=(self, other),
            _backward=lambda g: Tensor._matmul_backward(self, other, g),
        )
        return out

    @staticmethod
    def _matmul_backward(
        a: "Tensor", b: "Tensor", g: np.ndarray
    ) -> "list[tuple[Tensor, np.ndarray]]":
        ad, bd = a.data, b.data
        if ad.ndim > 2 or bd.ndim > 2:
            raise OperatorError(
                f"unsupported matmul operand ranks {ad.ndim} and {bd.ndim}"
            )
        grads = []
        if a.needs_grad:
            if bd.ndim == 2:
                grads.append((a, g @ bd.T))
            else:
                grads.append((a, np.outer(g, bd) if ad.ndim == 2 else g * bd))
        if b.needs_grad:
            if ad.ndim == 2:
                grads.append((b, ad.T @ g))
            else:
                grads.append((b, np.outer(ad, g) if bd.ndim == 2 else g * ad))
        return grads

    @property
    def T(self) -> "Tensor":
        """2-D transpose."""
        if self.ndim != 2:
            raise OperatorError("T is defined for 2-D tensors only")
        return Tensor(
            self.data.T,
            _parents=(self,),
            _backward=lambda g: [(self, g.T)],
        )

    # ------------------------------------------------------------------ #
    # Reductions and shaping
    # ------------------------------------------------------------------ #
    def sum(self, axis: "int | None" = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
            if axis is None:
                return [(self, np.broadcast_to(g, self.shape).copy())]
            gg = g if keepdims else np.expand_dims(g, axis)
            return [(self, np.broadcast_to(gg, self.shape).copy())]

        return Tensor(out_data, _parents=(self,), _backward=backward)

    def mean(self, axis: "int | None" = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        """Reshaped view (autograd-aware)."""
        out = Tensor(
            self.data.reshape(*shape),
            _parents=(self,),
            _backward=lambda g: [(self, g.reshape(self.shape))],
        )
        return out

    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Row lookup ``out[i] = self[index[i]]`` with scatter-add backward.

        This is the embedding-lookup primitive: gradients of repeated rows
        accumulate. When this tensor is a leaf with
        :attr:`accumulates_sparse` set, the backward pass appends an
        ``(index, grad_rows)`` entry to :attr:`sparse_grad` instead of
        materializing the dense O(rows x dim) scatter — the sparse
        optimizers consume it directly. ``index`` must lie in ``[0,
        n_rows)``: negative ids do not wrap.
        """
        index = check_ids(index, self.data.shape[0], OperatorError, "row ids", ndim=None)

        def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray | None]]":
            if self.accumulates_sparse and self.requires_grad:
                if self.sparse_grad is None:
                    self.sparse_grad = SparseGrad(self.data.shape)
                self.sparse_grad.append(index, g)
                return [(self, None)]
            return [(self, _scatter_add_rows(index, g, self.data.shape[0]))]

        return Tensor(self.data[index], _parents=(self,), _backward=backward)
