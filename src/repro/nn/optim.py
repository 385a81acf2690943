"""The optimizer: one :class:`Adam` for dense weights and row-sparse tables.

Each parameter's update follows the gradient it carries. A dense ``grad``
(model weights, in-process embedding tables) gets the textbook Adam step
over every element. A row-sparse ``sparse_grad`` — the ``(ids, grad_rows)``
entries :meth:`~repro.nn.tensor.Tensor.gather_rows` accumulates on
``accumulates_sparse`` leaves — updates **only the touched rows**, with
per-row step counters for bias correction. One optimizer therefore owns an
encoder's dense weights and its embedding tables in a single list.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.nn.tensor import DTYPE, Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _rowwise(values: np.ndarray, ndim: int) -> np.ndarray:
    """Shape per-row scalars for broadcasting against ``ndim``-D rows."""
    return values.reshape((-1,) + (1,) * (ndim - 1))


def _bias_correction(beta: float, counts: np.ndarray) -> np.ndarray:
    """``1 - beta**t`` per row, via Python-scalar pow per unique count.

    numpy's vectorized pow rounds differently from libm's in the last ulp,
    which would break the bit-for-bit match with the dense branch's
    ``beta ** self._t``. A minibatch's rows share at most a handful of
    distinct step counts, so scalar pow per unique count costs nothing.
    The result is :data:`~repro.nn.tensor.DTYPE`, the dtype the dense
    branch's Python-float correction is divided in.
    """
    counts = np.asarray(counts)
    out = np.empty(counts.shape, dtype=DTYPE)
    for c in np.unique(counts):
        out[counts == c] = 1.0 - beta ** int(c)
    return out


class Adam:
    """Adam with bias correction over a fixed parameter list.

    **Dense gradients** share one step count, advanced once per
    :meth:`step`. Once a row of a dense parameter's first moment is
    non-zero, the update keeps moving that row every step even when its
    gradient is exactly zero: stale momentum drags it, and the step costs
    O(parameter).

    **Row-sparse gradients** (``accumulates_sparse`` leaves) update only the
    touched rows. Each row has its own step count, advanced only when the
    row is touched, and its moment decay is lazy: a row skipped for ``k``
    steps keeps its moments frozen and decays them once on its next touch.
    Untouched rows are bit-identical across a step, and a row touched on
    every step moves bit-identically to the dense update.

    A leaf carrying both kinds at once is an error.
    """

    def __init__(self, params: "list[Tensor]", lr: float = 1e-2) -> None:
        if lr <= 0:
            raise TrainingError(f"learning rate must be positive, got {lr}")
        if not params:
            raise TrainingError("optimizer got an empty parameter list")
        self.params = params
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]
        self._t = 0
        #: Per-row step counts, allocated on a leaf's first row-sparse step.
        self._row_t: "list[np.ndarray | None]" = [None] * len(params)

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update from the accumulated gradients.

        Raises :class:`~repro.errors.TrainingError` before anything changes
        when a parameter carries both a dense and a row-sparse gradient.
        """
        for p in self.params:
            if p.sparse_grad and p.grad is not None:
                raise TrainingError(
                    f"{p!r} carries both a dense and a row-sparse gradient"
                )
        self._t += 1
        b1t = 1.0 - BETA1**self._t
        b2t = 1.0 - BETA2**self._t
        for i, (p, m, v) in enumerate(zip(self.params, self._m, self._v)):
            if p.sparse_grad:
                self.step_rows(i, *p.sparse_grad.coalesce())
            elif p.grad is not None:
                m *= BETA1
                m += (1.0 - BETA1) * p.grad
                v *= BETA2
                v += (1.0 - BETA2) * (p.grad**2)
                p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)

    def step_rows(self, i: int, ids: np.ndarray, g: np.ndarray) -> None:
        """Update parameter ``i``'s rows ``ids`` (distinct) by their gradient
        rows ``g``: the row-sparse half of :meth:`step`, for a caller that
        holds coalesced rows (a parameter-server shard)."""
        p, m, v = self.params[i], self._m[i], self._v[i]
        t = self._row_t[i]
        if t is None:
            t = self._row_t[i] = np.zeros(p.data.shape[0], dtype=np.int64)
        t[ids] += 1
        b1t = _rowwise(_bias_correction(BETA1, t[ids]), g.ndim)
        b2t = _rowwise(_bias_correction(BETA2, t[ids]), g.ndim)
        m_rows = BETA1 * m[ids] + (1.0 - BETA1) * g
        v_rows = BETA2 * v[ids] + (1.0 - BETA2) * (g**2)
        m[ids] = m_rows
        v[ids] = v_rows
        p.data[ids] -= self.lr * (m_rows / b1t) / (np.sqrt(v_rows / b2t) + EPS)
