"""Numerical gradient checking for the autograd engine, and reference ops.

Central-difference verification used by the test suite on every op and
layer: build a scalar loss from tensors, compare ``backward()`` gradients to
finite differences. :func:`sum_rows_segmented` is the gather-then-reduce
oracle that the fused ``F.gather_sum_rows`` and the ragged
``F.segment_sum_np`` are checked against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import OperatorError
from repro.nn.tensor import Tensor


def numerical_gradient(
    fn: Callable[[], Tensor], param: Tensor, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of the scalar ``fn()`` w.r.t. ``param``."""
    grad = np.zeros_like(param.data)
    flat = param.data.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn().item()
        flat[i] = original - eps
        down = fn().item()
        flat[i] = original
        grad_flat[i] = (up - down) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[[], Tensor],
    params: "list[Tensor]",
    eps: float = 1e-6,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> "list[float]":
    """Assert analytic gradients of ``fn`` match finite differences.

    Returns the max absolute error per parameter; raises AssertionError on
    any mismatch (so pytest failure messages carry the exact deltas).
    """
    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()
    errors = []
    for p in params:
        assert p.grad is not None, f"no gradient reached parameter {p!r}"
        numeric = numerical_gradient(fn, p, eps=eps)
        err = float(np.max(np.abs(p.grad - numeric)))
        errors.append(err)
        np.testing.assert_allclose(
            p.grad, numeric, atol=atol, rtol=rtol,
            err_msg=f"gradient mismatch for {p!r}",
        )
    return errors


def sum_rows_segmented(x: Tensor, segment_size: int) -> Tensor:
    """Sum over fixed-size row segments, ``(B*s, d) -> (B, d)``, as a reshape
    and one numpy reduction; the gradient repeats each output row ``s`` times."""
    n, d = x.shape
    if n % segment_size != 0:
        raise OperatorError(f"row count {n} not divisible by segment size {segment_size}")
    out = x.data.reshape(n // segment_size, segment_size, d).sum(axis=1)

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        return [(x, np.repeat(g, segment_size, axis=0))]

    return Tensor(out, _parents=(x,), _backward=backward)
