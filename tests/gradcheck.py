"""Numerical gradient checking for the autograd engine, and reference ops.

Central-difference verification used by the test suite on every op and
layer: build a scalar loss from tensors, compare ``backward()`` gradients to
finite differences. :func:`sum_rows_segmented` is the gather-then-reduce
oracle that the fused ``F.gather_sum_rows`` and the ragged
``F.segment_sum_np`` are checked against.

Finite differences at ``eps = 1e-6`` need float64: the tape's float32
``DTYPE`` resolves about 1e-7 of a value. A gradient check therefore runs
under the ``float64_tape`` fixture (``tests/conftest.py``), which pins
:data:`~repro.nn.tensor.DTYPE` to float64 through :func:`float64_dtype`
(a hypothesis test enters that context in its body instead);
:func:`check_gradients` refuses a parameter of any other dtype rather
than loosening its tolerances.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.errors import OperatorError
from repro.nn import tensor as tensor_module
from repro.nn.tensor import Tensor


def _bound_to(dtype: type) -> list:
    """Every loaded ``repro`` module whose ``DTYPE`` is ``dtype``."""
    return [
        module for name, module in list(sys.modules.items())
        if name.startswith("repro") and getattr(module, "DTYPE", None) is dtype
    ]


@contextmanager
def float64_dtype() -> Iterator[None]:
    """Run the enclosed code with the tape in float64: ``DTYPE`` is set in
    every loaded ``repro`` module that bound it (``from repro.nn.tensor
    import DTYPE``). On exit every ``repro`` module holding float64 gets the
    tape's dtype back, a module first imported inside included."""
    current = tensor_module.DTYPE
    for module in _bound_to(current):
        module.DTYPE = np.float64
    try:
        yield
    finally:
        for module in _bound_to(np.float64):
            module.DTYPE = current


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
        assert p.data.dtype == np.float64, (
            f"gradient check of {p!r} in {p.data.dtype}: use the float64_tape fixture"
        )
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
