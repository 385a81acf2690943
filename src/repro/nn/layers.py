"""Layers: parameter containers and the building blocks of the models.

:class:`Module` gives recursive parameter collection; :class:`Dense`,
:class:`Embedding` and :class:`Sequential` are the blocks every GNN in the
algorithm layer is assembled from.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError
from repro.nn import functional as F
from repro.nn.init import embedding_init, he_uniform, xavier_uniform
from repro.nn.tensor import Tensor


class Module:
    """Base class with recursive parameter discovery."""

    def parameters(self) -> "list[Tensor]":
        """All trainable tensors of this module and its submodules."""
        params: list[Tensor] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            for p in _collect(value):
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        return params

    def __call__(self, *args: object, **kwargs: object) -> Tensor:
        return self.forward(*args, **kwargs)

    def forward(self, *args: object, **kwargs: object) -> Tensor:
        raise NotImplementedError


def _collect(value: object) -> "list[Tensor]":
    if isinstance(value, Tensor):
        return [value] if value.requires_grad else []
    if isinstance(value, Module):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        out: list[Tensor] = []
        for item in value:
            out.extend(_collect(item))
        return out
    if isinstance(value, dict):
        out = []
        for item in value.values():
            out.extend(_collect(item))
        return out
    return []


class Dense(Module):
    """Fully connected layer ``y = act(x @ W + b)``, one tape node per call
    (:func:`repro.nn.functional.dense`)."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        activation: str = "linear",
        bias: bool = True,
    ) -> None:
        if activation not in F.ACTIVATIONS:
            raise OperatorError(f"unknown activation {activation!r}")
        init = he_uniform if activation == "relu" else xavier_uniform
        self.weight = Tensor(init((in_dim, out_dim), rng), requires_grad=True, name="W")
        self.bias = (
            Tensor(np.zeros(out_dim), requires_grad=True, name="b") if bias else None
        )
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        return F.dense(x, self.weight, self.bias, self.activation)


class Embedding(Module):
    """Lookup table of ``n`` rows by ``dim`` columns.

    Lookups accumulate a dense gradient; set ``table.accumulates_sparse``
    for a row-sparse one, which :class:`~repro.nn.optim.Adam` then steps
    on the batch's rows only.
    """

    def __init__(
        self,
        n: int,
        dim: int,
        rng: np.random.Generator,
        scale: float | None = None,
    ) -> None:
        self.table = Tensor(
            embedding_init((n, dim), rng, scale=scale), requires_grad=True, name="E"
        )

    def forward(self, index: np.ndarray) -> Tensor:
        return self.table.gather_rows(index)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x
