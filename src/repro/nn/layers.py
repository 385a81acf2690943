"""Layers: parameter containers and the building blocks of the models.

:class:`Module` gives recursive parameter collection; :class:`Dense`,
:class:`Embedding`, :class:`Dropout`, :class:`LayerNorm` and
:class:`Sequential` are the blocks every GNN in the algorithm layer is
assembled from.
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

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def n_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.data.size for p in self.parameters())

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
        init = he_uniform if activation in ("relu", "leaky_relu") else xavier_uniform
        self.weight = Tensor(init((in_dim, out_dim), rng), requires_grad=True, name="W")
        self.bias = (
            Tensor(np.zeros(out_dim), requires_grad=True, name="b") if bias else None
        )
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        return F.dense(x, self.weight, self.bias, self.activation)


class Embedding(Module):
    """Lookup table of ``n`` rows by ``dim`` columns.

    With ``sparse=True`` lookups accumulate a row-sparse gradient
    (``table.sparse_grad``) instead of a dense O(n x dim) array; pair with
    :class:`~repro.nn.optim.SparseAdam` / :class:`~repro.nn.optim.SparseAdagrad`
    so optimizer steps touch only the rows of the batch.
    """

    def __init__(
        self,
        n: int,
        dim: int,
        rng: np.random.Generator,
        scale: float | None = None,
        sparse: bool = False,
    ) -> None:
        self.table = Tensor(
            embedding_init((n, dim), rng, scale=scale), requires_grad=True, name="E"
        )
        self.table.accumulates_sparse = sparse

    @property
    def n(self) -> int:
        """Number of rows."""
        return self.table.shape[0]

    @property
    def dim(self) -> int:
        """Embedding width."""
        return self.table.shape[1]

    def forward(self, index: np.ndarray) -> Tensor:
        return self.table.gather_rows(index)


class Dropout(Module):
    """Inverted dropout with its own RNG stream."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        self.rate = rate
        self._rng = rng
        self.training = True

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, training=self.training)


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        self.gamma = Tensor(np.ones(dim), requires_grad=True, name="gamma")
        self.beta = Tensor(np.zeros(dim), requires_grad=True, name="beta")
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * ((var + self.eps) ** -0.5)
        return normed * self.gamma + self.beta


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x
