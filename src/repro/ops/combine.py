"""COMBINE implementations (paper §3.4).

COMBINE merges a vertex's previous-hop embedding ``h_v^(k-1)`` with the
aggregated neighborhood vector ``h'_v`` into ``h_v^(k)``. "Usually, in
existing GNN methods, h^(k-1) and h' are summed together to [be] fed into a
deep neural network" — that is :class:`SumCombiner`; GraphSAGE concatenates
(:class:`ConcatCombiner`); gated variants use a GRU (:class:`GRUCombiner`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError
from repro.nn import functional as F
from repro.nn.layers import Dense
from repro.nn.rnn import GRUCell
from repro.nn.tensor import Tensor
from repro.ops.base import COMBINER_REGISTRY, Combiner, register_combiner


@register_combiner
class SumCombiner(Combiner):
    """``h^(k) = act(W (h^(k-1) + h'))`` — requires matching dims."""

    name = "sum"

    def __init__(
        self, self_dim: int, neigh_dim: int, out_dim: int, rng: np.random.Generator
    ) -> None:
        if self_dim != neigh_dim:
            raise OperatorError(
                f"sum combine needs matching dims, got {self_dim} and {neigh_dim}"
            )
        self.dense = Dense(self_dim, out_dim, rng, activation="tanh")

    def forward(self, h_self: Tensor, h_neigh: Tensor) -> Tensor:
        return self.dense(h_self + h_neigh)


@register_combiner
class ConcatCombiner(Combiner):
    """``h^(k) = act(W [h^(k-1); h'])`` — the GraphSAGE combine."""

    name = "concat"

    def __init__(
        self, self_dim: int, neigh_dim: int, out_dim: int, rng: np.random.Generator
    ) -> None:
        self.dense = Dense(self_dim + neigh_dim, out_dim, rng, activation="tanh")

    def forward(self, h_self: Tensor, h_neigh: Tensor) -> Tensor:
        return self.dense(F.concat([h_self, h_neigh], axis=-1))


@register_combiner
class GRUCombiner(Combiner):
    """``h^(k) = GRU(input=h', state=h^(k-1))`` — gated combine."""

    name = "gru"

    def __init__(
        self, self_dim: int, neigh_dim: int, out_dim: int, rng: np.random.Generator
    ) -> None:
        if self_dim != out_dim:
            raise OperatorError(
                f"gru combine keeps state width: self_dim {self_dim} must equal "
                f"out_dim {out_dim}"
            )
        self.cell = GRUCell(neigh_dim, out_dim, rng)

    def forward(self, h_self: Tensor, h_neigh: Tensor) -> Tensor:
        return self.cell(h_neigh, h_self)


def make_combiner(
    name: str,
    self_dim: int,
    neigh_dim: int,
    out_dim: int,
    rng: np.random.Generator,
) -> Combiner:
    """Instantiate a registered combiner by name."""
    try:
        cls = COMBINER_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(COMBINER_REGISTRY))
        raise OperatorError(f"unknown combiner {name!r} (known: {known})") from None
    return cls(self_dim, neigh_dim, out_dim, rng)
