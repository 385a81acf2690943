"""COMBINE (paper §3.4).

COMBINE merges a vertex's previous-hop embedding ``h_v^(k-1)`` with the
aggregated neighborhood vector ``h'_v`` into ``h_v^(k)``. The paper's sum and
gated variants are not evaluated by it; the one combine here is GraphSAGE's
concatenation.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Dense, Module
from repro.nn.tensor import Tensor


class ConcatCombiner(Module):
    """``h^(k) = act(W [h^(k-1); h'])`` — the GraphSAGE combine: merges
    ``(batch, self_dim)`` with ``(batch, neigh_dim)`` into
    ``(batch, out_dim)``."""

    def __init__(
        self, self_dim: int, neigh_dim: int, out_dim: int, rng: np.random.Generator
    ) -> None:
        self.dense = Dense(self_dim + neigh_dim, out_dim, rng, activation="tanh")

    def forward(self, h_self: Tensor, h_neigh: Tensor) -> Tensor:
        return self.dense(F.concat([h_self, h_neigh], axis=-1))
