"""The recurrent cell of the Evolving GNN's dynamics predictor (a GRU)."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Dense, Module
from repro.nn.tensor import Tensor


class GRUCell(Module):
    """Gated recurrent unit: ``h' = (1-z)*h + z*h_tilde``."""

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        self.z_gate = Dense(input_dim + hidden_dim, hidden_dim, rng, "sigmoid")
        self.r_gate = Dense(input_dim + hidden_dim, hidden_dim, rng, "sigmoid")
        self.candidate = Dense(input_dim + hidden_dim, hidden_dim, rng, "tanh")

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        xh = F.concat([x, h], axis=-1)
        z = self.z_gate(xh)
        r = self.r_gate(xh)
        h_tilde = self.candidate(F.concat([x, r * h], axis=-1))
        one = Tensor(np.ones_like(z.data))
        return (one - z) * h + z * h_tilde

    def init_state(self, batch: int) -> Tensor:
        """All-zero initial hidden state."""
        return Tensor(np.zeros((batch, self.hidden_dim)))
