"""AGGREGATE implementations (paper §3.4).

All take a level's states ``h`` plus the ``(B, fanout)`` child-position
table of a k-hop block and emit ``(B, d_out)``. The paper names element-wise
mean, max-pooling neural network and LSTM as the aggregating methods used
across GNNs; we add sum and (GAT-style) attention. Mean and sum are pure
reductions and run as one SpMM over the table (``F.gather_sum_rows``); the
other three transform each neighbor row, so they gather the
``(B * fanout, d)`` neighbor matrix once and reduce it in fixed-width
segments.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError
from repro.nn import functional as F
from repro.nn.layers import Dense
from repro.nn.rnn import LSTMCell
from repro.nn.tensor import Tensor
from repro.ops.base import AGGREGATOR_REGISTRY, Aggregator, register_aggregator


@register_aggregator
class MeanAggregator(Aggregator):
    """Weighted element-wise mean followed by a dense transform
    (GraphSAGE-mean)."""

    name = "mean"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.dense = Dense(in_dim, out_dim, rng, activation="relu")

    def forward(self, h: Tensor, child_index: np.ndarray) -> Tensor:
        # A true divide by the count, as numpy's mean performs: a reciprocal
        # multiply (or 1/fanout weights in the operator) rounds differently.
        pooled = F.gather_sum_rows(h, child_index) / child_index.shape[1]
        return self.dense(pooled)


@register_aggregator
class SumAggregator(Aggregator):
    """Sum pooling followed by a dense transform (GCN-style, un-normalized)."""

    name = "sum"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.dense = Dense(in_dim, out_dim, rng, activation="relu")

    def forward(self, h: Tensor, child_index: np.ndarray) -> Tensor:
        return self.dense(F.gather_sum_rows(h, child_index))


@register_aggregator
class MaxPoolAggregator(Aggregator):
    """Max-pooling neural network (GraphSAGE-pool).

    Each neighbor state runs through a dense layer, then element-wise max
    over the vertex's ``fanout`` picks.
    """

    name = "maxpool"

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        pool_dim: int | None = None,
    ) -> None:
        pool_dim = pool_dim or out_dim
        self.pre = Dense(in_dim, pool_dim, rng, activation="relu")
        self.post = Dense(pool_dim, out_dim, rng)

    def forward(self, h: Tensor, child_index: np.ndarray) -> Tensor:
        transformed = self.pre(h.gather_rows(child_index.reshape(-1)))
        return self.post(F.max_rows_segmented(transformed, child_index.shape[1]))


@register_aggregator
class LSTMAggregator(Aggregator):
    """LSTM over the (randomly ordered) neighbor sequence (GraphSAGE-LSTM)."""

    name = "lstm"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.cell = LSTMCell(in_dim, out_dim, rng)

    def forward(self, h: Tensor, child_index: np.ndarray) -> Tensor:
        batch, fanout = child_index.shape
        neighbor_states = h.gather_rows(child_index.reshape(-1))
        state, c = self.cell.init_state(batch)
        for step in range(fanout):
            # Row i*fanout + step is vertex i's step-th neighbor.
            idx = np.arange(batch) * fanout + step
            state, c = self.cell(neighbor_states.gather_rows(idx), state, c)
        return state


@register_aggregator
class AttentionAggregator(Aggregator):
    """Attention-weighted neighbor mean (single-head, GAT-flavoured).

    Scores each neighbor with a learned vector over its transformed state
    and softmax-normalizes within the vertex's ``fanout`` picks.
    """

    name = "attention"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.transform = Dense(in_dim, out_dim, rng)
        self.score = Dense(out_dim, 1, rng, bias=False)

    def forward(self, h: Tensor, child_index: np.ndarray) -> Tensor:
        batch, fanout = child_index.shape
        transformed = self.transform(h.gather_rows(child_index.reshape(-1)))
        raw = self.score(F.tanh(transformed))  # (batch * fanout, 1)
        weights = F.softmax(raw.reshape(batch, fanout), axis=-1)
        return F.sum_rows_segmented(
            transformed * weights.reshape(batch * fanout, 1), fanout
        )


def make_aggregator(
    name: str, in_dim: int, out_dim: int, rng: np.random.Generator, **kwargs: object
) -> Aggregator:
    """Instantiate a registered aggregator by name."""
    try:
        cls = AGGREGATOR_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(AGGREGATOR_REGISTRY))
        raise OperatorError(f"unknown aggregator {name!r} (known: {known})") from None
    return cls(in_dim, out_dim, rng, **kwargs)
