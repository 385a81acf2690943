"""AGGREGATE implementations (paper §3.4).

Both take a level's states ``h`` plus the ``(B, fanout)`` child-position
table of a k-hop block and emit ``(B, d_out)``. The paper names element-wise
mean, max-pooling neural network and LSTM as the aggregating methods used
across GNNs; the configurations it evaluates use the first two, which are
the two here. Mean is a
pure reduction and runs as one SpMM over the table (``F.gather_sum_rows``);
max-pooling transforms each neighbor row, so it gathers the
``(B * fanout, d)`` neighbor matrix once and reduces it in fixed-width
segments.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError
from repro.nn import functional as F
from repro.nn.layers import Dense
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
    ) -> None:
        self.pre = Dense(in_dim, out_dim, rng, activation="relu")
        self.post = Dense(out_dim, out_dim, rng)

    def forward(self, h: Tensor, child_index: np.ndarray) -> Tensor:
        transformed = self.pre(h.gather_rows(child_index.reshape(-1)))
        return self.post(F.max_rows_segmented(transformed, child_index.shape[1]))


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
