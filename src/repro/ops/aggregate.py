"""AGGREGATE implementations (paper §3.4).

All take the flattened neighbor-state matrix ``(batch * fanout, d_in)`` plus
a segment spec, and emit ``(batch, d_out)``. The paper names element-wise
mean, max-pooling neural network and LSTM as the aggregating methods used
across GNNs; we add sum and (GAT-style) attention. Over a k-hop block the
encoder calls ``forward_block(h, child_index)`` instead: mean and sum run it
as one SpMM over the child table, the other three gather and fall through
to ``forward``.

Segment spec: an ``int`` fanout means equal-size segments (the sampled
fixed-fanout fast path, reshape-based kernels); a 1-D **offsets array**
(``len batch+1``, CSR-style) means ragged segments, routed through the
:mod:`repro.nn.functional` ``segment_*`` kernels. Empty segments aggregate
to zeros (LSTM: the zero initial state).
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError
from repro.nn import functional as F
from repro.nn.layers import Dense
from repro.nn.rnn import LSTMCell
from repro.nn.tensor import Tensor
from repro.ops.base import Aggregator, register_aggregator


def _as_offsets(fanout: "int | np.ndarray") -> "np.ndarray | None":
    """``None`` for an int fanout (fixed fast path), else the offsets array.

    Full validation of ragged offsets (monotone from 0, covering the row
    count) happens inside the segment kernels themselves.
    """
    if isinstance(fanout, (int, np.integer)):
        return None
    return np.asarray(fanout, dtype=np.int64)


@register_aggregator
class MeanAggregator(Aggregator):
    """Weighted element-wise mean followed by a dense transform
    (GraphSAGE-mean)."""

    name = "mean"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.dense = Dense(in_dim, out_dim, rng, activation="relu")

    def forward(self, neighbor_states: Tensor, fanout: "int | np.ndarray") -> Tensor:
        offsets = _as_offsets(fanout)
        if offsets is None:
            pooled = F.mean_rows_segmented(neighbor_states, fanout)
        else:
            pooled = F.segment_mean(neighbor_states, offsets)
        return self.dense(pooled)

    def forward_block(self, h: Tensor, child_index: np.ndarray) -> Tensor:
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

    def forward(self, neighbor_states: Tensor, fanout: "int | np.ndarray") -> Tensor:
        offsets = _as_offsets(fanout)
        if offsets is None:
            pooled = F.sum_rows_segmented(neighbor_states, fanout)
        else:
            pooled = F.segment_sum(neighbor_states, offsets)
        return self.dense(pooled)

    def forward_block(self, h: Tensor, child_index: np.ndarray) -> Tensor:
        return self.dense(F.gather_sum_rows(h, child_index))


@register_aggregator
class MaxPoolAggregator(Aggregator):
    """Max-pooling neural network (GraphSAGE-pool).

    Each neighbor state runs through a dense layer, then element-wise max
    over the segment.
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

    def forward(self, neighbor_states: Tensor, fanout: "int | np.ndarray") -> Tensor:
        offsets = _as_offsets(fanout)
        transformed = self.pre(neighbor_states)
        if offsets is None:
            pooled = F.max_rows_segmented(transformed, fanout)
        else:
            pooled = F.segment_max(transformed, offsets)
        return self.post(pooled)


@register_aggregator
class LSTMAggregator(Aggregator):
    """LSTM over the (randomly ordered) neighbor sequence (GraphSAGE-LSTM)."""

    name = "lstm"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.cell = LSTMCell(in_dim, out_dim, rng)

    def forward(self, neighbor_states: Tensor, fanout: "int | np.ndarray") -> Tensor:
        offsets = _as_offsets(fanout)
        if offsets is not None:
            return self._forward_ragged(neighbor_states, offsets)
        n, d = neighbor_states.shape
        if n % fanout:
            raise OperatorError(f"{n} rows not divisible by fanout {fanout}")
        batch = n // fanout
        h, c = self.cell.init_state(batch)
        for step in range(fanout):
            # Row i*fanout + step is vertex i's step-th neighbor.
            idx = np.arange(batch) * fanout + step
            x = neighbor_states.gather_rows(idx)
            h, c = self.cell(x, h, c)
        return h

    def _forward_ragged(self, neighbor_states: Tensor, offsets: np.ndarray) -> Tensor:
        """Step the cell over ragged segments, shortest retiring first.

        Step ``t`` advances only the segments with more than ``t``
        neighbors: their step-``t`` rows are gathered, the cell runs on
        that packed sub-batch, and :meth:`~repro.nn.tensor.Tensor
        .scatter_rows` merges the updated ``(h, c)`` back — segments that
        already ran out keep their final state, empty segments keep the
        zero initial state.
        """
        sizes = np.diff(offsets)
        if sizes.size == 0 or np.any(sizes < 0):
            raise OperatorError("offsets must describe at least one segment")
        batch = sizes.size
        h, c = self.cell.init_state(batch)
        for step in range(int(sizes.max())):
            active = np.flatnonzero(sizes > step)
            x = neighbor_states.gather_rows(offsets[:-1][active] + step)
            h_new, c_new = self.cell(x, h.gather_rows(active), c.gather_rows(active))
            h = h.scatter_rows(active, h_new)
            c = c.scatter_rows(active, c_new)
        return h


@register_aggregator
class AttentionAggregator(Aggregator):
    """Attention-weighted neighbor mean (single-head, GAT-flavoured).

    Scores each neighbor with a learned vector over its transformed state
    and softmax-normalizes within the segment.
    """

    name = "attention"

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.transform = Dense(in_dim, out_dim, rng)
        self.score = Dense(out_dim, 1, rng, bias=False)

    def forward(self, neighbor_states: Tensor, fanout: "int | np.ndarray") -> Tensor:
        offsets = _as_offsets(fanout)
        n, _ = neighbor_states.shape
        transformed = self.transform(neighbor_states)  # (n, out)
        raw = self.score(F.tanh(transformed))  # (n, 1)
        if offsets is None:
            if n % fanout:
                raise OperatorError(f"{n} rows not divisible by fanout {fanout}")
            batch = n // fanout
            weights = F.softmax(raw.reshape(batch, fanout), axis=-1).reshape(n, 1)
            return F.sum_rows_segmented(transformed * weights, fanout)
        weights = F.segment_softmax(raw, offsets)
        return F.segment_sum(transformed * weights, offsets)


def make_aggregator(
    name: str, in_dim: int, out_dim: int, rng: np.random.Generator, **kwargs: object
) -> Aggregator:
    """Instantiate a registered aggregator by name."""
    from repro.ops.base import AGGREGATOR_REGISTRY

    try:
        cls = AGGREGATOR_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(AGGREGATOR_REGISTRY))
        raise OperatorError(f"unknown aggregator {name!r} (known: {known})") from None
    return cls(in_dim, out_dim, rng, **kwargs)
