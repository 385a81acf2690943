"""Operator plugin registries.

Mirrors the paper's design: AGGREGATE and COMBINE "are plugins of AliGraph,
which can be implemented independently"; a typical operator has forward and
backward computations so it slots into an end-to-end network. Forward lives
in each operator's ``forward``; backward is derived by the autograd engine
from the ops the forward is written in — and only for the operands that
reach a trainable parameter (the tape rule of :mod:`repro.nn.tensor`) — so
registering an operator only requires naming it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError
from repro.nn.layers import Module
from repro.nn.tensor import Tensor

AGGREGATOR_REGISTRY: dict[str, type] = {}
COMBINER_REGISTRY: dict[str, type] = {}


def register_aggregator(cls: type) -> type:
    """Class decorator adding an AGGREGATE implementation to the registry."""
    name = getattr(cls, "name", None)
    if not name:
        raise OperatorError("aggregators must define a class attribute 'name'")
    AGGREGATOR_REGISTRY[name] = cls
    return cls


def register_combiner(cls: type) -> type:
    """Class decorator adding a COMBINE implementation to the registry."""
    name = getattr(cls, "name", None)
    if not name:
        raise OperatorError("combiners must define a class attribute 'name'")
    COMBINER_REGISTRY[name] = cls
    return cls


class Aggregator(Module):
    """AGGREGATE: ``forward(h, child_index) -> (B, d_out)``.

    ``h`` holds a level's ``(n, d_in)`` states and ``child_index`` is the
    ``(B, fanout)`` table of sampled-neighbor positions inside it — what
    every sampler draws and :class:`~repro.sampling.blocks.KHopBlock`
    carries per hop. Row ``b`` of the output aggregates ``h[child_index[b]]``.
    Call the aggregator (``agg(h, child_index)``): the call checks the table
    once for every plugin, ``forward`` assumes it.
    """

    name = "abstract"
    out_multiplier = 1  # out_dim = out_multiplier * hidden (informational)

    def __call__(self, h: Tensor, child_index: np.ndarray) -> Tensor:
        """``forward`` behind the one check every aggregator shares."""
        table = np.asarray(child_index)
        if table.ndim != 2 or table.dtype.kind not in "iu" or table.shape[1] < 1:
            raise OperatorError(
                "child table must be a 2-D integer (B, fanout >= 1) array, "
                f"got shape {table.shape} of {table.dtype}"
            )
        return self.forward(h, table)


class Combiner(Module):
    """COMBINE: merges ``(batch, d_self)`` with ``(batch, d_neigh)`` into
    ``(batch, d_out)``."""

    name = "abstract"
