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
    """AGGREGATE: maps ``(batch*fanout, d_in)`` neighbor states to
    ``(batch, d_out)``.

    Two entries, one contract. ``forward(neighbor_states, fanout)`` takes
    the neighbor rows already gathered (fixed ``int`` fanout or ragged
    offsets). ``forward_block(h, child_index)`` takes a block level's
    states and its ``(batch, fanout)`` child-position table and must equal
    ``forward(h.gather_rows(child_index.reshape(-1)), fanout)`` bit for
    bit; that gather is the default, which aggregators transforming each
    neighbor row keep, while pure reductions override it with a fused
    gather-reduce that never materialises the neighbor matrix.
    """

    name = "abstract"
    out_multiplier = 1  # out_dim = out_multiplier * hidden (informational)

    def forward_block(self, h: Tensor, child_index: np.ndarray) -> Tensor:
        """AGGREGATE each ``child_index`` row's picks out of ``h``."""
        return self.forward(
            h.gather_rows(child_index.reshape(-1)), child_index.shape[1]
        )


class Combiner(Module):
    """COMBINE: merges ``(batch, d_self)`` with ``(batch, d_neigh)`` into
    ``(batch, d_out)``."""

    name = "abstract"
