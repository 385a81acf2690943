"""The AGGREGATE plugin registry.

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

from repro.errors import OperatorError, check_ids
from repro.nn.layers import Module
from repro.nn.tensor import Tensor

AGGREGATOR_REGISTRY: dict[str, type] = {}


def register_aggregator(cls: type) -> type:
    """Class decorator adding an AGGREGATE implementation to the registry."""
    name = getattr(cls, "name", None)
    if not name:
        raise OperatorError("aggregators must define a class attribute 'name'")
    AGGREGATOR_REGISTRY[name] = cls
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
        table = check_ids(child_index, h.shape[0], OperatorError, "child table", ndim=2)
        if table.shape[1] < 1:
            raise OperatorError(f"child table must be (B, fanout >= 1), got shape {table.shape}")
        return self.forward(h, table)
