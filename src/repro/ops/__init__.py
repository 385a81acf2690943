"""AliGraph operator layer (paper §3.4).

AGGREGATE collects a vertex's sampled neighborhood into one vector (the
convolution step): ``agg(h, child_index)`` over a level's states and its
``(B, fanout)`` table of sampled-neighbor positions. COMBINE merges the
result with the vertex's previous-hop state. Aggregators are plugins with
forward and backward halves (backward via the autograd engine), and the
layer adds the paper's materialization cache for intermediate ``ĥ^(k)``
vectors, which Table 5 shows saves an order of magnitude of operator time
within a mini-batch.
"""

from repro.ops.aggregate import MaxPoolAggregator, MeanAggregator, make_aggregator
from repro.ops.base import AGGREGATOR_REGISTRY
from repro.ops.combine import ConcatCombiner
from repro.ops.materialize import MaterializationCache, MinibatchExecutor

__all__ = [
    "MeanAggregator",
    "MaxPoolAggregator",
    "make_aggregator",
    "ConcatCombiner",
    "MaterializationCache",
    "MinibatchExecutor",
    "AGGREGATOR_REGISTRY",
]
