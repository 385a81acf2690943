"""GraphSAGE (Hamilton et al., NeurIPS 2017).

The canonical sampled-neighborhood GNN and the paper's running example of a
method built on the framework (§4.1): node-wise uniform SAMPLE, a choice of
AGGREGATE (weighted element-wise mean by default, max-pooling
optional) and the concat COMBINE, trained with the unsupervised objective.
Implemented directly as a thin configuration of :class:`GNNFramework`.
"""

from __future__ import annotations

from repro.algorithms.framework import GNNFramework


class GraphSAGE(GNNFramework):
    """Algorithm-1 configuration matching GraphSAGE."""

    name = "graphsage"

    def __init__(
        self,
        dim: int = 64,
        kmax: int = 2,
        fanout: int = 8,
        aggregator: str = "mean",
        **kwargs: object,
    ) -> None:
        super().__init__(
            dim=dim,
            kmax=kmax,
            fanout=fanout,
            aggregator=aggregator,
            sampler="uniform",
            **kwargs,
        )
