"""The Figure 5 sampling stage: TRAVERSE + NEIGHBORHOOD + NEGATIVE.

The paper's canonical training-sample stage is::

    vertex  = s1.sample(edge_type, batch_size)        # TRAVERSE
    context = s2.sample(edge_type, vertex, hop_nums)   # NEIGHBORHOOD
    neg     = s3.sample(edge_type, vertex, neg_num)    # NEGATIVE

:class:`SamplingPipeline` packages exactly that, returning a
:class:`TrainingBatch`. When the neighborhood sampler reads through a
:class:`StoreProvider` the distributed sub-batching happens implicitly: each
vertex's context resolves against its owning graph server (or a cache), and
the stitched result comes back in batch order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.tracing import NULL_TRACER
from repro.sampling.base import Sampler, check_batch_size
from repro.sampling.neighborhood import NeighborhoodSample


@dataclass
class TrainingBatch:
    """One training step's worth of samples."""

    vertices: np.ndarray
    context: NeighborhoodSample
    negatives: np.ndarray

    @property
    def batch_size(self) -> int:
        """Seed vertices in this batch."""
        return int(self.vertices.size)


class SamplingPipeline:
    """Composes the three sampler families into one stage.

    When a :class:`~repro.runtime.tracing.Tracer` is supplied, every
    :meth:`sample` call roots one trace (``pipeline.sample``) with one
    child span per stage (``pipeline.traverse`` / ``pipeline.neighborhood``
    / ``pipeline.negative``) — those spans are the stage times, and the
    store, planner and RPC spans opened further down the read path nest
    under them.

    When a :class:`~repro.runtime.metrics.MetricsRegistry` is supplied, the
    ``pipeline.batches`` counter tracks produced batches and
    ``pipeline.seeds`` counts sampled seeds labeled by the traverse
    sampler's edge/vertex type.
    """

    def __init__(
        self,
        traverse: Sampler,
        neighborhood: Sampler,
        negative: Sampler,
        hop_nums: "list[int]",
        neg_num: int,
        metrics: "object | None" = None,
        tracer: "object | None" = None,
    ) -> None:
        check_batch_size(neg_num)
        self.traverse = traverse
        self.neighborhood = neighborhood
        self.negative = negative
        self.hop_nums = list(hop_nums)
        self.neg_num = neg_num
        self.metrics = metrics
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _seed_type(self) -> str:
        """Label value for per-type seed accounting (``edge_type`` label)."""
        for attr in ("edge_type", "vertex_type"):
            value = getattr(self.traverse, attr, None)
            if value is not None:
                return str(value)
        return "any"

    def sample(self, batch_size: int, rng: np.random.Generator) -> TrainingBatch:
        """Produce one :class:`TrainingBatch` of ``batch_size`` seeds."""
        tracer = self.tracer
        with tracer.span(
            "pipeline.sample", batch_size=batch_size, hop_nums=str(self.hop_nums)
        ):
            with tracer.span("pipeline.traverse"):
                vertices = self.traverse.sample(batch_size, rng)
                if isinstance(vertices, tuple):  # edge traverse: source endpoints
                    vertices = vertices[0]
            with tracer.span("pipeline.neighborhood"):
                context = self.neighborhood.sample(vertices, self.hop_nums, rng)
            with tracer.span("pipeline.negative"):
                negatives = self.negative.sample(vertices, self.neg_num, rng)
            if self.metrics is not None:
                self.metrics.counter("pipeline.batches").inc()
                self.metrics.counter(
                    "pipeline.seeds", labels={"edge_type": self._seed_type()}
                ).inc(batch_size)
        return TrainingBatch(vertices=vertices, context=context, negatives=negatives)
