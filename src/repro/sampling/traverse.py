"""TRAVERSE samplers: batches of vertices or edges from the (partitioned)
graph (paper §3.3).

TRAVERSE seeds every training step: it draws the mini-batch of vertices or
edges the NEIGHBORHOOD and NEGATIVE samplers then expand. In AliGraph these
read from local subgraphs; here they accept either a full graph or a single
partition's vertex set.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError, check_ids
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.graph.graph import Graph
from repro.sampling.base import Sampler, check_batch_size
from repro.utils.alias import AliasTable


class VertexTraverseSampler(Sampler):
    """Samples vertex batches uniformly, optionally restricted by vertex
    type/partition."""

    name = "traverse_vertex"

    def __init__(
        self,
        graph: Graph,
        vertex_type: str | None = None,
        vertices: np.ndarray | None = None,
    ) -> None:
        self.graph = graph
        self.vertex_type = vertex_type
        if vertices is not None:
            self._pool = check_ids(vertices, graph.n_vertices, SamplingError, "vertex pool")
        elif vertex_type is not None:
            if not isinstance(graph, AttributedHeterogeneousGraph):
                raise SamplingError("vertex_type filtering needs an AHG")
            self._pool = graph.vertices_of_type(vertex_type)
        else:
            self._pool = graph.vertices()
        if self._pool.size == 0:
            raise SamplingError("traverse sampler has an empty vertex pool")

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``batch_size`` vertex ids (with replacement)."""
        check_batch_size(batch_size)
        return self._pool[rng.integers(self._pool.size, size=batch_size)]

class EdgeTraverseSampler(Sampler):
    """Samples edge batches ``(src, dst)`` over every edge of the graph.

    Mirrors Figure 5's ``s1.sample(edge_type, batch_size)`` without the
    type filter: GNN training on link tasks seeds each step with a batch of
    positive edges.
    """

    name = "traverse_edge"

    def __init__(self, graph: Graph, weighted: bool = False) -> None:
        src, dst, w = graph.edge_array()
        if src.size == 0:
            raise SamplingError("traverse sampler has an empty edge pool")
        self._src = src
        self._dst = dst
        self._alias = AliasTable(w) if weighted else None

    def sample(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``batch_size`` edges as ``(src, dst)`` arrays."""
        check_batch_size(batch_size)
        if self._alias is not None:
            idx = self._alias.draw_batch(rng, batch_size)
        else:
            idx = rng.integers(self._src.size, size=batch_size)
        return self._src[idx], self._dst[idx]
