"""Streaming-style partition (paper §3.2, Stanton & Kliot [45]).

Linear Deterministic Greedy (LDG): vertices arrive as a stream with their
neighbor lists and each is assigned — once, immediately — to the part
maximizing ``|N(v) ∩ P_i| · (1 - |P_i| / C)`` where ``C`` is the per-part
capacity. One pass, O(m), and naturally incremental: the paper recommends it
for graphs with frequent edge updates, and the distributed build benchmark
(Figure 7) uses it as the update-friendly option.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.storage.partition.base import (
    PartitionAssignment,
    Partitioner,
    register_partitioner,
)

#: Capacity multiplier: each of ``p`` parts may hold ``SLACK * n / p`` vertices.
SLACK = 1.1


@register_partitioner
class StreamingPartitioner(Partitioner):
    """One-pass LDG partitioner.

    Vertices stream in breadth-first order from vertex 0 (the friendliest
    order for LDG in the original paper), and each part may hold
    :data:`SLACK` ``* n / p`` vertices.
    """

    name = "streaming"

    def _stream_order(self, graph: Graph) -> np.ndarray:
        """BFS order over (possibly several) components."""
        n = graph.n_vertices
        seen = np.zeros(n, dtype=bool)
        order: list[int] = []
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            queue = [root]
            while queue:
                u = queue.pop(0)
                order.append(u)
                for w in graph.out_neighbors(u):
                    w = int(w)
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
        return np.asarray(order, dtype=np.int64)

    def partition(self, graph: Graph, n_parts: int) -> PartitionAssignment:
        self._validate(graph, n_parts)
        n = graph.n_vertices
        capacity = max(1.0, SLACK * n / n_parts)
        part_of = -np.ones(n, dtype=np.int64)
        sizes = np.zeros(n_parts, dtype=np.float64)
        for v in self._stream_order(graph):
            nbrs = graph.out_neighbors(int(v))
            placed = part_of[nbrs]
            placed = placed[placed >= 0]
            overlap = np.bincount(placed, minlength=n_parts).astype(np.float64)
            score = overlap * (1.0 - sizes / capacity)
            # Full parts are ineligible; ties break to the emptiest part so a
            # neighbor-less vertex still balances the stream.
            score[sizes >= capacity] = -np.inf
            best = int(np.argmax(score + 1e-9 * (1.0 - sizes / capacity)))
            part_of[v] = best
            sizes[best] += 1.0
        return PartitionAssignment(graph, n_parts, part_of)
