"""Hash-based edge-cut and vertex-cut partitioners (paper §3.2, [16]).

These are the PowerGraph-family strategies the paper recommends for dense
graphs:

* **edge cut** — vertices are hashed to workers; an edge is "cut" when its
  endpoints hash apart. Cheap, stateless, embarrassingly parallel, and the
  strategy the distributed build pipeline defaults to.
* **vertex cut** — *edges* are hashed to workers and vertices are replicated
  wherever their edges land; quality is measured by the replication factor
  rather than the cut fraction. Greedy placement (least-loaded part already
  holding an endpoint) keeps replication down, mirroring PowerGraph's greedy
  vertex cut.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.storage.partition.base import (
    PartitionAssignment,
    Partitioner,
    register_partitioner,
)


def _mix_hash(values: np.ndarray) -> np.ndarray:
    """Cheap deterministic integer mixer (splitmix64 finalizer)."""
    x = values.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@register_partitioner
class EdgeCutPartitioner(Partitioner):
    """Vertices hashed to parts; edges placed at their source's part."""

    name = "edge_cut"

    def partition(self, graph: Graph, n_parts: int) -> PartitionAssignment:
        self._validate(graph, n_parts)
        vids = np.arange(graph.n_vertices, dtype=np.int64)
        parts = (_mix_hash(vids) % np.uint64(n_parts)).astype(np.int64)
        return PartitionAssignment(graph, n_parts, parts)


@register_partitioner
class VertexCutPartitioner(Partitioner):
    """Greedy edge placement with vertex replication (PowerGraph style).

    Each edge goes to the least-loaded part that already hosts a replica of
    one endpoint (creating a replica otherwise). The vertex-to-part map
    reports each vertex's *primary* replica: the part holding most of its
    edges.
    """

    name = "vertex_cut"

    def partition(self, graph: Graph, n_parts: int) -> PartitionAssignment:
        self._validate(graph, n_parts)
        src, dst, _ = graph.edge_array()
        loads = np.zeros(n_parts, dtype=np.int64)
        # replica_mask[v] is a bitset of parts hosting v (n_parts <= 64 fast
        # path; sets otherwise).
        use_bits = n_parts <= 64
        if use_bits:
            replica_bits = np.zeros(graph.n_vertices, dtype=np.uint64)
        else:
            replica_sets: list[set[int]] = [set() for _ in range(graph.n_vertices)]
        edge_to_part = np.zeros(src.size, dtype=np.int64)
        # Per-(vertex, part) edge counts for primary-replica election.
        vertex_part_edges: dict[tuple[int, int], int] = {}

        for e in range(src.size):
            u, v = int(src[e]), int(dst[e])
            if use_bits:
                common = int(replica_bits[u] | replica_bits[v])
                candidates = [p for p in range(n_parts) if common >> p & 1]
            else:
                candidates = sorted(replica_sets[u] | replica_sets[v])
            if candidates:
                part = min(candidates, key=lambda p: loads[p])
            else:
                part = int(np.argmin(loads))
            edge_to_part[e] = part
            loads[part] += 1
            if use_bits:
                bit = np.uint64(1) << np.uint64(part)
                replica_bits[u] |= bit
                replica_bits[v] |= bit
            else:
                replica_sets[u].add(part)
                replica_sets[v].add(part)
            vertex_part_edges[(u, part)] = vertex_part_edges.get((u, part), 0) + 1
            vertex_part_edges[(v, part)] = vertex_part_edges.get((v, part), 0) + 1

        vertex_to_part = np.zeros(graph.n_vertices, dtype=np.int64)
        best_count = np.full(graph.n_vertices, -1, dtype=np.int64)
        for (vertex, part), count in vertex_part_edges.items():
            if count > best_count[vertex]:
                best_count[vertex] = count
                vertex_to_part[vertex] = part
        # Isolated vertices spread round-robin.
        isolated = np.flatnonzero(best_count < 0)
        vertex_to_part[isolated] = isolated % n_parts
        return PartitionAssignment(graph, n_parts, vertex_to_part, edge_to_part)
