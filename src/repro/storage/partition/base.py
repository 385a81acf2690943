"""Partitioner plugin interface and partition quality metrics.

Following Algorithm 2 (lines 1–4), the cluster places each edge ``(u, v)`` on
the worker ``ASSIGN(u)`` — the graph "is partitioned by source vertices"
(§3.3). A :class:`PartitionAssignment` therefore always carries a
vertex-to-part map; vertex-cut style strategies may additionally carry an
explicit edge-to-part map, with the vertex map giving each vertex's primary
replica.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError, check_id, check_ids
from repro.graph.graph import Graph


class PartitionAssignment:
    """The result of partitioning ``graph`` into ``n_parts`` workers."""

    def __init__(
        self,
        graph: Graph,
        n_parts: int,
        vertex_to_part: np.ndarray,
        edge_to_part: np.ndarray | None = None,
    ) -> None:
        if n_parts < 1:
            raise PartitionError(f"n_parts must be positive, got {n_parts}")
        vertex_to_part = check_ids(vertex_to_part, n_parts, PartitionError, "vertex part ids")
        if vertex_to_part.shape != (graph.n_vertices,):
            raise PartitionError("vertex_to_part must have one entry per vertex")
        self.graph = graph
        self.n_parts = n_parts
        self.vertex_to_part = vertex_to_part
        if edge_to_part is not None:
            edge_to_part = np.asarray(edge_to_part, dtype=np.int64)
            if edge_to_part.shape != (graph.n_edges,):
                raise PartitionError("edge_to_part must have one entry per edge")
        #: An explicit placement (vertex-cut, 2-D), or None under source
        #: placement, whose map is derived from ``vertex_to_part`` on read.
        self._edge_to_part = edge_to_part

    @property
    def edge_to_part(self) -> np.ndarray:
        """Part of each edge, in edge-array order.

        Source placement stores no per-edge array: edge ``(u, v)`` lives
        where ``u`` lives, so the map is ``vertex_to_part[src]``, gathered
        on each read (a read-only copy: write placements through
        :meth:`reassign_vertex`).
        """
        if self._edge_to_part is not None:
            return self._edge_to_part
        src, _, _ = self.graph.edge_array()
        derived = self.vertex_to_part[src]
        derived.flags.writeable = False
        return derived

    # ------------------------------------------------------------------ #
    # Quality metrics
    # ------------------------------------------------------------------ #
    def crossing_edges(self) -> int:
        """Edges whose endpoints live on different workers (the cut)."""
        src, dst, _ = self.graph.edge_array()
        return int(np.sum(self.vertex_to_part[src] != self.vertex_to_part[dst]))

    def edge_cut_fraction(self) -> float:
        """Fraction of edges crossing the cut — the minimization target."""
        m = self.graph.n_edges
        return self.crossing_edges() / m if m else 0.0

    def vertex_counts(self) -> np.ndarray:
        """Vertices per part."""
        return np.bincount(self.vertex_to_part, minlength=self.n_parts)

    def edge_counts(self) -> np.ndarray:
        """Edges per part (by edge placement).

        Under source placement a part holds its vertices' out-edges, so
        the count is a per-vertex sum, not a per-edge one.
        """
        if self._edge_to_part is not None:
            return np.bincount(self._edge_to_part, minlength=self.n_parts)
        graph = self.graph
        if graph.directed:
            out_edges = graph.out_degrees()
        else:  # the CSR mirrors each edge; the edge array holds it once
            out_edges = np.bincount(graph.edge_array()[0], minlength=graph.n_vertices)
        counts = np.bincount(self.vertex_to_part, weights=out_edges, minlength=self.n_parts)
        return counts.astype(np.int64)

    def balance(self) -> float:
        """max part size / mean part size (1.0 = perfectly balanced)."""
        counts = self.vertex_counts()
        mean = counts.mean()
        return float(counts.max() / mean) if mean > 0 else 1.0

    def replication_factor(self) -> float:
        """Average replicas per non-isolated vertex under edge placement.

        A vertex is replicated on every part holding one of its edges; 1.0
        means no replication. Isolated vertices (no edges, hence no
        replicas) are excluded from the denominator.
        """
        src, dst, _ = self.graph.edge_array()
        if not src.size:
            return 1.0
        parts = self.edge_to_part
        replicas = np.unique(np.concatenate([src, dst]) * self.n_parts + np.tile(parts, 2))
        touched = np.unique(replicas // self.n_parts)
        return replicas.size / touched.size

    def part_vertices(self, part: int) -> np.ndarray:
        """Vertex ids owned by ``part``."""
        part = check_id(part, self.n_parts, PartitionError, "part")
        return np.flatnonzero(self.vertex_to_part == part)

    def reassign_vertex(self, vertex: int, part: int) -> int:
        """Move ``vertex`` to ``part`` (incremental repartitioning commit).

        Keeps the source-placement invariant: edges whose source is
        ``vertex`` follow it to the new part. Returns the previous owner.
        """
        part = check_id(part, self.n_parts, PartitionError, "part")
        vertex = check_id(vertex, self.graph.n_vertices, PartitionError, "vertex")
        previous = int(self.vertex_to_part[vertex])
        if previous == part:
            return previous
        self.vertex_to_part[vertex] = part
        if self._edge_to_part is not None:  # a derived map follows on its own
            src, _, _ = self.graph.edge_array()
            self._edge_to_part[src == vertex] = part
        return previous


class Partitioner:
    """Base class for partition strategies (plugin interface).

    Subclasses implement :meth:`partition`; ``name`` keys the registry so
    users can select a strategy by string and register their own.
    """

    name = "abstract"

    def partition(self, graph: Graph, n_parts: int) -> PartitionAssignment:
        """Divide ``graph`` into ``n_parts`` workers."""
        raise NotImplementedError

    def _validate(self, graph: Graph, n_parts: int) -> None:
        if n_parts < 1:
            raise PartitionError(f"n_parts must be positive, got {n_parts}")
        if graph.n_vertices == 0:
            raise PartitionError("cannot partition an empty graph")


_REGISTRY: dict[str, type[Partitioner]] = {}


def register_partitioner(cls: type[Partitioner]) -> type[Partitioner]:
    """Class decorator adding a partitioner to the plugin registry."""
    if not cls.name or cls.name == "abstract":
        raise PartitionError("partitioner plugins need a unique name")
    _REGISTRY[cls.name] = cls
    return cls


def get_partitioner(name: str, **kwargs: object) -> Partitioner:
    """Instantiate a registered partitioner by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise PartitionError(f"unknown partitioner {name!r} (known: {known})") from None
    return cls(**kwargs)  # type: ignore[arg-type]
