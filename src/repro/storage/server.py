"""One simulated graph server: a partition's shard plus its caches (§3.2).

A :class:`GraphServer` owns a set of vertices and the out-adjacency rows of
their edges. The shard is columnar: at construction the owned rows are
copied out of the graph's CSR as *one* contiguous slice of neighbor ids (one
gather) and every row is served as a view of that slice, so a row read is one
dict lookup. A shard holds neighbor ids only, never edge weights: no reader
asks a store for them. Writes — streaming edge updates and
vertex migration — never edit a row in place: they replace the touched
vertex's row with a fresh array (one per write batch, see
:meth:`GraphServer.edit_row`), so a row handed out (or pinned as a
replica) earlier keeps the contents it had.

Attributes live in a :class:`SeparateAttributeStore` (the IV index behind
an LRU front) and a :class:`NeighborCache` holds important *remote* vertices'
neighbor lists. All cross-server traffic is mediated — and accounted — by
:class:`repro.storage.cluster.DistributedGraphStore`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError
from repro.graph.graph import Graph
from repro.storage.attributes import SeparateAttributeStore
from repro.storage.cache import NeighborCache


class GraphServer:
    """Shard of the graph owned by one simulated worker."""

    def __init__(
        self,
        part_id: int,
        owned_vertices: np.ndarray,
        graph: Graph,
        attr_cache_capacity: int = 4096,
    ) -> None:
        self.part_id = part_id
        # The copy is what makes the shard a real shard — reads of non-owned
        # vertices cannot be served from here. The vertex -> row-view map is
        # built eagerly: a lazily sliced row would move the slicing into the
        # first read of every vertex.
        owned = np.asarray(owned_vertices, dtype=np.int64)
        offsets, indices = graph.csr_slice(owned)
        bounds = offsets.tolist()
        self._adjacency: dict[int, np.ndarray] = {
            v: indices[a:b] for v, a, b in zip(owned.tolist(), bounds, bounds[1:])
        }
        self._n_local_edges: int = bounds[-1]
        self.attrs = SeparateAttributeStore(vertex_cache_capacity=attr_cache_capacity)
        self.neighbor_cache = NeighborCache(0)

    def __repr__(self) -> str:
        return (
            f"GraphServer(part={self.part_id}, vertices={len(self._adjacency)}, "
            f"cache={len(self.neighbor_cache)})"
        )

    def owns(self, vertex: int) -> bool:
        """Whether this server is the owner of ``vertex``."""
        return vertex in self._adjacency

    @property
    def n_local_edges(self) -> int:
        """Out-edges stored on this shard."""
        return self._n_local_edges

    def local_neighbors(self, vertex: int) -> np.ndarray:
        """Out-neighbors of an owned vertex (raises if not owned)."""
        try:
            return self._adjacency[vertex]
        except KeyError:
            raise StorageError(
                f"server {self.part_id} does not own vertex {vertex}"
            ) from None

    def local_rows(self, vertices: "list[int]") -> "dict[int, np.ndarray]":
        """Out-neighbor rows of a batch of owned vertices, by vertex.

        :meth:`local_neighbors` for the whole batch in one call; raises the
        same error, naming the first vertex this shard does not own.
        """
        adjacency = self._adjacency
        try:
            return {v: adjacency[v] for v in vertices}
        except KeyError as exc:
            raise StorageError(
                f"server {self.part_id} does not own vertex {exc.args[0]}"
            ) from None

    def edit_row(self, vertex: int, ops: "list[tuple[str, int]]") -> "list[int]":
        """Apply ``(kind, dst)`` edits to an owned vertex's row, in order.

        The streaming-update path: ``"add"`` appends an arc to ``dst``,
        ``"remove"`` drops the first ``vertex -> dst`` arc and is a no-op
        when there is none. The edits run on a plain list and the row is
        installed once, as a fresh array, only if one of them changed it.
        Returns the row's size after each edit that changed it.
        """
        try:
            row = self._adjacency[vertex]
        except KeyError:
            raise StorageError(
                f"server {self.part_id} cannot edit the row of foreign vertex {vertex}"
            ) from None
        dsts = row.tolist()
        sizes: "list[int]" = []
        for kind, dst in ops:
            if kind == "add":
                dsts.append(dst)
            else:
                try:
                    dsts.remove(dst)
                except ValueError:
                    continue
            sizes.append(len(dsts))
        if sizes:
            self._adjacency[vertex] = np.array(dsts, dtype=np.int64)
            self._n_local_edges += len(dsts) - row.size
        return sizes

    def ingest_vertex(
        self,
        vertex: int,
        neighbors: np.ndarray,
        attr: "np.ndarray | None" = None,
    ) -> None:
        """Take ownership of a migrated vertex (neighbor row + optional attrs).

        The migration protocol installs here *before* the old owner
        releases, so every instant has at least one server able to serve
        the row. Re-ingesting an owned vertex is an error — the controller
        must never double-commit.
        """
        vertex = int(vertex)
        if self.owns(vertex):
            raise StorageError(
                f"server {self.part_id} already owns vertex {vertex}"
            )
        neighbors = np.asarray(neighbors, dtype=np.int64)
        self._adjacency[vertex] = neighbors
        self._n_local_edges += neighbors.size
        if attr is not None:
            self.attrs.put_vertex_attr(vertex, attr)

    def release_vertex(self, vertex: int) -> "tuple[np.ndarray, np.ndarray | None]":
        """Surrender ownership of ``vertex``; returns ``(neighbors, attr)``.

        Idempotence for the RPC layer lives in the caller (the ownership
        handler treats "not owned" as an already-applied release); here a
        foreign release is an error so unit misuse surfaces loudly.
        """
        vertex = int(vertex)
        if not self.owns(vertex):
            raise StorageError(
                f"server {self.part_id} does not own vertex {vertex}"
            )
        neighbors = self._adjacency.pop(vertex)
        self._n_local_edges -= neighbors.size
        return neighbors, self.attrs.remove_vertex_attr(vertex)

    def ingest_vertex_attr(self, vertex: int, vector: np.ndarray) -> None:
        """Store an owned vertex's attribute row in the IV index."""
        if not self.owns(vertex):
            raise StorageError(
                f"server {self.part_id} cannot store attrs of foreign vertex {vertex}"
            )
        self.attrs.put_vertex_attr(vertex, vector)

    def local_vertex_attr(self, vertex: int) -> np.ndarray:
        """Attribute row of an owned vertex, through the IV LRU cache."""
        if not self.owns(vertex):
            raise StorageError(
                f"server {self.part_id} does not own vertex {vertex}"
            )
        return self.attrs.get_vertex_attr(vertex)
