"""One simulated graph server: a partition's shard plus its caches (§3.2).

A :class:`GraphServer` owns a set of vertices and the out-adjacency rows of
their edges. The shard is columnar: a :class:`~repro.storage.rows.RowArena`
seeded at construction with the owned rows copied out of the graph's CSR
(one gather), with no row held as an array object of its own. A batch read
gathers its rows in a handful of array ops and answers with a
:class:`~repro.storage.rows.RowBlock`. A shard holds neighbor ids only,
never edge weights: no reader asks a store for them. Writes — streaming
edge updates and vertex migration — never edit a row in place: a write
batch gathers its rows, edits them as lists and appends the changed ones
in one go, so a row handed out earlier keeps the contents it had.

Attributes live in a :class:`SeparateAttributeStore` (the IV index behind
an LRU front) and a :class:`NeighborCache` holds important *remote* vertices'
neighbor lists as rows of arenas of its own (a pin copies the row). All cross-server traffic is mediated — and accounted — by
:class:`repro.storage.cluster.DistributedGraphStore`.
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np

from repro.errors import StorageError, check_id
from repro.graph.graph import Graph
from repro.storage.attributes import SeparateAttributeStore
from repro.storage.cache import NeighborCache
from repro.storage.rows import RowArena, RowBlock


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
        # vertices cannot be served from here.
        owned = np.asarray(owned_vertices, dtype=np.int64)
        block = RowBlock(owned, *graph.csr_slice(owned))
        self._n = graph.n_vertices
        self._rows = RowArena(self._n, block)
        self._n_local_edges: int = block.indices.size
        self.attrs = SeparateAttributeStore(vertex_cache_capacity=attr_cache_capacity)
        self.neighbor_cache = NeighborCache(0)

    def __repr__(self) -> str:
        return (
            f"GraphServer(part={self.part_id}, edges={self._n_local_edges}, "
            f"cache={len(self.neighbor_cache)})"
        )

    def owns(self, vertex: int) -> bool:
        """Whether this server is the owner of ``vertex``."""
        return self._rows.has(vertex)

    @property
    def n_local_edges(self) -> int:
        """Out-edges stored on this shard."""
        return self._n_local_edges

    def local_neighbors(self, vertex: int) -> np.ndarray:
        """Out-neighbors of an owned vertex (raises if not owned)."""
        if not self._rows.has(vertex):
            raise StorageError(f"server {self.part_id} does not own vertex {vertex}")
        return self._rows.row(vertex)

    def local_rows(self, vertices: "np.ndarray | list[int]") -> RowBlock:
        """Out-neighbor rows of distinct owned vertices, as one block.

        The block's rows follow ``vertices``. Raises the error
        :meth:`local_neighbors` raises, naming the first vertex this shard
        does not own.
        """
        ids = np.asarray(vertices, dtype=np.int64)
        try:
            return RowBlock(ids, *self._rows.take(ids))
        except KeyError as exc:
            raise StorageError(
                f"server {self.part_id} does not own vertex {exc.args[0]}"
            ) from None

    def edit_rows(
        self, ops: "dict[int, list[tuple[str, int]]]"
    ) -> "dict[int, list[int]]":
        """Apply each owned vertex's ``(kind, dst)`` edits to its row, in order.

        The streaming-update path: ``"add"`` appends an arc to ``dst``,
        ``"remove"`` drops the first ``vertex -> dst`` arc and is a no-op
        when there is none. The rows are read in one gather, edited as
        plain lists, and the changed ones written back in one append.
        Returns, for each vertex one of whose edits changed its row, the
        row's size after each such edit. A vertex this shard does not own
        raises before any row changes.
        """
        try:
            offsets, values = self._rows.take(np.fromiter(ops, np.int64, len(ops)))
        except KeyError as exc:
            raise StorageError(
                f"server {self.part_id} cannot edit the row of foreign vertex {exc.args[0]}"
            ) from None
        bounds, cells = offsets.tolist(), values.tolist()
        changed: "dict[int, list[int]]" = {}
        rows: "list[list[int]]" = []
        for (vertex, edits), a, b in zip(ops.items(), bounds, bounds[1:]):
            dsts = cells[a:b]
            sizes: "list[int]" = []
            for kind, dst in edits:
                if kind == "add":
                    dsts.append(dst)
                else:
                    try:
                        dsts.remove(dst)
                    except ValueError:
                        continue
                sizes.append(len(dsts))
            if sizes:
                changed[vertex] = sizes
                rows.append(dsts)
                self._n_local_edges += len(dsts) - (b - a)
        if changed:
            offsets = np.fromiter(accumulate(map(len, rows), initial=0), np.int64, len(rows) + 1)
            values = np.fromiter(chain.from_iterable(rows), np.int64, offsets[-1])
            self._rows.put(np.fromiter(changed, np.int64, len(changed)), offsets, values)
        return changed

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
        vertex = check_id(vertex, self._n, StorageError, "vertex")
        if self.owns(vertex):
            raise StorageError(
                f"server {self.part_id} already owns vertex {vertex}"
            )
        row = np.array(neighbors, dtype=np.int64)
        self._rows.put(np.array([vertex]), np.array([0, row.size]), row)
        self._n_local_edges += row.size
        if attr is not None:
            self.attrs.put_vertex_attr(vertex, attr)

    def release_vertex(self, vertex: int) -> "tuple[np.ndarray, np.ndarray | None]":
        """Surrender ownership of ``vertex``; returns ``(neighbors, attr)``.

        Idempotence for the RPC layer lives in the caller (the ownership
        handler treats "not owned" as an already-applied release); here a
        foreign release is an error so unit misuse surfaces loudly.
        """
        vertex = int(vertex)
        neighbors = self.local_neighbors(vertex)
        self._rows.drop([vertex])
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
