"""Immutable simple graph with CSR adjacency (paper §2, simple graph G).

Vertices are dense integer ids ``0..n-1`` (use :class:`repro.graph.builder.
GraphBuilder` to ingest arbitrary external ids). Edges are stored in
compressed-sparse-row form for O(1) neighbor-slice access — the access
pattern every sampler and every storage experiment hammers on.

Directed graphs keep both an out-CSR and a lazily built in-CSR; undirected
graphs store each edge in both endpoint rows, so ``out_neighbors`` is simply
"neighbors" and ``W(u, v) == W(v, u)`` as §2 requires.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphError, VertexNotFoundError


class Graph:
    """A weighted, possibly directed simple graph in CSR form.

    Parameters
    ----------
    n_vertices:
        Number of vertices; ids are ``0..n_vertices-1``.
    src, dst:
        Edge endpoint arrays (one entry per directed arc; for undirected
        graphs pass each edge once — it is mirrored internally).
    weights:
        Optional per-edge positive weights; defaults to 1.0.
    directed:
        Whether ``(u, v)`` and ``(v, u)`` are distinct edges.
    """

    def __init__(
        self,
        n_vertices: int,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
        directed: bool = True,
    ) -> None:
        if n_vertices < 0:
            raise GraphError(f"n_vertices must be non-negative, got {n_vertices}")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphError("src and dst must be 1-D arrays of equal length")
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise GraphError("vertex ids must be non-negative")
        if src.size and (src.max() >= n_vertices or dst.max() >= n_vertices):
            raise GraphError("edge endpoint exceeds n_vertices")
        if weights is None:
            weights = np.ones(src.size, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != src.shape:
                raise GraphError("weights must align with the edge arrays")
            if weights.size and weights.min() <= 0:
                raise GraphError("edge weights must be positive (W: E -> R+)")

        self._n = int(n_vertices)
        self.directed = bool(directed)
        self._edge_src = src
        self._edge_dst = dst
        self._edge_weights = weights

        if directed:
            out_src, out_dst, out_w = src, dst, weights
            out_eid = np.arange(src.size, dtype=np.int64)
        else:
            # Mirror every edge; both copies carry the original edge id so
            # per-edge payloads (types, attributes) stay addressable.
            out_src = np.concatenate([src, dst])
            out_dst = np.concatenate([dst, src])
            out_w = np.concatenate([weights, weights])
            out_eid = np.concatenate([np.arange(src.size)] * 2).astype(np.int64)

        order = np.argsort(out_src, kind="stable")
        sorted_src = out_src[order]
        self._indices = out_dst[order]
        self._weights = out_w[order]
        self._csr_eid = out_eid[order]
        self._indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.add.at(self._indptr, sorted_src + 1, 1)
        np.cumsum(self._indptr, out=self._indptr)

        self._in_indptr: np.ndarray | None = None
        self._in_indices: np.ndarray | None = None
        self._in_weights: np.ndarray | None = None
        self._in_eid: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        """Number of vertices n = |V|."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of edges m = |E| (undirected edges counted once)."""
        return int(self._edge_src.size)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self._n}, m={self.n_edges}, {kind})"

    def vertices(self) -> np.ndarray:
        """All vertex ids as an array."""
        return np.arange(self._n, dtype=np.int64)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The original ``(src, dst, weight)`` arrays (one row per edge)."""
        return self._edge_src, self._edge_dst, self._edge_weights

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate ``(u, v, w)`` over edges (each undirected edge once)."""
        for u, v, w in zip(self._edge_src, self._edge_dst, self._edge_weights):
            yield int(u), int(v), float(w)

    # ------------------------------------------------------------------ #
    # Adjacency access
    # ------------------------------------------------------------------ #
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise VertexNotFoundError(v)

    def out_neighbors(self, v: int) -> np.ndarray:
        """Out-neighbor ids of ``v`` (all neighbors when undirected)."""
        self._check_vertex(v)
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def out_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`out_neighbors`."""
        self._check_vertex(v)
        return self._weights[self._indptr[v] : self._indptr[v + 1]]

    def out_edge_ids(self, v: int) -> np.ndarray:
        """Original edge ids aligned with :meth:`out_neighbors`."""
        self._check_vertex(v)
        return self._csr_eid[self._indptr[v] : self._indptr[v + 1]]

    def neighbors(self, v: int) -> np.ndarray:
        """Alias of :meth:`out_neighbors` — Nb(v) in the paper's notation."""
        return self.out_neighbors(v)

    def _build_in_csr(self) -> None:
        if self._in_indptr is not None:
            return
        if self.directed:
            in_src, in_dst, in_w = self._edge_dst, self._edge_src, self._edge_weights
            in_eid = np.arange(self._edge_src.size, dtype=np.int64)
            order = np.argsort(in_src, kind="stable")
            sorted_src = in_src[order]
            self._in_indices = in_dst[order]
            self._in_weights = in_w[order]
            self._in_eid = in_eid[order]
            self._in_indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.add.at(self._in_indptr, sorted_src + 1, 1)
            np.cumsum(self._in_indptr, out=self._in_indptr)
        else:
            self._in_indptr = self._indptr
            self._in_indices = self._indices
            self._in_weights = self._weights
            self._in_eid = self._csr_eid

    def in_neighbors(self, v: int) -> np.ndarray:
        """In-neighbor ids of ``v`` (same as out for undirected graphs)."""
        self._check_vertex(v)
        self._build_in_csr()
        assert self._in_indptr is not None and self._in_indices is not None
        return self._in_indices[self._in_indptr[v] : self._in_indptr[v + 1]]

    def out_degree(self, v: int) -> int:
        """Out-degree of ``v``."""
        self._check_vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def in_degree(self, v: int) -> int:
        """In-degree of ``v``."""
        self._check_vertex(v)
        self._build_in_csr()
        assert self._in_indptr is not None
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    def out_degrees(self) -> np.ndarray:
        """Vector of all out-degrees."""
        return np.diff(self._indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of all in-degrees."""
        self._build_in_csr()
        assert self._in_indptr is not None
        return np.diff(self._in_indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``(u, v)`` exists (symmetric when undirected)."""
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(np.any(self.out_neighbors(u) == v))

    def edge_weight(self, u: int, v: int) -> float:
        """Weight W(u, v); raises if the edge is absent."""
        nbrs = self.out_neighbors(u)
        hits = np.flatnonzero(nbrs == v)
        if hits.size == 0:
            from repro.errors import EdgeNotFoundError

            raise EdgeNotFoundError(u, v)
        return float(self.out_weights(u)[hits[0]])

    # ------------------------------------------------------------------ #
    # Derived structures
    # ------------------------------------------------------------------ #
    def adjacency_matrix(self) -> "np.ndarray":
        """Dense adjacency matrix (small graphs only — guarded)."""
        if self._n > 20_000:
            raise GraphError(
                f"dense adjacency refused for n={self._n} (> 20000 vertices)"
            )
        a = np.zeros((self._n, self._n), dtype=np.float64)
        src, dst, w = self._edge_src, self._edge_dst, self._edge_weights
        a[src, dst] = w
        if not self.directed:
            a[dst, src] = w
        return a

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw out-CSR ``(indptr, indices, weights)`` arrays."""
        return self._indptr, self._indices, self._weights

    def csr_slice(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Copy of the out-rows of ``vertices`` as one contiguous CSR slice.

        Returns ``(offsets, indices)``: row ``i`` of the slice,
        ``indices[offsets[i]:offsets[i + 1]]``, is the out-neighbor row of
        ``vertices[i]`` (edge weights are not copied). ``indices`` is a
        fresh gather, so a shard or replica built from it shares no memory
        with the graph.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        unknown = (vertices < 0) | (vertices >= self._n)
        if unknown.any():
            raise VertexNotFoundError(int(vertices[unknown][0]))
        starts = self._indptr[vertices]
        degrees = self._indptr[vertices + 1] - starts
        offsets = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        # Slot j of row i sits at starts[i] + j in the graph's arrays and at
        # offsets[i] + j in the slice: one shifted arange gathers them all.
        take = np.repeat(starts - offsets[:-1], degrees) + np.arange(
            offsets[-1], dtype=np.int64
        )
        return offsets, self._indices[take]

    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(subgraph, old_ids)`` where ``old_ids[i]`` is the original
        id of subgraph vertex ``i``.
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        if vertices.size and (vertices.min() < 0 or vertices.max() >= self._n):
            raise GraphError("subgraph vertex set contains unknown ids")
        remap = -np.ones(self._n, dtype=np.int64)
        remap[vertices] = np.arange(vertices.size)
        src, dst, w = self._edge_src, self._edge_dst, self._edge_weights
        keep = (remap[src] >= 0) & (remap[dst] >= 0)
        sub = Graph(
            n_vertices=vertices.size,
            src=remap[src[keep]],
            dst=remap[dst[keep]],
            weights=w[keep],
            directed=self.directed,
        )
        return sub, vertices
