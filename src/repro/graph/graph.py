"""Immutable simple graph with CSR adjacency (paper §2, simple graph G).

Vertices are dense integer ids ``0..n-1``. Edges are stored in
compressed-sparse-row form for O(1) neighbor-slice access — the access
pattern every sampler and every storage experiment hammers on.

Directed graphs keep an out-CSR (in-degrees are counted off the edge
arrays); undirected graphs store each edge in both endpoint rows, so
``out_neighbors`` is simply "neighbors" and ``W(u, v) == W(v, u)`` as §2
requires.
"""

from __future__ import annotations

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
        else:
            # Mirror every edge.
            out_src = np.concatenate([src, dst])
            out_dst = np.concatenate([dst, src])
            out_w = np.concatenate([weights, weights])

        order = np.argsort(out_src, kind="stable")
        sorted_src = out_src[order]
        self._indices = out_dst[order]
        self._weights = out_w[order]
        self._indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.add.at(self._indptr, sorted_src + 1, 1)
        np.cumsum(self._indptr, out=self._indptr)

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

    def out_degrees(self) -> np.ndarray:
        """Vector of all out-degrees."""
        return np.diff(self._indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of all in-degrees (the out-degrees when undirected)."""
        if not self.directed:
            return self.out_degrees()
        return np.bincount(self._edge_dst, minlength=self._n)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``(u, v)`` exists (symmetric when undirected)."""
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(np.any(self.out_neighbors(u) == v))

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
