"""Vectorized frontier-sampling kernels: ragged adjacency blocks.

The paper's sampling layer runs "many millions of times per epoch" (§3.3),
which is why it is engineered around O(1) alias draws — but O(1) per draw
still loses to array-shaped expansion when every draw carries Python
dispatch. This module packs adjacency rows into a :class:`CsrAdjacency`
block (concatenated neighbor/weight arrays + offsets) so a whole frontier
expands in a handful of numpy kernel calls:

* uniform fan-out: one broadcast ``rng.integers`` over per-row degrees;
* weighted / importance fan-out: one
  :class:`~repro.utils.alias.GroupedAliasTable` draw spanning every
  adjacency list at once;
* top-k / full fan-out: one gather through a precomputed per-row weight
  ranking.

A block is whatever a :class:`~repro.sampling.base.NeighborProvider` hands
back for a frontier: in-memory providers give their whole-graph snapshot
(zero-copy off a :class:`Graph`, row ``v`` is vertex ``v``), the distributed
store gives the ragged block of one priced batched read of the deduplicated
frontier, as the store packed it. The kernels only ever see block rows;
neighbor ids inside a block are always global.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError


class CsrAdjacency:
    """Immutable ragged block of adjacency rows in CSR layout.

    ``indices[indptr[r]:indptr[r+1]]`` are the out-neighbors (global ids) of
    row ``r`` and ``weights`` the aligned edge weights. Which vertex a row
    belongs to is the provider's business: row ``v`` of a whole-graph
    snapshot is vertex ``v``, and a frontier block comes with the row of
    each frontier vertex. The per-row descending-weight ranking used by the
    deterministic samplers is built lazily and cached.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise SamplingError("CSR indptr must be a non-empty 1-D array")
        self.degrees = self.indptr[1:] - self.indptr[:-1]
        if self.indptr[0] != 0 or (self.degrees < 0).any():
            raise SamplingError("CSR indptr must be monotone from 0")
        if self.indices.shape != self.weights.shape or self.indices.ndim != 1:
            raise SamplingError("CSR indices/weights must be aligned 1-D arrays")
        if self.indptr[-1] != self.indices.size:
            raise SamplingError("CSR indptr does not cover the indices array")
        self._ranked: np.ndarray | None = None

    @classmethod
    def from_graph(cls, graph: "object") -> "CsrAdjacency":
        """Zero-copy snapshot of an in-memory :class:`Graph`'s out-CSR."""
        indptr, indices, weights = graph.csr_arrays()
        return cls(indptr, indices, weights)

    @property
    def n_vertices(self) -> int:
        """Rows in the block."""
        return int(self.indptr.size - 1)

    def neighbors(self, row: int) -> np.ndarray:
        """Row ``row``'s packed neighbor slice (a view)."""
        return self.indices[self.indptr[row] : self.indptr[row + 1]]

    def weights_of(self, row: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors` (a view)."""
        return self.weights[self.indptr[row] : self.indptr[row + 1]]

    def ranked(self) -> np.ndarray:
        """Flat permutation ranking each row by (-weight, neighbor id).

        ``indices[ranked()[indptr[r] + t]]`` is row ``r``'s ``t``-th
        heaviest neighbor (ties broken by ascending id) — the gather order
        of the deterministic top-k sampler. Built once, cached.
        """
        if self._ranked is None:
            gids = np.repeat(
                np.arange(self.n_vertices, dtype=np.int64), self.degrees
            )
            self._ranked = np.lexsort((self.indices, -self.weights, gids))
        return self._ranked

    # ------------------------------------------------------------------ #
    # Batched draw kernels
    # ------------------------------------------------------------------ #
    # Every kernel returns ``(len(rows), count)`` global neighbor ids. Rows
    # with no neighbors repeat ``pad_ids`` — the global id of each row's
    # vertex (self-loop semantics); a whole-graph snapshot's rows are their
    # own ids, so it may be left out there.
    def _pad_empty(
        self, rows: np.ndarray, count: int, pad_ids: "np.ndarray | None"
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Self-padded output scaffold + the non-empty row mask."""
        out = np.repeat((rows if pad_ids is None else pad_ids)[:, None], count, axis=1)
        return out, self.degrees[rows] > 0

    def sample_uniform(
        self,
        rows: np.ndarray,
        count: int,
        rng: np.random.Generator,
        pad_ids: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Uniform with-replacement fan-out.

        The broadcast draw consumes ``rng`` exactly like one
        ``rng.integers(degree, size=count)`` per non-empty row, in order.
        When no row is empty that draw is the whole answer: no pad scaffold.
        """
        degrees = self.degrees[rows]
        if degrees.all():
            slot = rng.integers(0, degrees[:, None], size=(rows.size, count))
            return self.indices[self.indptr[rows][:, None] + slot]
        out, nz = self._pad_empty(rows, count, pad_ids)
        if nz.any():
            rs = rows[nz]
            slot = rng.integers(0, self.degrees[rs][:, None], size=(rs.size, count))
            out[nz] = self.indices[self.indptr[rs][:, None] + slot]
        return out

    def sample_alias(
        self,
        rows: np.ndarray,
        count: int,
        rng: np.random.Generator,
        table: "object",
        pad_ids: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Weighted fan-out through a grouped alias ``table`` over this block."""
        out, nz = self._pad_empty(rows, count, pad_ids)
        if nz.any():
            flat = table.draw_for_groups(rows[nz], count, rng)
            out[nz] = self.indices[flat]
        return out

    def sample_ranked(
        self, rows: np.ndarray, count: int, pad_ids: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Deterministic heaviest-``count`` fan-out, cyclically tiled.

        Each row yields its ``min(count, deg)`` top-ranked neighbors
        repeated cyclically to ``count`` — the batched form of the top-k
        sampler's ``np.tile`` contract.
        """
        return self._gather_cyclic(self.ranked(), rows, count, None, pad_ids)

    def sample_leading(
        self,
        rows: np.ndarray,
        count: int,
        max_take: "int | None" = None,
        pad_ids: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Like :meth:`sample_ranked` but in raw CSR order (full sampler)."""
        return self._gather_cyclic(None, rows, count, max_take, pad_ids)

    def _gather_cyclic(
        self,
        perm: "np.ndarray | None",
        rows: np.ndarray,
        count: int,
        max_take: "int | None",
        pad_ids: "np.ndarray | None",
    ) -> np.ndarray:
        out, nz = self._pad_empty(rows, count, pad_ids)
        if nz.any():
            rs = rows[nz]
            take = self.degrees[rs]
            if max_take is not None:
                take = np.minimum(take, max_take)
            pos = np.arange(count, dtype=np.int64)[None, :] % take[:, None]
            flat = self.indptr[rs][:, None] + pos
            if perm is not None:
                flat = perm[flat]
            out[nz] = self.indices[flat]
        return out
