"""Sampler plugin interface, neighbor providers and the batch-size check.

Samplers are plugins (paper: "we treat all samplers as plugins. Each of them
can be implemented independently"); each exposes its forward computation,
``sample(...)``. The paper's sampler backward — dynamic sampling weights
updated "just like gradient back propagation of an operator" — is not used
by any configuration it evaluates and is not implemented here.

Neighborhood samplers read adjacency through a :class:`NeighborProvider`, so
the same sampler runs against a plain in-memory :class:`Graph` or against the
distributed store (with local/cache/remote accounting), matching the paper's
"one-hop neighbors from local storage, multi-hop from local cache, else a
call to a remote graph server". A provider answers a whole frontier with one
ragged :class:`~repro.sampling.kernels.CsrAdjacency` block, and every
sampler draws on that block with the same kernels whichever provider built
it.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from repro.errors import SamplingError
from repro.graph.graph import Graph
from repro.sampling.blocks import compact_level
from repro.sampling.kernels import CsrAdjacency


class Sampler:
    """Base class for all samplers (TRAVERSE / NEIGHBORHOOD / NEGATIVE)."""

    name = "abstract"


class NeighborProvider:
    """Adjacency access abstraction consumed by neighborhood samplers.

    :meth:`frontier_block` answers "give me this frontier's rows as one
    ragged block" and is all a sampler's draw path reads.
    """

    def frontier_block(
        self, frontier: np.ndarray
    ) -> "tuple[CsrAdjacency, np.ndarray]":
        """``(block, rows)``: ``block`` row ``rows[i]`` is ``frontier[i]``'s.

        ``frontier`` is a 1-D int64 array and may repeat ids. A provider
        that keeps handing back the *same* block object promises its
        contents have not changed, so samplers may keep tables derived from
        it; a new object invalidates them.
        """
        raise NotImplementedError

    @property
    def n_vertices(self) -> int:
        """Total vertices addressable through this provider."""
        raise NotImplementedError


class GraphProvider(NeighborProvider):
    """Direct in-memory adjacency access (single-machine path).

    Every frontier gets the same zero-copy whole-graph snapshot, for free.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._snapshot: "CsrAdjacency | None" = None

    def frontier_block(
        self, frontier: np.ndarray
    ) -> "tuple[CsrAdjacency, np.ndarray]":
        if self._snapshot is None:
            self._snapshot = CsrAdjacency.from_graph(self.graph)
        return self._snapshot, frontier

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices


class SnapshotProvider(GraphProvider):
    """Adjacency over one timestamp of a :class:`DynamicGraph`.

    :meth:`advance` moves to another timestamp and drops the snapshot, so
    the next frontier gets a new block object and samplers bound to this
    provider rebuild what they derived from the old one — the "refresh on
    dynamic-graph updates" contract without the sampler knowing about
    dynamic graphs at all.
    """

    def __init__(self, dynamic_graph: "object") -> None:
        super().__init__(dynamic_graph.snapshot(0))
        self.dynamic_graph = dynamic_graph
        self.t = 0

    def advance(self, t: int) -> "SnapshotProvider":
        """Rebind to snapshot ``t`` (no-op when already there)."""
        t = int(t)
        if t != self.t:
            self.graph = self.dynamic_graph.snapshot(t)
            self.t = t
            self._snapshot = None
        return self


class StoreProvider(NeighborProvider):
    """Adjacency access through the distributed store, as one worker.

    Every read is routed (and priced) by the store: local shard, neighbor
    cache, or remote RPC. ``from_part`` identifies the issuing worker.
    The store holds and serves no edge weights, so every weight is 1: a
    ``WeightedNeighborSampler`` over this provider draws uniformly, and an
    ``ImportanceNeighborSampler`` is unaffected (it weights by degree
    scores of the block's ``indices``).

    A frontier is deduplicated by :func:`~repro.sampling.blocks.compact_level`
    (sorted unique ids) and fetched with **one**
    ``store.get_neighbors_batch`` read — one coalesced RPC per destination
    server via the runtime; the store sees the ids strictly ascending and
    keeps them as they are, without a second dedup. The read answers with
    the rows of exactly those ids, in that order, as one ragged block, and
    its arrays become the kernels' block as they are: nothing is re-packed,
    and the unit weights are one read-only zero-stride view. Nothing is kept
    between calls, so a row is never older than the read that fetched it.
    """

    def __init__(self, store: "object", from_part: int) -> None:
        # Typed loosely to avoid a circular import with repro.storage.
        self.store = store
        self.from_part = from_part
        # Every block's weights: a read-only zero-stride view of 1.0, grown
        # as blocks grow, so a hop slices it instead of allocating.
        self._unit = np.broadcast_to(1.0, (0,))

    def frontier_block(
        self, frontier: np.ndarray
    ) -> "tuple[CsrAdjacency, np.ndarray]":
        ids, (rows,) = compact_level(self.store.graph.n_vertices, frontier)
        block = self.store.get_neighbors_batch(ids, from_part=self.from_part)
        n = block.indices.size
        if self._unit.size < n:
            self._unit = np.broadcast_to(1.0, (2 * n,))
        return CsrAdjacency(block.offsets, block.indices, self._unit[:n]), rows

    def neighbors(self, vertex: int) -> np.ndarray:
        """Out-neighbor ids of ``vertex``: one unbatched store read."""
        return self.store.neighbors(vertex, from_part=self.from_part)

    @property
    def n_vertices(self) -> int:
        return self.store.graph.n_vertices


def check_batch_size(batch_size: int) -> None:
    """Shared validation for sampler batch sizes: a positive integer."""
    if not isinstance(batch_size, Integral) or batch_size < 1:
        raise SamplingError(f"batch size must be a positive integer, got {batch_size!r}")
