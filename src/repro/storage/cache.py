"""Neighbor caching: the importance policy and the Figure 9 baselines.

A :class:`NeighborCache` lives on each graph server and holds out-neighbor
lists of vertices owned by *other* servers, so cross-partition traversals can
be served locally. Three interchangeable policies decide its contents:

* :class:`ImportanceCachePolicy` — the paper's contribution: pin the
  neighbors of the globally most important vertices (Eq. 1 / Algorithm 2);
* :class:`RandomCachePolicy` — pin a uniformly random vertex subset;
* :class:`LRUCachePolicy` — classic demand-filled LRU replacement.

Pinned policies (importance/random) decide contents up front and never evict;
LRU fills on access. Figure 9 compares the three at equal capacity.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError, check_id, check_ids
from repro.graph.graph import Graph
from repro.storage.importance import MAX_HOP, importance_scores
from repro.storage.rows import RowArena, RowBlock, concat_blocks
from repro.utils.lru import IdLRU


class NeighborCache:
    """Per-server cache of remote vertices' out-neighbor arrays.

    The cache is the only record of what it holds: the cluster's
    :class:`~repro.storage.replicas.ReplicaRegistry` is a view over the
    caches' membership (``vertex in cache``). Failover and health-aware
    routing read replicas through :meth:`peek`, which never touches the
    hit/miss counters, so availability probes cannot corrupt
    ``cache_hit_rate()``. Both sides keep their rows in a
    :class:`~repro.storage.rows.RowArena`: the pinned arena's span table is
    the pinned side's membership test, and the LRU side orders vertex ids
    in an :class:`~repro.utils.lru.IdLRU`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise StorageError(f"cache capacity must be non-negative: {capacity}")
        self.capacity = capacity
        self._pinned = RowArena()
        self._n_pinned = 0
        self._lru = IdLRU(capacity)
        self._rows = RowArena()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return self._n_pinned + len(self._lru)

    def __contains__(self, vertex: int) -> bool:
        """Whether any copy of ``vertex`` is held (no accounting, no recency)."""
        return self._pinned.has(vertex) or vertex in self._lru

    def pin(self, vertex: int, neighbors: np.ndarray) -> None:
        """Permanently cache a copy of ``vertex``'s neighbors (up to capacity).

        ``vertex`` must be a non-negative integer and ``neighbors`` a 1-D
        batch of them: anything else raises before the cache changes.
        """
        vertex = check_id(vertex, None, StorageError, "pinned vertex")
        row = check_ids(neighbors, None, StorageError, "pinned neighbors")
        held = self._pinned.has(vertex)
        if not held and self._n_pinned >= self.capacity:
            raise StorageError("neighbor cache pin capacity exhausted")
        self._pinned.put(np.array([vertex], dtype=np.int64), np.array([0, row.size]), row)
        self._n_pinned += not held

    def get_many(
        self, vertices: "np.ndarray | list[int]"
    ) -> "tuple[RowBlock, np.ndarray]":
        """Look up each of ``vertices`` in order, in one call.

        Returns ``(hits, misses)``: the cached rows as one block (pinned
        hits first, then LRU hits, each in input order) and the ids not
        held, in input order. This is the store's cache arm: pinned entries
        answer first (they never move), the rest go through the LRU side in
        order, so recency, ``hits`` and ``misses`` end up exactly as the
        scalar sequence would leave them.
        """
        ids = np.asarray(vertices, dtype=np.int64)
        n_lookups = ids.size
        held = ids[:0]
        if self._n_pinned:
            pinned = self._pinned.held(ids)
            held, ids = ids[pinned], ids[~pinned]
        found, misses = self._lru.get_many(ids)
        block = RowBlock(held, np.zeros(1, dtype=np.int64), held)  # nothing held yet
        if held.size:  # pinned rows answer first
            block = RowBlock(held, *self._pinned.take(held))
        if found.size:
            lru = RowBlock(found, *self._rows.take(found))
            block = concat_blocks([block, lru]) if held.size else lru
        self.hits += n_lookups - misses.size
        self.misses += misses.size
        return block, misses

    def peek(self, vertex: int) -> np.ndarray | None:
        """Cached neighbor array without hit/miss accounting or recency.

        The failover/suspect-routing path reads replicas through this, so
        serving another worker's read does not distort this cache's own
        hit-rate statistics (they model the *owner's* locality, not the
        cluster's failures).
        """
        if self._pinned.has(vertex):
            return self._pinned.row(vertex)
        return self._rows.row(vertex) if vertex in self._lru else None

    def is_pinned(self, vertex: int) -> bool:
        """Whether ``vertex`` is held as a pinned (policy-selected) entry."""
        return self._pinned.has(vertex)

    def unpin(self, vertex: int) -> bool:
        """Release a pinned entry (placement demotion); True if it was held.

        Unlike :meth:`invalidate` this touches only the pinned side — a
        demand-filled copy of the same vertex (possible under mixed
        policies) survives, because demotion is a capacity decision, not a
        staleness one.
        """
        held = self._pinned.has(vertex)
        if held:
            self._pinned.drop([vertex])
            self._n_pinned -= 1
        return held

    @property
    def free_pin_slots(self) -> int:
        """Pin capacity still available (promotion headroom)."""
        return max(0, self.capacity - self._n_pinned)

    def pinned_vertices(self) -> tuple[int, ...]:
        """Sorted ids of all pinned entries (deterministic scan order)."""
        return tuple(self._pinned.ids().tolist())

    def cached_vertices(self) -> tuple[int, ...]:
        """Sorted ids of every entry, pinned or demand-filled."""
        return tuple(sorted({*self.pinned_vertices(), *self._lru.keys()}))

    def admit_many(self, block: RowBlock) -> None:
        """Offer each row of a fetched ``block``, in order, for demand-filled
        (LRU) caching.

        Pinned policies set LRU capacity to 0, making this a no-op; the LRU
        policy relies on it entirely. The store hands a whole neighbors
        response here. Its rows are copied into the cache's own arena, so
        a cached row never keeps the response it came in alive; an evicted
        or invalidated row's cells are reclaimed when the arena next moves.
        """
        lru = self._lru
        if lru.capacity == 0:
            return
        ids = block.ids
        if self._n_pinned:
            ids = ids[~self._pinned.held(ids)]
        lru.put_many(ids)
        self._rows.put(*block, live=lru.keys)

    def invalidate(self, vertex: int) -> None:
        """Drop any cached copy of ``vertex``'s neighbors (after an update).

        Pinned entries are dropped too: a stale pinned row is worse than a
        miss.
        """
        self.unpin(vertex)
        self._lru.delete_many([vertex])

    def invalidate_many(self, vertices: "list[int]") -> "list[int]":
        """:meth:`invalidate` each of ``vertices``; returns the ones that were pinned.

        The write path's call: the returned ids, in input order, are the
        entries to re-pin with their fresh rows.
        """
        was_pinned: "list[int]" = []
        if self._n_pinned:
            ids = np.asarray(vertices, dtype=np.int64)
            was_pinned = list(dict.fromkeys(ids[self._pinned.held(ids)].tolist()))
            self._pinned.drop(was_pinned)
            self._n_pinned -= len(was_pinned)
        self._lru.delete_many(vertices)
        return was_pinned

    @property
    def supports_batch_probe(self) -> bool:
        """Whether this cache is pinned-only (no demand-filled side).

        True for the importance/random policies and for no cache at all:
        contents change only through :meth:`pin` / :meth:`unpin` /
        :meth:`invalidate`, never on access, and :meth:`pinned_vertices`
        lists all of them. Demand-filled (LRU) caches move recency and
        contents per access.
        """
        return self._lru.capacity == 0


class CachePolicy:
    """Strategy deciding a server's neighbor-cache contents.

    ``select(graph, budget, rng)`` returns the vertex ids to pin (may be
    empty for demand-filled policies); ``demand_filled`` says whether the
    cache should also admit entries on access.
    """

    name = "abstract"
    demand_filled = False

    def select(
        self, graph: Graph, budget: int, rng: np.random.Generator
    ) -> np.ndarray:
        raise NotImplementedError


class ImportanceCachePolicy(CachePolicy):
    """Pin the top-``budget`` vertices by Imp^(k) at Algorithm 2's depth
    ``k =`` :data:`~repro.storage.importance.MAX_HOP` (the paper's strategy).

    The ranking is computed once per graph: a :class:`Graph` has no
    mutators, so every server's and every budget's selection is a prefix of
    the one (read-only) ranking.
    """

    name = "importance"

    def __init__(self) -> None:
        self._ranked: "tuple[Graph, np.ndarray] | None" = None

    def select(
        self, graph: Graph, budget: int, rng: np.random.Generator
    ) -> np.ndarray:
        if budget <= 0:
            return np.zeros(0, dtype=np.int64)
        memo = self._ranked
        if memo is None or memo[0] is not graph:
            scores = importance_scores(graph, MAX_HOP)
            order = np.argsort(scores, kind="stable")[::-1]
            # Scores are >= 0, so the positive ones form the ranking's head.
            ranked = order[scores[order] > 0].astype(np.int64, copy=False)
            ranked.flags.writeable = False
            memo = self._ranked = (graph, ranked)
        return memo[1][:budget]


class RandomCachePolicy(CachePolicy):
    """Pin a uniformly random vertex subset (Figure 9 baseline)."""

    name = "random"

    def select(
        self, graph: Graph, budget: int, rng: np.random.Generator
    ) -> np.ndarray:
        if budget <= 0:
            return np.zeros(0, dtype=np.int64)
        budget = min(budget, graph.n_vertices)
        return rng.choice(graph.n_vertices, size=budget, replace=False).astype(
            np.int64
        )


class LRUCachePolicy(CachePolicy):
    """Demand-filled LRU replacement (Figure 9 baseline).

    Pins nothing; every fetched remote neighbor list is admitted and evicted
    least-recently-used, so a scattered access pattern churns the cache —
    exactly the "additional cost since it frequently replaces cached
    vertices" the paper observes.
    """

    name = "lru"
    demand_filled = True

    def select(
        self, graph: Graph, budget: int, rng: np.random.Generator
    ) -> np.ndarray:
        return np.zeros(0, dtype=np.int64)


def make_caches(
    policy: CachePolicy,
    graph: Graph,
    budget: int,
    rng: np.random.Generator,
    n_caches: int,
) -> "list[NeighborCache]":
    """``n_caches`` neighbor caches under ``policy``, ``budget`` slots each.

    Each cache asks ``policy`` for its own selection, in turn. A selection
    is installed in bulk: the selected rows are copied out of the graph as
    one block, which seeds the cache's pinned arena without a copy. A
    cache whose selection equals the previous one's is seeded from the same
    block, with span tables of its own (a cell is never written twice, so
    one cache's pins and unpins never show in another).
    """
    if policy.demand_filled:
        return [NeighborCache(budget) for _ in range(n_caches)]
    caches: "list[NeighborCache]" = []
    previous = block = None
    for _ in range(n_caches):
        selected = np.asarray(policy.select(graph, budget, rng), dtype=np.int64)
        if selected.size > budget:
            raise StorageError("neighbor cache pin capacity exhausted")
        if not np.array_equal(selected, previous):
            block = RowBlock(selected, *graph.csr_slice(selected))
            previous = selected
        cache = make_pinned_cache(budget)
        cache._pinned = RowArena(graph.n_vertices, block)
        cache._n_pinned = selected.size
        caches.append(cache)
    return caches


def make_pinned_cache(capacity: int) -> NeighborCache:
    """Empty pin-only cache (no demand fill, batch-probe capable).

    The placement controller installs these on servers that start with no
    cache so promotions have somewhere to land; contents are decided online
    rather than by a :class:`CachePolicy`.
    """
    cache = NeighborCache(capacity)
    cache._lru = IdLRU(0)
    return cache
