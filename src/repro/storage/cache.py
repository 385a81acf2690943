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

from repro.errors import StorageError
from repro.graph.graph import Graph
from repro.storage.importance import MAX_HOP, importance_scores
from repro.utils.lru import LRUCache


class NeighborCache:
    """Per-server cache of remote vertices' out-neighbor arrays.

    The cache is the only record of what it holds: the cluster's
    :class:`~repro.storage.replicas.ReplicaRegistry` is a view over the
    caches' membership (``vertex in cache``). Failover and health-aware
    routing read replicas through :meth:`peek`, which never touches the
    hit/miss counters, so availability probes cannot corrupt
    ``cache_hit_rate()``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise StorageError(f"cache capacity must be non-negative: {capacity}")
        self.capacity = capacity
        self._pinned: dict[int, np.ndarray] = {}
        self._lru = LRUCache(capacity)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._pinned) + len(self._lru)

    def __contains__(self, vertex: int) -> bool:
        """Whether any copy of ``vertex`` is held (no accounting, no recency)."""
        return vertex in self._pinned or vertex in self._lru

    def pin(self, vertex: int, neighbors: np.ndarray) -> None:
        """Permanently cache ``vertex``'s neighbors (up to capacity)."""
        if vertex not in self._pinned and len(self._pinned) >= self.capacity:
            raise StorageError("neighbor cache pin capacity exhausted")
        self._pinned[vertex] = np.asarray(neighbors, dtype=np.int64)

    def get_many(
        self, vertices: "list[int]"
    ) -> "tuple[dict[int, np.ndarray], list[int]]":
        """Look up each of ``vertices`` in order, in one call.

        Returns ``(hits, misses)``: the cached rows by vertex and the ids
        not held, in input order. This is the store's cache arm: pinned
        entries answer first (they never move), the rest go through the LRU
        side in order, so recency, ``hits`` and ``misses`` end up exactly as
        the scalar sequence would leave them.
        """
        n_lookups = len(vertices)
        pinned = self._pinned
        hits = {v: pinned[v] for v in vertices if v in pinned} if pinned else {}
        if hits:
            vertices = [v for v in vertices if v not in pinned]
        found, misses = self._lru.get_many(vertices)
        hits.update(found)
        self.hits += n_lookups - len(misses)
        self.misses += len(misses)
        return hits, misses

    def peek(self, vertex: int) -> np.ndarray | None:
        """Cached neighbor array without hit/miss accounting or recency.

        The failover/suspect-routing path reads replicas through this, so
        serving another worker's read does not distort this cache's own
        hit-rate statistics (they model the *owner's* locality, not the
        cluster's failures).
        """
        value = self._pinned.get(vertex)
        if value is not None:
            return value
        return self._lru.peek(vertex)

    def is_pinned(self, vertex: int) -> bool:
        """Whether ``vertex`` is held as a pinned (policy-selected) entry."""
        return vertex in self._pinned

    def unpin(self, vertex: int) -> bool:
        """Release a pinned entry (placement demotion); True if it was held.

        Unlike :meth:`invalidate` this touches only the pinned side — a
        demand-filled copy of the same vertex (possible under mixed
        policies) survives, because demotion is a capacity decision, not a
        staleness one.
        """
        return self._pinned.pop(vertex, None) is not None

    @property
    def free_pin_slots(self) -> int:
        """Pin capacity still available (promotion headroom)."""
        return max(0, self.capacity - len(self._pinned))

    def pinned_vertices(self) -> tuple[int, ...]:
        """Sorted ids of all pinned entries (deterministic scan order)."""
        return tuple(sorted(self._pinned))

    def cached_vertices(self) -> tuple[int, ...]:
        """Sorted ids of every entry, pinned or demand-filled."""
        return tuple(sorted({*self._pinned, *self._lru.keys()}))

    def admit_many(self, rows: "dict[int, np.ndarray]") -> None:
        """Offer each fetched ``vertex -> row`` of ``rows``, in order, for
        demand-filled (LRU) caching.

        Pinned policies set LRU capacity to 0, making this a no-op; the LRU
        policy relies on it entirely. The store hands a whole neighbors
        response here, so the rows are taken as served (int64 arrays), not
        re-coerced.
        """
        lru = self._lru
        if lru.capacity == 0:
            return
        if self._pinned:
            rows = {v: row for v, row in rows.items() if v not in self._pinned}
        lru.put_many(rows)

    def invalidate(self, vertex: int) -> None:
        """Drop any cached copy of ``vertex``'s neighbors (after an update).

        Pinned entries are dropped too: a stale pinned row is worse than a
        miss.
        """
        self._pinned.pop(vertex, None)
        self._lru.delete(vertex)

    def invalidate_many(self, vertices: "list[int]") -> "list[int]":
        """:meth:`invalidate` each of ``vertices``; returns the ones that were pinned.

        The write path's call: the returned ids, in input order, are the
        entries to re-pin with their fresh rows.
        """
        pinned = self._pinned
        was_pinned = (
            [v for v in vertices if pinned.pop(v, None) is not None] if pinned else []
        )
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
    one block and pinned as views of it. A cache whose selection equals the
    previous one's pins the same row views (pins are replaced, never edited
    in place) in a pin table of its own.
    """
    if policy.demand_filled:
        return [NeighborCache(budget) for _ in range(n_caches)]
    caches: "list[NeighborCache]" = []
    previous = np.zeros(0, dtype=np.int64)
    pinned: "dict[int, np.ndarray]" = {}
    for _ in range(n_caches):
        selected = np.asarray(policy.select(graph, budget, rng), dtype=np.int64)
        if not np.array_equal(selected, previous):
            offsets, indices = graph.csr_slice(selected)
            bounds = offsets.tolist()
            pinned = {
                v: indices[a:b]
                for v, a, b in zip(selected.tolist(), bounds, bounds[1:])
            }
            previous = selected
        if len(pinned) > budget:
            raise StorageError("neighbor cache pin capacity exhausted")
        cache = make_pinned_cache(budget)
        cache._pinned = dict(pinned)
        caches.append(cache)
    return caches


def make_pinned_cache(capacity: int) -> NeighborCache:
    """Empty pin-only cache (no demand fill, batch-probe capable).

    The placement controller installs these on servers that start with no
    cache so promotions have somewhere to land; contents are decided online
    rather than by a :class:`CachePolicy`.
    """
    cache = NeighborCache(capacity)
    cache._lru = LRUCache(0)
    return cache
