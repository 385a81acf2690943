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

from repro.errors import StorageError, check_ids
from repro.graph.graph import Graph
from repro.storage.importance import MAX_HOP, importance_scores
from repro.storage.rows import RowArena, RowBlock, concat_blocks
from repro.utils.lru import IdLRU


class NeighborCache:
    """Per-server cache of remote vertices' out-neighbor arrays.

    The cache is the only record of what it holds: the cluster's
    :class:`~repro.storage.replicas.ReplicaRegistry` is a view over the
    caches' membership. Failover and health-aware routing find and read
    replicas through :meth:`holds` and :meth:`peek_many`, which never touch
    the hit/miss counters, so availability probes cannot corrupt
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

    def pin(self, block: RowBlock) -> None:
        """Permanently cache copies of the rows of ``block`` (distinct ids),
        up to capacity.

        The ids and the rows must be 1-D batches of non-negative integers,
        and the ids not yet pinned must fit: anything else raises before
        the cache changes.
        """
        ids = check_ids(block.ids, None, StorageError, "pinned vertices")
        rows = check_ids(block.indices, None, StorageError, "pinned neighbors")
        new = ids.size - int(np.count_nonzero(self._pinned.held(ids)))
        if self._n_pinned + new > self.capacity:
            raise StorageError("neighbor cache pin capacity exhausted")
        self._pinned.put(ids, block.offsets, rows)
        self._n_pinned += new

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
        self.hits += n_lookups - misses.size
        self.misses += misses.size
        return self._block(held, found), misses

    def _block(self, pinned: np.ndarray, lru: np.ndarray) -> RowBlock:
        """The ``pinned`` ids' rows, then the ``lru`` ids', as one block."""
        block = RowBlock(pinned, np.zeros(1, dtype=np.int64), pinned)  # nothing held yet
        if pinned.size:  # pinned rows answer first
            block = RowBlock(pinned, *self._pinned.take(pinned))
        if lru.size:
            rows = RowBlock(lru, *self._rows.take(lru))
            block = concat_blocks([block, rows]) if pinned.size else rows
        return block

    def holds(self, ids: np.ndarray) -> np.ndarray:
        """Whether a copy of each of ``ids`` is held, as one mask, with no
        accounting and no recency: the replica lookup's test."""
        return self._pinned.held(ids) | self._lru.held(ids)

    def peek_many(self, ids: np.ndarray) -> RowBlock:
        """The copies of the held ``ids`` as one block (pinned ones first),
        with no accounting and no recency."""
        pinned = self._pinned.held(ids)
        return self._block(ids[pinned], ids[~pinned])

    def peek(self, vertex: int) -> np.ndarray | None:
        """Cached neighbor array without hit/miss accounting or recency."""
        if self._pinned.has(vertex):
            return self._pinned.row(vertex)
        return self._rows.row(vertex) if vertex in self._lru else None

    def is_pinned(self, ids: "int | np.ndarray") -> "bool | np.ndarray":
        """Whether each of ``ids`` is held as a pinned (policy- or
        placement-selected) entry, as one mask (one bool for one id)."""
        return self._pinned.held(np.asarray(ids))

    def unpin_many(self, vertices: "np.ndarray | list[int]") -> "list[int]":
        """Release the pinned entries of ``vertices`` (placement demotion);
        returns the ones that were held, in first-seen order.

        Unlike :meth:`invalidate_many` this touches only the pinned side — a
        demand-filled copy of the same vertex (possible under mixed
        policies) survives, because demotion is a capacity decision, not a
        staleness one.
        """
        ids = np.asarray(vertices, dtype=np.int64)
        held = list(dict.fromkeys(ids[self._pinned.held(ids)].tolist()))
        self._pinned.drop(held)
        self._n_pinned -= len(held)
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

    def invalidate_many(self, vertices: "np.ndarray | list[int]") -> "list[int]":
        """Drop any cached copy of each of ``vertices``' neighbors (after an
        update or a migration); returns the ones that were pinned.

        Pinned entries are dropped too — a stale pinned row is worse than a
        miss. The write path re-pins the returned ids, in input order, with
        their fresh rows.
        """
        was_pinned = self.unpin_many(vertices) if self._n_pinned else []
        self._lru.delete_many(vertices)
        return was_pinned

    @property
    def supports_batch_probe(self) -> bool:
        """Whether this cache is pinned-only (no demand-filled side).

        True for the importance/random policies and for no cache at all:
        contents change only through :meth:`pin` / :meth:`unpin_many` /
        :meth:`invalidate_many`, never on access, and :meth:`pinned_vertices`
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

    The scores are computed once per graph: a :class:`Graph` has no
    mutators, so every server's and every budget's selection is a prefix of
    the one ranking — score descending, ties by id descending, positive
    scores only (exactly ``np.argsort(scores, kind="stable")[::-1]`` with
    the zeros dropped). Only the head a budget needs is ranked: every
    vertex scoring at least the ``budget``-th largest score is a candidate,
    and the candidates alone are sorted. A larger later budget ranks a
    longer head from the memoized scores. The head is read-only.
    """

    name = "importance"

    def __init__(self) -> None:
        self._ranked: "tuple[Graph, np.ndarray, np.ndarray] | None" = None

    def select(
        self, graph: Graph, budget: int, rng: np.random.Generator
    ) -> np.ndarray:
        if budget <= 0:
            return np.zeros(0, dtype=np.int64)
        memo = self._ranked
        if memo is None or memo[0] is not graph:
            memo = (graph, importance_scores(graph, MAX_HOP), None)
        _, scores, head = memo
        if head is None or head.size < min(budget, np.count_nonzero(scores)):
            head = _rank_head(scores, budget)
            self._ranked = (graph, scores, head)
        return head[:budget]


def _rank_head(scores: np.ndarray, budget: int) -> np.ndarray:
    """The ranking's head: every positive-score vertex scoring at least the
    ``budget``-th largest score, by (score desc, id desc), read-only.

    Ties at the cut are all kept, so the head is the full ranking's prefix
    of its own length (at least ``budget``, or every positive score).
    """
    cut = 0.0
    if budget < scores.size:
        cut = np.partition(scores, scores.size - budget)[scores.size - budget]
    candidates = np.flatnonzero(scores >= cut) if cut > 0 else np.flatnonzero(scores > 0)
    head = candidates[np.lexsort((-candidates, -scores[candidates]))]
    head.flags.writeable = False
    return head


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
