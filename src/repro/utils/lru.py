"""Small LRU caches with hit/miss accounting.

Used by the storage layer in two places the paper calls out explicitly:
(1) the caches fronting the vertex/edge attribute indices IV and IE
(:class:`LRUCache`), and (2) the LRU neighbor-caching baseline of Figure 9
(:class:`IdLRU`, whose rows live in the cache's row arena).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

import numpy as np

from repro.errors import StorageError


class LRUCache:
    """Least-recently-used cache with a fixed capacity and hit statistics."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise StorageError(f"LRU capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._store: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def get(self, key: Hashable) -> Any:
        """Return the cached value (refreshing recency) or None."""
        if key in self._store:
            self._store.move_to_end(key)
            self.hits += 1
            return self._store[key]
        self.misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> Hashable | None:
        """Insert/refresh ``key``; evicts the least recently used entry.

        Returns the evicted key, or None.
        """
        if self.capacity == 0:
            return None
        if key in self._store:
            self._store.move_to_end(key)
        self._store[key] = value
        if len(self._store) > self.capacity:
            evicted, _ = self._store.popitem(last=False)
            self.evictions += 1
            return evicted
        return None

    def delete(self, key: Hashable) -> bool:
        """Remove ``key`` if present (no stat changes); returns whether it was."""
        if key in self._store:
            del self._store[key]
            return True
        return False


class IdLRU:
    """LRU bookkeeping for non-negative integer ids, kept in one array.

    A held id carries a recency stamp, a tick that grows with every use: a
    batch of uses stamps its ids in order and eviction drops the lowest
    stamps, so membership, order and counters end up as an
    :class:`LRUCache` would leave them after the same uses one at a time.
    It keeps no values (its owner does), and a batch costs a handful of
    array calls whatever its size. Id ``k``'s stamp sits at slot ``k + 1``:
    the table is padded at both ends and lookups clip, so no id outside it,
    negative ones included, is ever found.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise StorageError(f"LRU capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._stamp = np.zeros(2, dtype=np.int64)
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return int(np.count_nonzero(self._stamp))

    def __contains__(self, key: int) -> bool:
        return 0 <= key < self._stamp.size - 2 and self._stamp.item(key + 1) > 0

    def keys(self) -> "tuple[int, ...]":
        """Held ids, least recently used first."""
        held = self._stamp.nonzero()[0]
        return tuple((held[self._stamp[held].argsort()] - 1).tolist())

    def held(self, keys: np.ndarray) -> np.ndarray:
        """Whether each of ``keys`` is held, as one mask (no stats, no recency)."""
        return self._stamp.take(keys + 1, mode="clip") > 0

    def get_many(self, keys: "np.ndarray | list[int]") -> "tuple[np.ndarray, np.ndarray]":
        """Use each of ``keys`` in order; returns the held ones and the
        missing ones, each in input order."""
        keys = np.asarray(keys, dtype=np.int64)
        if not self.capacity:
            self.misses += keys.size
            return keys[:0], keys
        held = self.held(keys)
        found = keys[held]
        self._stamp[found + 1] = self._tick + 1 + held.nonzero()[0]
        self._tick += keys.size
        missing = keys[~held]
        self.hits += found.size
        self.misses += missing.size
        return found, missing

    def put_many(self, keys: np.ndarray) -> None:
        """Insert or refresh each of the distinct ``keys`` in order, then
        evict the least recently used ids beyond capacity."""
        if self.capacity == 0 or not keys.size:
            return
        slots = keys + 1
        if keys.size > 1 and (self._stamp.take(slots, mode="clip") > 0).any():
            # A held id may be evicted before its turn comes: one by one.
            for key in keys.tolist():
                self.put_many(np.array([key]))
            return
        top = int(keys.max()) + 3
        if top > self._stamp.size:
            grow = max(self._stamp.size, top - self._stamp.size)
            self._stamp = np.concatenate((self._stamp, np.zeros(grow, dtype=np.int64)))
        self._stamp[slots] = self._tick + 1 + np.arange(keys.size)
        self._tick += keys.size
        held = self._stamp.nonzero()[0]
        extra = held.size - self.capacity
        if extra > 0:
            oldest = self._stamp[held].argpartition(extra - 1)[:extra]
            self._stamp[held[oldest]] = 0
            self.evictions += extra

    def delete_many(self, keys: "list[int]") -> None:
        """Drop each of ``keys`` that is held (no stat changes)."""
        self._stamp.put(np.asarray(keys, dtype=np.int64) + 1, 0, mode="clip")
