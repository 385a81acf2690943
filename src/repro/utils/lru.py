"""A small LRU cache with hit/miss accounting.

Used by the storage layer in two places the paper calls out explicitly:
(1) the caches fronting the vertex/edge attribute indices IV and IE, and
(2) the LRU neighbor-caching baseline of Figure 9.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

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

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing recency) or ``default``."""
        if key in self._store:
            self._store.move_to_end(key)
            self.hits += 1
            return self._store[key]
        self.misses += 1
        return default

    def get_many(
        self, keys: "list[Hashable]"
    ) -> "tuple[dict[Hashable, Any], list[Hashable]]":
        """:meth:`get` for each of ``keys`` in order, in one call.

        Returns ``(found, missing)``: the cached values by key and the keys
        not held, in input order. Recency moves and the hit/miss counters
        end up exactly as the scalar sequence would leave them.
        """
        store = self._store
        found: "dict[Hashable, Any]" = {}
        missing: "list[Hashable]" = []
        if store:
            touch = store.move_to_end
            for key in keys:
                if key in store:
                    touch(key)
                    found[key] = store[key]
                else:
                    missing.append(key)
        else:
            missing.extend(keys)
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)
        return found, missing

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

    def put_many(self, items: "dict[Hashable, Any]") -> None:
        """:meth:`put` for each item in order.

        A batch larger than the capacity evicts its own earlier entries, as
        the scalar sequence would.
        """
        capacity = self.capacity
        if capacity == 0:
            return
        store = self._store
        evicted = 0
        for key, value in items.items():
            if key in store:
                store.move_to_end(key)
            store[key] = value
            if len(store) > capacity:
                store.popitem(last=False)
                evicted += 1
        self.evictions += evicted

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value without touching recency or statistics."""
        return self._store.get(key, default)

    def keys(self) -> "tuple[Hashable, ...]":
        """Currently cached keys, least recently used first."""
        return tuple(self._store.keys())

    def delete(self, key: Hashable) -> bool:
        """Remove ``key`` if present (no stat changes); returns whether it was."""
        if key in self._store:
            del self._store[key]
            return True
        return False

    def delete_many(self, keys: "list[Hashable]") -> None:
        """:meth:`delete` each of ``keys`` (absent ones skipped)."""
        store = self._store
        if store:
            for key in keys:
                store.pop(key, None)

    def clear(self) -> None:
        """Drop all entries but keep the accumulated statistics."""
        self._store.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 if none yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
