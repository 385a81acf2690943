"""LRUCache: eviction order, stats, capacity edge cases."""

import pytest

from repro.errors import StorageError
from repro.utils.lru import LRUCache


def test_put_get_roundtrip():
    cache = LRUCache(2)
    cache.put("a", 1)
    assert cache.get("a") == 1


def test_miss_returns_default():
    cache = LRUCache(2)
    assert cache.get("missing") is None


def test_eviction_is_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh a
    cache.put("c", 3)  # evicts b
    assert "a" in cache and "c" in cache and "b" not in cache


def test_put_refreshes_recency():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh via put
    cache.put("c", 3)  # evicts b
    assert cache.get("a") == 10
    assert "b" not in cache


def test_hit_miss_counters():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.get("a")
    cache.get("x")
    assert cache.hits == 1
    assert cache.misses == 1


def test_eviction_counter():
    cache = LRUCache(1)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.evictions == 1


def test_zero_capacity_never_stores():
    cache = LRUCache(0)
    cache.put("a", 1)
    assert len(cache) == 0
    assert cache.get("a") is None


def test_negative_capacity_rejected():
    with pytest.raises(StorageError):
        LRUCache(-1)


def test_len_tracks_entries():
    cache = LRUCache(3)
    for i in range(5):
        cache.put(i, i)
    assert len(cache) == 3
