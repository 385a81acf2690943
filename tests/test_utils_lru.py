"""LRUCache: eviction order, stats, capacity edge cases; IdLRU against it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.utils.lru import IdLRU, LRUCache


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


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.lists(st.integers(-3, 15), max_size=12)),
        st.tuples(st.just("put"), st.lists(st.integers(0, 15), max_size=12, unique=True)),
        st.tuples(st.just("delete"), st.lists(st.integers(-3, 40), max_size=6)),
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(0, 6), ops=_OPS)
def test_id_lru_equals_lru_cache_one_use_at_a_time(capacity, ops):
    # A batch of uses stamps its ids in order; eviction takes the oldest
    # stamps, and a batch that refreshes a held id goes one by one, so
    # membership, order and every counter match the scalar sequence.
    ids, scalar = IdLRU(capacity), LRUCache(capacity)
    for op, keys in ops:
        if op == "get":
            found, missing = ids.get_many(keys)
            want = [(k, scalar.get(k) is not None) for k in keys]
            assert found.tolist() == [k for k, hit in want if hit]
            assert missing.tolist() == [k for k, hit in want if not hit]
        elif op == "put":
            ids.put_many(np.array(keys, dtype=np.int64))
            for k in keys:
                scalar.put(k, k)
        else:
            ids.delete_many(keys)
            for k in keys:
                scalar.delete(k)
        assert ids.keys() == tuple(scalar._store) and len(ids) == len(scalar)
        assert (ids.hits, ids.misses, ids.evictions) == (
            scalar.hits,
            scalar.misses,
            scalar.evictions,
        )
        assert all((k in ids) == (k in scalar) for k in range(-1, 42))


def test_negative_ids_are_never_held():
    """A negative id clips onto the front pad, not onto id 0's slot: it is a
    miss, it stamps nothing and it deletes nothing, also through the
    neighbor cache's LRU side (no bare ``KeyError`` from the row arena)."""
    from repro.storage.cache import NeighborCache
    from tests.conftest import pack_block

    lru = IdLRU(4)
    lru.put_many(np.array([0, 2]))
    found, missing = lru.get_many([-1])
    assert (found.tolist(), missing.tolist()) == ([], [-1])
    lru.delete_many([-1])
    assert lru.keys() == (0, 2) and len(lru) == 2 and -1 not in lru
    assert (lru.hits, lru.misses) == (0, 1)

    cache = NeighborCache(4)
    cache.admit_many(pack_block([0, 2], {0: [1, 2], 2: [0]}))
    hits, misses = cache.get_many([-1])
    assert hits.ids.tolist() == [] and misses.tolist() == [-1]
    assert cache.cached_vertices() == (0, 2)
    assert (cache.hits, cache.misses) == (0, 1)
