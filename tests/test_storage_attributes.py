"""Separate attribute storage: dedup, LRU fronting, space accounting."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.attributes import HANDLE_BYTES, AttributeIndex, SeparateAttributeStore


def test_intern_dedups():
    idx = AttributeIndex()
    h1 = idx.intern(b"male")
    h2 = idx.intern(b"female")
    h3 = idx.intern(b"male")
    assert h1 == h3
    assert h1 != h2
    assert len(idx) == 2


def test_lookup_roundtrip():
    idx = AttributeIndex()
    h = idx.intern(b"payload")
    assert idx.lookup(h) == b"payload"


def test_lookup_unknown_handle():
    idx = AttributeIndex()
    with pytest.raises(StorageError):
        idx.lookup(0)


def test_intern_rejects_non_bytes():
    with pytest.raises(StorageError):
        AttributeIndex().intern("str")  # type: ignore[arg-type]


def test_vector_roundtrip():
    idx = AttributeIndex()
    vec = np.array([1.5, 2.5], dtype=np.float32)
    h = idx.intern_vector(vec)
    np.testing.assert_array_equal(idx.lookup_vector(h), vec)


def test_vector_dedup_across_dtypes():
    idx = AttributeIndex()
    h1 = idx.intern_vector(np.array([1.0, 2.0], dtype=np.float64))
    h2 = idx.intern_vector(np.array([1.0, 2.0], dtype=np.float32))
    assert h1 == h2  # canonical float32 encoding


def test_stored_bytes():
    idx = AttributeIndex()
    idx.intern(b"abcd")
    idx.intern(b"xy")
    idx.intern(b"abcd")
    assert idx.stored_bytes() == 6


def test_store_roundtrip():
    store = SeparateAttributeStore()
    store.put_vertex_attr(0, np.array([1.0, 2.0]))
    np.testing.assert_array_equal(store.get_vertex_attr(0), [1.0, 2.0])
    assert store.has_vertex_attr(0)
    assert not store.has_vertex_attr(1)


def test_store_missing_vertex():
    with pytest.raises(StorageError):
        SeparateAttributeStore().get_vertex_attr(0)


def test_cache_serves_repeats():
    store = SeparateAttributeStore(vertex_cache_capacity=4)
    store.put_vertex_attr(0, np.array([1.0]))
    store.get_vertex_attr(0)  # miss, fills cache
    store.get_vertex_attr(0)  # hit
    assert store.iv_cache.hits == 1
    assert store.iv_cache.misses == 1


def test_space_saving_with_overlapping_attrs():
    """The paper's motivation: overlapping attrs make separation much smaller."""
    store = SeparateAttributeStore()
    shared = np.arange(64, dtype=np.float32)  # 256 bytes
    for v in range(100):
        store.put_vertex_attr(v, shared)
    inline = store.inline_bytes()
    separated = store.separated_bytes()
    assert inline == 100 * 256
    assert separated == 100 * HANDLE_BYTES + 256
    assert store.space_saving_ratio() > 20


def test_space_no_saving_with_unique_attrs():
    store = SeparateAttributeStore()
    for v in range(10):
        store.put_vertex_attr(v, np.full(64, float(v), dtype=np.float32))
    # All payloads distinct: separation only adds handle overhead.
    assert store.separated_bytes() == 10 * HANDLE_BYTES + 10 * 256
    assert store.space_saving_ratio() < 1.0
