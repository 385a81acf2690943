"""Vectorized read-path kernels: cache parity, grouped plans, batch probes.

The overlap layer this file was named after is gone (the prefetching
pipeline, its depth knob and the makespan model); what remains are the
kernel tests that rode in with it. They keep this file name, and so their test ids, until
a later PR re-homes them next to the modules they exercise (test_ops.py,
test_runtime_rpc.py, test_storage_cluster.py).
"""

import numpy as np
import pytest

from repro.data import make_dataset
from repro.errors import OperatorError
from repro.ops.materialize import MaterializationCache
from repro.runtime import RequestBatcher, RpcRuntime, Tracer
from repro.storage import ImportanceCachePolicy
from repro.storage.cache import NeighborCache
from repro.storage.cluster import make_store
from repro.utils.rng import make_rng


def _graph(scale=0.15):
    return make_dataset("taobao-small-sim", scale=scale, seed=0)


def test_execute_empty_requests():
    store = make_store(_graph(), 2, seed=0)
    runtime = RpcRuntime(store)
    store.attach_runtime(runtime)
    assert runtime.execute([]) == []


# --------------------------------------------------------------------- #
# MaterializationCache: parity with the dict-based reference semantics
# --------------------------------------------------------------------- #
class _DictReference:
    """The pre-vectorization implementation, verbatim semantics."""

    def __init__(self, max_hop):
        self._store = [dict() for _ in range(max_hop + 1)]
        self.hits = 0
        self.misses = 0

    def lookup(self, hop, vertices):
        store = self._store[hop]
        mask = np.array([int(v) in store for v in vertices], dtype=bool)
        self.hits += int(mask.sum())
        self.misses += int((~mask).sum())
        return mask, [int(v) for v in vertices[~mask]]

    def get_rows(self, hop, vertices):
        store = self._store[hop]
        return np.stack([store[int(v)] for v in vertices])

    def update(self, hop, vertices, values):
        store = self._store[hop]
        for v, row in zip(vertices, values):
            store[int(v)] = row


def test_materialization_cache_parity_with_reference():
    rng = make_rng(5)
    ref = _DictReference(2)
    vec = MaterializationCache(2)
    for step in range(40):
        hop = int(rng.integers(1, 3))
        batch = rng.integers(0, 50, size=int(rng.integers(1, 12)))
        mask_r, missing_r = ref.lookup(hop, batch)
        mask_v, missing_v = vec.lookup(hop, batch)
        assert np.array_equal(mask_r, mask_v)
        assert missing_r == missing_v
        assert (ref.hits, ref.misses) == (vec.hits, vec.misses)
        if missing_r:
            miss = np.asarray(missing_r, dtype=np.int64)
            rows = rng.normal(size=(miss.size, 4))
            ref.update(hop, miss, rows)
            vec.update(hop, miss, rows)
        present = batch[mask_r] if mask_r.any() else None
        if present is not None and present.size:
            assert np.array_equal(
                ref.get_rows(hop, present), vec.get_rows(hop, present)
            )


def test_materialization_cache_update_last_write_wins():
    vec = MaterializationCache(1)
    verts = np.array([4, 9, 4, 2, 9])
    rows = np.arange(10, dtype=np.float64).reshape(5, 2)
    vec.update(1, verts, rows)
    ref = _DictReference(1)
    ref.update(1, verts, rows)
    for v in (4, 9, 2):
        assert np.array_equal(
            vec.get_rows(1, np.array([v])), ref.get_rows(1, np.array([v]))
        )


def test_materialization_cache_missing_vertex_message():
    vec = MaterializationCache(1)
    vec.update(1, np.array([3]), np.zeros((1, 2)))
    with pytest.raises(OperatorError, match="vertex 5 not materialized at hop 1"):
        vec.get_rows(1, np.array([3, 5]))
    with pytest.raises(OperatorError):
        MaterializationCache(1).get_rows(1, np.array([0]))


# --------------------------------------------------------------------- #
# Vectorized read path: plan_grouped and batch cache probes
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("max_batch", [0, 3])
def test_plan_grouped_matches_plan(max_batch):
    rng = make_rng(9)
    for _ in range(20):
        n = int(rng.integers(0, 30))
        vertices = rng.choice(1000, size=n, replace=False)
        owners = rng.integers(0, 5, size=n)
        reads = list(zip(vertices.tolist(), owners.tolist()))
        a = RequestBatcher(max_batch).plan("neighbors", reads)
        b = RequestBatcher(max_batch).plan_grouped("neighbors", vertices, owners)
        assert a == b


def test_neighbor_cache_probe_batch_matches_membership():
    from repro.utils.lru import LRUCache

    graph = _graph(scale=0.1)
    cache = NeighborCache(8)
    cache._lru = LRUCache(0)  # pinned-only, as make_cache configures it
    for v in range(8):
        cache.pin(v, graph.out_neighbors(v))
    assert cache.supports_batch_probe  # LRU side is zero-capacity
    verts = np.array([0, 5, 7, 100, 200])
    mask = cache.probe_batch(verts)
    assert mask.tolist() == [True, True, True, False, False]
    # A pure probe: no accounting happened.
    assert cache.hits == 0 and cache.misses == 0
    cache.record_misses(2)
    assert cache.misses == 2
    cache.invalidate(5)
    assert cache.probe_batch(verts).tolist() == [True, False, True, False, False]


def test_probe_batch_tracks_is_pinned_through_churn():
    from repro.storage.cache import make_pinned_cache

    cache = make_pinned_cache(16)
    probe = np.array([0, 3, 3, 40, 41, 999, 10_000_000])

    def check():
        want = [cache.is_pinned(int(v)) for v in probe]
        assert cache.probe_batch(probe).tolist() == want
        assert cache.probe_batch(np.array([40])).tolist() == [cache.is_pinned(40)]

    row = np.array([1, 2])
    check()  # empty cache: all misses, nothing to index
    assert not cache.probe_batch(probe).any()
    cache.pin(3, row)
    check()
    cache.pin(40, row)  # grows past the previous largest key
    check()
    cache.pin(3, row)  # re-pin: membership unchanged
    check()
    cache.unpin(40)  # largest key leaves: 40 and everything above miss
    check()
    cache.pin(999, row)
    cache.invalidate(3)
    check()
    cache.invalidate(999)
    check()
    assert not cache.probe_batch(probe).any()
    assert cache.hits == 0 and cache.misses == 0  # pure probes throughout


def test_resolve_read_ledger_event_order_deterministic():
    graph = _graph()
    rows = []
    for _ in range(2):
        store = make_store(
            graph,
            4,
            cache_policy=ImportanceCachePolicy(),
            cache_budget_fraction=0.1,
            seed=7,
        )
        tracer = Tracer(seed=7)
        store.attach_runtime(RpcRuntime(store, tracer=tracer))
        rng = make_rng(7)
        for _ in range(3):
            batch = rng.integers(0, graph.n_vertices, size=96)
            store.get_neighbors_batch(batch, from_part=0)
        rows.append(list(tracer.ledger_rows))
    assert rows[0] == rows[1]
    events = [r for r in rows[0]]
    assert events, "expected ledger events from the batched reads"


def test_resolve_read_rejects_out_of_range_batch():
    store = make_store(_graph(scale=0.1), 2, seed=0)
    with pytest.raises(Exception, match="unknown vertex"):
        store.get_neighbors_batch([0, 1, 10**9], from_part=0)
