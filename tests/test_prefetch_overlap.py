"""Vectorized read-path kernels: cache parity, grouped plans.

The overlap layer this file was named after is gone (the prefetching
pipeline, its depth knob and the makespan model); what remains are the
kernel tests that rode in with it. They keep this file name, and so their test ids, until
a later PR re-homes them next to the modules they exercise (test_ops.py,
test_runtime_rpc.py, test_storage_cluster.py).
"""

import numpy as np
import pytest

from repro.data import make_dataset
from repro.errors import OperatorError, RuntimeConfigError
from repro.ops.materialize import MaterializationCache
from repro.runtime import Batch, RequestBatcher, RpcRuntime, Tracer
from repro.storage import ImportanceCachePolicy
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
# Vectorized read path: plan_grouped against the per-read planner it replaced
# --------------------------------------------------------------------- #
def plan_per_read(max_batch_size, kind, reads):
    """``RequestBatcher.plan`` as it was: one ``(vertex, owner)`` pair at a
    time, deduplicating per destination — the oracle for ``plan_grouped``."""
    by_dest = {}
    for vertex, owner in reads:
        group = by_dest.setdefault(owner, [])
        if vertex not in group:
            group.append(vertex)
    batches = []
    for owner, vertices in by_dest.items():
        step = max_batch_size or len(vertices)
        for i in range(0, len(vertices), step):
            batches.append(Batch(owner, kind, tuple(vertices[i : i + step])))
    return batches


@pytest.mark.parametrize("max_batch", [0, 3])
def test_plan_grouped_matches_plan(max_batch):
    rng = make_rng(9)
    for _ in range(20):
        n = int(rng.integers(0, 30))
        vertices = rng.choice(1000, size=n, replace=False)
        owners = rng.integers(0, 5, size=n)
        reads = list(zip(vertices.tolist(), owners.tolist()))
        a = plan_per_read(max_batch, "neighbors", reads)
        b = RequestBatcher(max_batch).plan_grouped("neighbors", vertices, owners)
        assert a == b
    with pytest.raises(RuntimeConfigError):
        RequestBatcher(max_batch_size=-1)


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
