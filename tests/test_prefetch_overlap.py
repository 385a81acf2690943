"""Overlapped sampling: prefetch determinism, vectorized kernels."""

import numpy as np
import pytest

from repro.algorithms.framework import GNNFramework
from repro.data import make_dataset
from repro.errors import (
    OperatorError,
    SamplingError,
    TrainingError,
)
from repro.runtime import (
    FaultPlan,
    RequestBatcher,
    RpcRuntime,
    Tracer,
    chrome_trace,
)
from repro.ops.materialize import MaterializationCache
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    PrefetchingPipeline,
    SamplingPipeline,
    StoreProvider,
    UniformNeighborSampler,
    VertexTraverseSampler,
    overlap_report,
    simulate_makespan,
)
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
# Prefetch determinism: depth in {0,1,2,4} is bit-identical
# --------------------------------------------------------------------- #
def _sampled_run(depth, steps=5, drop_rate=0.0, timeout_rate=0.0, fail=None):
    graph = _graph()
    store = make_store(
        graph,
        4,
        cache_policy=ImportanceCachePolicy(),
        cache_budget_fraction=0.1,
        seed=7,
        degraded_reads=True,
    )
    faults = None
    if drop_rate or timeout_rate:
        faults = FaultPlan(drop_rate=drop_rate, timeout_rate=timeout_rate, seed=11)
    tracer = Tracer(seed=7)
    runtime = RpcRuntime(store, faults=faults, tracer=tracer)
    store.attach_runtime(runtime)
    if fail is not None:
        store.fail_worker(fail)
    pipeline = SamplingPipeline(
        traverse=VertexTraverseSampler(graph, vertex_type="user"),
        neighborhood=UniformNeighborSampler(StoreProvider(store, from_part=0)),
        negative=DegreeBiasedNegativeSampler(graph),
        hop_nums=[6, 4],
        neg_num=5,
        tracer=tracer,
    )
    prefetcher = PrefetchingPipeline(
        produce=lambda rng: pipeline.sample(32, rng),
        depth=depth,
        frontier_of=lambda b: b.context.all_vertices(),
    )
    batches = list(prefetcher.run(steps, make_rng(7)))
    assert prefetcher.produced == prefetcher.consumed == steps
    return batches, store, tracer, prefetcher


def _batch_fingerprint(batch):
    return (
        batch.vertices.tolist(),
        [layer.tolist() for layer in batch.context.layers],
        [mask.tolist() for mask in batch.context.pad_masks],
        batch.negatives.tolist(),
    )


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_prefetch_depths_bit_identical(depth):
    base_batches, base_store, base_tracer, _ = _sampled_run(0)
    batches, store, tracer, prefetcher = _sampled_run(depth)
    assert [_batch_fingerprint(b) for b in batches] == [
        _batch_fingerprint(b) for b in base_batches
    ]
    assert tracer.ledger_rows == base_tracer.ledger_rows
    assert chrome_trace(tracer) == chrome_trace(base_tracer)
    assert store.ledger.modelled_micros() == base_store.ledger.modelled_micros()
    assert prefetcher.coalesced > 0  # adjacent 2-hop frontiers overlap


@pytest.mark.parametrize("depth", [2, 4])
def test_prefetch_fault_runs_stay_identical(depth):
    base = _sampled_run(0, drop_rate=0.15, timeout_rate=0.05)
    overlapped = _sampled_run(depth, drop_rate=0.15, timeout_rate=0.05)
    assert [_batch_fingerprint(b) for b in overlapped[0]] == [
        _batch_fingerprint(b) for b in base[0]
    ]
    assert overlapped[2].ledger_rows == base[2].ledger_rows
    assert chrome_trace(overlapped[2]) == chrome_trace(base[2])


def test_prefetch_with_dead_owner_matches_unprefetched():
    base = _sampled_run(0, fail=2)
    overlapped = _sampled_run(2, fail=2)
    assert [_batch_fingerprint(b) for b in overlapped[0]] == [
        _batch_fingerprint(b) for b in base[0]
    ]
    assert overlapped[1].ledger.modelled_micros() == base[1].ledger.modelled_micros()


def test_prefetch_validates_arguments():
    with pytest.raises(SamplingError):
        PrefetchingPipeline(lambda rng: None, depth=-1)
    with pytest.raises(SamplingError):
        PrefetchingPipeline(lambda rng: None, depth=0, window=-2)
    pf = PrefetchingPipeline(lambda rng: None, depth=1)
    with pytest.raises(SamplingError):
        list(pf.run(-1, make_rng(0)))


# --------------------------------------------------------------------- #
# GNNFramework prefetch_depth: embeddings / losses invariant
# --------------------------------------------------------------------- #
def test_gnn_framework_prefetch_depths_match():
    graph = _graph(scale=0.1)
    results = []
    for depth in (0, 1, 2, 4):
        model = GNNFramework(
            dim=8,
            epochs=2,
            batch_size=32,
            max_steps_per_epoch=4,
            seed=3,
            prefetch_depth=depth,
        ).fit(graph)
        results.append((model.embeddings(), model.loss_history))
    for emb, losses in results[1:]:
        assert np.array_equal(emb, results[0][0])
        assert losses == results[0][1]


def test_gnn_framework_rejects_negative_depth():
    with pytest.raises(TrainingError):
        GNNFramework(prefetch_depth=-1)


# --------------------------------------------------------------------- #
# Makespan model
# --------------------------------------------------------------------- #
def test_makespan_depth0_is_serial_sum():
    s, c = [3.0, 5.0, 2.0], [4.0, 1.0, 6.0]
    assert simulate_makespan(s, c, 0) == sum(s) + sum(c)


def test_makespan_monotone_and_bounded():
    rng = make_rng(0)
    s = rng.uniform(1, 10, size=20).tolist()
    c = rng.uniform(1, 10, size=20).tolist()
    spans = [simulate_makespan(s, c, d) for d in (0, 1, 2, 4, 8, 64)]
    assert all(a >= b for a, b in zip(spans, spans[1:]))
    # Pipelining can never beat the busier side plus the other's first item.
    assert spans[-1] >= max(sum(s), sum(c))
    assert spans[0] == sum(s) + sum(c)


def test_makespan_validates_inputs():
    with pytest.raises(SamplingError):
        simulate_makespan([1.0], [1.0, 2.0], 1)
    with pytest.raises(SamplingError):
        simulate_makespan([1.0], [1.0], -1)
    assert simulate_makespan([], [], 3) == 0.0


def test_overlap_report_speedup():
    rep = overlap_report([2.0] * 10, [2.0] * 10, 2)
    assert rep.serial_us == 40.0
    assert rep.makespan_us < rep.serial_us
    assert rep.speedup == rep.serial_us / rep.makespan_us
    assert overlap_report([], [], 1).speedup == 1.0


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


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def test_cli_prefetch_demo(capsys):
    from repro.cli import main

    code = main(
        ["prefetch-demo", "--steps", "2", "--scale", "0.1", "--depth", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "speedup" in out
    assert "coalescable frontier reads" in out


def test_cli_prefetch_demo_rejects_negative_depth(capsys):
    from repro.cli import main

    code = main(["prefetch-demo", "--steps", "1", "--depth", "-1"])
    assert code == 2
