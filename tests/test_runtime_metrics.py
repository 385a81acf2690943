"""Metrics registry primitives and their wiring through store + pipeline."""

import numpy as np
import pytest

from repro.data import make_dataset
from repro.errors import RuntimeConfigError
from repro.obs import TimeSeriesSampler
from repro.runtime import MetricsRegistry, RpcRuntime, Tracer, VirtualClock
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    SamplingPipeline,
    StoreProvider,
    UniformNeighborSampler,
    VertexTraverseSampler,
)
from repro.storage.cluster import make_store
from repro.storage.costmodel import EV_REMOTE_RPC, CostModel
from repro.utils.rng import make_rng
from repro.utils.timer import CostAccumulator


# --------------------------------------------------------------------- #
# Primitives
# --------------------------------------------------------------------- #
def test_counter_increments_and_rejects_negative():
    reg = MetricsRegistry()
    c = reg.counter("reqs")
    c.inc()
    c.inc(4)
    assert c.value == 5
    assert reg.counter("reqs") is c  # get-or-create returns the same object
    with pytest.raises(RuntimeConfigError):
        c.inc(-1)


def test_gauge_tracks_high_water():
    g = MetricsRegistry().gauge("depth")
    g.set(3)
    g.set(1)
    assert g.value == 1.0
    assert g.high_water == 3.0


def test_histogram_percentiles_are_exact_nearest_rank():
    h = MetricsRegistry().histogram("lat")
    for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]:
        h.observe(v)
    assert h.count == 10
    assert h.mean == 55.0
    assert h.percentile(50) == 50
    assert h.percentile(95) == 100
    assert h.percentile(0) == 10
    assert h.percentile(100) == 100
    with pytest.raises(RuntimeConfigError):
        h.percentile(101)


def test_histogram_sorted_view_is_invalidated_by_observe():
    """Interleaved observe / percentiles always answer from the live samples."""
    import math

    rng = np.random.default_rng(0)
    h = MetricsRegistry().histogram("lat")
    ps = (0.0, 50.0, 95.0, 99.0, 100.0)
    seen = []
    for value in rng.integers(0, 1000, size=200).tolist():
        h.observe(value)
        seen.append(float(value))
        if rng.random() < 0.5:
            continue  # several observes between queries
        ordered = sorted(seen)
        want = [ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1] for p in ps]
        assert h.percentiles(ps) == want
        assert h.percentiles(ps) == want  # repeated query reuses the view
        assert h.samples == seen  # insertion order is never disturbed


def test_empty_histogram_is_safe():
    h = MetricsRegistry().histogram("lat")
    assert h.mean == 0.0
    assert h.percentile(50) == 0.0


def test_gauge_set_moves_the_value_and_only_raises_the_high_water():
    g = MetricsRegistry().gauge("queue")
    assert (g.value, g.high_water) == (0.0, 0.0)
    for value in (2, 3, 0, 1, -4):
        g.set(value)
        assert g.value == float(value)
    assert g.high_water == 3.0
    g.set(7.5)
    assert (g.value, g.high_water) == (7.5, 7.5)


def test_labeled_metrics_are_distinct_series():
    reg = MetricsRegistry()
    reg.counter("served", labels={"part": 0}).inc(2)
    reg.counter("served", labels={"part": 1}).inc(5)
    assert reg.counter("served", labels={"part": 0}).value == 2
    assert reg.counter("served", labels={"part": 1}).value == 5
    assert reg.counter("served").value == 0  # unlabeled is its own series
    # Label order does not matter: one frozen series per set.
    g1 = reg.gauge("depth", labels={"a": 1, "b": 2})
    g2 = reg.gauge("depth", labels={"b": 2, "a": 1})
    assert g1 is g2
    labeled = [c for c in reg.counters() if c.labels]
    assert len(labeled) == 2


def test_label_sets_that_render_alike_stay_distinct_series():
    # Unescaped, both label sets rendered "x{a=1,b=2}" and shared a series.
    reg = MetricsRegistry()
    glued = reg.counter("x", labels={"a": "1,b=2"})
    split = reg.counter("x", labels={"a": "1", "b": "2"})
    assert glued is not split
    glued.inc(3)
    split.inc(5)
    assert glued.labels == (("a", "1,b=2"),)
    assert split.labels == (("a", "1"), ("b", "2"))
    assert reg.counter("x", labels={"b": 2, "a": 1}) is split
    names = [row[0] for row in reg.summary_rows()]
    assert len(set(names)) == len(names) == 2
    # Values are identified by their rendering: 1 and "1" are one series,
    # 1, 1.0 and True (one dict key) are three.
    assert reg.gauge("g", labels={"p": 1}) is reg.gauge("g", labels={"p": "1"})
    assert len({id(reg.gauge("g", labels={"p": v})) for v in (1, 1.0, True)}) == 3
    assert reg.gauge("k", labels={1: "v"}) is not reg.gauge("k", labels={True: "v"})
    # The time-series rings keep the two apart too, under distinct names.
    clock = VirtualClock()
    series = TimeSeriesSampler(reg, clock, tick_us=10.0)
    clock.advance(10.0)
    series.poll()
    rows = dict(series._named())
    assert sorted(v[0][1] for k, v in rows.items() if k.startswith("x{")) == [3, 5]


def test_summary_rows_cover_every_kind():
    reg = MetricsRegistry()
    reg.counter("a").inc(2)
    reg.gauge("b").set(7)
    reg.histogram("c").observe(1.0)
    rows = reg.summary_rows()
    assert [row[:3] for row in rows] == [
        ["a", "counter", 2], ["b", "gauge", 7], ["c", "histogram", 1],
    ]
    assert rows[1][5] == "hw=7"
    # SLO tables read the tail (p50 / p95 / p99) straight off the registry.
    assert rows[2][3:] == [1.0, 1.0, 1.0, 1.0]


def test_summary_rows_report_exact_tail_percentiles():
    reg = MetricsRegistry()
    h = reg.histogram("lat_us")
    for v in range(1, 101):  # 1..100: p50=50, p95=95, p99=99 (nearest rank)
        h.observe(float(v))
    (row,) = reg.summary_rows()
    assert row[0] == "lat_us" and row[1] == "histogram"
    assert row[4:] == [50.0, 95.0, 99.0]


# --------------------------------------------------------------------- #
# Wiring through the store, runtime and pipeline
# --------------------------------------------------------------------- #
def test_runtime_metrics_agree_with_cost_ledger():
    graph = make_dataset("taobao-small-sim", scale=0.1, seed=0)
    store = make_store(graph, 4, seed=0)
    store.attach_runtime(RpcRuntime(store))
    store.get_neighbors_batch(np.arange(100), from_part=0)
    metrics = store.runtime.metrics
    # Fault-free: every request completes on the first attempt and the
    # ledger charges exactly one remote_rpc per completed request.
    completed = metrics.counter("rpc.completed").value
    assert completed == store.ledger.count(EV_REMOTE_RPC) > 0
    assert metrics.counter("rpc.attempts").value == completed
    assert metrics.counter("rpc.retries").value == 0
    assert metrics.histogram("rpc.batch_size").count == completed
    served = sum(
        metrics.counter("server.served", labels={"part": p}).value
        for p in range(4)
    )
    assert served == completed
    # Modelled latency floors at one RPC round trip.
    assert metrics.histogram("rpc.latency_us").percentile(50) >= (
        CostModel().remote_rpc_us
    )


def test_pipeline_spans_and_counters():
    graph = make_dataset("taobao-small-sim", scale=0.1, seed=0)
    store = make_store(graph, 2, seed=0)
    tracer = Tracer(seed=0)
    runtime = RpcRuntime(store, tracer=tracer)
    store.attach_runtime(runtime)
    pipeline = SamplingPipeline(
        traverse=VertexTraverseSampler(graph, vertex_type="user"),
        neighborhood=UniformNeighborSampler(StoreProvider(store, from_part=0)),
        negative=DegreeBiasedNegativeSampler(graph),
        hop_nums=[4, 4],
        neg_num=5,
        metrics=runtime.metrics,
        tracer=tracer,
    )
    rng = make_rng(0)
    for _ in range(3):
        pipeline.sample(16, rng)
    metrics = runtime.metrics
    assert metrics.counter("pipeline.batches").value == 3
    assert metrics.counter("pipeline.seeds", labels={"edge_type": "user"}).value == 48
    # The stage times are spans, one per stage per batch under its root;
    # the registry keeps no timing series of its own.
    roots = [sp for sp in tracer.spans if sp.name == "pipeline.sample"]
    assert len(roots) == 3
    for root in roots:
        stages = [sp.name for sp in tracer.trace_spans(root.trace_id)
                  if sp.parent_id == root.span_id]
        assert stages == [
            "pipeline.traverse", "pipeline.neighborhood", "pipeline.negative"
        ]
    assert not [h for h in metrics.histograms() if h.name.startswith("pipeline.")]
    # The neighborhood stage reads through the runtime: RPC metrics landed
    # in the same registry.
    assert metrics.counter("rpc.completed").value > 0


def test_pipeline_without_metrics_still_works():
    graph = make_dataset("taobao-small-sim", scale=0.1, seed=0)
    store = make_store(graph, 2, seed=0)
    pipeline = SamplingPipeline(
        traverse=VertexTraverseSampler(graph, vertex_type="user"),
        neighborhood=UniformNeighborSampler(StoreProvider(store, from_part=0)),
        negative=DegreeBiasedNegativeSampler(graph),
        hop_nums=[4, 4],
        neg_num=5,
    )
    batch = pipeline.sample(16, make_rng(0))
    assert batch.batch_size == 16


# --------------------------------------------------------------------- #
# CostAccumulator: summary
# --------------------------------------------------------------------- #
def test_cost_accumulator_summary_and_repr():
    acc = CostAccumulator(costs={"remote_rpc": 100.0, "local_read": 1.0})
    acc.record("remote_rpc", times=2)
    acc.record("local_read", times=5)
    assert acc.count("remote_rpc") == 2 and acc.count("bytes_sent") == 0
    # Unpriced events are counted at no time: 2 x 100 us + 5 x 1 us.
    acc.record("bytes_sent", times=64)
    assert acc.modelled_micros() == 205.0 and acc.modelled_millis() == 0.205
    rep = repr(acc)
    assert "local_read:5" in rep and "remote_rpc:2" in rep and "ms" in rep
    assert repr(CostAccumulator()).startswith("CostAccumulator(empty")
