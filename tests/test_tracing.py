"""End-to-end tracing: determinism, span trees, ledger correlation,
stage profiling and the two exporters."""

import json
from functools import partial

import numpy as np
import pytest

from tests.format_checkers import check_chrome_trace, check_prometheus_text
from repro.algorithms import SIGN, GNNFramework, GraphSAGE
from repro.data import make_dataset
from repro.runtime import (
    NULL_TRACER,
    TRAIN_STAGES,
    FaultPlan,
    MetricsRegistry,
    RetryPolicy,
    RpcRuntime,
    StageProfiler,
    Tracer,
    VirtualClock,
    chrome_trace,
    prometheus_text,
)
from repro.runtime.tracing import NULL_SPAN
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    SamplingPipeline,
    StoreProvider,
    UniformNeighborSampler,
    VertexTraverseSampler,
)
from repro.storage.cache import NeighborCache
from repro.storage.cluster import make_store
from repro.storage.costmodel import (
    EV_CACHE_HIT,
    EV_FAILOVER_READ,
    EV_LOCAL_READ,
    EV_REMOTE_RPC,
)
from repro.utils.rng import make_rng
from repro.utils.timer import CostAccumulator


def _graph(seed=0):
    return make_dataset("taobao-small-sim", scale=0.1, seed=seed)


def _traced_workload(seed=0, steps=2, **runtime_kwargs):
    """The canonical 2-hop sampling workload with tracing on."""
    from repro.storage import ImportanceCachePolicy

    graph = _graph(seed)
    store = make_store(
        graph,
        4,
        cache_policy=ImportanceCachePolicy(),
        cache_budget_fraction=0.1,
        seed=seed,
    )
    tracer = Tracer(seed=seed)
    runtime = RpcRuntime(store, tracer=tracer, **runtime_kwargs)
    store.attach_runtime(runtime)
    pipeline = SamplingPipeline(
        traverse=VertexTraverseSampler(graph, vertex_type="user"),
        neighborhood=UniformNeighborSampler(StoreProvider(store, from_part=0)),
        negative=DegreeBiasedNegativeSampler(graph),
        hop_nums=[10, 5],
        neg_num=5,
        metrics=runtime.metrics,
        tracer=tracer,
    )
    rng = make_rng(seed)
    for _ in range(steps):
        pipeline.sample(32, rng)
    return tracer, runtime, store


# --------------------------------------------------------------------- #
# Span tree structure
# --------------------------------------------------------------------- #
def test_trace_covers_whole_read_path():
    tracer, _, _ = _traced_workload()
    names = {sp.name for sp in tracer.spans}
    assert {
        "pipeline.sample",
        "pipeline.traverse",
        "pipeline.neighborhood",
        "pipeline.negative",
        "store.resolve_read",
        "batch.plan",
        "rpc.execute",
        "rpc.request",
    } <= names


def test_parent_child_links_are_consistent():
    tracer, _, _ = _traced_workload()
    by_id = {sp.span_id: sp for sp in tracer.spans}
    assert len(by_id) == len(tracer.spans)  # span ids are unique
    for sp in tracer.spans:
        assert sp.end_us is not None and sp.end_us >= sp.start_us
        if sp.parent_id is None:
            assert sp.name == "pipeline.sample"  # only roots
        else:
            parent = by_id[sp.parent_id]
            assert parent.trace_id == sp.trace_id
            assert parent.start_us <= sp.start_us
            assert parent.end_us >= sp.end_us


def test_one_trace_per_pipeline_sample():
    tracer, _, _ = _traced_workload(steps=3)
    assert len(tracer.traces()) == 3
    roots = [sp for sp in tracer.spans if sp.parent_id is None]
    assert len(roots) == 3
    # Each expansion hop resolves through the store under its own span.
    for trace_id in tracer.traces():
        names = [sp.name for sp in tracer.trace_spans(trace_id)]
        assert names.count("store.resolve_read") >= 2  # 2-hop expansion
        assert "rpc.execute" in names


def test_rpc_request_spans_carry_routing_attrs():
    tracer, _, _ = _traced_workload()
    reqs = [sp for sp in tracer.spans if sp.name == "rpc.request"]
    assert reqs
    for sp in reqs:
        assert sp.attrs["part"] in (1, 2, 3)  # never the issuer
        assert sp.attrs["kind"] == "neighbors"
        assert sp.attrs["attempt"] >= 1
        assert sp.attrs["latency_us"] > 0


# --------------------------------------------------------------------- #
# Determinism: bit-identical traces at a fixed seed
# --------------------------------------------------------------------- #
def test_same_seed_runs_produce_bit_identical_traces():
    t1, _, _ = _traced_workload(seed=7)
    t2, _, _ = _traced_workload(seed=7)
    j1 = json.dumps(chrome_trace(t1), sort_keys=True)
    j2 = json.dumps(chrome_trace(t2), sort_keys=True)
    assert j1 == j2
    assert t1.spans == t2.spans
    assert t1.ledger_rows == t2.ledger_rows


def test_different_seeds_differ():
    t1, _, _ = _traced_workload(seed=0)
    t2, _, _ = _traced_workload(seed=1)
    assert json.dumps(chrome_trace(t1)) != json.dumps(chrome_trace(t2))


def test_fault_injection_is_visible_and_still_deterministic():
    kwargs = dict(
        faults=FaultPlan(drop_rate=0.2, seed=5),
        retry=RetryPolicy(max_attempts=8),
    )
    t1, _, _ = _traced_workload(seed=5, **kwargs)
    t2, _, _ = _traced_workload(seed=5, **kwargs)
    assert json.dumps(chrome_trace(t1)) == json.dumps(chrome_trace(t2))
    attempts = [sp for sp in t1.spans if sp.name == "rpc.attempt"]
    assert attempts, "20% drop rate must surface failed attempts"
    assert all(sp.attrs["outcome"] in ("drop", "timeout") for sp in attempts)
    retried = [
        sp
        for sp in t1.spans
        if sp.name == "rpc.request" and sp.attrs.get("attempt", 1) > 1
    ]
    assert retried, "some request must have completed on a retry"


# --------------------------------------------------------------------- #
# Ledger <-> trace correlation
# --------------------------------------------------------------------- #
def test_ledger_rows_are_stamped_with_valid_span_ids():
    tracer, _, store = _traced_workload()
    assert tracer.ledger_rows
    by_id = {sp.span_id: sp for sp in tracer.spans}
    for t_us, trace_id, span_id, event, times in tracer.ledger_rows:
        sp = by_id[span_id]
        assert sp.trace_id == trace_id
        assert [t_us, f"ledger:{event}", times] in sp.events
    # Per-event totals in the correlation table match the ledger itself.
    for ev in (EV_LOCAL_READ, EV_CACHE_HIT, EV_REMOTE_RPC):
        stamped = sum(r[4] for r in tracer.ledger_rows if r[3] == ev)
        assert stamped == store.ledger.count(ev)


def test_cache_hits_land_on_resolve_read_spans():
    tracer, _, store = _traced_workload()
    assert store.ledger.count(EV_CACHE_HIT) > 0
    hit_spans = {
        r[2] for r in tracer.ledger_rows if r[3] == EV_CACHE_HIT
    }
    by_id = {sp.span_id: sp for sp in tracer.spans}
    assert hit_spans
    assert all(by_id[s].name == "store.resolve_read" for s in hit_spans)


def test_failover_read_is_stamped_onto_the_trace():
    graph = _graph()
    store = make_store(graph, 4, seed=0)
    tracer = Tracer(seed=0)
    store.attach_runtime(
        RpcRuntime(
            store,
            faults=FaultPlan(drop_rate=1.0, seed=0),
            retry=RetryPolicy(max_attempts=1),
            tracer=tracer,
        )
    )
    v = next(u for u in range(graph.n_vertices) if store.owner(u) != 0)
    row = store.servers[store.owner(v)].local_neighbors(v)
    replica = NeighborCache(4)
    replica.pin(v, row)
    healthy = next(p for p in range(4) if p not in (0, store.owner(v)))
    store.servers[healthy].neighbor_cache = replica
    batch = store.get_neighbors_batch([v], from_part=0)
    assert np.array_equal(batch.indices, row)
    failover_rows = [r for r in tracer.ledger_rows if r[3] == EV_FAILOVER_READ]
    assert len(failover_rows) == store.ledger.count(EV_FAILOVER_READ) == 1
    exhausted = [
        ev
        for sp in tracer.spans
        for ev in sp.events
        if ev[1] == "rpc.retry_exhausted"
    ]
    assert exhausted


# --------------------------------------------------------------------- #
# Disabled tracing is a no-op
# --------------------------------------------------------------------- #
def test_null_tracer_records_nothing():
    assert NULL_TRACER.span("x") is NULL_SPAN
    assert NULL_TRACER.record_span("x", 0.0, 1.0) is None
    with NULL_TRACER.span("x") as sp:
        sp.annotate(a=1)
    assert NULL_TRACER.spans == []
    assert NULL_TRACER.ledger_rows == []


def test_untraced_workload_stays_clean():
    graph = _graph()
    store = make_store(graph, 4, seed=0)
    store.attach_runtime(RpcRuntime(store))
    store.get_neighbors_batch(np.arange(50), from_part=0)
    assert store.runtime.tracer is NULL_TRACER
    assert NULL_TRACER.spans == []
    assert store.ledger.trace_hook is None


def test_disabled_tracer_can_be_passed_explicitly():
    tracer = Tracer(enabled=False)
    graph = _graph()
    store = make_store(graph, 4, seed=0)
    store.attach_runtime(RpcRuntime(store, tracer=tracer))
    store.get_neighbors_batch(np.arange(50), from_part=0)
    assert tracer.spans == []
    assert store.ledger.trace_hook is None


def test_exception_unwinding_closes_dangling_spans():
    tracer = Tracer(clock=VirtualClock(), seed=0)
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            tracer.span("inner")  # opened, never exited
            raise ValueError("boom")
    assert all(sp.end_us is not None for sp in tracer.spans)
    assert tracer._stack == []


def test_spans_past_max_spans_are_counted_not_silently_lost():
    clock = VirtualClock()
    tracer = Tracer(clock=clock, seed=0, max_spans=3)
    ledger = CostAccumulator()
    tracer.bind_ledger(ledger)
    with tracer.span("root"):
        ledger.record("local_read", times=2)
        for _ in range(3):
            with tracer.span("child"):
                clock.advance(1.0)
                ledger.record("remote_rpc")
        tracer.record_span("late", 0.0, 1.0)
        ledger.record("cache_hit", times=4)
    assert len(tracer.spans) == 3
    assert tracer.dropped == 2
    # The correlation table is a view of the stored spans: the third child
    # was dropped, and so was its row; the ledger itself keeps every count.
    stored = {sp.span_id for sp in tracer.spans}
    rows = tracer.ledger_rows
    assert [(r[3], r[4]) for r in rows] == [
        ("local_read", 2), ("cache_hit", 4), ("remote_rpc", 1), ("remote_rpc", 1),
    ]
    assert {r[2] for r in rows} <= stored
    assert ledger.counts == {"local_read": 2, "remote_rpc": 3, "cache_hit": 4}
    payload = chrome_trace(tracer)
    assert payload["otherData"]["dropped_spans"] == 2
    assert payload["otherData"]["n_ledger_rows"] == len(rows) == 4
    assert check_chrome_trace(payload) == []


# --------------------------------------------------------------------- #
# Stage profiler
# --------------------------------------------------------------------- #
def test_stage_profiler_buckets_graphsage_training():
    profiler = StageProfiler()
    model = GraphSAGE(
        dim=8, kmax=2, fanout=3, epochs=1, batch_size=32,
        max_steps_per_epoch=3, seed=0, profiler=profiler,
    )
    model.fit(_graph())
    spans = profiler.tracer.spans
    steps = profiler.step_us()
    assert len(steps) == 3 and all(us > 0.0 for us in steps)
    assert steps == [sp.duration_us for sp in spans if sp.name == "train.step"]
    totals = profiler.stage_totals()
    assert list(totals) == list(TRAIN_STAGES)
    for name in TRAIN_STAGES:
        durations = [sp.duration_us for sp in spans if sp.name == f"train.{name}"]
        assert durations, f"stage {name} never ran"
        assert totals[name] == sum(durations)


def test_stage_profiler_spans_nest_under_steps():
    tracer = Tracer(seed=0)  # wall-clock: training is real computation
    profiler = StageProfiler(tracer=tracer)
    GraphSAGE(
        dim=8, kmax=1, fanout=3, epochs=1, batch_size=32,
        max_steps_per_epoch=2, seed=0, profiler=profiler,
    ).fit(_graph())
    steps = [sp for sp in tracer.spans if sp.name == "train.step"]
    assert len(steps) == 2
    step_ids = {sp.span_id for sp in steps}
    for name in ("train.materialize", "train.aggregate", "train.combine",
                 "train.backward", "train.optimizer"):
        spans = [sp for sp in tracer.spans if sp.name == name]
        assert spans, f"missing {name} spans"
        # Training-loop stage spans nest under a step; the final-embedding
        # forward pass after training runs outside any step (root spans).
        assert any(sp.parent_id in step_ids for sp in spans)
        assert all(
            sp.parent_id in step_ids or sp.parent_id is None for sp in spans
        )


#: The three profiled trainers, each cut to two epochs of three steps.
_TRAINERS = {
    "graphsage-blocks": partial(GraphSAGE, kmax=2, fanout=3, minibatch_blocks=True),
    "gnn-framework": partial(GNNFramework, kmax=2, fanout=3),
    "sign": partial(SIGN, hops=2),
}


@pytest.mark.parametrize("trainer", sorted(_TRAINERS))
def test_a_profiled_fit_equals_an_unprofiled_one_bit_for_bit(trainer):
    make = partial(
        _TRAINERS[trainer], dim=8, epochs=2, batch_size=32, max_steps_per_epoch=3, seed=1
    )
    graph = _graph()
    profiler = StageProfiler()
    plain, profiled = make().fit(graph), make(profiler=profiler).fit(graph)
    assert len(profiler.step_us()) == 6
    assert np.asarray(plain.loss_history).tobytes() == np.asarray(
        profiled.loss_history
    ).tobytes()
    assert plain.embeddings().tobytes() == profiled.embeddings().tobytes()
    assert getattr(plain, "block_stats", None) == getattr(profiled, "block_stats", None)


def test_stage_profiler_with_virtual_clock_is_deterministic():
    clock = VirtualClock()
    profiler = StageProfiler(Tracer(clock=clock))
    with profiler.step():
        with profiler.stage("sample"):
            clock.advance(125.0)
        clock.advance(5.0)
    assert profiler.stage_totals() == {
        name: 125.0 if name == "sample" else 0.0 for name in TRAIN_STAGES
    }
    assert profiler.step_us() == [130.0]


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #
def test_chrome_trace_passes_schema_checks(tmp_path):
    tracer, _, _ = _traced_workload()
    payload = chrome_trace(tracer)
    assert check_chrome_trace(payload) == []
    # Round-trips through JSON on disk.
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload, indent=1))
    loaded = json.loads(path.read_text())
    assert check_chrome_trace(loaded) == []
    assert loaded == json.loads(json.dumps(payload))
    names = {ev["name"] for ev in loaded["traceEvents"] if ev["ph"] == "X"}
    assert "pipeline.sample" in names and "rpc.request" in names
    instants = [ev for ev in loaded["traceEvents"] if ev["ph"] == "i"]
    assert any(ev["name"].startswith("ledger:") for ev in instants)
    # One Perfetto track (tid) per trace.
    tids = {ev["tid"] for ev in loaded["traceEvents"]}
    assert len(tids) == len(tracer.traces())


def test_chrome_trace_args_carry_span_identity():
    tracer, _, _ = _traced_workload()
    payload = chrome_trace(tracer)
    for ev in payload["traceEvents"]:
        if ev["ph"] != "X":
            continue
        assert ev["args"]["trace_id"]
        assert ev["args"]["span_id"]
        assert ev["ts"] >= 0 and ev["dur"] >= 0


def test_prometheus_text_passes_format_checks():
    _, runtime, _ = _traced_workload()
    text = prometheus_text(runtime.metrics)
    assert check_prometheus_text(text) == []
    assert '# TYPE server_served counter' in text
    assert 'server_served{part="1"}' in text
    assert 'pipeline_seeds{edge_type="user"}' in text
    assert "# TYPE rpc_latency_us summary" in text
    assert 'rpc_latency_us{quantile="0.95"}' in text
    assert "rpc_latency_us_sum" in text and "rpc_latency_us_count" in text


def test_prometheus_text_empty_registry():
    text = prometheus_text(MetricsRegistry())
    assert text == "" or check_prometheus_text(text) == []


def test_format_checkers_reject_garbage():
    assert check_prometheus_text("metric value value\n")
    assert check_prometheus_text("")
    assert check_chrome_trace("not json")
    assert check_chrome_trace({"traceEvents": [{"ph": "X"}]})
    assert check_chrome_trace({"no": "events"})
