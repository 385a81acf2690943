"""Instrumentation overhead — what the tracer and the obs hooks cost, off and on.

Off, an instrumented call site pays one null-object call (tracer) or one
``is not None`` check (``runtime.recorder`` / ``runtime.timeseries``). The
canonical 2-hop sampling workload (fan-outs 10x5, 64-seed batches, four
workers, importance cache at 10 %) is built once per arm: ``baseline``
(no tracer argument, hooks untouched), ``tracer off`` / ``tracer on``
(``Tracer(enabled=False)`` / ``Tracer()`` threaded through pipeline,
store and runtime), ``obs off`` (both hooks assigned ``None``) and
``obs on`` (an AccessRecorder and a 500 us-tick TimeSeriesSampler).

The claims are counts of calls made in ``repro``'s files while the
sampling loop runs: obs off makes exactly the baseline's, tracer off at
most one more per span the enabled tracer records. Absolute counts carry
no rule (they move with the interpreter: 3.12 inlines comprehensions); the
deterministic volume columns are gated. The wall-clock of each arm's
sampling loop alone is reported and not asserted.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np

import repro
from repro.bench import Experiment, ExperimentReport
from repro.bench.timing import python_calls, time_arms
from repro.data import make_dataset
from repro.obs import AccessRecorder, TimeSeriesSampler
from repro.runtime import RpcRuntime, Tracer
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    SamplingPipeline,
    StoreProvider,
    UniformNeighborSampler,
    VertexTraverseSampler,
)
from repro.storage import ImportanceCachePolicy
from repro.storage.cluster import make_store
from repro.utils.rng import make_rng

N_WORKERS = 4
HOP_NUMS = [10, 5]
BATCH_SIZE = 64
SEED = 7
TICK_US = 500.0
STEPS, SMOKE_STEPS = 8, 3
ROUNDS, SMOKE_ROUNDS = 15, 3
ARMS = ("baseline", "tracer off", "tracer on", "obs off", "obs on")
REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def _build(graph, arm: str) -> "tuple[SamplingPipeline, RpcRuntime]":
    """The 2-hop stack carrying ``arm``'s instruments."""
    tracer = {
        "tracer off": Tracer(enabled=False, seed=SEED),
        "tracer on": Tracer(seed=SEED),
    }.get(arm)
    store = make_store(
        graph, N_WORKERS, cache_policy=ImportanceCachePolicy(), cache_budget_fraction=0.1, seed=SEED
    )
    runtime = RpcRuntime(store, tracer=tracer)
    store.attach_runtime(runtime)
    if arm == "obs off":
        runtime.recorder = runtime.timeseries = None
    elif arm == "obs on":
        runtime.recorder = AccessRecorder(graph.n_vertices, N_WORKERS)
        runtime.timeseries = TimeSeriesSampler(
            runtime.metrics, runtime.clock, tick_us=TICK_US
        )
    pipeline = SamplingPipeline(
        traverse=VertexTraverseSampler(graph, vertex_type="user"),
        neighborhood=UniformNeighborSampler(StoreProvider(store, from_part=0)),
        negative=DegreeBiasedNegativeSampler(graph),
        hop_nums=HOP_NUMS,
        neg_num=5,
        metrics=runtime.metrics,
        tracer=tracer,
    )
    return pipeline, runtime


def _sample(pipeline: SamplingPipeline, steps: int) -> None:
    rng = make_rng(SEED)
    for _ in range(steps):
        pipeline.sample(BATCH_SIZE, rng)


def _run(smoke: bool) -> ExperimentReport:
    steps = SMOKE_STEPS if smoke else STEPS
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    # One graph for every arm: dataset synthesis is not the thing under test.
    graph = make_dataset("taobao-small-sim", scale=0.3, seed=0)
    report = ExperimentReport(
        "instrument_overhead",
        f"Instrumentation overhead on the 2-hop sampling workload ({steps} "
        f"batches of {BATCH_SIZE} seeds; wall_ms over {rounds} interleaved rounds)",
    )
    # Lazy imports and module tables load here, outside every count.
    _sample(_build(graph, "baseline")[0], steps)
    built = {arm: _build(graph, arm) for arm in ARMS}
    loops = {arm: partial(_sample, pipeline, steps) for arm, (pipeline, _) in built.items()}
    calls = {arm: python_calls(loop, under=REPRO_DIR) for arm, loop in loops.items()}

    tracer = built["tracer on"][1].tracer
    obs = built["obs on"][1]
    obs.timeseries.sample_now()
    volume = {
        "tracer on": {
            "spans": len(tracer.spans),
            "ledger_rows": len(tracer.ledger_rows),
            "traces": len(tracer.traces()),
        },
        "obs on": {
            "reads_recorded": obs.recorder.total_reads,
            "unique_vertices": int(np.count_nonzero(obs.recorder.vertex_reads)),
            "ts_samples": obs.timeseries.n_samples,
            "series": len(obs.timeseries.series),
        },
    }
    timings = time_arms(loops, rounds)
    for arm in ARMS:
        report.add(
            arm,
            {
                "py_calls_per_batch": round(calls[arm] / steps, 2),
                **timings[arm].columns("wall_ms"),
                **volume.get(arm, {}),
            },
        )
    report.note(
        f"fan-outs {HOP_NUMS}, {N_WORKERS} workers; py_calls_per_batch: calls made in repro's "
        "files, asserted relative to baseline; wall_ms: the sampling loop alone, not asserted"
    )
    report.meta = {"calls": calls, "spans": volume["tracer on"]["spans"]}
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    calls, spans = report.meta["calls"], report.meta["spans"]
    assert calls["obs off"] == calls["baseline"], calls
    assert calls["tracer off"] - calls["baseline"] <= spans, (calls, spans)
    rows = {r.label: r.measured for r in report.records}
    assert spans > 0 and rows["tracer on"]["ledger_rows"] > 0
    assert rows["obs on"]["reads_recorded"] > 0 and rows["obs on"]["ts_samples"] > 0


EXPERIMENTS = (
    Experiment(
        "instrument_overhead",
        _run,
        _check,
        # py_calls_per_batch is exact on one interpreter but not across
        # the two CI runs: Python 3.12 inlines comprehensions, 3.10 calls
        # them, so it is left ungated.
        (
            r":(spans|ledger_rows|traces|reads_recorded|ts_samples|series"
            r"|unique_vertices)$",
        ),
    ),
)
