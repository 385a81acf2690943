"""Tracing overhead — the disabled path must cost (almost) nothing.

The tentpole claim of the observability layer: instrumented hot paths pay
only a null-object check when tracing is off. The canonical 2-hop
GraphSAGE-style sampling workload (fan-outs 10x5) runs three ways:

* ``baseline``  — stock stack, no tracer argument (the ``NULL_TRACER``
  default inside :class:`RpcRuntime`);
* ``disabled``  — an explicit ``Tracer(enabled=False)`` threaded through
  pipeline, store and runtime (every call site active, all no-ops);
* ``enabled``   — full tracing with ledger correlation.

Wall-clock is min-of-repeats (the standard noise filter) and reported,
not asserted: on a ~15 ms workload the disabled arm reads anywhere between
-26% and +50% of baseline run to run. The volume row (spans, ledger rows,
traces) is virtual-clock deterministic; it is checked and gated. All three
runs share one process, so each builds a fresh store/registry and resets
shared state — the leak the ``MetricsRegistry.reset()`` satellite closed.
"""

from __future__ import annotations

import time

from repro.bench import Experiment, ExperimentReport, MetricRule
from repro.data import make_dataset
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
STEPS = 8
BATCH_SIZE = 64
SEED = 7
REPEATS = 5
SMOKE_STEPS = 3
SMOKE_REPEATS = 2


def _run_workload(graph, tracer: "Tracer | None", steps: int) -> "RpcRuntime":
    store = make_store(
        graph,
        N_WORKERS,
        cache_policy=ImportanceCachePolicy(),
        cache_budget_fraction=0.1,
        seed=SEED,
    )
    runtime = RpcRuntime(store, tracer=tracer)
    store.attach_runtime(runtime)
    pipeline = SamplingPipeline(
        traverse=VertexTraverseSampler(graph, vertex_type="user"),
        neighborhood=UniformNeighborSampler(StoreProvider(store, from_part=0)),
        negative=DegreeBiasedNegativeSampler(graph),
        hop_nums=HOP_NUMS,
        neg_num=5,
        metrics=runtime.metrics,
        tracer=tracer,
    )
    rng = make_rng(SEED)
    for _ in range(steps):
        pipeline.sample(BATCH_SIZE, rng)
    return runtime


def _time_config(graph, make_tracer, steps: int, repeats: int) -> float:
    """Min-of-repeats wall-clock seconds for one tracer configuration."""
    best = float("inf")
    for _ in range(repeats):
        tracer = make_tracer()
        t0 = time.perf_counter()
        runtime = _run_workload(graph, tracer, steps)
        best = min(best, time.perf_counter() - t0)
        # Shared-process hygiene: registries don't leak between runs.
        runtime.metrics.reset()
    return best


def _run(smoke: bool) -> ExperimentReport:
    steps = SMOKE_STEPS if smoke else STEPS
    repeats = SMOKE_REPEATS if smoke else REPEATS
    # One graph for every run: dataset synthesis is not the thing under test.
    graph = make_dataset("taobao-small-sim", scale=0.3, seed=0)
    report = ExperimentReport(
        "trace_overhead",
        f"Tracing overhead on the 2-hop sampling workload (min of "
        f"{repeats} repeats)",
    )
    # Warm up caches/imports so the first timed config isn't penalized.
    _run_workload(graph, None, steps)

    base_s = _time_config(graph, lambda: None, steps, repeats)
    disabled_s = _time_config(
        graph, lambda: Tracer(enabled=False, seed=SEED), steps, repeats
    )
    enabled_s = _time_config(graph, lambda: Tracer(seed=SEED), steps, repeats)

    def row(seconds: float) -> dict:
        return {
            "wall_ms": round(seconds * 1e3, 2),
            "vs_baseline": f"{(seconds / base_s - 1.0) * 100.0:+.2f}%",
        }

    report.add("baseline (no tracer)", row(base_s))
    report.add("tracer disabled", row(disabled_s))
    report.add("tracer enabled", row(enabled_s))

    enabled_tracer = Tracer(seed=SEED)
    runtime = _run_workload(graph, enabled_tracer, steps)
    report.add(
        "enabled trace volume",
        {
            "spans": len(enabled_tracer.spans),
            "ledger_rows": len(enabled_tracer.ledger_rows),
            "traces": len(enabled_tracer.traces()),
        },
    )
    runtime.metrics.reset()
    report.note(
        f"{steps} pipeline batches of {BATCH_SIZE} seeds, fan-outs "
        f"{HOP_NUMS}, {N_WORKERS} workers; the vs_baseline column is "
        f"wall-clock, reported and not asserted"
    )
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    by_label = {r.label: r.measured for r in report.records}
    volume = by_label["enabled trace volume"]
    assert volume["spans"] > 0 and volume["ledger_rows"] > 0


EXPERIMENTS = (
    Experiment(
        "trace_overhead",
        _run,
        _check,
        (
            MetricRule(
                r":(spans|ledger_rows|traces)$",
                rel_tol=0.05,
                direction="both",
                abs_tol=2.0,
            ),
        ),
    ),
)
