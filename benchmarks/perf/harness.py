"""The noise protocol, the metric names and one workload's measurement.

Wall-clock on a small shared VM drifts by tens of percent between
back-to-back runs of identical code, so no raw second is ever an
end-to-end metric. A measured phase is a series of identical *rounds*;
each round rebuilds its fixtures outside the timed region, is bracketed by
a fixed :func:`calibrate` kernel, and contributes one ratio
``round_wall / mean(calib_before, calib_after)``. The reported host cost is
the median of those ratios: slow drift hits both sides of a ratio and
cancels (the paired-ratio protocol of ``benchmarks/bench_obs_overhead.py``,
applied workload-vs-calibration instead of config-vs-config).

The traced pass (``trace=True``) repeats the round with span recorders
attached from outside (:mod:`spans`) and once under ``cProfile``; it yields
the per-layer metrics and never feeds an end-to-end number.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import spans
from workloads import WORKLOADS

#: Fewest rounds a measured phase may have, however short ``--seconds`` is.
MIN_ROUNDS = 11
#: ``prepare`` (dataset generation) runs 3 times, and up to 7 times while it
#: has run for under 0.6 s in all: a cheap one is timed against calibrations
#: as short as itself and needs the larger sample. ``setup_s`` takes the median.
PREPARE_REPEATS = (3, 7)
PREPARE_SECONDS = 0.6
#: Rounds of each kind in the traced pass.
TRACE_ROUNDS = 3
#: Span self times must add up to the root span within this share.
CONSERVATION_TOLERANCE = 0.01
#: ``setup_s`` is calibration units times this: seconds on a machine on
#: which the calibration kernel takes 0.1 s. Raw set-up seconds follow the
#: VM's speed of the minute (+-30 %) and would reject later PRs at random.
CALIBRATION_REFERENCE_S = 0.1


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Virtual-clock / ledger / seeded arithmetic: bit-equal for one seed.
    exact: bool = False
    #: Workloads the metric is defined on (``None`` = all five).
    workloads: "tuple[str, ...] | None" = None


_SERVE = ("serve_mixed",)

#: Defined and never zero on every workload: what ``BENCHMARK.json`` gates.
END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("host_cost_cu", "cu", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
    Metric("modelled_us_per_unit", "us", "lower", exact=True),
)

#: End-to-end numbers that exist on one workload only (or are zero when the
#: system is healthy). The driver's contract wants every gated metric from
#: every workload, so these ride in the per-layer list; ``agree.py`` still
#: holds the exact ones to bit-equality.
GUARDS = (
    Metric("failed_frac", "ratio", "lower", exact=True),
    Metric("final_loss", "nats", "lower", exact=True, workloads=("train_gnn",)),
    Metric("cached_p50_us", "us", "lower", exact=True, workloads=_SERVE),
    Metric("cached_p99_us", "us", "lower", exact=True, workloads=_SERVE),
    Metric("fresh_p50_us", "us", "lower", exact=True, workloads=_SERVE),
    Metric("fresh_p95_us", "us", "lower", exact=True, workloads=_SERVE),
    Metric("goodput_frac", "ratio", "higher", exact=True, workloads=_SERVE),
    Metric("max_rate_rps", "req/s", "higher", exact=True, workloads=_SERVE),
)

SPAN_LAYERS = (
    "graph", "storage.partition", "storage.cache", "storage.cluster", "runtime.rpc",
    "sampling.pipeline", "sampling.traverse", "sampling.neighborhood", "sampling.negative",
    "serving.engine", "serving.admission", "serving.loadgen", "harness",
)
TRAIN_STAGES = ("sample", "materialize", "aggregate", "combine", "backward", "optimizer")
_EXACT_COUNTS = (
    "ledger.remote_rpc", "ledger.local_read", "ledger.cache_hit", "ledger.cache_fill",
    "ledger.item_shipped", "ledger.replica_refresh", "ledger.edge_ingested",
    "runtime.rpc.requests", "runtime.rpc.retries", "serving.admission.shed",
    "serving.admission.expired", "serving.late", "train.block_input_rows",
    "train.block_total_rows",
)
_EXACT_RATIOS = (
    ("runtime.rpc.batch_size_mean", "count", "higher"),
    ("storage.cache.hit_rate", "ratio", "higher"),
    ("serving.embed_cache.hit_rate", "ratio", "higher"),
)

LAYERS = (
    tuple(Metric(f"{layer}.self_s", "s", "lower") for layer in SPAN_LAYERS)
    + tuple(Metric(f"train.{stage}_s", "s", "lower") for stage in TRAIN_STAGES)
    + (Metric("train.unattributed_s", "s", "lower"),)
    + tuple(Metric(name, "count", "lower", exact=True) for name in _EXACT_COUNTS)
    + tuple(Metric(name, unit, better, exact=True) for name, unit, better in _EXACT_RATIOS)
    + (Metric("py_calls.total", "count", "lower", exact=True),)
    + tuple(
        Metric(f"py_calls.{bucket}", "count", "lower", exact=True)
        for bucket in spans.PY_CALL_BUCKETS
    )
    + (
        Metric("trace.overhead_x", "x", "lower"),
        Metric("trace.targets_missing", "count", "lower", exact=True),
        Metric("wall_s", "s", "lower"),
        Metric("units_per_s", "1/s", "higher"),
        Metric("calib_s", "s", "lower"),
    )
)
PER_LAYER = GUARDS + LAYERS

# The calibration kernel's inputs are constants of the harness, never of
# --seed: it must do the same work in every run on every commit.
_CAL_RNG = np.random.default_rng(20190800)
_CAL_INTS = [_CAL_RNG.integers(0, 4096, size=2048) for _ in range(140)]
_CAL_A = _CAL_RNG.random((96, 96))
_CAL_B = _CAL_RNG.random((96, 96))


def calibration_work() -> int:
    """~0.1 s of the three things the system's rounds are made of.

    A Python dict/loop section, ``np.unique`` over small integer arrays and
    a small matmul, in the proportion that tracked the workloads' drift best
    when the protocol was sized (see README, noise protocol).
    """
    table: "dict[int, int]" = {}
    acc = 0
    for i in range(250_000):
        table[i & 2047] = acc
        acc += table.get((i >> 1) & 2047, 0) & 7
    for ints in _CAL_INTS:
        acc += int(np.unique(ints).size)
    for _ in range(500):
        acc += int((_CAL_A @ _CAL_B)[0, 0])
    return acc


def calibrate() -> float:
    """Seconds the calibration kernel takes right now."""
    start = time.perf_counter()
    calibration_work()
    return time.perf_counter() - start


@dataclass
class Round:
    setup_s: float
    wall_s: float
    calib_s: float
    outcome: object
    spans: "list[list] | None" = None
    targets_missing: int = 0

    @property
    def cost_cu(self) -> float:
        return self.wall_s / self.calib_s


def run_round(workload, trace: bool = False, profile=None) -> Round:
    """One round: untimed fixtures, calibrate, timed region, calibrate, checks."""
    rec = spans.SpanRecorder() if trace else None
    start = time.perf_counter()
    ctx = workload.build(rec)
    setup_s = time.perf_counter() - start
    # GC debt of the fixtures is collected here; inside the timed region
    # the collector stays on, because users pay for it.
    gc.collect()
    calib_before = calibrate()
    if profile is not None:
        profile.enable()
    start = time.perf_counter()
    if rec is not None:
        with rec.span("round", "harness"):
            out = workload.run(ctx)
    else:
        out = workload.run(ctx)
    wall_s = time.perf_counter() - start
    if profile is not None:
        profile.disable()
    calib_after = calibrate()
    outcome = workload.check(ctx, out)
    rnd = Round(setup_s, wall_s, (calib_before + calib_after) / 2.0, outcome)
    if rec is not None:
        rec.unwrap_all()
        rnd.spans, rnd.targets_missing = rec.spans, rec.targets_missing
    return rnd


def _median(values) -> float:
    return float(statistics.median(values))


class Measurement:
    """One workload, one seed: rounds, checks and the metrics they yield."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]()
        self.seed = seed
        self.problems: "list[str]" = []
        self.attempted = 0
        self.failed = 0
        self.samples: "dict | None" = None
        self.diagnostics: dict = {}
        self._reference: "dict | None" = None
        fewest, most = PREPARE_REPEATS
        calib_s = [calibrate()]
        prepare_s: "list[float]" = []
        while len(prepare_s) < fewest or (
            len(prepare_s) < most and sum(prepare_s) < PREPARE_SECONDS
        ):
            start = time.perf_counter()
            self.workload.prepare(seed)
            prepare_s.append(time.perf_counter() - start)
            calib_s.append(calibrate())
        self.prepare_cu = _median(
            2.0 * p / (before + after) for p, before, after in zip(prepare_s, calib_s, calib_s[1:])
        )

    def _account(self, rnd: Round) -> Round:
        outcome = rnd.outcome
        self.attempted += outcome.units
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        if self._reference is None:
            self._reference = outcome.counters
        elif outcome.counters != self._reference:
            # Identical rounds on seeded inputs: any drift is a bug in the
            # program (or hidden state leaking between rounds).
            self.problems.append("deterministic counters differ between rounds")
            self.failed += outcome.units - outcome.failed
        return rnd

    def rounds(self, seconds: float, at_least: int, trace: bool = False) -> "list[Round]":
        """Measure for ``seconds`` (fixtures and checks included), ``at_least`` rounds."""
        done: "list[Round]" = []
        start = time.perf_counter()
        while len(done) < at_least or time.perf_counter() - start < seconds:
            done.append(self._account(run_round(self.workload, trace)))
        return done

    def exact(self, last: Round, sweep: bool) -> dict:
        """The exact end-to-end numbers, including run-once measurements."""
        exact = dict(last.outcome.exact)
        run_once = getattr(self.workload, "exact_metrics", None)
        if run_once is not None:
            exact.update(run_once(sweep))
        self.samples = exact.pop("samples", None)
        exact["failed_frac"] = self.failed / self.attempted
        return exact

    # ------------------------------------------------------------------ #
    def end_to_end(self, seconds: float) -> dict:
        """The untraced pass: every metric ``BENCHMARK.json`` gates."""
        run_round(self.workload)  # warm-up, discarded: caches fill, lazy imports finish
        measured = self.rounds(seconds, MIN_ROUNDS)
        setup_cu = self.prepare_cu + _median(r.setup_s / r.calib_s for r in measured)
        metrics = {
            "setup_s": setup_cu * CALIBRATION_REFERENCE_S,
            "host_cost_cu": _median(r.cost_cu for r in measured),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics.update(self.exact(measured[-1], sweep=False))
        self.diagnostics = {
            "rounds": len(measured),
            "wall_s": [r.wall_s for r in measured],
            "calib_s": [r.calib_s for r in measured],
            "setup_s": [r.setup_s for r in measured],
            "prepare_cu": self.prepare_cu,
        }
        return metrics

    def per_layer(self, out_dir: str) -> dict:
        """The traced pass: plain rounds, one profiled round, traced rounds."""
        workload = self.workload
        run_round(workload)
        plain = self.rounds(0.0, TRACE_ROUNDS)
        profile = cProfile.Profile()
        self._account(run_round(workload, profile=profile))
        traced = self.rounds(0.0, TRACE_ROUNDS, trace=True)

        last = traced[-1]
        metrics = {m.name: 0.0 for m in PER_LAYER}
        metrics.update(self.exact(last, sweep=True))
        metrics.update(last.outcome.layer_counts)
        for name, calls in spans.py_calls(profile).items():
            metrics[f"py_calls.{name}"] = calls
        self_s = [spans.layer_self_times(r.spans) for r in traced]
        for layer in SPAN_LAYERS:
            metrics[f"{layer}.self_s"] = _median(s.get(layer, 0.0) for s in self_s)
        gaps = [spans.conservation_gap(r.spans) for r in traced]
        if max(gaps) > CONSERVATION_TOLERANCE:
            self.problems.append(f"span self times miss the root span by {max(gaps):.2%}")
        if last.outcome.stage_s:
            for stage in TRAIN_STAGES:
                metrics[f"train.{stage}_s"] = _median(
                    r.outcome.stage_s.get(stage, 0.0) for r in traced
                )
            metrics["train.unattributed_s"] = _median(
                r.wall_s - sum(r.outcome.stage_s.values()) for r in traced
            )
        wall_s = _median(r.wall_s for r in plain)
        metrics["trace.overhead_x"] = _median(r.cost_cu for r in traced) / _median(
            r.cost_cu for r in plain
        )
        metrics["trace.targets_missing"] = last.targets_missing
        metrics["wall_s"] = wall_s
        metrics["units_per_s"] = last.outcome.units / wall_s
        metrics["calib_s"] = _median(r.calib_s for r in plain)
        trace_path = os.path.join(out_dir, f"{workload.name}.seed{self.seed}.trace.json")
        spans.write_chrome_trace(trace_path, last.spans)
        self.diagnostics = {"conservation_gap": max(gaps), "chrome_trace": trace_path}
        return metrics


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Measure one workload; returns the full record (also written to ``out_dir``)."""
    os.makedirs(out_dir, exist_ok=True)
    measurement = Measurement(name, seed)
    metrics = measurement.per_layer(out_dir) if trace else measurement.end_to_end(seconds)
    record = {
        "workload": name,
        "unit": measurement.workload.unit,
        "seed": seed,
        "trace": int(trace),
        "correct": not measurement.problems and measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "problems": measurement.problems[:20],
        "metrics": metrics,
        "samples": measurement.samples,
        "diagnostics": measurement.diagnostics,
    }
    path = os.path.join(out_dir, f"{name}.seed{seed}.trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    return record


def contract_line(record: dict) -> str:
    """The driver's result object: exactly the metrics of the pass that ran."""
    wanted = PER_LAYER if record["trace"] else END_TO_END
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                m.name: {"value": record["metrics"][m.name], "unit": m.unit} for m in wanted
            },
        }
    )
