"""Workload introspection layer: virtual-clock time series, critical-path
analytics, hot-vertex/traffic mining and the bench-compare regression gate.

The acceptance bar for the whole subsystem is bit-identical determinism:
two runs of the same seeded workload must produce equal time-series
dicts, critical-path reports and workload reports (plain ``==`` on the
dictionaries, no tolerance).
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import inspect
import json
import math
import os
import re

import numpy as np
import pytest

from tests.conftest import BENCH_DIR, REPORT_ARGV
from tests.format_checkers import (
    check_chrome_trace,
    check_experiment_payload,
    check_prometheus_text,
)
from repro.bench import (
    Experiment,
    compare_payloads,
    compare_suite,
    flatten_payload,
    load_experiments,
    load_result,
    render_compare,
    results_dir,
    select_experiments,
)
from repro.errors import ReproError
from repro.obs import (
    ROUTES,
    SEGMENTS,
    AccessRecorder,
    TimeSeriesSampler,
    analyze,
    cache_efficacy,
    classify_span,
    critical_path,
    fit_zipf,
    mine_workload,
)
from repro.runtime import (
    MetricsRegistry,
    RpcRuntime,
    Tracer,
    VirtualClock,
    chrome_trace,
    prometheus_text,
)
from repro.runtime.metrics import Histogram
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


def _instrumented_workload(seed=0, steps=3, tick_us=500.0):
    """The canonical 2-hop workload with tracer + recorder + sampler on."""
    from repro.data import make_dataset

    graph = make_dataset("taobao-small-sim", scale=0.1, seed=seed)
    store = make_store(
        graph,
        4,
        cache_policy=ImportanceCachePolicy(),
        cache_budget_fraction=0.1,
        seed=seed,
    )
    tracer = Tracer(seed=seed)
    runtime = RpcRuntime(store, tracer=tracer)
    store.attach_runtime(runtime)
    recorder = runtime.recorder = AccessRecorder()
    sampler = runtime.timeseries = TimeSeriesSampler(
        runtime.metrics, runtime.clock, tick_us=tick_us
    )
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
    sampler.sample_now()
    return tracer, runtime, store, recorder, sampler


# --------------------------------------------------------------------- #
# Acceptance: bit-identical reports across same-seed runs
# --------------------------------------------------------------------- #
class TestDeterminism:
    def test_same_seed_runs_produce_identical_reports(self):
        t1, _, _, r1, s1 = _instrumented_workload(seed=3)
        t2, _, _, r2, s2 = _instrumented_workload(seed=3)
        assert s1.to_csv() == s2.to_csv()
        assert analyze(t1) == analyze(t2)
        assert mine_workload(r1) == mine_workload(r2)
        assert t1.ledger_rows == t2.ledger_rows

    def test_different_seeds_differ(self):
        _, _, _, r1, _ = _instrumented_workload(seed=1)
        _, _, _, r2, _ = _instrumented_workload(seed=2)
        assert mine_workload(r1) != mine_workload(r2)

    def test_reports_are_json_round_trippable(self):
        t, _, _, r, s = _instrumented_workload()
        for payload in (_series(s), analyze(t), mine_workload(r)):
            assert json.loads(json.dumps(payload)) == payload


# --------------------------------------------------------------------- #
# Time series sampler
# --------------------------------------------------------------------- #
def _series(ts: TimeSeriesSampler) -> dict:
    """``{series: [[t_us, value], ...]}``, key-sorted, rows time-ordered."""
    return {key: [[t, v] for t, v in ring] for key, ring in ts._named()}


class TestTimeSeries:
    def test_samples_land_on_tick_boundaries(self):
        clock = VirtualClock()
        metrics = MetricsRegistry()
        counter = metrics.counter("reads")
        ts = TimeSeriesSampler(metrics, clock, tick_us=100.0)
        assert ts.poll() is False  # clock has not crossed a tick yet
        counter.inc(3)
        clock.advance(250.0)
        assert ts.poll() is True
        series = _series(ts)
        # One coalesced sample at floor(250/100)*100, never back-filled.
        assert [t for t, _ in series["reads"]] == [200.0]
        assert series["reads"][0][1] == 3
        # Polling again without clock movement adds nothing.
        assert ts.poll() is False
        assert ts.n_samples == 1

    def test_ring_buffer_evicts_oldest(self):
        clock = VirtualClock()
        metrics = MetricsRegistry()
        g = metrics.gauge("depth")
        ts = TimeSeriesSampler(metrics, clock, tick_us=10.0, capacity=4)
        for i in range(10):
            g.set(float(i))
            clock.advance(10.0)
            ts.poll()
        assert ts.n_samples == 10  # snapshots taken, not retained
        times = [t for t, _ in _series(ts)["depth"]]
        assert times == [70.0, 80.0, 90.0, 100.0]  # oldest six evicted

    def test_histogram_series_expose_count_and_percentiles(self):
        clock = VirtualClock()
        metrics = MetricsRegistry()
        h = metrics.histogram("lat_us")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        ts = TimeSeriesSampler(metrics, clock, tick_us=5.0)
        clock.advance(5.0)
        ts.poll()
        series = _series(ts)
        assert series["lat_us:count"][0][1] == 4
        assert "lat_us:p50" in series and "lat_us:p99" in series

    def test_validation(self):
        clock, metrics = VirtualClock(), MetricsRegistry()
        with pytest.raises(ReproError):
            TimeSeriesSampler(metrics, clock, tick_us=0.0)
        with pytest.raises(ReproError):
            TimeSeriesSampler(metrics, clock, capacity=0)

    def test_csv_and_chrome_counter_exports(self):
        _, _, _, _, ts = _instrumented_workload(steps=2)
        csv_text = ts.to_csv()
        lines = csv_text.splitlines()
        assert lines[0] == "t_us,series,value"
        assert len(lines) > 1
        events = ts.chrome_counter_events()
        assert events and all(ev["ph"] == "C" for ev in events)
        assert check_chrome_trace({"traceEvents": events}) == []


# --------------------------------------------------------------------- #
# Critical-path analytics
# --------------------------------------------------------------------- #
class TestCriticalPath:
    def test_segment_classification(self):
        assert classify_span("pipeline.sample") == "sample"
        assert classify_span("store.resolve_read") == "materialize"
        assert classify_span("batch.plan") == "rpc"
        assert classify_span("rpc.execute") == "queue"
        assert classify_span("rpc.request") == "rpc"
        assert classify_span("train.aggregate") == "aggregate"
        assert classify_span("serve.request") == "sample"
        assert classify_span("mystery.thing") == "other"

    def test_self_time_excludes_children(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock, seed=0)
        with tracer.span("pipeline.sample"):
            clock.advance(100.0)
            with tracer.span("rpc.request"):
                clock.advance(400.0)
            clock.advance(50.0)
        path = critical_path(tracer, tracer.traces()[0])
        by_name = {row["span"]: row for row in path}
        assert by_name["pipeline.sample"]["duration_us"] == 550.0
        assert by_name["pipeline.sample"]["self_us"] == 150.0
        assert by_name["rpc.request"]["self_us"] == 400.0

    def test_analyze_on_real_workload(self):
        tracer, _, _, _, _ = _instrumented_workload()
        report = analyze(tracer)
        assert report["n_traces"] > 0
        assert set(report["segments_total"]) == set(SEGMENTS)
        assert report["latency_us"]["p99"] >= report["latency_us"]["p50"]
        # Self-times are busy time: at least the root's wall latency per
        # trace (concurrent RPC siblings can push the sum above it).
        for tr in report["traces"]:
            assert sum(tr["segments"].values()) >= tr["latency_us"] - 1e-6
        # The tail is a subset of the whole run.
        for seg in SEGMENTS:
            assert (
                report["segments_tail"][seg]
                <= report["segments_total"][seg] + 1e-6
            )
        # Nearest-rank p99 of latency is the tail threshold.
        assert report["tail_threshold_us"] == report["latency_us"]["p99"]

    def test_analyze_empty_tracer(self):
        report = analyze(Tracer(seed=0))
        assert report["n_traces"] == 0
        assert report["latency_us"]["p99"] == 0.0
        assert all(v == 0.0 for v in report["segments_total"].values())


# --------------------------------------------------------------------- #
# Workload mining
# --------------------------------------------------------------------- #
class TestWorkloadMining:
    def test_recorder_routes_and_traffic(self):
        rec = AccessRecorder()
        rec.record(7, owner=1, issuer=0, route="remote")
        rec.record(7, owner=1, issuer=0, route="remote")
        rec.record(3, owner=0, issuer=0, route="local")
        assert rec.vertex_reads[7] == 2
        assert rec.route_reads["remote"] == 2
        assert rec.traffic[(0, 1)] == 2
        assert rec.cross_part_reads[7] == 2  # per-vertex counter
        assert 3 not in rec.cross_part_reads
        assert rec.total_reads == 3

    def test_fit_zipf_recovers_exponent(self):
        rng = make_rng(0)
        from repro.utils.stats import ZipfSampler

        draws = ZipfSampler(500, 1.1).sample(20000, rng)
        counts = np.bincount(draws, minlength=500)
        fit = fit_zipf(counts[counts > 0])
        assert 0.8 <= fit["exponent"] <= 1.4
        assert fit["top1_share"] > 0.01

    def test_fit_zipf_edge_cases(self):
        assert fit_zipf([10])["exponent"] == 0.0
        with pytest.raises(ReproError):
            fit_zipf([])

    def test_mine_workload_report_shape(self):
        _, _, store, rec, _ = _instrumented_workload()
        report = mine_workload(rec, top_k=5)
        assert report["total_reads"] == rec.total_reads
        assert len(report["hot_vertices"]) <= 5
        assert set(report["routes"]) == set(ROUTES)
        shares = [h["share"] for h in report["hot_vertices"]]
        assert shares == sorted(shares, reverse=True)
        n = len(report["parts"])
        assert len(report["traffic_matrix"]) == n
        assert all(len(row) == n for row in report["traffic_matrix"])
        assert 0.0 <= report["local_share"] <= 1.0
        assert report["zipf"]["n_keys"] == report["unique_vertices"]
        assert all(
            set(h) == {"vertex", "reads", "share", "owner", "cross_part"}
            for h in report["hot_vertices"]
        )

    def test_mine_workload_empty(self):
        report = mine_workload(AccessRecorder())
        assert report["total_reads"] == 0
        assert report["hot_vertices"] == []
        assert report["zipf"] is None

    def test_cache_efficacy_oracle_dominates_observed(self):
        _, _, store, rec, _ = _instrumented_workload()
        eff = cache_efficacy(rec, store.cost_model)
        assert eff["cross_part_reads"] == sum(rec.cross_part_reads.values())
        saved = [row["saved_vs_uncached"] for row in eff["oracle"]]
        # More capacity never saves less.
        assert saved == sorted(saved)
        assert eff["observed"]["modelled_us"] <= eff["uncached_us"]


# --------------------------------------------------------------------- #
# Regression gate
# --------------------------------------------------------------------- #
_SPEC = Experiment(
    id="toy",
    run=None,  # the comparison tests below never run it
    check=None,
    exact=(r":p99_us$", r":rps$", r":count$"),
)


def _payload(p99=1000.0, rps=500.0, count=100):
    return {
        "experiment_id": "toy",
        "title": "toy",
        "records": [
            {"label": "lat", "measured": {"p99_us": p99}, "paper": {}},
            {"label": "thru", "measured": {"rps": rps}, "paper": {}},
            {"label": "vol", "measured": {"count": count}, "paper": {}},
        ],
    }


def _gated_experiments() -> "list[Experiment]":
    return [e for e in load_experiments(BENCH_DIR) if e.exact]


def _nudged(value):
    """The smallest changes to a gated value: ±1 on an int, ±1 ulp on a float."""
    if isinstance(value, int):
        return [value + 1, value - 1]
    return [math.nextafter(value, math.inf), math.nextafter(value, -math.inf)]


def _perturbations():
    """One (experiment, committed smoke payload) per gated experiment."""
    smoke_dir = results_dir(BENCH_DIR, smoke=True)
    return [
        pytest.param(e, load_result(smoke_dir, e.id), id=e.id)
        for e in _gated_experiments()
    ]


class TestRegressionGate:
    def test_flatten_payload(self):
        flat = flatten_payload(_payload())
        assert flat == {"lat:p99_us": 1000.0, "thru:rps": 500.0, "vol:count": 100}

    def test_flatten_skips_bools_and_strings(self):
        payload = {
            "experiment_id": "x", "title": "x",
            "records": [
                {"label": "a", "measured": {"ok": True, "note": "hi", "v": 2.0},
                 "paper": {}},
                {"label": "b", "measured": 3.5, "paper": {}},
            ],
        }
        assert flatten_payload(payload) == {"a:v": 2.0, "b": 3.5}

    def test_identical_payloads_pass(self):
        result = compare_payloads(_payload(), _payload(), _SPEC)
        assert result["ok"] is True
        assert result["n_checked"] == 3
        assert result["diffs"] == []

    def test_missing_metric_is_a_failure(self):
        fresh = _payload()
        fresh["records"] = fresh["records"][:2]  # drop the count record
        result = compare_payloads(_payload(), fresh, _SPEC)
        assert result["ok"] is False
        assert result["diffs"] == [("vol:count", 100.0, None)]

    @pytest.mark.parametrize("experiment, baseline", _perturbations())
    def test_any_change_to_a_gated_value_fails(self, experiment, baseline):
        # The committed smoke payload against itself with one gated value
        # nudged by the smallest step its type has, or dropped: each must
        # fail and name that key. No experiment runs.
        assert compare_payloads(baseline, baseline, experiment)["ok"]
        nudged_keys = []
        for i, rec in enumerate(baseline["records"]):
            measured = rec["measured"]
            if not isinstance(measured, dict):
                continue
            for key, value in measured.items():
                flat_key = f"{rec['label']}:{key}"
                if isinstance(value, bool) or not any(
                    re.search(p, flat_key) for p in experiment.exact
                ):
                    continue
                nudged_keys.append(flat_key)
                variants = [
                    {**measured, key: nudged} for nudged in _nudged(value)
                ]
                variants.append({k: v for k, v in measured.items() if k != key})
                for variant in variants:
                    fresh = copy.deepcopy(baseline)
                    fresh["records"][i]["measured"] = variant
                    result = compare_payloads(baseline, fresh, experiment)
                    assert not result["ok"], (flat_key, variant.get(key))
                    assert [d[0] for d in result["diffs"]] == [flat_key]
                    assert flat_key in render_compare(
                        {"ok": False, "results": [result]}
                    )
        gated = compare_payloads(baseline, baseline, experiment)["n_checked"]
        assert len(nudged_keys) == gated > 0

    @pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
    def test_every_exact_pattern_matches_a_committed_key(self, smoke):
        # A renamed column would leave its pattern matching nothing.
        directory = results_dir(BENCH_DIR, smoke=smoke)
        dead = [
            (e.id, pattern)
            for e in _gated_experiments()
            for pattern in e.exact
            if not any(
                re.search(pattern, key)
                for key in flatten_payload(load_result(directory, e.id))
            )
        ]
        assert dead == []

    def test_band_surfaces_are_retired(self):
        # The gate is four functions and a display constant: no rule
        # class, no direction table, no injection hook, no tolerance.
        import repro.bench
        import repro.bench.gate as gate

        own = sorted(
            name
            for name, value in vars(gate).items()
            if getattr(value, "__module__", None) == gate.__name__
            and not name.startswith("_")
        )
        assert own == [
            "compare_payloads", "compare_suite", "flatten_payload", "render_compare",
        ]
        assert [n for n in vars(gate) if n.isupper()] == ["SHOWN_DIFFS"]
        for module in (repro.bench, gate, repro.bench.harness):
            source = inspect.getsource(module)
            assert not {"rel_tol", "abs_tol", "direction"} & set(
                re.findall(r"\w+", source)
            )
        assert set(inspect.signature(compare_suite).parameters) == {
            "experiments", "baseline_dir", "out_dir", "smoke",
        }
        assert [f.name for f in dataclasses.fields(Experiment)] == [
            "id", "run", "check", "exact",
        ]

    def test_end_to_end_single_bench_compare(self, tmp_path):
        # The whole in-process path for the cheapest gated experiment: a
        # fresh smoke run vs the committed smoke baseline must pass clean.
        report = compare_suite(
            select_experiments(load_experiments(BENCH_DIR), ["instrument_overhead"]),
            baseline_dir=results_dir(BENCH_DIR, smoke=True),
            out_dir=str(tmp_path),
            smoke=True,
        )
        assert report["ok"] is True, render_compare(report)
        (res,) = report["results"]
        assert res["n_checked"] >= 3
        assert res["diffs"] == []
        assert (tmp_path / "instrument_overhead.json").exists()

    def test_missing_baseline_fails_suite(self, tmp_path):
        report = compare_suite(
            select_experiments(load_experiments(BENCH_DIR), ["instrument_overhead"]),
            baseline_dir=str(tmp_path / "nowhere"),
            out_dir=str(tmp_path / "out"),
            smoke=True,
        )
        assert report["ok"] is False
        assert "no baseline" in report["results"][0]["error"]

    def test_suite_specs_scripts_and_baselines_line_up(self, monkeypatch):
        # One declaration per committed result: ids unique and one to one
        # with results/*.json; an experiment is gated (has exact patterns) exactly
        # when a results/smoke/<id>.json baseline carries its id; and
        # declaring costs nothing — importing every script builds no dataset.
        import glob
        import sys

        import repro.data

        def stems(directory):
            paths = glob.glob(os.path.join(directory, "*.json"))
            return sorted(os.path.splitext(os.path.basename(p))[0] for p in paths)

        def no_dataset(*args, **kwargs):
            raise AssertionError("a bench script built a dataset at import")

        def loaded_scripts():
            return [name for name in sys.modules if name.startswith("bench_")]

        for name in loaded_scripts():
            monkeypatch.delitem(sys.modules, name)  # restored on teardown
        monkeypatch.setattr(repro.data, "make_dataset", no_dataset)
        try:
            experiments = load_experiments(BENCH_DIR)
        finally:
            for name in loaded_scripts():
                del sys.modules[name]  # the copies bound to ``no_dataset``
        ids = [e.id for e in experiments]
        assert len(set(ids)) == len(ids)
        assert sorted(ids) == stems(results_dir(BENCH_DIR, smoke=False))
        gated = sorted(e.id for e in experiments if e.exact)
        smoke_dir = results_dir(BENCH_DIR, smoke=True)
        assert gated == stems(smoke_dir)
        for stem in gated:
            assert load_result(smoke_dir, stem)["experiment_id"] == stem


# --------------------------------------------------------------------- #
# Exporter edge cases (satellite: empty traces, zero-duration spans,
# degenerate histograms)
# --------------------------------------------------------------------- #
class TestExporterEdgeCases:
    def test_chrome_trace_of_empty_tracer(self):
        payload = chrome_trace(Tracer(seed=0))
        assert payload["traceEvents"] == []
        # The checker flags emptiness but the object is still well-formed.
        assert check_chrome_trace(payload) == ["traceEvents is empty"]

    def test_chrome_trace_zero_duration_span(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock, seed=0)
        with tracer.span("pipeline.sample"):
            pass  # no clock movement: dur == 0
        payload = chrome_trace(tracer)
        assert payload["traceEvents"][0]["dur"] == 0
        assert check_chrome_trace(payload) == []

    def test_histogram_percentiles_empty_and_single(self):
        empty = Histogram("empty")
        assert empty.percentiles([50.0, 95.0, 99.0]) == [0.0, 0.0, 0.0]
        single = Histogram("single")
        single.observe(42.0)
        assert single.percentiles([0.0, 50.0, 100.0]) == [42.0, 42.0, 42.0]

    def test_critical_path_zero_duration_trace(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock, seed=0)
        with tracer.span("pipeline.sample"):
            pass
        report = analyze(tracer)
        assert report["n_traces"] == 1
        assert report["latency_us"]["p99"] == 0.0


# --------------------------------------------------------------------- #
# Prometheus label escaping (exporter + checker round trip)
# --------------------------------------------------------------------- #
class TestPrometheusEscaping:
    def test_exporter_escapes_and_validates(self):
        metrics = MetricsRegistry()
        metrics.counter(
            "weird", labels={"path": 'c:\\tmp\\x', "msg": 'say "hi"\nok'}
        ).inc()
        text = prometheus_text(metrics)
        assert '\\\\tmp\\\\x' in text
        assert '\\"hi\\"' in text
        assert '\\nok' in text
        assert check_prometheus_text(text) == []

    def test_checker_rejects_unescaped_values(self):
        bad_quote = (
            '# TYPE m counter\nm{l="a"b"} 1\n'
        )
        bad_newline = '# TYPE m counter\nm{l="a\nb"} 1\n'
        bad_backslash = '# TYPE m counter\nm{l="a\\b"} 1\n'
        for text in (bad_quote, bad_newline, bad_backslash):
            assert any(
                "unparseable sample line" in p
                for p in check_prometheus_text(text)
            ), text

    def test_checker_accepts_escaped_values(self):
        text = '# TYPE m counter\nm{l="a\\\\b\\"c\\nd"} 1\n'
        assert check_prometheus_text(text) == []


# --------------------------------------------------------------------- #
# Experiment payload checker (CI schema gate)
# --------------------------------------------------------------------- #
class TestExperimentPayloadChecker:
    def test_valid_payload(self):
        assert check_experiment_payload(_payload()) == []

    def test_scalar_and_bool_measured_allowed(self):
        payload = {
            "experiment_id": "x", "title": "t",
            "records": [
                {"label": "a", "measured": 1.5, "paper": "n/a"},
                {"label": "b", "measured": {"deterministic": True}, "paper": {}},
            ],
        }
        assert check_experiment_payload(payload) == []

    def test_rejections(self):
        assert check_experiment_payload("not json {")
        assert check_experiment_payload({"experiment_id": "", "title": "t",
                                         "records": []})
        bad_nested = {
            "experiment_id": "x", "title": "t",
            "records": [
                {"label": "a", "measured": {"deep": {"nested": 1}}, "paper": {}}
            ],
        }
        assert any(
            "flat" in p for p in check_experiment_payload(bad_nested)
        )
        missing_paper = {
            "experiment_id": "x", "title": "t",
            "records": [{"label": "a", "measured": 1}],
        }
        assert any(
            "missing paper" in p for p in check_experiment_payload(missing_paper)
        )

    def test_committed_baselines_validate(self):
        import glob
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                            "results")
        paths = glob.glob(os.path.join(root, "*.json")) + glob.glob(
            os.path.join(root, "smoke", "*.json")
        )
        assert paths, "no committed benchmark results found"
        for path in paths:
            with open(path, encoding="utf-8") as f:
                problems = check_experiment_payload(f.read())
            assert problems == [], f"{path}: {problems}"


# --------------------------------------------------------------------- #
# Observer effect: switching every instrument on changes no simulated number
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "faults",
    [
        ["--drop-rate", "0", "--timeout-rate", "0", "--slow-workers", "0"],
        ["--drop-rate", "0.1", "--timeout-rate", "0", "--slow-workers", "0"],
    ],
    ids=["fault-free", "drop-10pct"],
)
def test_instrumented_run_matches_uninstrumented(faults):
    from repro.cli import _build_parser, _run_sampled_workload

    args = _build_parser().parse_args([*REPORT_ARGV, "--seed", "3", *faults])
    finals = []
    for instrumented in (False, True):
        _, store, runtime, _ = _run_sampled_workload(args, instrumented)
        assert (runtime.recorder is not None) == instrumented
        assert (runtime.timeseries is not None) == instrumented
        assert runtime.tracer.enabled == instrumented
        finals.append(
            (
                dict(store.ledger.counts),
                runtime.clock.now_us,
                [
                    row
                    for row in runtime.metrics.summary_rows()
                    if row[0].startswith(("rpc.", "pipeline."))
                ],
            )
        )
    assert finals[0][0]["remote_rpc"] > 0 and finals[0][2]
    assert finals[0] == finals[1]


# --------------------------------------------------------------------- #
# CLI surface: `repro report` (one run, shared via the conftest fixtures)
# --------------------------------------------------------------------- #
def _text_rows(text: str) -> "list[tuple[str, dict[str, str]]]":
    """``(label, {column: cell})`` per row of every table ``repro report`` prints."""
    rows = []
    for block in text.split("\n\n"):
        header, *lines = block.splitlines()
        if not header.startswith("label "):
            continue
        del lines[0]  # the rule under the header
        columns = [h.strip() for h in header.split(" | ")[1:]]
        for line in lines:
            label, *cells = line.split(" | ")
            rows.append((label.rstrip(), dict(zip(columns, (c.strip() for c in cells)))))
    return rows


class TestCli:
    @staticmethod
    def _measured(payload, label):
        (rec,) = [r for r in payload["records"] if r["label"] == label]
        return rec["measured"]

    def test_workload_report_text(self, report_text):
        labels = [label for label, _ in _text_rows(report_text)]
        assert "reads" in labels and "routes" in labels
        assert any(label.startswith("hot vertex ") for label in labels)
        assert "traffic from part 0" in labels
        assert "cache observed" in labels and "cache oracle k=16" in labels

    def test_text_renders_every_payload_record(self, report_run, report_text):
        """Text and ``--json`` are two encodings of one report: the same
        records in the same order, each cell the payload value formatted."""
        payload, _ = report_run

        def cell(value):
            return f"{value:.4g}" if isinstance(value, float) else str(value)

        assert _text_rows(report_text) == [
            (r["label"], {key: cell(v) for key, v in r["measured"].items()})
            for r in payload["records"]
        ]
        # The clock legend closes the text, line breaks kept.
        assert "nothing is\nwall-clock" in report_text

    def test_payload_carries_every_table_the_text_shows(self, report_run):
        payload, _ = report_run
        labels = [r["label"] for r in payload["records"]]
        measured = functools.partial(self._measured, payload)
        # Hot vertices and the traffic matrix (REPORT_ARGV: 3 workers).
        hot = [measured(label) for label in labels if label.startswith("hot vertex ")]
        assert 0 < len(hot) <= 10
        assert [h["reads"] for h in hot] == sorted((h["reads"] for h in hot), reverse=True)
        traffic = [measured(f"traffic from part {p}") for p in range(3)]
        assert list(traffic[0]) == [f"to part {p}" for p in range(3)]
        reads = measured("reads")["total_reads"]
        assert sum(sum(row.values()) for row in traffic) == reads
        cross = measured("cache cross-partition")
        assert cross["cross_part_reads"] == reads - measured("routes")["local"]
        # The p99 tail: its count, threshold and per-segment time.
        tail = measured("critical-path tail")
        assert tail["n_tail"] >= 1
        assert tail["tail_threshold_us"] == measured("trace latency")["p99"]
        total = measured("critical-path segments")
        tail_segments = measured("critical-path tail segments")
        assert list(tail_segments) == list(SEGMENTS)
        assert all(tail_segments[seg] <= total[seg] for seg in SEGMENTS)
        # The slowest traces, slowest first (two steps: two traces).
        slow = [measured(label) for label in labels if label.startswith("slow trace ")]
        assert len(slow) == 2 and slow[0]["latency_us"] == tail["tail_threshold_us"]
        assert slow[0]["latency_us"] >= slow[1]["latency_us"]
        # The ledger priced per event, heaviest first, and its total.
        ledger = measured("ledger")
        rows = [label for label in labels if label.startswith("ledger ")]
        assert rows[0] == "ledger remote_rpc" and rows[-1] == "ledger total"
        priced = [measured(f"ledger {ev}") for ev in ledger]
        assert [row["count"] for row in priced] == list(ledger.values())
        modelled = [row["modelled_us"] for row in priced]
        assert math.isclose(sum(modelled), measured("clock")["ledger_modelled_us"])
        assert measured("ledger total")["count"] == sum(ledger.values())

    def test_span_tree_rows_show_the_read_path(self, report_run):
        """The first trace's span tree: one row per span, the label its name
        indented two spaces per level, ledger events counted per span."""
        payload, _ = report_run
        records = payload["records"]
        start = 1 + [r["label"] for r in records].index("trace volume")
        tree = []
        for rec in records[start:]:
            if set(rec["measured"]) != {"start_us", "duration_us", "ledger_events", "attrs"}:
                break
            tree.append(rec)
        depth = {
            r["label"].strip(): (len(r["label"]) - len(r["label"].lstrip())) // 2
            for r in tree
        }
        assert depth["pipeline.sample"] == 0 and tree[0]["label"] == "pipeline.sample"
        assert depth["pipeline.neighborhood"] == 1
        assert depth["store.resolve_read"] == 2 and depth["rpc.execute"] == 3
        assert depth["rpc.request"] == 4
        assert "batch_size=64" in tree[0]["measured"]["attrs"]
        ledger_events = sum(r["measured"]["ledger_events"] for r in tree)
        assert 0 < ledger_events < self._measured(payload, "trace volume")["ledger_rows"]

    def test_workload_report_json(self, report_run):
        payload, _ = report_run
        assert check_experiment_payload(payload) == []
        assert payload["experiment_id"] == "cli_report"
        reads = self._measured(payload, "reads")
        routes = self._measured(payload, "routes")
        assert reads["total_reads"] == sum(routes.values()) > 0
        assert set(routes) == set(ROUTES)
        assert self._measured(payload, "zipf")["n_keys"] == reads["unique_vertices"]
        assert 0.0 <= self._measured(payload, "cache observed")["hit_rate"] <= 1.0
        assert self._measured(payload, "workload")["seed"] == 0

    def test_timeseries_csv_and_chrome(self, report_run):
        payload, out_dir = report_run
        csv_text = (out_dir / "series.csv").read_text(encoding="utf-8")
        assert csv_text.startswith("t_us,series,value\n")
        series = self._measured(payload, "time series")
        assert series["snapshots"] > 0 and series["series"] > 0
        assert check_chrome_trace((out_dir / "trace.json").read_text()) == []

    def test_trace_json(self, report_run):
        payload, _ = report_run
        volume = self._measured(payload, "trace volume")
        assert volume["traces"] == 2 and volume["dropped_spans"] == 0
        assert volume["spans"] > 0 and volume["ledger_rows"] > 0
        latency = self._measured(payload, "trace latency")
        assert latency["p99"] >= latency["p50"] > 0
        assert set(self._measured(payload, "critical-path segments")) == set(SEGMENTS)

    def test_metrics_report_json(self, report_run):
        payload, _ = report_run
        completed = self._measured(payload, "rpc.completed")
        assert completed["type"] == "counter"
        # Every remote batch the ledger paid for completed on the runtime.
        assert completed["count"] == self._measured(payload, "ledger")["remote_rpc"]
        latency = self._measured(payload, "rpc.latency_us")
        assert latency["type"] == "histogram" and latency["p99"] >= latency["p50"]
        assert self._measured(payload, "clock")["virtual_clock_us"] > 0
