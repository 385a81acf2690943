"""Tests of the harness itself (``pytest benchmarks/perf``; not tier-1).

They cover what a wrong benchmark would silently get wrong: the self-time
arithmetic, conservation, wrappers surviving a refactor of their target,
the naming contract of ``BENCHMARK.json``, seeds reaching the inputs, and
the calibration kernel doing fixed work.
"""

from __future__ import annotations

import cProfile
import json
import os
import re

import pytest

import run  # first: puts src/ on sys.path for the imports below
import harness
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 5] > b [2, 3];  root > c [6, 9]
    recorded = [
        ["root", "harness", 0.0, 10.0, -1],
        ["a", "x", 1.0, 5.0, 0],
        ["b", "y", 2.0, 3.0, 1],
        ["c", "x", 6.0, 9.0, 0],
    ]
    assert spans.self_times(recorded) == [3.0, 3.0, 1.0, 3.0]
    assert spans.layer_self_times(recorded) == {"harness": 3.0, "x": 6.0, "y": 1.0}
    assert spans.conservation_gap(recorded) == 0.0


def test_self_time_of_overlapping_children():
    # Children [1, 4] and [3, 6] overlap: they cover 5 of the parent's 10,
    # not 6; a child sticking out of its parent is clipped to it.
    recorded = [
        ["root", "harness", 0.0, 10.0, -1],
        ["a", "x", 1.0, 4.0, 0],
        ["b", "x", 3.0, 6.0, 0],
        ["late", "x", 9.0, 12.0, 0],
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(4.0)


def test_conservation_detects_a_span_that_escapes_its_parent():
    recorded = [["root", "harness", 0.0, 1.0, -1], ["child", "x", 0.5, 2.0, 0]]
    assert spans.conservation_gap(recorded) == pytest.approx(1.0)


def test_recorder_nests_by_call_order():
    ticks = iter(range(100))
    rec = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("outer", "a"):
        with rec.span("inner", "b"):
            pass
    assert [s[4] for s in rec.spans] == [-1, 0]
    assert spans.conservation_gap(rec.spans) == 0.0


class _Target:
    def work(self, x):
        return x + 1


def test_wrap_records_and_unwrap_restores():
    rec = spans.SpanRecorder()
    obj = _Target()
    assert rec.wrap(obj, "work", "layer")
    assert rec.wrap(_Target, "work", "layer")  # class level, as for partitioners
    assert obj.work(1) == 2 and _Target().work(2) == 3
    assert [s[0] for s in rec.spans] == ["_Target.work", "_Target.work"]
    rec.unwrap_all()
    assert "work" not in vars(obj) and _Target().work(1) == 2
    assert len(rec.spans) == 2


def test_wrap_tolerates_a_missing_target():
    rec = spans.SpanRecorder()
    assert not rec.wrap(_Target(), "renamed_away", "layer")
    assert not rec.wrap(None, "prefetch", "layer")
    assert rec.targets_missing == 2 and rec.spans == []


def test_names_and_units_fit_the_contract():
    metrics = harness.END_TO_END + harness.PER_LAYER
    names = [m.name for m in metrics] + list(harness.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m.unit) for m in metrics)
    assert all(m.better in ("lower", "higher") for m in metrics)
    assert len(harness.PER_LAYER) <= 70


def test_benchmark_json_matches_the_registry():
    path = os.path.join(os.path.dirname(os.path.dirname(run.HERE)), "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json next to this checkout")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)

    def triples(entries):
        return [(e["name"], e["unit"], e["better"]) for e in entries]

    assert triples(spec["end_to_end"]) == [
        (m.name, m.unit, m.better) for m in harness.END_TO_END
    ]
    assert triples(spec["per_layer"]) == [(m.name, m.unit, m.better) for m in harness.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert all(0 < e["bound"] <= 0.25 for e in spec["end_to_end"])
    assert spec["paths"] == ["benchmarks/perf"]


def test_seed_changes_inputs_and_nothing_else():
    a, b, c = workloads.StoreRw(), workloads.StoreRw(), workloads.StoreRw()
    a.prepare(3)
    b.prepare(3)
    c.prepare(4)
    assert all((x == y).all() for x, y in zip(a.reads, b.reads))
    assert a.events == b.events
    assert any((x != y).any() for x, y in zip(a.reads, c.reads))
    assert a.events != c.events


def test_one_seed_gives_equal_exact_metrics():
    workload = workloads.StoreRw()
    workload.prepare(3)
    first = harness.run_round(workload).outcome
    second = harness.run_round(workload, trace=True).outcome
    assert first.failed == 0 and first.problems == []
    assert first.exact == second.exact
    assert first.counters == second.counters


def _calls_of_calibration() -> int:
    profile = cProfile.Profile()
    profile.enable()
    harness.calibration_work()
    profile.disable()
    return spans.py_calls(profile)["total"]


def test_calibration_kernel_does_fixed_work():
    _calls_of_calibration()  # lazy imports inside numpy settle on first use
    assert _calls_of_calibration() == _calls_of_calibration()
    assert harness.calibration_work() == harness.calibration_work()


def test_py_calls_buckets_by_module_path():
    assert spans._bucket_of("~") == "builtins"
    assert spans._bucket_of("/x/src/repro/storage/cluster.py") == "storage"
    assert spans._bucket_of("/x/site-packages/numpy/lib/_arraysetops_impl.py") == "numpy"
    assert spans._bucket_of("/x/benchmarks/perf/workloads.py") is None
