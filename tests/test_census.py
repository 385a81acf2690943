"""The usage census reports a failed program with the check that failed and
the allow-listed entries only it reaches."""

import pytest

from repro.bench import ExperimentReport
from repro.bench.harness import write_results
from tests.census import check, run_child

_TOY_BENCH = """
from repro.bench import Experiment, ExperimentReport


def _run(smoke):
    report = ExperimentReport("toy", "toy")
    report.add("row", {"value": 1})
    return report


def _check(report, smoke):
    assert report.records[0].measured["value"] > 1, "toy value not above 1"


EXPERIMENTS = (Experiment("toy", _run, _check, exact=("row:value",)),)
"""


@pytest.fixture
def toy_bench_dir(tmp_path):
    """A bench dir declaring one gated experiment, ``toy``, whose check fails,
    with a smoke baseline for ``bench-compare`` to hold it to."""
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "bench_toy.py").write_text(_TOY_BENCH, encoding="utf-8")
    baseline = ExperimentReport("toy", "toy")
    baseline.add("row", {"value": 1})
    write_results(baseline, str(bench_dir / "results" / "smoke"))
    return bench_dir


@pytest.mark.parametrize("command", ["bench-compare", "bench"])
def test_failed_program_line_names_the_failed_check(toy_bench_dir, tmp_path, command):
    # bench-compare prints the failed check to stdout, bench to stderr.
    argv = [command, "--smoke", "--bench-dir", str(toy_bench_dir),
            "--out-dir", str(tmp_path / "out")]
    if command == "bench":
        argv.append("toy")
    used, problem = run_child("cli", argv, str(tmp_path / "used.json"), str(tmp_path))
    assert problem.startswith(f"program exited 1: cli {' '.join(argv)} -- ")
    assert "toy: check failed: toy value not above 1" in problem
    assert problem.count("check failed") == 1
    assert "repro.bench.harness:run_experiment" in used["called"]


def test_allow_listed_entry_only_a_failed_program_reaches_is_named_in_its_line(
    toy_bench_dir, tmp_path
):
    # The failed check sends bench-compare down gate._failed, which only a
    # failing run reaches: that is the failure's consequence, not a stale entry.
    argv = ["bench-compare", "--smoke", "--bench-dir", str(toy_bench_dir),
            "--out-dir", str(tmp_path / "out")]
    used, problem = run_child("cli", argv, str(tmp_path / "used.json"), str(tmp_path))
    failed = (problem, {*used["called"], *used["set"]})
    census = {"functions": [], "parameters": []}
    allowed = {"functions": {"repro.bench.gate:_failed": "safety"}, "parameters": {}}
    assert check(census, allowed, [failed]) == [
        problem + "; it alone reaches allow-listed repro.bench.gate:_failed"
    ]
    # A passing program reaching it too makes it stale in its own right.
    passing = (None, {"repro.bench.gate:_failed"})
    assert check(census, allowed, [failed, passing]) == [
        problem, "stale, a program now uses it (functions): repro.bench.gate:_failed"
    ]


def test_passing_program_has_no_problem_line(toy_bench_dir, tmp_path):
    used, problem = run_child(
        "cli", ["bench", "--bench-dir", str(toy_bench_dir)], str(tmp_path / "used.json"),
        str(tmp_path),
    )
    assert problem is None
    assert "repro.bench.harness:load_experiments" in used["called"]
