"""Benchmark harness: report rendering, the timing protocol and typed
evaluation coverage."""

import gc

import numpy as np
import pytest

from repro.bench import Experiment, ExperimentReport, run_experiment
from repro.bench.timing import Timing, assert_faster, time_arms
from repro.errors import CheckFailedError, ReproError


def test_report_renders_measured_and_paper():
    report = ExperimentReport("tX", "demo")
    report.add("row1", {"metric": 1.5}, paper={"metric": 2.0})
    report.add("row2", {"metric": 3.0})
    out = report.render()
    assert "[tX] demo" in out
    assert "metric (paper)" in out
    assert "1.5" in out and "2" in out and "3" in out


def test_report_handles_heterogeneous_columns():
    report = ExperimentReport("tY", "demo")
    report.add("a", {"x": 1})
    report.add("b", {"y": 2})
    out = report.render()
    assert "x" in out and "y" in out


def test_report_notes_rendered():
    report = ExperimentReport("tZ", "demo")
    report.add("a", {"x": 1})
    report.note("a caveat")
    assert "note: a caveat" in report.render()


def test_report_print(capsys):
    report = ExperimentReport("tP", "demo")
    report.add("a", {"x": 1})
    report.print()
    assert "[tP] demo" in capsys.readouterr().out


def test_time_arms_rotates_which_arm_starts_each_round():
    calls = []
    timings = time_arms({name: (lambda n=name: calls.append(n)) for name in "abc"}, 4)
    assert "".join(calls) == "abc" + "bca" + "cab" + "abc"
    assert {name: len(t.samples_s) for name, t in timings.items()} == {"a": 4, "b": 4, "c": 4}


def test_time_arms_collects_before_and_pauses_gc_inside_each_call():
    seen = []
    time_arms({"a": lambda: seen.append(gc.isenabled())}, 2)
    assert seen == [False, False]
    assert gc.isenabled()


def test_time_arms_restores_gc_after_an_arm_raises():
    def boom():
        raise ValueError("arm failed")

    with pytest.raises(ValueError):
        time_arms({"ok": lambda: None, "boom": boom}, 3)
    assert gc.isenabled()
    gc.disable()
    try:
        time_arms({"ok": lambda: None}, 2)
        assert not gc.isenabled()  # restored to what it was, not switched on
    finally:
        gc.enable()


def test_timing_median_and_iqr_on_known_samples():
    # statistics.quantiles(n=4), the exclusive method: q1 2.25, q3 6.75.
    t = Timing([8, 1, 7, 2, 6, 3, 5, 4])
    assert (t.q1, t.median, t.q3, t.iqr) == (2.25, 4.5, 6.75, 4.5)
    assert t.columns("x_ms") == {"x_ms": 4500.0, "x_ms_iqr": 4500.0}
    assert t.columns("x_s", per_s=1, digits=1) == {"x_s": 4.5, "x_s_iqr": 4.5}
    with pytest.raises(ReproError):
        Timing([1.0])


def test_assert_faster_holds_is_unresolved_or_refuted():
    slow, fast = Timing([10, 11, 12, 13]), Timing([1, 2, 3, 4])
    assert_faster(slow, fast, 2.0)
    with pytest.raises(CheckFailedError, match="refuted"):
        assert_faster(slow, fast, 10.0)
    with pytest.raises(CheckFailedError, match="refuted"):
        assert_faster(fast, slow, 1.0)  # apart, but the other way round
    with pytest.raises(CheckFailedError, match="unresolved"):
        assert_faster(Timing([2, 3, 4, 5]), fast, 1.0)


def test_a_failed_wall_clock_claim_names_its_experiment(tmp_path):
    def check(report, smoke):
        assert_faster(Timing([1, 2, 3, 4]), Timing([10, 11, 12, 13]), 1.0)

    toy = Experiment("toy", lambda smoke: ExperimentReport("toy", "toy"), check)
    with pytest.raises(CheckFailedError, match=r"^toy: check failed: refuted"):
        run_experiment(toy, smoke=True, out_dir=str(tmp_path))
    assert (tmp_path / "toy.json").exists()


def test_mixture_context_embeddings_shapes(small_amazon):
    from repro.algorithms import MixtureGNN

    model = MixtureGNN(dim=12, n_senses=2, epochs=1, walks_per_vertex=2)
    model.fit(small_amazon)
    assert model.context_embeddings().shape == (small_amazon.n_vertices, 12)
    assert model.mixture_embeddings().shape == (small_amazon.n_vertices, 12)
    # The normalized embedding is the unit version of the mixture table,
    # normalised in float64 as every model's embeddings are.
    mix = model.mixture_embeddings().astype(np.float64)
    norm = mix / np.maximum(np.linalg.norm(mix, axis=1, keepdims=True), 1e-12)
    np.testing.assert_allclose(model.embeddings(), norm, atol=1e-9)
