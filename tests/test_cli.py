"""CLI: the dataset -> train -> evaluate round trip."""

import numpy as np
import pytest

from repro.cli import main


def test_dataset_and_info(tmp_path, capsys):
    path = str(tmp_path / "g.npz")
    assert main(["dataset", "amazon-sim", path, "--scale", "0.15", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "n_vertices" in out
    assert main(["info", path]) == 0
    out = capsys.readouterr().out
    assert "n_edges" in out


def test_train_and_evaluate_roundtrip(tmp_path, capsys):
    ds = str(tmp_path / "g.npz")
    emb = str(tmp_path / "emb.npz")
    main(["dataset", "amazon-sim", ds, "--scale", "0.15"])
    capsys.readouterr()
    code = main(
        ["train", "deepwalk", ds, emb, "--dim", "16", "--epochs", "1",
         "--holdout", "0.2"]
    )
    assert code == 0
    assert "16 embeddings" in capsys.readouterr().out
    code = main(["evaluate", emb, ds, "--holdout", "0.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ROC-AUC=" in out
    roc = float(out.split("ROC-AUC=")[1].split("%")[0])
    assert roc > 60.0  # trained on the same holdout split -> real signal


def test_train_unknown_model(tmp_path, capsys):
    ds = str(tmp_path / "g.npz")
    main(["dataset", "amazon-sim", ds, "--scale", "0.15"])
    assert main(["train", "bert", ds, str(tmp_path / "e.npz")]) == 2
    assert "unknown model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model,flags,message",
    [
        ("deepwalk", ["--dim", "0"], "--dim must be >= 1, got 0"),
        ("graphsage", ["--dim", "0"], "--dim must be >= 1, got 0"),
        ("netmf", ["--dim", "0"], "--dim must be >= 1, got 0"),
        ("deepwalk", ["--dim", "-1"], "--dim must be >= 1, got -1"),
        ("line", ["--dim", "1"], "use an even dim"),
        ("deepwalk", ["--epochs", "0"], "--epochs must be >= 1, got 0"),
        ("deepwalk", ["--seed", "-1"], "--seed must be >= 0, got -1"),
        ("deepwalk", ["--holdout", "1.0"], "--holdout must be in [0, 1), got 1.0"),
        ("deepwalk", ["--holdout", "-0.1"], "--holdout must be in [0, 1), got -0.1"),
        ("deepwalk", ["--kv-workers", "0"], "--kv-workers must be >= 1, got 0"),
        ("deepwalk", ["--kv-staleness", "-1"], "--kv-staleness must be >= 0, got -1"),
        # Flags the chosen model would silently ignore (with --epochs 7 the
        # netmf case exited 0 and wrote embeddings before).
        ("netmf", ["--backend", "kv", "--epochs", "7"],
         "--backend kv applies to deepwalk/node2vec/line only, not netmf"),
        ("gatne", ["--kv-workers", "2"],
         "--kv-workers applies to deepwalk/node2vec/line only, not gatne"),
        ("graphsage", ["--kv-staleness", "2"],
         "--kv-staleness applies to deepwalk/node2vec/line only, not graphsage"),
        ("sign", ["--minibatch-blocks"],
         "--minibatch-blocks applies to graphsage only, not sign"),
        # The kv knobs of a model trained in process.
        ("deepwalk", ["--kv-workers", "2", "--kv-staleness", "3"],
         "--kv-workers applies to --backend kv only"),
        ("line", ["--backend", "dense", "--kv-staleness", "3"],
         "--kv-staleness applies to --backend kv only"),
    ],
    ids=[
        "dim=0-deepwalk", "dim=0-graphsage", "dim=0-netmf", "dim=-1", "dim=1-line",
        "epochs=0", "seed=-1", "holdout=1.0", "holdout=-0.1", "kv-workers=0",
        "kv-staleness=-1", "backend-kv-netmf", "kv-workers-gatne",
        "kv-staleness-graphsage", "minibatch-blocks-sign", "kv-flags-dense-deepwalk",
        "kv-staleness-dense-line",
    ],
)
def test_train_bad_flag_is_one_error_line(model, flags, message, tmp_path, capsys):
    # Rejected before the dataset is read: the path need not even exist.
    out = tmp_path / "e.npz"
    assert main(["train", model, str(tmp_path / "missing.npz"), str(out), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert not out.exists()


@pytest.mark.parametrize(
    "model,flags,says",
    [
        ("deepwalk", ["--backend", "kv", "--kv-workers", "2"], "kv backend: 2 embedding servers"),
        ("graphsage", ["--minibatch-blocks"], "embeddings from graphsage"),
    ],
    ids=["deepwalk-kv", "graphsage-minibatch"],
)
def test_train_accepts_the_flags_its_model_takes(model, flags, says, tmp_path, capsys):
    ds = str(tmp_path / "g.npz")
    main(["dataset", "amazon-sim", ds, "--scale", "0.1"])
    out = tmp_path / "e.npz"
    assert main(["train", model, ds, str(out), "--dim", "8", "--epochs", "1", *flags]) == 0
    assert says in capsys.readouterr().out and out.exists()


def test_evaluate_shape_mismatch(tmp_path, capsys):
    ds = str(tmp_path / "g.npz")
    emb = str(tmp_path / "e.npz")
    main(["dataset", "amazon-sim", ds, "--scale", "0.15"])
    np.savez_compressed(emb, embeddings=np.zeros((3, 4)))
    assert main(["evaluate", emb, ds]) == 1
    assert "error: embedding rows (3) != graph vertices" in capsys.readouterr().err


def test_dataset_error_reported(tmp_path, capsys):
    assert main(["dataset", "imaginary", str(tmp_path / "x.npz")]) == 1
    assert "error:" in capsys.readouterr().err


def test_module_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "dataset" in proc.stdout


def test_node_classification_task(small_amazon):
    from repro.errors import ReproError
    from repro.tasks import evaluate_node_classification

    # Labels = community (feature argmax); planted one-hot embeddings of the
    # community must classify perfectly.
    labels = small_amazon.vertex_features[:, :6].argmax(axis=1)
    onehot = np.zeros((small_amazon.n_vertices, 6))
    onehot[np.arange(small_amazon.n_vertices), labels] = 1.0
    micro, macro = evaluate_node_classification(onehot, labels, seed=0)
    assert micro > 95.0 and macro > 95.0
    rng = np.random.default_rng(0)
    micro_r, _ = evaluate_node_classification(
        rng.normal(size=(small_amazon.n_vertices, 6)), labels, seed=0
    )
    assert micro_r < micro


def test_node_classification_validations():
    from repro.errors import ReproError
    from repro.tasks import evaluate_node_classification

    with pytest.raises(ReproError):
        evaluate_node_classification(np.zeros((4, 2)), np.array([0, 1, 0]))
    with pytest.raises(ReproError):
        evaluate_node_classification(
            np.zeros((4, 2)), np.zeros(4, dtype=int)
        )  # single class


def test_report_prints_workload_metrics_and_ledger(report_text):
    out = report_text
    assert "report: sampled workload" in out
    assert "runtime metrics" in out
    assert "rpc.completed" in out
    assert "pipeline.batches" in out
    assert "cost ledger" in out
    assert "remote_rpc" in out and "TOTAL" in out
    assert "pipeline.sample" in out  # the rendered span tree
    assert "critical-path analysis" in out
    assert "0 dropped past max_spans" in out
    assert "time series:" in out
    # The legend says which clock the numbers are on.
    assert "nothing is\nwall-clock" in out and "stage\ntimes included" in out


@pytest.mark.parametrize(
    "command",
    ["runtime-demo", "trace", "metrics-report", "workload-report", "timeseries",
     # ... and the four folded into ``repro bench <id>``.
     "sampling-bench", "serve-bench", "placement-bench", "fault-matrix"],
)
def test_commands_folded_into_report_are_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["report", "--steps", "0"], "--steps must be >= 1, got 0"),
        (["report", "--steps", "-1"], "--steps must be >= 1, got -1"),
    ],
)
def test_bad_workload_sizes_exit_1_with_one_error_line(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran, nothing half-printed
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line


def test_sampling_bench_runs_both_backends(tmp_path):
    from tests.conftest import bench_payload

    payload = bench_payload("sampling_kernels", tmp_path)
    rows = {r["label"]: r["measured"] for r in payload["records"]}
    for sampler in ("uniform", "weighted", "topk", "importance", "full"):
        assert rows[f"2-hop expansion: {sampler}"]["kernel_ms"] > 0
    # Both timed arms — the kernel and the per-row loop beside the experiment.
    uniform = rows["2-hop expansion: uniform"]
    assert uniform["per_row_loop_ms"] > 0 and uniform["same_draws"] is True
    assert (tmp_path / "sampling_kernels.json").exists()


_TOY_BENCH = """
from repro.bench import Experiment, ExperimentReport


def _run(smoke):
    report = ExperimentReport("toy", "toy")
    report.add("row", {"smoke": smoke, "value": 1})
    return report


def _check(report, smoke):
    assert not smoke, "toy fails its smoke check"


EXPERIMENTS = (Experiment("toy", _run, _check),)
"""


@pytest.fixture
def toy_bench_dir(tmp_path, monkeypatch):
    """A bench dir declaring one experiment, ``toy``: smoke check red, full green."""
    import sys

    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    (bench_dir / "bench_toy.py").write_text(_TOY_BENCH, encoding="utf-8")
    monkeypatch.syspath_prepend(str(bench_dir))
    yield bench_dir
    sys.modules.pop("bench_toy", None)


def test_bench_lists_runs_and_writes_by_size(toy_bench_dir, capsys):
    """No id lists; a smoke run writes only under ``results/smoke/``, never
    over the full-size ``results/<id>.json``; a failed check exits 1 with
    the results already on disk."""
    bench = ["bench", "--bench-dir", str(toy_bench_dir)]
    assert main(bench) == 0
    assert capsys.readouterr().out.split() == ["toy"]

    assert main([*bench, "toy"]) == 0
    assert "[toy] toy" in capsys.readouterr().out
    results = toy_bench_dir / "results"
    full = (results / "toy.json").read_bytes()
    assert sorted(p.name for p in results.iterdir()) == ["toy.json", "toy.txt"]

    assert main([*bench, "toy", "--smoke"]) == 1
    assert "error: toy: check failed: toy fails" in capsys.readouterr().err
    assert (results / "toy.json").read_bytes() == full
    assert sorted(p.name for p in (results / "smoke").iterdir()) == [
        "toy.json", "toy.txt",
    ]

    assert main([*bench, "nope"]) == 1
    assert "unknown experiment id(s) nope" in capsys.readouterr().err


def test_bench_compare_smoke_is_a_real_switch(capsys):
    """Without ``--smoke`` the gate runs full size against ``results/``."""
    import json

    checked = {}
    for flags in ([], ["--smoke"]):
        assert main(["bench-compare", "--only", "fig7", "--json", *flags]) == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        checked[bool(flags)] = result["n_checked"]
    # 2 datasets x 5 worker counts x 3 gated columns vs 1 x 2 x 3.
    assert checked == {False: 30, True: 6}


def test_trace_writes_perfetto_loadable_json(report_run):
    import json

    from tests.format_checkers import check_chrome_trace

    _, out_dir = report_run
    with open(out_dir / "trace.json", encoding="utf-8") as f:
        payload = json.load(f)
    assert check_chrome_trace(payload) == []
    assert payload["otherData"]["n_traces"] == 2
    assert payload["otherData"]["dropped_spans"] == 0
    names = {ev["name"] for ev in payload["traceEvents"]}
    assert {"pipeline.sample", "store.resolve_read", "rpc.execute"} <= names
    # The sampler's series ride along as counter tracks under the spans.
    assert any(ev["ph"] == "C" for ev in payload["traceEvents"])


def test_trace_is_deterministic_across_invocations(tmp_path):
    """Same seed twice: stdout payload and every ``--out`` file byte-equal."""
    from tests.conftest import REPORT_ARGV, run_cli

    runs = []
    for i in range(2):
        out_dir = tmp_path / f"run{i}"
        stdout = run_cli([*REPORT_ARGV, "--json", "--out", str(out_dir)])
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        runs.append((stdout, files))
    assert sorted(runs[0][1]) == ["metrics.prom", "series.csv", "trace.json"]
    assert runs[0] == runs[1]


def test_metrics_report_emits_valid_prometheus_text(report_run):
    from tests.format_checkers import check_prometheus_text

    _, out_dir = report_run
    with open(out_dir / "metrics.prom", encoding="utf-8") as f:
        text = f.read()
    assert check_prometheus_text(text) == []
    assert "# TYPE rpc_completed counter" in text
    assert 'server_served{part=' in text


def test_format_checkers_script_accepts_every_report_artifact(report_run, tmp_path):
    """The one CI call: payload, trace and exposition told apart per file."""
    import json

    from tests.format_checkers import _check_file

    payload, out_dir = report_run
    payload_path = tmp_path / "report.json"
    payload_path.write_text(json.dumps(payload), encoding="utf-8")
    for path in (payload_path, out_dir / "trace.json", out_dir / "metrics.prom"):
        assert _check_file(str(path)) == [], path
    # A trace is not a result payload: the explicit flag still forces it.
    assert _check_file(str(out_dir / "trace.json"), as_results=True) != []


def test_committed_perf_trajectory_recomputes_from_its_runs():
    """Every ``BENCH_<pr>.json`` summary is a function of its listed runs."""
    import copy
    import json
    import pathlib

    from tests.format_checkers import check_trajectory

    files = sorted(pathlib.Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))
    assert len(files) >= 5
    for path in files:
        assert check_trajectory(path.read_text(encoding="utf-8")) == [], path.name
    good = json.loads(files[-1].read_text(encoding="utf-8"))
    edited = copy.deepcopy(good)
    # Every run of one side: a single run may sit where no quartile or pair
    # order reads it, and then the summary would rightly stay the same.
    for run in edited["workloads"]["train_gnn"]["runs"]:
        if run["side"] == "change":
            run["host_cost_cu"] *= 0.5
    assert any("summary[host_cost_cu]" in p for p in check_trajectory(edited))
    edited = copy.deepcopy(good)
    for run in edited["workloads"]["store_rw"]["runs"]:
        run["ran_first"] = True
    del edited["workloads"]["serve_mixed"]
    del edited["workloads"]["build_store"]["runs"][3]["correct"]
    problems = "\n".join(check_trajectory(edited))
    for expected in ("workloads are", "ran_first", "lacks ['correct']"):
        assert expected in problems
    assert check_trajectory("not json") and check_trajectory({"workloads": []})


def test_placement_bench_json_contract(tmp_path):
    from tests.conftest import bench_payload

    payload = bench_payload("placement_adaptive", tmp_path)
    labels = [r["label"] for r in payload["records"]]
    assert "adaptive placement (controller on)" in labels
    assert "determinism (same-seed rerun)" in labels
