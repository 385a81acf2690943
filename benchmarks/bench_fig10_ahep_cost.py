"""Figure 10 — per-batch time and memory of AHEP vs HEP.

Paper: on Taobao-small, HEP and AHEP are the only algorithms that finish at
all, and AHEP is 2–3x faster than HEP with much less memory per batch.
Time is wall-clock per training step (a whole fit over ``STEPS``, median
and IQR of interleaved fits); memory is the peak number of embedding rows a
batch touches (the live-activation footprint the paper's memory axis
reflects).
"""

from __future__ import annotations

from functools import partial

from repro.algorithms import AHEP, HEP
from repro.bench import Experiment, ExperimentReport
from repro.bench.timing import assert_faster, time_arms
from repro.data import taobao_graph

STEPS = 20
ROUNDS = 3
PAPER = {
    "HEP": {"batch_ms": 760.0, "memory_ratio": 1.0},
    "AHEP": {"batch_ms": 290.0, "memory_ratio": 0.35},
}


def _run(smoke: bool) -> ExperimentReport:
    # Dense enough that full typed neighborhoods dominate the step cost.
    graph = taobao_graph(
        n_users=800, n_items=300, mean_user_degree=60.0,
        mean_item_out_degree=25.0, seed=0,
    )
    report = ExperimentReport("fig10", "AHEP vs HEP per-batch time and memory")
    models = {
        "HEP": HEP(dim=192, steps=STEPS, neighbor_cap=96, batch_size=256, seed=0),
        "AHEP": AHEP(dim=192, steps=STEPS, neighbor_cap=8, batch_size=256, seed=0),
    }
    timings = time_arms(
        {label: partial(model.fit, graph) for label, model in models.items()}, ROUNDS
    )
    for label, model in models.items():
        report.add(
            label,
            {
                **timings[label].columns("batch_ms", per_s=1e3 / STEPS, digits=1),
                "peak_batch_rows": model.peak_batch_rows,
                "memory_ratio": round(
                    model.peak_batch_rows / models["HEP"].peak_batch_rows, 2
                ),
            },
            paper=PAPER[label],
        )
    report.note(
        "paper marks Structural2Vec/GCN/FastGCN/GraphSAGE N.A. and AS-GCN "
        "O.O.M. at Taobao-small scale; here both HEP variants run and the "
        "reproduced contract is AHEP's 2-3x time and memory advantage; "
        f"batch_ms median and IQR of {ROUNDS} interleaved fits"
    )
    report.meta = {"timings": timings}
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    assert_faster(report.meta["timings"]["HEP"], report.meta["timings"]["AHEP"], 1.5)
    hep = next(r for r in report.records if r.label == "HEP")
    ahep = next(r for r in report.records if r.label == "AHEP")
    assert ahep.measured["peak_batch_rows"] < hep.measured["peak_batch_rows"] * 0.6


EXPERIMENTS = (
    Experiment(
        "fig10",
        _run,
        _check,
        # Rows touched per batch are seeded counts; batch_ms is wall-clock.
        (r":(peak_batch_rows|memory_ratio)$",),
    ),
)
