"""Figure 10 — per-batch time and memory of AHEP vs HEP.

Paper: on Taobao-small, HEP and AHEP are the only algorithms that finish at
all, and AHEP is 2–3x faster than HEP with much less memory per batch.
Time is wall-clock per training step; memory is the peak number of
embedding rows a batch touches (the live-activation footprint the paper's
memory axis reflects).
"""

from __future__ import annotations

import time

from repro.algorithms import AHEP, HEP
from repro.bench import Experiment, ExperimentReport, MetricRule
from repro.data import taobao_graph

STEPS = 20
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
    results = {}
    for label, model in (
        ("HEP", HEP(dim=192, steps=STEPS, neighbor_cap=96, batch_size=256, seed=0)),
        ("AHEP", AHEP(dim=192, steps=STEPS, neighbor_cap=8, batch_size=256, seed=0)),
    ):
        start = time.perf_counter()
        model.fit(graph)
        per_batch_ms = (time.perf_counter() - start) / STEPS * 1000
        results[label] = (per_batch_ms, model.peak_batch_rows)
    hep_rows = results["HEP"][1]
    for label, (ms, rows) in results.items():
        report.add(
            label,
            {
                "batch_ms": round(ms, 1),
                "peak_batch_rows": rows,
                "memory_ratio": round(rows / hep_rows, 2),
            },
            paper=PAPER[label],
        )
    report.note(
        "paper marks Structural2Vec/GCN/FastGCN/GraphSAGE N.A. and AS-GCN "
        "O.O.M. at Taobao-small scale; here both HEP variants run and the "
        "reproduced contract is AHEP's 2-3x time and memory advantage"
    )
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    hep = next(r for r in report.records if r.label == "HEP")
    ahep = next(r for r in report.records if r.label == "AHEP")
    speedup = hep.measured["batch_ms"] / ahep.measured["batch_ms"]
    assert speedup > 1.5, f"AHEP speedup only {speedup:.2f}x"
    assert ahep.measured["peak_batch_rows"] < hep.measured["peak_batch_rows"] * 0.6


EXPERIMENTS = (
    Experiment(
        "fig10",
        _run,
        _check,
        # Rows touched per batch are seeded counts; batch_ms is wall-clock.
        (MetricRule(r":(peak_batch_rows|memory_ratio)$", rel_tol=0.0, direction="both"),),
    ),
)
