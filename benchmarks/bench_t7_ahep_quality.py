"""Table 7 — effectiveness of AHEP vs HEP (link prediction, Taobao-small).

Paper:

    method  ROC-AUC  F1
    HEP     77.77    57.93
    AHEP    75.51    50.97

(the other baselines are N.A./O.O.M. at this scale). The contract: AHEP's
quality is close to HEP's — a modest drop purchased for the 2-3x resource
win of Figure 10.
"""

from __future__ import annotations

from repro.algorithms import AHEP, HEP
from repro.bench import Experiment, ExperimentReport
from repro.data import make_dataset, train_test_split_edges
from repro.tasks import evaluate_link_prediction

PAPER = {
    "HEP": {"roc_auc": 77.77, "f1": 57.93},
    "AHEP": {"roc_auc": 75.51, "f1": 50.97},
}


def _run(smoke: bool) -> ExperimentReport:
    graph = make_dataset("taobao-small-sim", scale=0.4, seed=0)
    split = train_test_split_edges(graph, 0.2, seed=0)
    report = ExperimentReport("t7", "AHEP vs HEP link-prediction quality (%)")
    for label, model in (
        ("HEP", HEP(dim=64, steps=200, neighbor_cap=24, seed=0)),
        ("AHEP", AHEP(dim=64, steps=200, neighbor_cap=5, seed=0)),
    ):
        model.fit(split.train_graph)
        result = evaluate_link_prediction(model.embeddings(), split)
        report.add(
            label,
            {"roc_auc": round(result.roc_auc, 2), "f1": round(result.f1, 2)},
            paper=PAPER[label],
        )
    report.note(
        "Structural2Vec/GCN/FastGCN/GraphSAGE: N.A., AS-GCN: O.O.M. in the "
        "paper at this dataset's scale"
    )
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    hep = next(r for r in report.records if r.label == "HEP")
    ahep = next(r for r in report.records if r.label == "AHEP")
    # Both methods carry real signal ...
    assert hep.measured["roc_auc"] > 60.0
    assert ahep.measured["roc_auc"] > 60.0
    # ... and AHEP stays within a modest gap of HEP (paper: ~2.3 points).
    assert ahep.measured["roc_auc"] > hep.measured["roc_auc"] - 10.0


EXPERIMENTS = (Experiment("t7", _run, _check),)
