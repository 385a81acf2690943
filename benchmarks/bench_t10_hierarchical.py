"""Table 10 — Hierarchical GNN vs GraphSAGE.

Paper (Taobao-small):

    method            ROC-AUC  PR-AUC  F1
    GraphSAGE         82.89    44.45   45.76
    Hierarchical GNN  87.34    54.87   53.20

The contract: the layered (DiffPool-style) coarsening beats the flat
GraphSAGE on all three link-prediction metrics.
"""

from __future__ import annotations

from repro.algorithms import GraphSAGE, HierarchicalGNN
from repro.bench import Experiment, ExperimentReport
from repro.data import make_dataset, train_test_split_edges
from repro.tasks import evaluate_link_prediction

PAPER = {
    "GraphSAGE": {"roc_auc": 82.89, "pr_auc": 44.45, "f1": 45.76},
    "Hierarchical GNN": {"roc_auc": 87.34, "pr_auc": 54.87, "f1": 53.20},
}


def _run(smoke: bool) -> ExperimentReport:
    graph = make_dataset("taobao-small-sim", scale=0.35, seed=0)
    split = train_test_split_edges(graph, 0.2, seed=0)
    report = ExperimentReport("t10", "Hierarchical GNN vs GraphSAGE (%)")
    models = {
        "GraphSAGE": GraphSAGE(dim=64, epochs=5, max_steps_per_epoch=25, seed=0),
        "Hierarchical GNN": HierarchicalGNN(
            dim=64, n_clusters=64, steps=150, seed=0
        ),
    }
    for label, model in models.items():
        model.fit(split.train_graph)
        result = evaluate_link_prediction(model.embeddings(), split)
        report.add(
            label,
            {
                "roc_auc": round(result.roc_auc, 2),
                "pr_auc": round(result.pr_auc, 2),
                "f1": round(result.f1, 2),
            },
            paper=PAPER[label],
        )
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    rows = {r.label: r.measured for r in report.records}
    assert rows["Hierarchical GNN"]["roc_auc"] > rows["GraphSAGE"]["roc_auc"]
    assert rows["Hierarchical GNN"]["f1"] > rows["GraphSAGE"]["f1"] - 2.0


EXPERIMENTS = (Experiment("t10", _run, _check),)
