"""Downstream evaluation tasks and metrics (paper §5.2.1).

Link prediction with ROC-AUC / PR-AUC / F1 (averaged across edge types),
recommendation hit-recall HR@K, and node classification with micro/macro
F1 — the metric families of the paper's evaluation.
"""

from repro.tasks.classification import evaluate_node_classification
from repro.tasks.edge_embeddings import subgraph_embedding
from repro.tasks.link_prediction import evaluate_link_prediction, score_pairs
from repro.tasks.metrics import (
    f1_score,
    hit_recall_at_k,
    macro_f1,
    micro_f1,
    pr_auc,
    roc_auc,
)
from repro.tasks.recommendation import evaluate_recommendation

__all__ = [
    "roc_auc",
    "pr_auc",
    "f1_score",
    "hit_recall_at_k",
    "micro_f1",
    "macro_f1",
    "score_pairs",
    "evaluate_link_prediction",
    "evaluate_recommendation",
    "evaluate_node_classification",
    "subgraph_embedding",
]
