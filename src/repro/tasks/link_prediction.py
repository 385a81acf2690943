"""Link-prediction evaluation over vertex embeddings.

Given embeddings ``H`` and a :class:`~repro.data.splits.LinkSplit`, scores
each candidate pair with the dot product of its endpoint
embeddings and reports ROC-AUC / PR-AUC / F1, averaged across edge types as
the paper's protocol requires ("each metric is averaged among different
types of edges").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.splits import LinkSplit
from repro.errors import ReproError
from repro.tasks.metrics import f1_score, pr_auc, roc_auc


def score_pairs(embeddings: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Dot-product score per ``(u, v)`` row of ``pairs``."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ReproError(f"pairs must be (k, 2), got {pairs.shape}")
    u = embeddings[pairs[:, 0]]
    v = embeddings[pairs[:, 1]]
    return np.sum(u * v, axis=1)


@dataclass(frozen=True)
class LinkPredictionResult:
    """Metric triple of one evaluation (all in percent, paper convention)."""

    roc_auc: float
    pr_auc: float
    f1: float


def evaluate_link_prediction(
    embeddings: np.ndarray,
    split: LinkSplit,
    per_type_average: bool = True,
) -> LinkPredictionResult:
    """Evaluate embeddings on a link split.

    With ``per_type_average`` each metric is computed within each edge type
    present in the test set and averaged (the paper's protocol); types whose
    test set lacks positives or negatives are skipped.
    """
    pos_scores = score_pairs(embeddings, split.test_pos)
    neg_scores = score_pairs(embeddings, split.test_neg)
    k = split.test_neg.shape[0] // split.test_pos.shape[0]

    def _metrics(p: np.ndarray, n: np.ndarray) -> tuple[float, float, float]:
        scores = np.concatenate([p, n])
        labels = np.concatenate([np.ones(p.size), np.zeros(n.size)])
        return (
            100.0 * roc_auc(scores, labels),
            100.0 * pr_auc(scores, labels),
            100.0 * f1_score(scores, labels),
        )

    if not per_type_average:
        r, p, f = _metrics(pos_scores, neg_scores)
        return LinkPredictionResult(r, p, f)

    rows = []
    for etype in np.unique(split.test_types):
        mask = split.test_types == etype
        if mask.sum() < 2:
            continue
        neg_mask = np.repeat(mask, k)
        rows.append(_metrics(pos_scores[mask], neg_scores[neg_mask]))
    if not rows:
        r, p, f = _metrics(pos_scores, neg_scores)
        return LinkPredictionResult(r, p, f)
    arr = np.asarray(rows)
    return LinkPredictionResult(*(float(x) for x in arr.mean(axis=0)))
