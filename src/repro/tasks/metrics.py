"""Evaluation metrics, implemented from scratch on numpy.

ROC-AUC via the Mann–Whitney rank statistic, PR-AUC by the
precision-recall step integral (average precision), F1 at the optimal
threshold (the convention for embedding link prediction where scores are
uncalibrated), hit-recall@K for recommendation, and micro/macro F1 for
multi-class edge classification.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def _validate_binary(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ReproError("scores and labels must be matching 1-D arrays")
    uniq = set(np.unique(labels).tolist())
    if not uniq <= {0, 1, 0.0, 1.0, False, True}:
        raise ReproError(f"labels must be binary, got values {sorted(uniq)}")
    labels = labels.astype(bool)
    if labels.all() or not labels.any():
        raise ReproError("need both positive and negative labels")
    return scores, labels


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve (rank statistic, tie-aware)."""
    scores, labels = _validate_binary(scores, labels)
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    # Average ranks over ties.
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    rank_sum = ranks[labels].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _tie_boundaries(sorted_scores: np.ndarray) -> np.ndarray:
    """Indices of the last element of each tie group in a sorted array.

    Metrics must only evaluate thresholds at score *boundaries*; otherwise a
    constant score vector lets the (arbitrary) sort order fake a perfect
    ranking.
    """
    change = np.flatnonzero(np.diff(sorted_scores) != 0)
    return np.concatenate([change, [sorted_scores.size - 1]])


def pr_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Average precision (area under the precision-recall curve), tie-aware."""
    scores, labels = _validate_binary(scores, labels)
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order].astype(np.float64)
    tp = np.cumsum(sorted_labels)
    n_pos = sorted_labels.sum()
    boundaries = _tie_boundaries(sorted_scores)
    # Step integral over recall at distinct-score cutoffs only.
    recall = tp[boundaries] / n_pos
    precision = tp[boundaries] / (boundaries + 1.0)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def f1_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Binary F1 at the score-maximizing cut.

    Embedding methods produce uncalibrated scores, so the standard protocol
    (used by the GATNE paper this evaluation follows) reports the best F1
    over thresholds.
    """
    scores, labels = _validate_binary(scores, labels)
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order].astype(np.float64)
    tp = np.cumsum(sorted_labels)
    n_pos = sorted_labels.sum()
    boundaries = _tie_boundaries(sorted_scores)
    k = boundaries + 1.0
    precision = tp[boundaries] / k
    recall = tp[boundaries] / n_pos
    denom = precision + recall
    f1 = np.where(denom > 0, 2 * precision * recall / np.maximum(denom, 1e-12), 0.0)
    return float(f1.max())


def hit_recall_at_k(
    ranked_items: np.ndarray, relevant_items: "set[int]", k: int
) -> float:
    """HR@K: fraction of relevant items appearing in the top-k ranking."""
    if k < 1:
        raise ReproError(f"k must be positive, got {k}")
    if not relevant_items:
        return 0.0
    top = set(int(v) for v in np.asarray(ranked_items)[:k])
    return len(top & relevant_items) / len(relevant_items)


def micro_f1(pred: np.ndarray, labels: np.ndarray) -> float:
    """Micro-averaged multi-class F1 (== accuracy for single-label)."""
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    if pred.shape != labels.shape:
        raise ReproError("pred and labels must have matching shapes")
    if pred.size == 0:
        raise ReproError("empty prediction array")
    return float(np.mean(pred == labels))


def macro_f1(pred: np.ndarray, labels: np.ndarray) -> float:
    """Macro-averaged multi-class F1 over the label classes present."""
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    if pred.shape != labels.shape:
        raise ReproError("pred and labels must have matching shapes")
    classes = np.unique(labels)
    if classes.size == 0:
        raise ReproError("empty label array")
    scores = []
    for c in classes:
        tp = float(np.sum((pred == c) & (labels == c)))
        fp = float(np.sum((pred == c) & (labels != c)))
        fn = float(np.sum((pred != c) & (labels == c)))
        if tp == 0:
            scores.append(0.0)
            continue
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        scores.append(2 * precision * recall / (precision + recall))
    return float(np.mean(scores))
