"""Metrics and evaluation tasks."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.tasks import (
    evaluate_link_prediction,
    evaluate_recommendation,
    f1_score,
    hit_recall_at_k,
    macro_f1,
    micro_f1,
    pr_auc,
    roc_auc,
    score_pairs,
)


# --------------------------------------------------------------------- #
# Binary metrics
# --------------------------------------------------------------------- #
def test_roc_auc_perfect():
    assert roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([0, 0, 1, 1])) == 1.0


def test_roc_auc_inverted():
    assert roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([0, 0, 1, 1])) == 0.0


def test_roc_auc_random_is_half():
    rng = np.random.default_rng(0)
    scores = rng.random(4000)
    labels = rng.integers(0, 2, 4000)
    assert abs(roc_auc(scores, labels) - 0.5) < 0.03


def test_roc_auc_ties_average():
    # All scores equal: AUC must be exactly 0.5.
    assert roc_auc(np.ones(10), np.array([1, 0] * 5)) == pytest.approx(0.5)


def test_roc_auc_monotone_invariant():
    scores = np.array([0.1, 0.5, 0.3, 0.9, 0.2])
    labels = np.array([0, 1, 0, 1, 0])
    assert roc_auc(scores, labels) == roc_auc(np.exp(scores * 7), labels)


def test_pr_auc_perfect():
    assert pr_auc(np.array([0.1, 0.9, 0.2, 0.8]), np.array([0, 1, 0, 1])) == 1.0


def test_pr_auc_constant_scores_equals_base_rate():
    labels = np.array([1, 0, 0, 0])
    assert pr_auc(np.ones(4), labels) == pytest.approx(0.25)


def test_f1_perfect():
    assert f1_score(np.array([0.1, 0.9]), np.array([0, 1])) == 1.0


def test_f1_constant_scores_is_all_positive_f1():
    labels = np.array([1, 1, 0, 0])
    # Only threshold: predict everything positive -> P=0.5, R=1, F1=2/3.
    assert f1_score(np.ones(4), labels) == pytest.approx(2 / 3)


def test_binary_metric_validations():
    with pytest.raises(ReproError):
        roc_auc(np.ones(3), np.ones(3))  # single class
    with pytest.raises(ReproError):
        roc_auc(np.ones(3), np.array([0, 1, 2]))  # non-binary
    with pytest.raises(ReproError):
        roc_auc(np.ones((3, 1)), np.ones(3))  # shape


def test_hit_recall():
    ranked = np.array([5, 3, 9, 1])
    assert hit_recall_at_k(ranked, {3, 9}, 2) == 0.5
    assert hit_recall_at_k(ranked, {3, 9}, 3) == 1.0
    assert hit_recall_at_k(ranked, set(), 3) == 0.0
    with pytest.raises(ReproError):
        hit_recall_at_k(ranked, {1}, 0)


def test_micro_macro_f1():
    labels = np.array([0, 0, 1, 1, 2, 2])
    perfect = labels.copy()
    assert micro_f1(perfect, labels) == 1.0
    assert macro_f1(perfect, labels) == 1.0
    pred = np.array([0, 0, 1, 0, 2, 0])
    assert micro_f1(pred, labels) == pytest.approx(4 / 6)
    assert 0 < macro_f1(pred, labels) < 1


def test_macro_f1_penalizes_minority_failure():
    labels = np.array([0] * 9 + [1])
    pred = np.zeros(10, dtype=int)  # always majority
    assert micro_f1(pred, labels) == 0.9
    assert macro_f1(pred, labels) < 0.5


def test_multiclass_validations():
    with pytest.raises(ReproError):
        micro_f1(np.array([0]), np.array([0, 1]))
    with pytest.raises(ReproError):
        macro_f1(np.array([]), np.array([]))


# --------------------------------------------------------------------- #
# Link prediction
# --------------------------------------------------------------------- #
def test_score_pairs_dot():
    emb = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    pairs = np.array([[0, 1], [0, 2]])
    np.testing.assert_allclose(score_pairs(emb, pairs), [2.0, 0.0])
    with pytest.raises(ReproError):
        score_pairs(emb, np.array([0, 1]))


def test_link_prediction_planted_embeddings(small_amazon):
    """Embeddings equal to adjacency rows separate positives from negatives."""
    from repro.data import train_test_split_edges

    split = train_test_split_edges(small_amazon, 0.2, seed=5)
    n = small_amazon.n_vertices
    emb = np.zeros((n, n))
    src, dst, _ = small_amazon.edge_array()
    emb[src, dst] = 1.0
    emb[dst, src] = 1.0
    emb += 0.5 * np.eye(n)
    result = evaluate_link_prediction(emb, split, per_type_average=False)
    assert result.roc_auc > 88.0
    assert result.f1 > 80.0


def test_link_prediction_random_embeddings(small_amazon):
    from repro.data import train_test_split_edges

    split = train_test_split_edges(small_amazon, 0.2, seed=6)
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(small_amazon.n_vertices, 8))
    result = evaluate_link_prediction(emb, split, per_type_average=False)
    assert 40.0 < result.roc_auc < 60.0


def test_link_prediction_per_type_average(small_amazon):
    from repro.data import train_test_split_edges

    split = train_test_split_edges(small_amazon, 0.2, seed=7)
    rng = np.random.default_rng(1)
    emb = rng.normal(size=(small_amazon.n_vertices, 8))
    averaged = evaluate_link_prediction(emb, split, per_type_average=True)
    pooled = evaluate_link_prediction(emb, split, per_type_average=False)
    assert averaged.roc_auc != pooled.roc_auc or averaged.f1 != pooled.f1


# --------------------------------------------------------------------- #
# Recommendation
# --------------------------------------------------------------------- #
def test_recommendation_perfect_alignment():
    user_emb = np.eye(3)
    item_emb = np.eye(3)
    test_items = {0: {0}, 1: {1}, 2: {2}}
    result = evaluate_recommendation(user_emb, item_emb, {}, test_items, ks=[1, 2])
    assert result[1] == 1.0


def test_recommendation_masks_training_items():
    user_emb = np.array([[1.0, 0.0]])
    item_emb = np.array([[1.0, 0.0], [0.9, 0.0], [0.0, 1.0]])
    # Item 0 is a training item; top-1 becomes item 1.
    result = evaluate_recommendation(
        user_emb, item_emb, {0: {0}}, {0: {1}}, ks=[1]
    )
    assert result[1] == 1.0


def test_recommendation_group_granularity():
    user_emb = np.array([[1.0, 0.0]])
    item_emb = np.array([[1.0, 0.0], [0.0, 1.0]])
    groups = np.array([7, 7])  # both items share a brand
    result = evaluate_recommendation(
        user_emb, item_emb, {}, {0: {1}}, ks=[1], item_group=groups
    )
    # Top-1 is item 0, whose brand matches the relevant item's brand.
    assert result[1] == 1.0


def test_recommendation_validations():
    with pytest.raises(ReproError):
        evaluate_recommendation(np.eye(2), np.eye(2), {}, {}, ks=[1])
    with pytest.raises(ReproError):
        evaluate_recommendation(np.eye(2), np.eye(2), {}, {0: {0}}, ks=[0])
