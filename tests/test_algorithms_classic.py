"""Classic GE baselines: fit, shapes, determinism, signal over random."""

import numpy as np
import pytest

from repro.algorithms import (
    ANRL,
    LINE,
    MNE,
    MVE,
    PMNE,
    DeepWalk,
    Metapath2Vec,
    NetMF,
    Node2Vec,
    Struc2Vec,
)
from repro.data import train_test_split_edges
from repro.errors import TrainingError
from repro.tasks import evaluate_link_prediction

FAST = dict(dim=16, epochs=1, walks_per_vertex=2, walk_length=6)


@pytest.fixture(scope="module")
def amazon_split(small_amazon):
    return train_test_split_edges(small_amazon, 0.2, seed=0)


def _auc(model, split):
    model.fit(split.train_graph)
    return evaluate_link_prediction(
        model.embeddings(), split, per_type_average=False
    ).roc_auc


def test_deepwalk_beats_random(amazon_split):
    assert _auc(DeepWalk(**FAST), amazon_split) > 70.0


def test_deepwalk_shapes_and_determinism(small_amazon):
    m1 = DeepWalk(**FAST, seed=4).fit(small_amazon)
    m2 = DeepWalk(**FAST, seed=4).fit(small_amazon)
    e1, e2 = m1.embeddings(), m2.embeddings()
    assert e1.shape == (small_amazon.n_vertices, 16)
    np.testing.assert_allclose(e1, e2)
    np.testing.assert_allclose(np.linalg.norm(e1, axis=1), 1.0, atol=1e-9)


def test_deepwalk_loss_finite(small_amazon):
    m = DeepWalk(**FAST).fit(small_amazon)
    assert np.isfinite(m.final_loss)


def test_unfitted_raises():
    with pytest.raises(TrainingError):
        DeepWalk().embeddings()


def test_node2vec_beats_random(amazon_split):
    assert _auc(Node2Vec(p=0.5, q=2.0, **FAST), amazon_split) > 70.0


def test_node2vec_params_change_result(small_amazon):
    bfs = Node2Vec(p=10.0, q=0.1, **FAST, seed=1).fit(small_amazon).embeddings()
    dfs = Node2Vec(p=0.1, q=10.0, **FAST, seed=1).fit(small_amazon).embeddings()
    assert not np.allclose(bfs, dfs)


def test_line_beats_random(amazon_split):
    assert _auc(LINE(dim=16, steps=80), amazon_split) > 65.0


def test_line_requires_even_dim():
    with pytest.raises(TrainingError):
        LINE(dim=15)


def test_netmf_beats_random(amazon_split):
    assert _auc(NetMF(dim=16), amazon_split) > 75.0


def test_netmf_deterministic(small_amazon):
    # svds used to start ARPACK from the global RNG: equal only up to sign
    # and round-off between two fits in one process.
    e1 = NetMF(dim=16).fit(small_amazon).embeddings()
    assert np.array_equal(e1, NetMF(dim=16).fit(small_amazon).embeddings())
    state = np.random.get_state()
    try:
        np.random.seed(1234)  # an unrelated global-RNG change must not matter
        assert np.array_equal(e1, NetMF(dim=16).fit(small_amazon).embeddings())
    finally:
        np.random.set_state(state)


def test_netmf_size_guard():
    from repro.graph import Graph

    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(TrainingError):
        NetMF().fit(Graph(40_000, empty, empty))


def test_metapath2vec_on_bipartite(small_taobao):
    split = train_test_split_edges(small_taobao, 0.2, seed=1)
    model = Metapath2Vec(metapath=["user", "item"], **FAST)
    auc = evaluate_link_prediction(
        model.fit(split.train_graph).embeddings(), split, per_type_average=False
    ).roc_auc
    assert auc > 55.0


def test_metapath2vec_needs_ahg(small_powerlaw):
    with pytest.raises(TrainingError):
        Metapath2Vec().fit(small_powerlaw)


def test_anrl_uses_attributes(amazon_split):
    assert _auc(ANRL(dim=16, epochs=1), amazon_split) > 60.0


def test_anrl_requires_features(small_powerlaw):
    with pytest.raises(TrainingError):
        ANRL().fit(small_powerlaw)


@pytest.mark.parametrize("variant", ["network", "results", "layer_coanalysis"])
def test_pmne_variants(amazon_split, variant):
    model = PMNE(variant, dim=16, epochs=1, walks_per_vertex=2, walk_length=6)
    assert _auc(model, amazon_split) > 65.0


def test_pmne_unknown_variant():
    with pytest.raises(TrainingError):
        PMNE("ensemble")


def test_pmne_needs_ahg(small_powerlaw):
    with pytest.raises(TrainingError):
        PMNE("network").fit(small_powerlaw)


def test_mve_beats_random(amazon_split):
    model = MVE(dim=16, epochs=1, walks_per_vertex=2, walk_length=6)
    assert _auc(model, amazon_split) > 65.0


def test_mne_beats_random(amazon_split):
    model = MNE(dim=16, epochs=1, walks_per_vertex=2, walk_length=6)
    assert _auc(model, amazon_split) > 65.0


def test_mne_type_embeddings(small_amazon):
    model = MNE(dim=16, epochs=1, walks_per_vertex=2, walk_length=6)
    model.fit(small_amazon)
    co_view = model.type_embeddings("co_view")
    co_buy = model.type_embeddings("co_buy")
    assert co_view.shape == co_buy.shape
    assert not np.allclose(co_view, co_buy)
    with pytest.raises(TrainingError):
        model.type_embeddings("returns")


def test_struc2vec_groups_roles():
    """Hub vertices of two disjoint stars embed closer to each other than
    to leaves — the structural-identity property."""
    from repro.graph import Graph

    # Two stars with hubs 0 and 10.
    src = np.concatenate([np.zeros(9), np.full(9, 10)]).astype(np.int64)
    dst = np.concatenate([np.arange(1, 10), np.arange(11, 20)]).astype(np.int64)
    g = Graph(20, src, dst, directed=False)
    emb = Struc2Vec(dim=8, knn=3, epochs=2, walks_per_vertex=4).fit(g).embeddings()
    hub_sim = emb[0] @ emb[10]
    leaf_sim = emb[0] @ emb[1]
    assert hub_sim > leaf_sim
