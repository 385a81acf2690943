"""The six in-house models: behavioral contracts from the paper."""

import numpy as np
import pytest

from repro.algorithms import (
    AHEP,
    DAE,
    GATNE,
    HEP,
    TNE,
    BayesianGNN,
    BetaVAE,
    DANE,
    EvolvingGNN,
    HierarchicalGNN,
    MixtureGNN,
)
from repro.data import dynamic_taobao, knowledge_graph, train_test_split_edges
from repro.errors import TrainingError
from repro.tasks import evaluate_link_prediction


@pytest.fixture(scope="module")
def amazon_split(small_amazon):
    return train_test_split_edges(small_amazon, 0.2, seed=0)


def _auc(model, split):
    model.fit(split.train_graph)
    return evaluate_link_prediction(
        model.embeddings(), split, per_type_average=False
    ).roc_auc


# --------------------------------------------------------------------- #
# HEP / AHEP
# --------------------------------------------------------------------- #
def test_hep_beats_random(amazon_split):
    assert _auc(HEP(dim=16, steps=60), amazon_split) > 65.0


def test_ahep_faster_and_lighter_than_hep():
    """The Figure 10 contract: AHEP touches fewer embedding rows per batch.

    The time half of the claim is a wall-clock race, so it lives in the
    ``fig10`` experiment's check (AHEP at least 1.5x faster per batch),
    which ``repro bench-compare --smoke`` runs; this test holds the
    deterministic memory half.
    """
    from repro.data import taobao_graph

    dense = taobao_graph(
        n_users=300, n_items=100, mean_user_degree=40.0,
        mean_item_out_degree=20.0, seed=4,
    )
    hep = HEP(dim=32, steps=6, neighbor_cap=64, batch_size=256, seed=0).fit(dense)
    ahep = AHEP(dim=32, steps=6, neighbor_cap=4, batch_size=256, seed=0).fit(dense)
    assert ahep.peak_batch_rows < hep.peak_batch_rows


def test_ahep_quality_close_to_hep(amazon_split):
    """Table 7 contract: AHEP within a modest gap of HEP."""
    hep_auc = _auc(HEP(dim=16, steps=60, seed=1), amazon_split)
    ahep_auc = _auc(AHEP(dim=16, steps=60, seed=1), amazon_split)
    assert ahep_auc > hep_auc - 12.0


def test_hep_requires_ahg(small_powerlaw):
    with pytest.raises(TrainingError):
        HEP().fit(small_powerlaw)


# --------------------------------------------------------------------- #
# GATNE
# --------------------------------------------------------------------- #
def test_gatne_beats_random(amazon_split):
    model = GATNE(dim=16, epochs=1, walks_per_vertex=2, walk_length=6)
    assert _auc(model, amazon_split) > 70.0


def test_gatne_final_concatenates_types(small_amazon):
    model = GATNE(dim=16, epochs=1, walks_per_vertex=2, walk_length=6)
    model.fit(small_amazon)
    assert model.embeddings().shape == (small_amazon.n_vertices, 32)  # 2 types


def test_gatne_attr_term_used(small_amazon):
    """Zeroing beta must change the result — attributes reach the output."""
    with_attr = GATNE(dim=16, beta=1.0, epochs=1, walks_per_vertex=2, seed=2)
    without = GATNE(dim=16, beta=0.0, epochs=1, walks_per_vertex=2, seed=2)
    e1 = with_attr.fit(small_amazon).embeddings()
    e2 = without.fit(small_amazon).embeddings()
    assert not np.allclose(e1, e2)


def test_gatne_requires_ahg(small_powerlaw):
    with pytest.raises(TrainingError):
        GATNE().fit(small_powerlaw)


# --------------------------------------------------------------------- #
# Mixture GNN
# --------------------------------------------------------------------- #
def test_mixture_beats_random(amazon_split):
    model = MixtureGNN(dim=16, n_senses=2, epochs=1, walks_per_vertex=2)
    assert _auc(model, amazon_split) > 70.0


def test_mixture_sense_count_validation():
    with pytest.raises(TrainingError):
        MixtureGNN(n_senses=0)


# --------------------------------------------------------------------- #
# Hierarchical GNN
# --------------------------------------------------------------------- #
def test_hierarchical_beats_random(amazon_split):
    model = HierarchicalGNN(dim=16, n_clusters=20, steps=60)
    assert _auc(model, amazon_split) > 65.0


def test_hierarchical_size_guard():
    from repro.graph import Graph

    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(TrainingError):
        HierarchicalGNN().fit(Graph(10_000, empty, empty))


# --------------------------------------------------------------------- #
# Evolving GNN
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_dynamic():
    return dynamic_taobao(
        n_vertices=150, n_timestamps=3, normal_adds_per_step=40,
        burst_size=15, removals_per_step=5, seed=2,
    )


def test_evolving_gnn_fits_dynamic(tiny_dynamic):
    model = EvolvingGNN(dim=12, dynamics_dim=6, sage_epochs=1, head_epochs=10)
    model.fit(tiny_dynamic)
    emb = model.embeddings()
    assert emb.shape[0] == tiny_dynamic.n_vertices
    assert emb.shape[1] == 12 + 6 + 6 + 4  # sage + gru state + vae mu + change feats
    assert len(model.snapshot_embeddings) == 3


def test_evolving_gnn_rejects_static(small_amazon):
    with pytest.raises(TrainingError):
        EvolvingGNN().fit(small_amazon)


def test_tne_fits_dynamic(tiny_dynamic):
    model = TNE(dim=12)
    emb = model.fit(tiny_dynamic).embeddings()
    assert emb.shape == (tiny_dynamic.n_vertices, 12)
    assert len(model.snapshot_embeddings) == 3


def test_tne_smoothing_validation():
    with pytest.raises(TrainingError):
        TNE(smoothing=1.0)


def test_dane_fits_dynamic(tiny_dynamic):
    emb = DANE(dim=12).fit(tiny_dynamic).embeddings()
    assert emb.shape == (tiny_dynamic.n_vertices, 12)


def test_dynamic_baselines_are_deterministic(tiny_dynamic):
    # svds used to start ARPACK from the global RNG: Table 11's TNE / DANE
    # rows moved by tens of points between two runs of the same code.
    for model in (TNE, DANE):
        first = model(dim=12).fit(tiny_dynamic).embeddings()
        assert np.array_equal(first, model(dim=12).fit(tiny_dynamic).embeddings())


def test_dynamic_baselines_reject_static(small_amazon):
    with pytest.raises(TrainingError):
        TNE().fit(small_amazon)
    with pytest.raises(TrainingError):
        DANE().fit(small_amazon)


# --------------------------------------------------------------------- #
# Bayesian GNN
# --------------------------------------------------------------------- #
def test_bayesian_correction_improves_kg_alignment():
    """Corrected embeddings must predict KG structure (same-category
    similarity) better than the uncorrected task embeddings."""
    rng = np.random.default_rng(0)
    n_items = 150
    categories = np.arange(n_items) % 5
    kg, brand_of, cat_of = knowledge_graph(
        n_items, n_brands=15, n_categories=5, category_of=categories, seed=1
    )
    # Task embeddings: weak category signal + noise.
    task = rng.normal(size=(n_items, 12))
    task[:, 0] += 0.3 * cat_of
    model = BayesianGNN(dim=12, steps=120, seed=0)
    model.fit_correction(task, kg, entity_ids=np.arange(n_items))
    corrected = model.embeddings()

    def same_cat_gap(emb):
        emb = emb / (np.linalg.norm(emb, axis=1, keepdims=True) + 1e-12)
        sims = emb @ emb.T
        same = cat_of[:, None] == cat_of[None, :]
        np.fill_diagonal(same, False)
        off = ~same
        np.fill_diagonal(off, False)
        return sims[same].mean() - sims[off].mean()

    assert same_cat_gap(corrected) > same_cat_gap(task)


def test_bayesian_fit_direct_rejected(small_amazon):
    with pytest.raises(TrainingError):
        BayesianGNN().fit(small_amazon)


def test_bayesian_shape_validation():
    kg, _, _ = knowledge_graph(10, n_brands=3, n_categories=2, seed=0)
    with pytest.raises(TrainingError):
        BayesianGNN().fit_correction(np.zeros((5, 4)), kg, np.arange(6))


# --------------------------------------------------------------------- #
# Recommendation autoencoder baselines
# --------------------------------------------------------------------- #
def test_dae_learns_interactions():
    rng = np.random.default_rng(1)
    x = (rng.random((80, 40)) < 0.1).astype(float)
    model = DAE(dim=8, hidden=16, epochs=10, seed=0).fit(x)
    assert model.user_embeddings().shape == (80, 8)
    assert model.item_embeddings().shape == (40, 8)


def test_beta_vae_learns_interactions():
    rng = np.random.default_rng(2)
    x = (rng.random((80, 40)) < 0.1).astype(float)
    model = BetaVAE(dim=8, hidden=16, epochs=10, beta=0.2, seed=0).fit(x)
    assert model.user_embeddings().shape == (80, 8)


def test_autoencoder_validations():
    with pytest.raises(TrainingError):
        DAE(corruption=1.0)
    with pytest.raises(TrainingError):
        BetaVAE(beta=-1.0)
    with pytest.raises(TrainingError):
        DAE().user_embeddings()


def test_interactions_from_dict():
    from repro.algorithms.autoencoders import _InteractionModel

    x = _InteractionModel.interactions_from({0: {1, 2}, 2: {0}}, 3, 4)
    assert x.shape == (3, 4)
    assert x[0, 1] == 1.0 and x[0, 2] == 1.0 and x[2, 0] == 1.0
    assert x.sum() == 3.0


# --------------------------------------------------------------------- #
# Every gradient-trained model: the one embeddings() accessor
# --------------------------------------------------------------------- #
#: name -> (factory, fit input, embedding width). Spectral / selection models
#: (NetMF, TNE, DANE, AutoGNN) train no parameters by gradient; DAE / BetaVAE
#: expose user/item tables instead of ``embeddings()``.
_NOT_GRADIENT_TRAINED = {
    "EmbeddingModel", "AutoGNN", "NetMF", "TNE", "DANE", "DAE", "BetaVAE",
}
_ZOO = {
    "GNNFramework": (lambda A: A.GNNFramework(dim=8, fanout=3, epochs=1, max_steps_per_epoch=2), "amazon", 8),
    "DeepWalk": (lambda A: A.DeepWalk(dim=8, epochs=1, walks_per_vertex=1), "amazon", 8),
    "Node2Vec": (lambda A: A.Node2Vec(dim=8, epochs=1, walks_per_vertex=1), "amazon", 8),
    "LINE": (lambda A: A.LINE(dim=8, steps=3, batch_size=64), "amazon", 8),
    "Metapath2Vec": (lambda A: A.Metapath2Vec(dim=8, epochs=1, walks_per_vertex=1), "amazon", 8),
    "ANRL": (lambda A: A.ANRL(dim=8, hidden=8, epochs=1, walks_per_vertex=1), "amazon", 8),
    "PMNE": (lambda A: A.PMNE("network", dim=8, epochs=1, walks_per_vertex=1), "amazon", 8),
    "MVE": (lambda A: A.MVE(dim=8, epochs=1, walks_per_vertex=1), "amazon", 8),
    "MNE": (lambda A: A.MNE(dim=8, epochs=1, walks_per_vertex=1), "amazon", 8),
    "GraphSAGE": (lambda A: A.GraphSAGE(dim=8, fanout=3, epochs=1, max_steps_per_epoch=2, minibatch_blocks=True), "amazon", 8),
    "SIGN": (lambda A: A.SIGN(dim=8, epochs=1, max_steps_per_epoch=2), "amazon", 8),
    "HEP": (lambda A: A.HEP(dim=8, steps=2, batch_size=64), "amazon", 8),
    "AHEP": (lambda A: A.AHEP(dim=8, steps=2, batch_size=64), "amazon", 8),
    "GATNE": (lambda A: A.GATNE(dim=8, epochs=1, walks_per_vertex=1), "amazon", None),
    "MixtureGNN": (lambda A: A.MixtureGNN(dim=8, n_senses=2, epochs=1, walks_per_vertex=1), "amazon", 8),
    "HierarchicalGNN": (lambda A: A.HierarchicalGNN(dim=8, n_clusters=4, steps=2, batch_size=64), "amazon", 8),
    "EvolvingGNN": (lambda A: A.EvolvingGNN(dim=8, dynamics_dim=4, sage_epochs=1, head_epochs=2), "dynamic", 8 + 4 + 4 + 4),
    "BayesianGNN": (lambda A: A.BayesianGNN(dim=8, prior_walk_epochs=1, steps=3, batch_pairs=32), "kg", 5),
}


def test_accessor_table_covers_every_gradient_trained_model():
    import repro.algorithms as A

    assert set(_ZOO) == set(A.__all__) - _NOT_GRADIENT_TRAINED


@pytest.mark.parametrize("name", sorted(_ZOO))
def test_embeddings_accessor_unfitted_raises_fitted_returns(name, small_amazon, tiny_dynamic):
    import repro.algorithms as A

    factory, kind, width = _ZOO[name]
    model = factory(A)
    with pytest.raises(TrainingError, match="not fitted"):
        model.embeddings()
    if kind == "kg":
        kg, _, _ = knowledge_graph(40, n_brands=5, n_categories=4, seed=0)
        model.fit_correction(np.zeros((40, 5)), kg, np.arange(40))
        n = 40
    else:
        graph = small_amazon if kind == "amazon" else tiny_dynamic
        assert model.fit(graph) is model
        n = graph.n_vertices
    emb = model.embeddings()
    assert emb is model.embeddings()  # an accessor, not a recomputation
    assert emb.ndim == 2 and emb.shape[0] == n and np.isfinite(emb).all()
    if width is not None:
        assert emb.shape[1] == width
