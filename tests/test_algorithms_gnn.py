"""GNN framework, GraphSAGE and the normalized adjacency."""

import numpy as np
import pytest

from repro.algorithms import GNNFramework, GraphSAGE
from repro.algorithms.hierarchical_gnn import normalized_adjacency
from repro.data import train_test_split_edges
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


def test_normalized_adjacency_properties(small_amazon):
    a_hat = normalized_adjacency(small_amazon)
    assert a_hat.shape == (small_amazon.n_vertices,) * 2
    # Symmetric normalization of a symmetric matrix stays symmetric.
    diff = (a_hat - a_hat.T).toarray()
    np.testing.assert_allclose(diff, 0.0, atol=1e-12)
    # Spectral radius of the renormalized adjacency is <= 1.
    from scipy.sparse.linalg import eigsh

    top = eigsh(a_hat, k=1, return_eigenvectors=False)[0]
    assert top <= 1.0 + 1e-9


def test_framework_kmax_validation():
    """A bad setting is refused at construction, before ``fit`` reads or
    standardises any feature."""
    for config in ({"kmax": 0}, {"fanout": 0}, {"fanout": -2}, {"fanout": 2.5},
                   {"aggregator": "bogus"}):
        for model in (GNNFramework, GraphSAGE):
            with pytest.raises(TrainingError):
                model(**config)


def test_framework_unknown_sampler():
    with pytest.raises(TrainingError, match="psychic"):
        GNNFramework(sampler="psychic", epochs=1)


@pytest.mark.parametrize("aggregator", ["mean", "maxpool"])
def test_framework_aggregator_plugins(small_amazon, aggregator):
    model = GNNFramework(
        dim=12, kmax=1, fanout=4, aggregator=aggregator,
        epochs=1, max_steps_per_epoch=5,
    )
    emb = model.fit(small_amazon).embeddings()
    assert emb.shape == (small_amazon.n_vertices, 12)
    assert np.isfinite(emb).all()


@pytest.mark.parametrize("sampler", ["uniform", "weighted", "topk", "importance"])
def test_framework_sampler_plugins(small_amazon, sampler):
    model = GNNFramework(
        dim=12, kmax=1, fanout=4, sampler=sampler,
        epochs=1, max_steps_per_epoch=5,
    )
    emb = model.fit(small_amazon).embeddings()
    assert np.isfinite(emb).all()


def test_framework_featureless_graph(small_powerlaw):
    model = GNNFramework(dim=12, kmax=1, fanout=4, epochs=1, max_steps_per_epoch=5)
    emb = model.fit(small_powerlaw).embeddings()
    assert emb.shape == (small_powerlaw.n_vertices, 12)


def test_framework_loss_history_recorded(small_amazon):
    model = GNNFramework(dim=12, kmax=1, epochs=2, max_steps_per_epoch=5)
    model.fit(small_amazon)
    assert len(model.loss_history) == 2
    assert all(np.isfinite(l) for l in model.loss_history)


def test_graphsage_is_framework_config(amazon_split):
    model = GraphSAGE(dim=16, epochs=3, max_steps_per_epoch=15)
    assert model.sampler == "uniform"
    assert _auc(model, amazon_split) > 65.0


def test_graphsage_training_improves_loss(small_amazon):
    model = GraphSAGE(dim=16, epochs=4, max_steps_per_epoch=10, lr=0.02)
    model.fit(small_amazon)
    assert model.loss_history[-1] < model.loss_history[0]
