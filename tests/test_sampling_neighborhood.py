"""NEIGHBORHOOD samplers: alignment, padding, weighting, dynamic updates."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import (
    FullNeighborSampler,
    GraphProvider,
    ImportanceNeighborSampler,
    StoreProvider,
    TopKNeighborSampler,
    UniformNeighborSampler,
    WeightedNeighborSampler,
)
from repro.utils.rng import make_rng


def test_layer_shapes(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([0, 1, 4]), [3, 2], rng)
    assert [l.size for l in out.layers] == [3, 9, 18]
    assert out.n_hops == 2


def test_samples_are_neighbors(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([0]), [5], rng)
    assert set(out.layers[1].tolist()) <= set(tiny_graph.out_neighbors(0).tolist())


def test_isolated_vertex_pads_self(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([5]), [4], rng)  # 5 has no out-edges
    assert set(out.layers[1].tolist()) == {5}


def test_pad_mask_false_for_real_neighbors(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([0]), [4], rng)
    assert not (out.layers[1] == out.layers[0][0]).any()


def test_empty_batch_rejected(tiny_graph, rng):
    sampler = UniformNeighborSampler(GraphProvider(tiny_graph))
    with pytest.raises(SamplingError):
        sampler.sample(np.array([], dtype=np.int64), [2], rng)
    with pytest.raises(SamplingError):
        sampler.sample(np.array([0]), [], rng)
    with pytest.raises(SamplingError):
        sampler.sample(np.array([0]), [0], rng)


def test_weighted_respects_weights(tiny_graph):
    # Vertex 0: neighbors 1 (w=1), 2 (w=2).
    sampler = WeightedNeighborSampler(GraphProvider(tiny_graph))
    rng = make_rng(0)
    out = sampler.sample(np.array([0] * 3000), [1], rng)
    frac2 = np.mean(out.layers[1] == 2)
    assert abs(frac2 - 2.0 / 3.0) < 0.03


def test_dynamic_weight_update_shifts_distribution(tiny_graph):
    sampler = WeightedNeighborSampler(GraphProvider(tiny_graph))
    rng = make_rng(1)
    # Push all weight toward neighbor index 0 (vertex 1).
    sampler.backward(0, np.array([50.0, -50.0]), lr=0.1)
    out = sampler.sample(np.array([0] * 500), [1], rng)
    assert np.mean(out.layers[1] == 1) > 0.95


def test_dynamic_update_shape_checked(tiny_graph):
    sampler = WeightedNeighborSampler(GraphProvider(tiny_graph))
    with pytest.raises(SamplingError):
        sampler.backward(0, np.array([1.0, 2.0, 3.0]))


def test_topk_deterministic(tiny_graph, rng):
    sampler = TopKNeighborSampler(GraphProvider(tiny_graph))
    # Vertex 0: weights 1->1, 2->2; top-1 must be vertex 2.
    out = sampler.sample(np.array([0]), [1], rng)
    assert out.layers[1].tolist() == [2]


def test_topk_cycles_when_fanout_exceeds_degree(tiny_graph, rng):
    sampler = TopKNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([1]), [3], rng)  # degree 1
    assert out.layers[1].tolist() == [2, 2, 2]


def test_importance_sampler_prefers_high_degree(small_powerlaw):
    provider = GraphProvider(small_powerlaw)
    degrees = small_powerlaw.out_degrees()
    sampler = ImportanceNeighborSampler(provider, degrees, beta=1.0)
    rng = make_rng(2)
    hub_parent = int(np.argmax(degrees))
    nbrs = provider.neighbors(hub_parent)
    drawn = sampler.sample(np.array([hub_parent]), [4000], rng).layers[1]
    # Draws lean to high-degree neighbors: above the uniform mean degree.
    assert set(drawn.tolist()) <= set(nbrs.tolist())
    assert degrees[drawn].mean() > degrees[nbrs].mean()


def test_full_sampler_covers_neighbors(tiny_graph, rng):
    sampler = FullNeighborSampler(GraphProvider(tiny_graph))
    out = sampler.sample(np.array([0]), [2], rng)
    assert set(out.layers[1].tolist()) == {1, 2}


def test_full_sampler_max_fanout_validation(tiny_graph):
    with pytest.raises(SamplingError):
        FullNeighborSampler(GraphProvider(tiny_graph), max_fanout=0)


def test_store_provider_accounts(small_powerlaw):
    from repro.storage.cluster import make_store
    from repro.storage.costmodel import EV_LOCAL_READ, EV_REMOTE_RPC

    store = make_store(small_powerlaw, 4, seed=0)
    provider = StoreProvider(store, from_part=0)
    sampler = UniformNeighborSampler(provider)
    rng = make_rng(3)
    sampler.sample(np.arange(50), [3], rng)
    total = store.ledger.count(EV_LOCAL_READ) + store.ledger.count(EV_REMOTE_RPC)
    assert total > 0
    assert provider.n_vertices == small_powerlaw.n_vertices


def test_store_provider_weights_uniform(small_powerlaw):
    from repro.storage.cluster import make_store

    store = make_store(small_powerlaw, 2, seed=0)
    provider = StoreProvider(store, from_part=0)
    v = int(np.argmax(small_powerlaw.out_degrees()))
    w = provider.weights(v)
    assert np.all(w == 1.0)
