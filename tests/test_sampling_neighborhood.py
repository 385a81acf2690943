"""NEIGHBORHOOD samplers: alignment, padding, weighting, input checks."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    EdgeTraverseSampler,
    FullNeighborSampler,
    GraphProvider,
    ImportanceNeighborSampler,
    StoreProvider,
    TopKNeighborSampler,
    UniformNeighborSampler,
    VertexTraverseSampler,
    WeightedNeighborSampler,
    build_block,
    random_walks,
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
    sampler = ImportanceNeighborSampler(provider, degrees)
    rng = make_rng(2)
    hub_parent = int(np.argmax(degrees))
    nbrs = small_powerlaw.out_neighbors(hub_parent)
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
    block, rows = provider.frontier_block(np.array([v]))
    w = block.weights_of(int(rows[0]))
    assert w.size == small_powerlaw.out_degrees()[v] and np.all(w == 1.0)


# Every public entry point that takes vertex ids (or a batch size) refuses a
# malformed one before it draws: a typed error, and the caller's rng as it was.
_BY_PROVIDER = {
    "sample": lambda g, p: lambda ids, rng: UniformNeighborSampler(p).sample(ids, [3], rng),
    "build_block": lambda g, p: lambda ids, rng: build_block(
        ids, UniformNeighborSampler(p), [3], rng
    ),
}
_ON_GRAPH = {
    "random_walks": lambda g: lambda ids, rng: random_walks(g, ids, 3, rng),
    "negatives": lambda g: lambda ids, rng: DegreeBiasedNegativeSampler(g).sample(ids, 2, rng),
    "vertex_traverse": lambda g: lambda size, rng: VertexTraverseSampler(g).sample(size, rng),
    "edge_traverse": lambda g: lambda size, rng: EdgeTraverseSampler(g).sample(size, rng),
    "vertex_pool": lambda g: lambda ids, rng: VertexTraverseSampler(g, vertices=ids).sample(3, rng),
    "negative_pool": lambda g: lambda ids, rng: DegreeBiasedNegativeSampler(g, vertices=ids).sample(
        np.array([0]), 2, rng
    ),
}
_MALFORMED = {
    "float": lambda n: np.array([1.5, 2.0]),
    "negative": lambda n: np.array([-1]),
    "ge_n": lambda n: np.array([n]),
    "2d": lambda n: np.array([[1, 2]]),
}
_CASES = [
    (entry, bad, provider)
    for entry in _BY_PROVIDER
    for bad in _MALFORMED
    for provider in ("graph", "store")
] + [(entry, bad, "graph") for entry in ("random_walks", "negatives") for bad in _MALFORMED]
_CASES += [(entry, "float", "graph") for entry in ("vertex_traverse", "edge_traverse")]
_CASES += [
    (entry, bad, "graph")
    for entry in ("vertex_pool", "negative_pool")
    for bad in ("float", "negative", "ge_n")
]


@pytest.mark.parametrize("entry,bad,provider", _CASES)
def test_entry_points_reject_malformed_vertex_ids(small_taobao, entry, bad, provider):
    from repro.storage.cluster import make_store

    graph = small_taobao
    if entry in _BY_PROVIDER:
        source = (
            GraphProvider(graph)
            if provider == "graph"
            else StoreProvider(make_store(graph, 2, seed=0), from_part=0)
        )
        call = _BY_PROVIDER[entry](graph, source)
    else:
        call = _ON_GRAPH[entry](graph)
    # The traverse samplers take a batch size: 2.5 of anything is malformed.
    arg = 2.5 if entry.endswith("traverse") else _MALFORMED[bad](graph.n_vertices)
    rng = make_rng(4)
    state = rng.bit_generator.state
    with pytest.raises(SamplingError):
        call(arg, rng)
    assert rng.bit_generator.state == state
