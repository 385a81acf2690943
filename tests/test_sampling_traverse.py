"""TRAVERSE samplers: vertex/edge batches, type filters, epochs."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import EdgeTraverseSampler, VertexTraverseSampler


def test_vertex_sample_from_pool(tiny_ahg, rng):
    sampler = VertexTraverseSampler(tiny_ahg)
    batch = sampler.sample(10, rng)
    assert batch.shape == (10,)
    assert batch.min() >= 0 and batch.max() < tiny_ahg.n_vertices


def test_vertex_type_filter(tiny_ahg, rng):
    sampler = VertexTraverseSampler(tiny_ahg, vertex_type="item")
    batch = sampler.sample(20, rng)
    items = set(tiny_ahg.vertices_of_type("item").tolist())
    assert set(batch.tolist()) <= items


def test_vertex_explicit_pool(tiny_graph, rng):
    sampler = VertexTraverseSampler(tiny_graph, vertices=np.array([1, 3]))
    batch = sampler.sample(30, rng)
    assert set(batch.tolist()) <= {1, 3}


def test_vertex_type_needs_ahg(tiny_graph):
    with pytest.raises(SamplingError):
        VertexTraverseSampler(tiny_graph, vertex_type="user")


def test_edge_sample_returns_real_edges(tiny_graph, rng):
    sampler = EdgeTraverseSampler(tiny_graph)
    src, dst = sampler.sample(50, rng)
    for u, v in zip(src, dst):
        assert tiny_graph.has_edge(int(u), int(v))


def test_weighted_edges_prefer_heavy(tiny_graph, rng):
    # Weights 1..7; edge (4,5) has weight 7, edge (0,1) weight 1.
    sampler = EdgeTraverseSampler(tiny_graph, weighted=True)
    src, dst = sampler.sample(20_000, rng)
    heavy = np.mean((src == 4) & (dst == 5))
    light = np.mean((src == 0) & (dst == 1))
    assert heavy > light * 3


def test_batch_size_validation(tiny_graph, rng):
    sampler = VertexTraverseSampler(tiny_graph)
    with pytest.raises(SamplingError):
        sampler.sample(0, rng)


def test_empty_edge_pool():
    from repro.graph import Graph

    empty = np.zeros(0, dtype=np.int64)
    g = Graph(3, empty, empty)
    with pytest.raises(SamplingError):
        EdgeTraverseSampler(g)
