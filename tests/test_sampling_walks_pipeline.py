"""Random walks, metapath constraints, skip-gram pairs, Figure 5 pipeline."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    GraphProvider,
    SamplingPipeline,
    UniformNeighborSampler,
    VertexTraverseSampler,
    metapath_walks,
    node2vec_walks,
    random_walks,
)
from repro.sampling.randomwalk import walk_context_pairs
from repro.utils.rng import make_rng


def _assert_walk_valid(graph, walk):
    for a, b in zip(walk[:-1], walk[1:]):
        assert graph.has_edge(int(a), int(b))


def test_random_walk_steps_are_edges(tiny_graph, rng):
    walks = random_walks(tiny_graph, np.array([0, 1, 2]), 5, rng)
    for walk in walks:
        _assert_walk_valid(tiny_graph, walk)


def test_walk_truncates_at_sink(tiny_graph, rng):
    walks = random_walks(tiny_graph, np.array([5]), 5, rng)  # 5 is a sink
    assert walks[0].tolist() == [5]


def test_walk_length_validation(tiny_graph, rng):
    with pytest.raises(SamplingError):
        random_walks(tiny_graph, np.array([0]), 0, rng)


def test_node2vec_low_p_returns(tiny_undirected):
    """p << 1 makes the walk bounce back to the previous vertex."""
    rng = make_rng(1)
    walks = node2vec_walks(tiny_undirected, np.array([0] * 300), 4, rng, p=0.01, q=1.0)
    returns = 0
    total = 0
    for walk in walks:
        for i in range(2, len(walk)):
            total += 1
            returns += int(walk[i] == walk[i - 2])
    assert returns / total > 0.6


def test_node2vec_high_p_explores(tiny_undirected):
    rng = make_rng(1)
    walks = node2vec_walks(tiny_undirected, np.array([0] * 300), 4, rng, p=100.0, q=1.0)
    returns = 0
    total = 0
    for walk in walks:
        for i in range(2, len(walk)):
            total += 1
            returns += int(walk[i] == walk[i - 2])
    assert returns / total < 0.2


def test_node2vec_validations(tiny_graph, rng):
    with pytest.raises(SamplingError):
        node2vec_walks(tiny_graph, np.array([0]), 3, rng, p=0.0)
    with pytest.raises(SamplingError):
        node2vec_walks(tiny_graph, np.array([0]), 0, rng)


def test_metapath_alternates_types(tiny_ahg, rng):
    starts = tiny_ahg.vertices_of_type("user")
    walks = metapath_walks(tiny_ahg, starts, ["user", "item"], 4, rng)
    for walk in walks:
        for i, v in enumerate(walk):
            expected = "user" if i % 2 == 0 else "item"
            actual = tiny_ahg.vertex_type_names[int(tiny_ahg.vertex_types[int(v)])]
            assert actual == expected


def test_metapath_start_type_checked(tiny_ahg, rng):
    item = int(tiny_ahg.vertices_of_type("item")[0])
    with pytest.raises(SamplingError):
        metapath_walks(tiny_ahg, np.array([item]), ["user", "item"], 3, rng)


def test_metapath_needs_two_types(tiny_ahg, rng):
    with pytest.raises(SamplingError):
        metapath_walks(tiny_ahg, np.array([0]), ["user"], 3, rng)


def test_context_pairs_window():
    walks = [np.array([10, 11, 12, 13])]
    centers, contexts = walk_context_pairs(walks, window=1)
    pairs = set(zip(centers.tolist(), contexts.tolist()))
    assert (10, 11) in pairs and (11, 10) in pairs and (11, 12) in pairs
    assert (10, 12) not in pairs  # outside window


def test_context_pairs_symmetric_count():
    walks = [np.array([0, 1, 2])]
    centers, contexts = walk_context_pairs(walks, window=2)
    assert centers.size == contexts.size == 6


def test_context_pairs_window_validation():
    with pytest.raises(SamplingError):
        walk_context_pairs([np.array([0, 1])], window=0)


def test_pipeline_figure5_shape(tiny_ahg, rng):
    pipe = SamplingPipeline(
        traverse=VertexTraverseSampler(tiny_ahg, vertex_type="user"),
        neighborhood=UniformNeighborSampler(GraphProvider(tiny_ahg)),
        negative=DegreeBiasedNegativeSampler(tiny_ahg),
        hop_nums=[2, 2],
        neg_num=3,
    )
    batch = pipe.sample(4, rng)
    assert batch.batch_size == 4
    assert batch.vertices.shape == (4,)
    assert [l.size for l in batch.context.layers] == [4, 8, 16]
    assert batch.negatives.shape == (4, 3)


def test_pipeline_with_edge_traverse(tiny_ahg, rng):
    from repro.sampling import EdgeTraverseSampler

    pipe = SamplingPipeline(
        traverse=EdgeTraverseSampler(tiny_ahg),
        neighborhood=UniformNeighborSampler(GraphProvider(tiny_ahg)),
        negative=DegreeBiasedNegativeSampler(tiny_ahg),
        hop_nums=[2],
        neg_num=2,
    )
    batch = pipe.sample(5, rng)
    assert batch.vertices.shape == (5,)


def test_pipeline_neg_num_validation(tiny_ahg):
    with pytest.raises(SamplingError):
        SamplingPipeline(
            traverse=VertexTraverseSampler(tiny_ahg),
            neighborhood=UniformNeighborSampler(GraphProvider(tiny_ahg)),
            negative=DegreeBiasedNegativeSampler(tiny_ahg),
            hop_nums=[2],
            neg_num=0,
        )
