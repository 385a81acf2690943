"""Graph core: CSR construction, adjacency access, derived structures."""

import numpy as np
import pytest

from repro.errors import GraphError, VertexNotFoundError
from repro.graph import Graph


def test_basic_counts(tiny_graph):
    assert tiny_graph.n_vertices == 6
    assert tiny_graph.n_edges == 7


def test_out_neighbors(tiny_graph):
    assert sorted(tiny_graph.out_neighbors(0).tolist()) == [1, 2]
    assert tiny_graph.out_neighbors(5).size == 0


def test_degrees(tiny_graph):
    np.testing.assert_array_equal(
        tiny_graph.out_degrees(), np.array([2, 1, 1, 1, 2, 0])
    )
    np.testing.assert_array_equal(tiny_graph.in_degrees(), np.array([1, 1, 2, 1, 1, 1]))
    assert tiny_graph.out_degrees().sum() == tiny_graph.in_degrees().sum()


def test_has_edge(tiny_graph):
    assert tiny_graph.has_edge(0, 1)
    assert not tiny_graph.has_edge(1, 0)  # directed


def test_undirected_symmetry(tiny_undirected):
    assert tiny_undirected.has_edge(0, 1)
    assert tiny_undirected.has_edge(1, 0)
    assert tiny_undirected.n_edges == 4  # each edge counted once
    assert tiny_undirected.out_degrees()[0] == 2  # mirrored adjacency


def test_undirected_in_equals_out(tiny_undirected):
    np.testing.assert_array_equal(
        tiny_undirected.in_degrees(), tiny_undirected.out_degrees()
    )


def test_vertex_bounds_checked(tiny_graph):
    with pytest.raises(VertexNotFoundError):
        tiny_graph.out_neighbors(6)
    with pytest.raises(VertexNotFoundError):
        tiny_graph.has_edge(-1, 0)


def test_construction_validations():
    with pytest.raises(GraphError):
        Graph(-1, np.array([0]), np.array([0]))
    with pytest.raises(GraphError):
        Graph(2, np.array([0, 1]), np.array([1]))  # ragged
    with pytest.raises(GraphError):
        Graph(2, np.array([0]), np.array([5]))  # endpoint out of range
    with pytest.raises(GraphError):
        Graph(2, np.array([0]), np.array([1]), weights=np.array([0.0]))  # w<=0
    with pytest.raises(GraphError):
        Graph(2, np.array([0]), np.array([1]), weights=np.array([1.0, 2.0]))


def test_empty_graph():
    empty = np.zeros(0, dtype=np.int64)
    g = Graph(3, empty, empty)
    assert g.n_edges == 0
    assert g.out_neighbors(0).size == 0
    assert g.in_degrees().sum() == 0


def test_csr_arrays_consistent(tiny_graph):
    indptr, indices, weights = tiny_graph.csr_arrays()
    assert indptr[-1] == tiny_graph.n_edges
    assert indices.size == weights.size == tiny_graph.n_edges


def test_multi_edges_preserved():
    # Two parallel arcs 0->1 with different weights both stored.
    g = Graph(2, np.array([0, 0]), np.array([1, 1]), weights=np.array([1.0, 2.0]))
    indptr, _, weights = g.csr_arrays()
    assert g.out_degrees()[0] == 2
    np.testing.assert_array_equal(np.sort(weights[indptr[0] : indptr[1]]), [1.0, 2.0])


def test_repr(tiny_graph, tiny_undirected):
    assert "directed" in repr(tiny_graph)
    assert "undirected" in repr(tiny_undirected)
