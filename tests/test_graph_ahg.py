"""AttributedHeterogeneousGraph: types, features, per-type adjacency."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.graph import AttributedHeterogeneousGraph


def test_type_lookup(tiny_ahg):
    assert tiny_ahg.vertex_type_code("user") == 0
    assert tiny_ahg.vertex_type_code("item") == 1
    assert tiny_ahg.edge_type_code("click") >= 0
    with pytest.raises(SchemaError):
        tiny_ahg.vertex_type_code("ghost")
    with pytest.raises(SchemaError):
        tiny_ahg.edge_type_code("ghost")


def test_vertices_of_type(tiny_ahg):
    users = tiny_ahg.vertices_of_type("user")
    items = tiny_ahg.vertices_of_type("item")
    assert users.size == 2
    assert items.size == 3
    assert set(users) & set(items) == set()


def test_edge_type_subgraph(tiny_ahg):
    sub = tiny_ahg.edge_type_subgraph("click")
    assert sub.n_edges == 3
    assert sub.n_vertices == tiny_ahg.n_vertices  # same id space


def test_feature_padding(tiny_ahg):
    # User features are 2-d padded to the 3-d item width.
    assert tiny_ahg.vertex_features.shape == (5, 3)
    assert tiny_ahg.vertex_features[0, 2] == 0.0  # padded slot
    assert tiny_ahg.vertex_features[2, 2] == 3.0


def test_describe(tiny_ahg):
    d = tiny_ahg.describe()
    assert d["n_vertices"] == 5
    assert d["vertices_by_type"]["user"] == 2
    assert d["edges_by_type"]["item_item"] == 1
    assert d["feature_dim"] == 3


def test_heterogeneity_requirement():
    src = np.array([0])
    dst = np.array([1])
    with pytest.raises(SchemaError):
        AttributedHeterogeneousGraph(
            2, src, dst,
            vertex_types=np.zeros(2, dtype=np.int64),
            edge_types=np.zeros(1, dtype=np.int64),
            vertex_type_names=["only"],
            edge_type_names=["only"],
        )


def test_schema_shape_validations():
    src = np.array([0])
    dst = np.array([1])
    kwargs = dict(
        vertex_types=np.zeros(2, dtype=np.int64),
        edge_types=np.zeros(1, dtype=np.int64),
        vertex_type_names=["a", "b"],
        edge_type_names=["e"],
    )
    with pytest.raises(SchemaError):
        AttributedHeterogeneousGraph(
            2, src, dst, **{**kwargs, "vertex_types": np.zeros(3, dtype=np.int64)}
        )
    with pytest.raises(SchemaError):
        AttributedHeterogeneousGraph(
            2, src, dst, **{**kwargs, "edge_types": np.zeros(2, dtype=np.int64)}
        )
    with pytest.raises(SchemaError):
        AttributedHeterogeneousGraph(
            2, src, dst, **{**kwargs, "vertex_types": np.array([0, 5])}
        )


def test_feature_row_count_checked():
    src = np.array([0])
    dst = np.array([1])
    with pytest.raises(SchemaError):
        AttributedHeterogeneousGraph(
            2, src, dst,
            vertex_types=np.zeros(2, dtype=np.int64),
            edge_types=np.zeros(1, dtype=np.int64),
            vertex_type_names=["a", "b"],
            edge_type_names=["e"],
            vertex_features=np.zeros((3, 4)),
        )


def test_no_features_returns_empty(tiny_graph):
    ahg = AttributedHeterogeneousGraph(
        2, np.array([0]), np.array([1]),
        vertex_types=np.array([0, 1]),
        edge_types=np.array([0]),
        vertex_type_names=["a", "b"],
        edge_type_names=["e"],
    )
    assert ahg.vertex_features is None
