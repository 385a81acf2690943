"""Synthetic data substrate: generators, registry, splits."""

import numpy as np
import pytest

from repro.data import (
    DATASETS,
    amazon_graph,
    dynamic_taobao,
    knowledge_graph,
    make_dataset,
    powerlaw_graph,
    taobao_graph,
    train_test_split_edges,
)
from repro.errors import DatasetError
from repro.graph import Graph
from repro.utils.rng import make_rng
from tests.conftest import tail_mass


def test_taobao_schema(small_taobao):
    d = small_taobao.describe()
    assert d["n_vertex_types"] == 2
    assert d["n_edge_types"] == 5
    assert set(d["edges_by_type"]) == {"click", "collect", "cart", "buy", "item_item"}
    assert d["feature_dim"] == 32  # max(27, 32)


def test_taobao_deterministic():
    g1 = taobao_graph(n_users=100, n_items=40, seed=9)
    g2 = taobao_graph(n_users=100, n_items=40, seed=9)
    assert g1.n_edges == g2.n_edges
    np.testing.assert_array_equal(g1.edge_array()[0], g2.edge_array()[0])
    g3 = taobao_graph(n_users=100, n_items=40, seed=10)
    assert not np.array_equal(g1.edge_array()[1], g3.edge_array()[1])


def test_taobao_item_indegree_heavy_tailed(small_taobao):
    items = small_taobao.vertices_of_type("item")
    in_deg = small_taobao.in_degrees()[items].astype(float)
    assert tail_mass(in_deg, 0.1) > 0.35


def test_taobao_click_dominates(small_taobao):
    counts = small_taobao.describe()["edges_by_type"]
    assert counts["click"] > counts["buy"]


def test_taobao_user_attrs_overlap(small_taobao):
    """Attribute rows from a small vocab must collide (the dedup premise)."""
    users = small_taobao.vertices_of_type("user")
    rows = small_taobao.vertex_features[users]
    distinct = np.unique(rows, axis=0).shape[0]
    assert distinct < users.size


def test_taobao_validation():
    with pytest.raises(DatasetError):
        taobao_graph(n_users=0)


def test_large_is_about_6x_small():
    small = make_dataset("taobao-small-sim", scale=0.25, seed=0)
    large = make_dataset("taobao-large-sim", scale=0.25, seed=0)
    ratio = large.n_edges / small.n_edges
    assert 4.0 < ratio < 8.0


def test_amazon_schema(small_amazon):
    d = small_amazon.describe()
    assert d["n_vertex_types"] == 1
    assert set(d["edges_by_type"]) == {"co_view", "co_buy"}
    assert not small_amazon.directed


def test_amazon_communities_in_features(small_amazon):
    # The leading feature block one-hot encodes the category/community,
    # which correlates with the edge structure.
    n_communities = 6  # the fixture's configuration
    community = small_amazon.vertex_features[:, :n_communities].argmax(axis=1)
    src, dst, _ = small_amazon.edge_array()
    assert np.mean(community[src] == community[dst]) > 0.5


def test_amazon_cobuy_subset_flavour(small_amazon):
    counts = small_amazon.describe()["edges_by_type"]
    assert counts["co_buy"] < counts["co_view"]


def test_amazon_validation():
    with pytest.raises(DatasetError):
        amazon_graph(n_products=5, n_communities=20)


def test_powerlaw_graph_shapes():
    g = powerlaw_graph(500, seed=1)
    assert g.n_vertices == 500
    assert g.n_edges > 0
    with pytest.raises(DatasetError):
        powerlaw_graph(1)


def test_powerlaw_preferential_makes_indegree_heavy():
    """Degree-proportional destinations: a heavier in-degree tail than the
    same sources with uniformly drawn destinations."""
    pref = powerlaw_graph(2000, seed=2)
    src, _, _ = pref.edge_array()
    unif = Graph(2000, src, make_rng(2).integers(0, 2000, size=src.size))
    assert tail_mass(pref.in_degrees().astype(float), 0.05) > tail_mass(
        unif.in_degrees().astype(float), 0.05
    )


def test_dynamic_taobao_structure():
    dyn = dynamic_taobao(n_vertices=200, n_timestamps=4, seed=5)
    assert dyn.n_timestamps == 4
    assert 0.0 < dyn.burst_fraction() < 1.0
    # Net growth: adds outnumber removals by construction.
    assert dyn.snapshots[-1].n_edges > dyn.snapshots[0].n_edges


def test_dynamic_burst_targets_concentrated():
    dyn = dynamic_taobao(n_vertices=200, n_timestamps=3, burst_size=30, seed=6)
    burst_targets = [ev.dst for ev in dyn.events if ev.burst]
    normal_targets = [ev.dst for ev in dyn.events if ev.kind == "add" and not ev.burst]
    # Burst edges pile onto very few targets.
    assert len(set(burst_targets)) < len(set(normal_targets)) / 2


def test_dynamic_validation():
    with pytest.raises(DatasetError):
        dynamic_taobao(n_timestamps=1)


def test_knowledge_graph_structure():
    kg, brand_of, cat_of = knowledge_graph(200, n_brands=20, n_categories=5, seed=7)
    assert kg.n_vertices == 200 + 20 + 5
    assert brand_of.shape == (200,)
    assert cat_of.shape == (200,)
    # Items connect to exactly their brand and category.
    item = 0
    nbrs = set(kg.out_neighbors(item).tolist())
    assert 200 + brand_of[0] in nbrs
    assert 220 + cat_of[0] in nbrs


def test_knowledge_graph_brand_nests_in_category():
    kg, brand_of, cat_of = knowledge_graph(300, n_brands=30, n_categories=6, seed=8)
    # The brand of an item should live in the item's category (when possible).
    brands = kg.vertices_of_type("brand")
    assert brands.size == 30


def test_knowledge_graph_alignment():
    cats = np.arange(100) % 4
    kg, _, cat_of = knowledge_graph(100, n_categories=4, category_of=cats, seed=9)
    np.testing.assert_array_equal(cat_of, cats)


def test_registry_names():
    for name in (
        "taobao-small-sim",
        "taobao-large-sim",
        "amazon-sim",
    ):
        assert name in DATASETS


def test_registry_unknown_and_scale():
    with pytest.raises(DatasetError):
        make_dataset("imaginary")
    with pytest.raises(DatasetError):
        make_dataset("amazon-sim", scale=0.0)


def test_split_sizes(small_amazon):
    split = train_test_split_edges(small_amazon, 0.25, seed=1)
    assert split.n_test == round(0.25 * small_amazon.n_edges)
    assert split.train_graph.n_edges == small_amazon.n_edges - split.n_test
    assert split.test_neg.shape == split.test_pos.shape


def test_split_negatives_avoid_edges(small_amazon):
    split = train_test_split_edges(small_amazon, 0.2, seed=2)
    bad = 0
    for u, v in split.test_neg:
        if small_amazon.has_edge(int(u), int(v)):
            bad += 1
    assert bad / split.test_neg.shape[0] < 0.05


def test_split_preserves_ahg(small_amazon):
    split = train_test_split_edges(small_amazon, 0.2, seed=3)
    assert hasattr(split.train_graph, "edge_type_names")
    assert split.train_graph.n_vertices == small_amazon.n_vertices
    assert split.test_types.shape == (split.n_test,)


def test_split_one_negative_per_positive(small_amazon):
    split = train_test_split_edges(small_amazon, 0.1, seed=4)
    assert split.test_neg.shape == split.test_pos.shape
    # Each negative corrupts its own positive's destination.
    np.testing.assert_array_equal(split.test_neg[:, 0], split.test_pos[:, 0])


def test_split_validation(small_amazon):
    with pytest.raises(DatasetError):
        train_test_split_edges(small_amazon, 0.0)
