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


def test_make_dataset_rejects_malformed_scale_and_seed():
    """Every malformed ``scale`` / ``seed`` is a ``DatasetError``, raised
    before the generator runs (so before any draw)."""
    for scale in (float("nan"), float("inf"), -float("inf"), "1", True, 0, -1.0, None):
        with pytest.raises(DatasetError, match="scale"):
            make_dataset("amazon-sim", scale=scale)
    for seed in (1.5, "x", -1, True, None, np.float64(2.0)):
        with pytest.raises(DatasetError, match="seed"):
            make_dataset("amazon-sim", scale=0.05, seed=seed)
    # numpy scalars of the right kind are accepted.
    graph = make_dataset("amazon-sim", scale=np.float64(0.05), seed=np.int64(3))
    assert graph.n_vertices == 100


def test_knowledge_graph_rejects_malformed_category_ids():
    """A float, bool, negative or out-of-range ``category_of`` id is a
    ``DatasetError`` before any draw: a float was truncated and a negative or
    too-large id wrapped (``[0.7, -1, 5]`` over 4 categories read ``[0 3 1]``)."""
    for bad in ([0.7, -1, 5], [0.0, 1.0, 2.0], [True, False, True], [0, -1, 2],
                [0, 1, 4], np.array([0, 1, 2], dtype=np.float32)):
        rng = make_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(DatasetError, match="category_of"):
            knowledge_graph(3, n_brands=2, n_categories=4, category_of=bad, seed=rng)
        assert rng.bit_generator.state == before
    with pytest.raises(DatasetError, match="one entry per item"):
        knowledge_graph(3, n_categories=4, category_of=[0, 1])
    _, _, cat_of = knowledge_graph(
        3, n_categories=4, category_of=np.array([3, 0, 2], dtype=np.uint8)
    )
    assert cat_of.dtype == np.int64 and cat_of.tolist() == [3, 0, 2]


# --------------------------------------------------------------------------- #
# Per-element oracles: the three generators as they were before their draws
# were batched, loops verbatim. The batched generators in ``repro.data`` must
# return the same arrays and leave the generator in the same state.
# --------------------------------------------------------------------------- #


def loop_taobao_graph(
    n_users=4000, n_items=1200, mean_user_degree=8.0, mean_item_out_degree=6.0, seed=0
):
    from repro.data.synthetic import (
        ATTR_VOCAB,
        BEHAVIOUR_PROBS,
        BEHAVIOUR_TYPES,
        DEGREE_ALPHA,
        INTEREST_AFFINITY,
        ITEM_ATTR_DIM,
        ITEM_ITEM_FRACTION,
        ITEM_ZIPF,
        N_INTERESTS,
        USER_ATTR_DIM,
        _discrete_attributes,
        _zipf_ranks,
    )
    from repro.graph.ahg import AttributedHeterogeneousGraph
    from repro.utils.powerlaw import sample_power_law_degrees

    rng = make_rng(seed)
    n_interests = max(1, min(N_INTERESTS, n_items // 2))

    def scaled_powerlaw(count, mean):
        max_deg = max(4, int(mean * 12))
        deg = sample_power_law_degrees(count, DEGREE_ALPHA, 1, max_deg, rng)
        scale = mean / max(deg.mean(), 1e-9)
        return np.maximum(1, np.round(deg * scale)).astype(np.int64)

    item_group = rng.integers(0, n_interests, size=n_items)
    group_items = [np.flatnonzero(item_group == g) for g in range(n_interests)]
    if any(g.size == 0 for g in group_items):
        item_group = np.arange(n_items) % n_interests
        group_items = [np.flatnonzero(item_group == g) for g in range(n_interests)]
    user_pref = _zipf_ranks(n_interests, 2 * n_users, 1.0, rng).reshape(n_users, 2)

    def pick_items(groups):
        out = np.empty(groups.size, dtype=np.int64)
        for g in range(n_interests):
            mask = groups == g
            count = int(mask.sum())
            if count:
                pool = group_items[g]
                out[mask] = pool[_zipf_ranks(pool.size, count, ITEM_ZIPF, rng)]
        return out

    user_deg = scaled_powerlaw(n_users, mean_user_degree)
    src_users = np.repeat(np.arange(n_users, dtype=np.int64), user_deg)
    n_ui = src_users.size
    in_pref = rng.random(n_ui) < INTEREST_AFFINITY
    pref_pick = user_pref[src_users, rng.integers(0, 2, size=n_ui)]
    random_group = _zipf_ranks(n_interests, n_ui, 1.0, rng)
    groups = np.where(in_pref, pref_pick, random_group)
    dst_items = pick_items(groups) + n_users
    etype_idx = rng.choice(len(BEHAVIOUR_TYPES), size=n_ui, p=BEHAVIOUR_PROBS)

    item_out_deg = scaled_powerlaw(n_items, mean_item_out_degree)
    io_src = np.repeat(
        np.arange(n_users, n_users + n_items, dtype=np.int64), item_out_deg
    )
    n_io = io_src.size
    src_groups = item_group[io_src - n_users]
    to_item = rng.random(n_io) < ITEM_ITEM_FRACTION
    io_dst = np.empty(n_io, dtype=np.int64)
    ii_groups = np.where(
        rng.random(n_io) < INTEREST_AFFINITY,
        src_groups,
        _zipf_ranks(n_interests, n_io, 1.0, rng),
    )
    io_dst[to_item] = pick_items(ii_groups[to_item]) + n_users
    interactors: list[list[int]] = [[] for _ in range(n_items)]
    for u, i in zip(src_users, dst_items - n_users):
        interactors[i].append(int(u))
    visibility = (np.arange(1, n_users + 1, dtype=np.float64)) ** -1.2
    rng.shuffle(visibility)
    iu_idx = np.flatnonzero(~to_item)
    iu_dst = np.empty(iu_idx.size, dtype=np.int64)
    fallback = _zipf_ranks(n_users, iu_idx.size, 0.8, rng)
    for j, e in enumerate(iu_idx):
        pool = interactors[int(io_src[e]) - n_users]
        if pool:
            weights = visibility[pool]
            iu_dst[j] = pool[
                int(rng.choice(len(pool), p=weights / weights.sum()))
            ]
        else:
            iu_dst[j] = fallback[j]
    io_dst[iu_idx] = iu_dst
    io_types = np.where(
        to_item,
        len(BEHAVIOUR_TYPES),
        rng.choice(len(BEHAVIOUR_TYPES), size=n_io, p=BEHAVIOUR_PROBS),
    ).astype(np.int64)
    keep = io_src != io_dst
    io_src, io_dst, io_types = io_src[keep], io_dst[keep], io_types[keep]

    src = np.concatenate([src_users, io_src])
    dst = np.concatenate([dst_items, io_dst])
    edge_types = np.concatenate([etype_idx, io_types])

    n = n_users + n_items
    vertex_types = np.concatenate(
        [np.zeros(n_users, dtype=np.int64), np.ones(n_items, dtype=np.int64)]
    )
    attr_dim = max(USER_ATTR_DIM, ITEM_ATTR_DIM)
    features = np.zeros((n, attr_dim), dtype=np.float32)
    features[:n_users, :USER_ATTR_DIM] = _discrete_attributes(
        n_users, USER_ATTR_DIM, ATTR_VOCAB, rng
    )
    features[n_users:, :ITEM_ATTR_DIM] = _discrete_attributes(
        n_items, ITEM_ATTR_DIM, ATTR_VOCAB, rng
    )
    tag_dims = min(n_interests, 20)
    features[:, :tag_dims] = 0.0
    features[np.arange(n_users), user_pref[:, 0] % tag_dims] = 1.0
    features[np.arange(n_users), user_pref[:, 1] % tag_dims] = 1.0
    features[n_users + np.arange(n_items), item_group % tag_dims] = 1.0

    return AttributedHeterogeneousGraph(
        n_vertices=n,
        src=src,
        dst=dst,
        vertex_types=vertex_types,
        edge_types=edge_types,
        vertex_type_names=["user", "item"],
        edge_type_names=list(BEHAVIOUR_TYPES) + ["item_item"],
        directed=True,
        vertex_features=features,
    )


def loop_amazon_graph(n_products=2000, n_communities=20, seed=0):
    from repro.data.amazon import COBUY_FRACTION, COVIEW_PER_PRODUCT, INTRA_COMMUNITY
    from repro.data.amazon import PRODUCT_ATTR_DIM, ZIPF
    from repro.graph.ahg import AttributedHeterogeneousGraph

    rng = make_rng(seed)
    community = rng.integers(0, n_communities, size=n_products)
    members = [np.flatnonzero(community == c) for c in range(n_communities)]
    if any(m.size < 2 for m in members):
        community = np.arange(n_products) % n_communities
        members = [np.flatnonzero(community == c) for c in range(n_communities)]

    popularity = (np.arange(1, n_products + 1, dtype=np.float64)) ** -ZIPF
    rng.shuffle(popularity)

    n_coview = int(COVIEW_PER_PRODUCT * n_products)
    src = np.empty(n_coview, dtype=np.int64)
    dst = np.empty(n_coview, dtype=np.int64)
    all_probs = popularity / popularity.sum()
    src[:] = rng.choice(n_products, size=n_coview, p=all_probs)
    intra = rng.random(n_coview) < INTRA_COMMUNITY
    for i in range(n_coview):
        if intra[i]:
            pool = members[community[src[i]]]
            local = popularity[pool]
            dst[i] = rng.choice(pool, p=local / local.sum())
        else:
            dst[i] = rng.choice(n_products, p=all_probs)
    keep = src != dst
    src, dst = src[keep], dst[keep]

    n_cobuy = int(COBUY_FRACTION * src.size)
    idx = rng.choice(src.size, size=n_cobuy, replace=False)
    buy_src, buy_dst = src[idx].copy(), dst[idx].copy()
    n_noise = max(1, n_cobuy // 10)
    noise_src = rng.choice(n_products, size=n_noise, p=all_probs)
    noise_dst = rng.choice(n_products, size=n_noise, p=all_probs)
    keep_noise = noise_src != noise_dst
    buy_src = np.concatenate([buy_src, noise_src[keep_noise]])
    buy_dst = np.concatenate([buy_dst, noise_dst[keep_noise]])

    full_src = np.concatenate([src, buy_src])
    full_dst = np.concatenate([dst, buy_dst])
    edge_types = np.concatenate(
        [np.zeros(src.size, dtype=np.int64), np.ones(buy_src.size, dtype=np.int64)]
    )
    features = np.zeros(
        (n_products, n_communities + PRODUCT_ATTR_DIM - 1), dtype=np.float32
    )
    features[np.arange(n_products), community] = 1.0
    tail = n_communities
    features[:, tail + 0] = rng.integers(0, 50, size=n_products)
    features[:, tail + 1] = rng.integers(0, 10, size=n_products)
    features[:, tail + 2] = rng.integers(0, 5, size=n_products)
    features[:, tail + 3 :] = rng.integers(
        0, 4, size=(n_products, PRODUCT_ATTR_DIM - 4)
    )
    return AttributedHeterogeneousGraph(
        n_vertices=n_products,
        src=full_src,
        dst=full_dst,
        vertex_types=np.zeros(n_products, dtype=np.int64),
        edge_types=edge_types,
        vertex_type_names=["item"],
        edge_type_names=["co_view", "co_buy"],
        directed=False,
        vertex_features=features,
    )


def loop_knowledge_graph(n_items, n_brands=40, n_categories=12, category_of=None, seed=0):
    from repro.graph.ahg import AttributedHeterogeneousGraph

    rng = make_rng(seed)
    brand_category = rng.integers(0, n_categories, size=n_brands)
    if category_of is None:
        category_of = rng.integers(0, n_categories, size=n_items)
    else:
        category_of = np.asarray(category_of, dtype=np.int64) % n_categories
    brand_of = np.empty(n_items, dtype=np.int64)
    for i in range(n_items):
        candidates = np.flatnonzero(brand_category == category_of[i])
        brand_of[i] = rng.choice(candidates) if candidates.size else rng.integers(n_brands)

    item_ids = np.arange(n_items, dtype=np.int64)
    brand_ids = n_items + np.arange(n_brands, dtype=np.int64)
    cat_ids = n_items + n_brands + np.arange(n_categories, dtype=np.int64)
    src = np.concatenate([item_ids, item_ids, brand_ids])
    dst = np.concatenate(
        [brand_ids[brand_of], cat_ids[category_of], cat_ids[brand_category]]
    )
    edge_types = np.concatenate(
        [
            np.zeros(n_items, dtype=np.int64),
            np.ones(n_items, dtype=np.int64),
            np.full(n_brands, 2, dtype=np.int64),
        ]
    )
    vertex_types = np.concatenate(
        [
            np.zeros(n_items, dtype=np.int64),
            np.ones(n_brands, dtype=np.int64),
            np.full(n_categories, 2, dtype=np.int64),
        ]
    )
    kg = AttributedHeterogeneousGraph(
        n_vertices=n_items + n_brands + n_categories,
        src=src,
        dst=dst,
        vertex_types=vertex_types,
        edge_types=edge_types,
        vertex_type_names=["item", "brand", "category"],
        edge_type_names=["has_brand", "in_category", "brand_in_category"],
        directed=False,
    )
    return kg, brand_of, category_of


#: case -> (batched generator, its loop oracle, keyword arguments).
GENERATOR_CASES = {
    # 5 users cannot interact with 30 items: some items have no interactors.
    "taobao-fallback": (taobao_graph, loop_taobao_graph, dict(n_users=5, n_items=30)),
    # n_items < 40: six groups for twelve items, re-dealt round-robin.
    "taobao-redeal": (taobao_graph, loop_taobao_graph, dict(n_users=20, n_items=12)),
    "taobao-large-sim": (
        taobao_graph,
        loop_taobao_graph,
        dict(n_users=13000, n_items=1400, mean_user_degree=17.5),
    ),
    "amazon-40": (amazon_graph, loop_amazon_graph, dict(n_products=40)),
    "amazon-2000": (amazon_graph, loop_amazon_graph, dict(n_products=2000)),
    # Three brands over twelve categories: most categories have none.
    "kg-brandless": (
        knowledge_graph,
        loop_knowledge_graph,
        dict(n_items=300, n_brands=3, n_categories=12),
    ),
    "kg-aligned": (
        knowledge_graph,
        loop_knowledge_graph,
        dict(n_items=300, n_brands=40, category_of=np.arange(300) % 7),
    ),
}


def _graph_arrays(graph):
    src, dst, _ = graph.edge_array()
    return [src, dst, graph.edge_types, graph.vertex_types, graph.vertex_features]


@pytest.mark.parametrize("seed", [0, 7, 351])
@pytest.mark.parametrize("case", list(GENERATOR_CASES))
def test_batched_generators_match_the_loops(case, seed):
    batched, loop, kwargs = GENERATOR_CASES[case]
    rng_got, rng_want = make_rng(seed), make_rng(seed)
    got, want = batched(seed=rng_got, **kwargs), loop(seed=rng_want, **kwargs)
    if isinstance(got, tuple):  # the knowledge graph, brand_of, category_of
        (got, *got_extra), (want, *want_extra) = got, want
    else:
        got_extra = want_extra = []
    for a, b in zip(_graph_arrays(got) + got_extra, _graph_arrays(want) + want_extra):
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("seed", [0, 7, 351])
def test_generator_cases_reach_every_branch(seed):
    """The oracle cases exercise the branches they are named for."""
    g = taobao_graph(n_users=5, n_items=30, seed=seed)
    src, dst, _ = g.edge_array()
    from_users = np.bincount(dst[src < 5] - 5, minlength=30)
    to_users = np.bincount(src[(src >= 5) & (dst < 5)] - 5, minlength=30)
    assert ((from_users == 0) & (to_users > 0)).any()  # the fallback
    assert ((from_users > 0) & (to_users > 0)).any()  # the weighted draw
    g = taobao_graph(n_users=20, n_items=12, seed=seed)
    tags = g.vertex_features[20:, :6].argmax(axis=1)
    np.testing.assert_array_equal(tags, np.arange(12) % 6)  # round-robin
    _, brand_of, category_of = knowledge_graph(300, n_brands=3, n_categories=12, seed=seed)
    brand_category = make_rng(seed).integers(0, 12, size=3)
    assert (brand_category[brand_of] != category_of).any()  # any-brand fallback
