"""Synthetic Amazon electronics co-view/co-buy graph.

Stands in for the public Amazon metadata graph of Table 6 (10,166 vertices,
148,865 edges, 1 vertex type, 2 edge types): products connected when
co-viewed or co-bought, with product attribute rows (price band, brand id,
category id, rating band — all discrete so they overlap).

The generator plants soft product communities (categories): co-view edges
are mostly intra-community with popularity-proportional endpoints, co-buy
edges are a sparser, noisier subset. That gives the multiplex structure the
GATNE experiment needs — the two edge types are correlated but not
identical, so combining them (and the attributes) genuinely helps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.utils.rng import choice_cdf, make_rng

PRODUCT_ATTR_DIM = 8


#: Generator shape of ``amazon_graph`` (no dataset varies it).
COVIEW_PER_PRODUCT = 7.0  # co-view arcs drawn per product
COBUY_FRACTION = 0.35  # share of co-view pairs that are also co-bought
INTRA_COMMUNITY = 0.85  # chance a co-view stays inside the product's community
ZIPF = 1.0  # exponent of product popularity


def amazon_graph(
    n_products: int = 2000,
    n_communities: int = 20,
    seed: int = 0,
) -> AttributedHeterogeneousGraph:
    """Generate the Amazon-like multiplex product graph (undirected).

    Co-view destinations are drawn in batch under the contract of
    ``repro.data`` (oracle: ``loop_amazon_graph`` in ``tests/test_data.py``).
    """
    if n_products < n_communities * 2:
        raise DatasetError("need at least two products per community")
    rng = make_rng(seed)
    community = rng.integers(0, n_communities, size=n_products)
    members: list[np.ndarray] = [
        np.flatnonzero(community == c) for c in range(n_communities)
    ]
    if any(m.size < 2 for m in members):
        # Re-deal deterministically: round-robin assignment guarantees size.
        community = np.arange(n_products) % n_communities
        members = [np.flatnonzero(community == c) for c in range(n_communities)]

    popularity = (np.arange(1, n_products + 1, dtype=np.float64)) ** -ZIPF
    rng.shuffle(popularity)

    n_coview = int(COVIEW_PER_PRODUCT * n_products)
    all_probs = popularity / popularity.sum()
    src = rng.choice(n_products, size=n_coview, p=all_probs)
    intra = rng.random(n_coview) < INTRA_COMMUNITY
    # One uniform per arc: an intra arc looks it up in its community's CDF,
    # any other arc in the global one.
    u = rng.random(n_coview)
    dst = choice_cdf(popularity).searchsorted(u, side="right")
    intra_community = np.where(intra, community[src], -1)
    for c, pool in enumerate(members):
        arcs = intra_community == c
        cdf = choice_cdf(popularity[pool])
        dst[arcs] = pool[cdf.searchsorted(u[arcs], side="right")]
    keep = src != dst
    src, dst = src[keep], dst[keep]

    # Co-buy: a sparser subset of co-view pairs plus a little noise, so the
    # two layers are correlated multiplex views of the same communities.
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

    # Product attributes: one-hot category (correlated with the structure),
    # then brand / price band / rating band and a few discrete extras.
    features = np.zeros(
        (n_products, n_communities + PRODUCT_ATTR_DIM - 1), dtype=np.float32
    )
    features[np.arange(n_products), community] = 1.0
    tail = n_communities
    features[:, tail + 0] = rng.integers(0, 50, size=n_products)  # brand
    features[:, tail + 1] = rng.integers(0, 10, size=n_products)  # price band
    features[:, tail + 2] = rng.integers(0, 5, size=n_products)  # rating band
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
