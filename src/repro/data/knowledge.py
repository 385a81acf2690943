"""Knowledge graph generator for the Bayesian GNN experiment.

The Bayesian GNN corrects behaviour-graph embeddings with prior knowledge
from a symbolic KG. Here the KG links items to brand and category entities:
``item --has_brand--> brand`` and ``item --in_category--> category``. Items
in the same category share behaviour-graph structure *and* KG structure, so
the KG prior genuinely carries task signal — the premise of Table 12, whose
hit-recall is measured at both brand and category granularity.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError, check_ids
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.utils.rng import make_rng


def knowledge_graph(
    n_items: int,
    n_brands: int = 40,
    n_categories: int = 12,
    category_of: np.ndarray | None = None,
    seed: int = 0,
) -> tuple[AttributedHeterogeneousGraph, np.ndarray, np.ndarray]:
    """Build an item/brand/category KG.

    Returns ``(kg, brand_of, category_of)`` where the two arrays give each
    item's brand and category id. Brands nest inside categories (each brand
    belongs to one category), matching real catalog taxonomies. Pass
    ``category_of`` to align the KG with an existing behaviour graph's
    community structure. The brands are drawn in batch under the contract
    of ``repro.data`` (oracle: ``loop_knowledge_graph`` in
    ``tests/test_data.py``).
    """
    if n_items < 1 or n_brands < 1 or n_categories < 1:
        raise DatasetError("need positive item/brand/category counts")
    if category_of is not None:
        category_of = check_ids(category_of, n_categories, DatasetError, "category_of")
        if category_of.shape != (n_items,):
            raise DatasetError("category_of must have one entry per item")
    rng = make_rng(seed)
    brand_category = rng.integers(0, n_categories, size=n_brands)
    if category_of is None:
        category_of = rng.integers(0, n_categories, size=n_items)
    # Each item gets a brand from its own category (fallback: any brand):
    # one bounded draw per item, all in one broadcast call.
    by_category = np.argsort(brand_category, kind="stable")
    n_candidates = np.bincount(brand_category, minlength=n_categories)
    first = np.cumsum(n_candidates) - n_candidates
    has = n_candidates[category_of] > 0
    brand_of = rng.integers(0, np.where(has, n_candidates[category_of], n_brands))
    brand_of[has] = by_category[first[category_of[has]] + brand_of[has]]

    # Vertex layout: items, then brands, then categories.
    item_ids = np.arange(n_items, dtype=np.int64)
    brand_ids = n_items + np.arange(n_brands, dtype=np.int64)
    cat_ids = n_items + n_brands + np.arange(n_categories, dtype=np.int64)
    src = np.concatenate([item_ids, item_ids, brand_ids])
    dst = np.concatenate(
        [brand_ids[brand_of], cat_ids[category_of], cat_ids[brand_category]]
    )
    edge_types = np.concatenate(
        [
            np.zeros(n_items, dtype=np.int64),  # has_brand
            np.ones(n_items, dtype=np.int64),  # in_category
            np.full(n_brands, 2, dtype=np.int64),  # brand_in_category
        ]
    )
    n = n_items + n_brands + n_categories
    vertex_types = np.concatenate(
        [
            np.zeros(n_items, dtype=np.int64),
            np.ones(n_brands, dtype=np.int64),
            np.full(n_categories, 2, dtype=np.int64),
        ]
    )
    kg = AttributedHeterogeneousGraph(
        n_vertices=n,
        src=src,
        dst=dst,
        vertex_types=vertex_types,
        edge_types=edge_types,
        vertex_type_names=["item", "brand", "category"],
        edge_type_names=["has_brand", "in_category", "brand_in_category"],
        directed=False,
    )
    return kg, brand_of, category_of
