"""Synthetic Taobao-like attributed heterogeneous graphs.

``taobao_graph`` generates the laptop-scale stand-in for the paper's
proprietary Taobao graphs (Table 3): user and item vertices, four behaviour
edge types (click / collect / cart / buy) from users to items, item-item
co-occurrence edges, and dense attribute rows (27 user dims, 32 item dims)
drawn from a small discrete vocabulary so attribute values overlap heavily —
the property the deduplicating attribute store exploits.

Degree structure is power-law on both sides: user activity (out-degree) is
sampled from a truncated discrete power law, and item popularity follows a
Zipf law via preferential destination sampling. Item vertices therefore have
power-law in-degree and small out-degree — high ``Imp^(k)`` — while users
have the reverse, reproducing the importance skew of Theorems 1–2 that
Figures 8–9 rest on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.graph.graph import Graph
from repro.utils.powerlaw import sample_power_law_degrees
from repro.utils.rng import make_rng

#: The four behaviour edge types of the Taobao graph (Figure 2).
BEHAVIOUR_TYPES = ("click", "collect", "cart", "buy")
#: Behaviour mix: clicks dominate, buys are rare.
BEHAVIOUR_PROBS = (0.62, 0.14, 0.14, 0.10)

USER_ATTR_DIM = 27
ITEM_ATTR_DIM = 32


def _zipf_ranks(n: int, size: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Sample ``size`` indices in [0, n) with Zipf(rank)^-exponent mass."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-exponent
    weights /= weights.sum()
    return rng.choice(n, size=size, p=weights)


#: Shape of the attribute rows: distinct profiles per population, and values
#: per discrete column ("many vertices share the tag 'man'").
PROFILE_FRACTION = 0.15
ATTR_VOCAB = 4

#: Generator shape of ``taobao_graph`` (no dataset varies it).
ITEM_ITEM_FRACTION = 0.4  # share of item-side arcs that go item -> item
DEGREE_ALPHA = 4.0  # power-law exponent of per-vertex out-degree
ITEM_ZIPF = 1.5  # Zipf exponent of item popularity within a group
N_INTERESTS = 20  # interest groups (categories), at most n_items // 2
INTEREST_AFFINITY = 0.85  # chance a behaviour arc lands in a preferred group


def _discrete_attributes(
    count: int,
    dim: int,
    vocab: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Attribute rows drawn from a Zipf pool of profile archetypes.

    Real catalog/user attributes repeat heavily ("many vertices share the
    tag 'man'"); we model that by generating a pool of distinct profile rows
    (``PROFILE_FRACTION`` of the population) and assigning vertices to
    profiles with Zipf popularity — so whole rows collide, which is exactly
    what the separate attribute store's deduplication exploits.
    """
    n_profiles = max(2, int(PROFILE_FRACTION * count))
    profiles = rng.integers(0, vocab, size=(n_profiles, dim)).astype(np.float32)
    assignment = _zipf_ranks(n_profiles, count, 1.0, rng)
    return profiles[assignment]


def taobao_graph(
    n_users: int = 4000,
    n_items: int = 1200,
    mean_user_degree: float = 8.0,
    mean_item_out_degree: float = 6.0,
    seed: int = 0,
) -> AttributedHeterogeneousGraph:
    """Generate a Taobao-like AHG (directed).

    Items belong to ``N_INTERESTS`` interest groups (categories) and each
    user has two preferred groups; with probability ``INTEREST_AFFINITY`` a
    behaviour edge lands inside a preferred group. This affinity structure
    is what makes link prediction *learnable* (as it is on the real
    e-commerce graph) while the degree machinery below controls the storage
    experiments:

    * **user -> item** behaviour arcs: user out-degree is power-law
      (``DEGREE_ALPHA``, rescaled to ``mean_user_degree``), item choice is
      Zipf(``ITEM_ZIPF``) popularity within the chosen group — so item
      in-degree is power-law;
    * **item -> item** co-occurrence arcs (type ``item_item``), mostly
      intra-group;
    * **item -> user** interaction arcs (typed like behaviours): the item
      side's stored adjacency rows, aimed mostly at users who prefer the
      item's group. Their lengths are an *independent* power law, modelling
      the platform's bounded per-item engagement lists rather than raw
      popularity. Keeping them independent of in-degree is what spreads
      ``Imp^(2) = D_i/D_o`` across (0, 1] with a heavy tail — the Figure 8
      regime (exponents calibrated so ~20–30% of vertices clear the
      paper's tau = 0.2).

    Item attribute row 0 carries the interest-group id (like a category
    tag) and user attribute rows 0–1 carry the preferred groups, so
    attribute-aware methods can genuinely exploit them.

    The sizes and mean degrees are the parameters; the named dataset
    registry (``repro.data.datasets``) fixes them for ``taobao-small-sim``
    and ``taobao-large-sim``. The shape constants above are shared by both.
    """
    if n_users < 1 or n_items < 2:
        raise DatasetError("need at least 1 user and 2 items")
    rng = make_rng(seed)
    n_interests = max(1, min(N_INTERESTS, n_items // 2))

    def scaled_powerlaw(count: int, mean: float) -> np.ndarray:
        max_deg = max(4, int(mean * 12))
        deg = sample_power_law_degrees(count, DEGREE_ALPHA, 1, max_deg, rng)
        scale = mean / max(deg.mean(), 1e-9)
        return np.maximum(1, np.round(deg * scale)).astype(np.int64)

    # Interest structure: item groups and per-user preferred groups.
    item_group = rng.integers(0, n_interests, size=n_items)
    group_items = [np.flatnonzero(item_group == g) for g in range(n_interests)]
    # Guarantee non-empty groups by round-robin re-dealing if needed.
    if any(g.size == 0 for g in group_items):
        item_group = np.arange(n_items) % n_interests
        group_items = [np.flatnonzero(item_group == g) for g in range(n_interests)]
    # Group popularity is itself Zipf (fashion beats lawn-mowers), which
    # keeps *global* item popularity strongly skewed even though choice is
    # within-group — the skew Figures 8-9 depend on.
    user_pref = _zipf_ranks(n_interests, 2 * n_users, 1.0, rng).reshape(n_users, 2)
    # Users who prefer each group (for item->user arcs).
    prefers_group = [
        np.flatnonzero((user_pref[:, 0] == g) | (user_pref[:, 1] == g))
        for g in range(n_interests)
    ]

    def pick_items(groups: np.ndarray) -> np.ndarray:
        """One item per requested group, Zipf-popular within the group."""
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
    # item -> item: mostly within the source item's group.
    ii_groups = np.where(
        rng.random(n_io) < INTEREST_AFFINITY,
        src_groups,
        _zipf_ranks(n_interests, n_io, 1.0, rng),
    )
    io_dst[to_item] = pick_items(ii_groups[to_item]) + n_users
    # item -> user: the platform's per-item engagement rows list users who
    # actually interacted with the item (sampled from its in-neighbors), so
    # the arcs carry real affinity signal. Crucially the *length* of each
    # row stays the independent power law drawn above — not the item's
    # in-degree — which is what keeps Imp^(2) = D_i/D_o spread out for the
    # Figure 8 knee.
    interactors: list[list[int]] = [[] for _ in range(n_items)]
    for u, i in zip(src_users, dst_items - n_users):
        interactors[i].append(int(u))
    # Per-user "visibility" — an independent Zipf weight deciding which
    # interactors make it into the bounded engagement rows. Independence
    # from user activity keeps user in-degree an independent power law,
    # preserving the Imp^(2) spread behind the Figure 8 knee, while every
    # arc still points at a genuine interactor (learnable affinity).
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
    # Interest tags occupy the leading attribute slots as one-hot/multi-hot
    # indicators (an ordinal group id would be useless to linear attribute
    # projections). Groups beyond the available slots wrap around.
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


def powerlaw_graph(
    n: int,
    alpha: float = 2.1,
    max_degree: int | None = None,
    directed: bool = True,
    seed: int = 0,
) -> Graph:
    """A plain power-law graph for storage/sampling experiments.

    Out-degrees are power-law and destinations are degree-proportional, so
    in-degrees are power-law too — the regime of Theorems 1–2.
    """
    if n < 2:
        raise DatasetError("need at least 2 vertices")
    rng = make_rng(seed)
    max_degree = max_degree or max(4, n // 10)
    degrees = sample_power_law_degrees(n, alpha, 1, max_degree, rng)
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    pool = np.repeat(np.arange(n, dtype=np.int64), degrees)
    dst = pool[rng.integers(pool.size, size=src.size)]
    keep = src != dst
    return Graph(n, src[keep], dst[keep], directed=directed)
