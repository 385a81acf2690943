"""Importance metric, k-hop degrees, Algorithm 2, Theorems 1–2 and the cache's one ranking."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import powerlaw_graph
from repro.errors import StorageError
from repro.graph import Graph
from repro.storage import ImportanceCachePolicy, RandomCachePolicy
from repro.storage.cluster import make_store
from repro.storage.importance import (
    MAX_HOP,
    importance_scores,
    khop_degrees,
    plan_importance_cache,
)
from tests.conftest import (
    draw_graph,
    gini_coefficient,
    in_neighbors,
    replica_holders,
    tail_mass,
)
from repro.utils.rng import make_rng


def exact_khop_degrees(graph: Graph, k: int):
    """Oracle: ``(D_i^(k), D_o^(k))`` as *distinct* vertices reachable in
    1..k hops (the paper's Definition), by per-vertex BFS — O(n·d^k)."""

    def count(v: int, neighbors) -> int:
        frontier, seen = {v}, {v}
        for _ in range(k):
            nxt = {int(w) for u in frontier for w in neighbors(u)}
            frontier = nxt - seen
            seen |= nxt
        return len(seen) - 1

    everyone = range(graph.n_vertices)
    d_out = np.array([count(v, graph.out_neighbors) for v in everyone], dtype=np.float64)
    if not graph.directed:
        return d_out.copy(), d_out
    d_in = np.array(
        [count(v, lambda u: in_neighbors(graph, u)) for v in everyone], dtype=np.float64
    )
    return d_in, d_out


def transposed_khop_degrees(graph: Graph, k: int):
    """Oracle: the walk counts with the in-walks taken through an explicit
    transposed CSR copy of the out-adjacency."""
    indptr, indices, _ = graph.csr_arrays()
    n = graph.n_vertices
    a = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
    at = a.T.tocsr()
    ones = np.ones(n, dtype=np.float64)
    d_out = np.zeros_like(ones)
    step = ones.copy()
    for _ in range(k):
        step = a @ step
        d_out += step
    d_in = np.zeros_like(ones)
    step = ones.copy()
    for _ in range(k):
        step = at @ step
        d_in += step
    return d_in, d_out


def stable_ranking(scores: np.ndarray) -> np.ndarray:
    """Oracle: the importance ranking as one full stable sort, reversed
    (score descending, ties by id descending), zero scores dropped."""
    order = np.argsort(scores, kind="stable")[::-1]
    return order[scores[order] > 0]


def _path_graph() -> Graph:
    # 0 -> 1 -> 2 -> 3
    return Graph(4, np.array([0, 1, 2]), np.array([1, 2, 3]), directed=True)


def test_khop_multiplicity_path():
    d_in, d_out = khop_degrees(_path_graph(), 1)
    np.testing.assert_array_equal(d_out, [1, 1, 1, 0])
    np.testing.assert_array_equal(d_in, [0, 1, 1, 1])
    d_in2, d_out2 = khop_degrees(_path_graph(), 2)
    # Cumulative walks of length 1..2.
    np.testing.assert_array_equal(d_out2, [2, 2, 1, 0])
    np.testing.assert_array_equal(d_in2, [0, 1, 2, 2])


def test_khop_exact_counts_distinct():
    # Star: 0 -> {1, 2, 3}, 1 -> 2. Exact 2-hop out of 0 is {1,2,3} = 3.
    g = Graph(4, np.array([0, 0, 0, 1]), np.array([1, 2, 3, 2]), directed=True)
    d_in, d_out = exact_khop_degrees(g, 2)
    assert d_out[0] == 3  # distinct vertices, 2 counted once
    d_in_m, d_out_m = khop_degrees(g, 2)
    assert d_out_m[0] == 4  # walks: 0-1,0-2,0-3,0-1-2


def test_khop_exact_undirected_symmetric(tiny_undirected):
    d_in, d_out = exact_khop_degrees(tiny_undirected, 2)
    np.testing.assert_array_equal(d_in, d_out)
    # The shipped walk counts coincide too, by the same symmetry.
    np.testing.assert_array_equal(*khop_degrees(tiny_undirected, 2))


def test_khop_validations(tiny_graph):
    with pytest.raises(StorageError):
        khop_degrees(tiny_graph, 0)
    # One shipped count: the exact BFS is this module's oracle, not an option.
    with pytest.raises(TypeError):
        khop_degrees(tiny_graph, 2, method="exact")
    with pytest.raises(TypeError):
        importance_scores(tiny_graph, 2, method="exact")


def test_importance_zero_when_no_out():
    g = _path_graph()
    scores = importance_scores(g, 1)
    assert scores[3] == 0.0  # sink: nothing to cache
    assert scores[0] == 0.0  # source: nobody reaches it
    assert scores[1] == 1.0


def test_importance_methods_correlate(small_powerlaw):
    mult = importance_scores(small_powerlaw, 2)
    d_in, d_out = exact_khop_degrees(small_powerlaw, 2)
    exact = np.divide(d_in, d_out, out=np.zeros_like(d_in), where=d_out > 0)
    # Rankings agree strongly even though counting semantics differ.
    from scipy.stats import spearmanr

    rho, _ = spearmanr(mult, exact)
    assert rho > 0.7


def test_plan_thresholds_monotone(small_powerlaw):
    low = plan_importance_cache(small_powerlaw, thresholds=0.05)
    high = plan_importance_cache(small_powerlaw, thresholds=0.45)
    assert low.cache_fraction(1000) >= high.cache_fraction(1000)
    assert set(high.all_cached_vertices()) <= set(low.all_cached_vertices())


def test_plan_per_hop_thresholds(small_powerlaw):
    plan = plan_importance_cache(small_powerlaw, thresholds=[0.1, 0.3])
    assert plan.thresholds == [0.1, 0.3]
    assert 1 in plan.cached_by_hop and 2 in plan.cached_by_hop


def test_plan_threshold_count_validation(small_powerlaw):
    with pytest.raises(StorageError):
        plan_importance_cache(small_powerlaw, thresholds=[0.1])


def test_empty_plan():
    from repro.storage.importance import CachePlan

    plan = CachePlan(max_hop=2, thresholds=[0.2, 0.2])
    assert plan.all_cached_vertices().size == 0
    assert plan.cache_fraction(0) == 0.0


def test_theorem1_khop_degrees_heavy_tailed():
    """Theorem 1: power-law degrees imply heavy-tailed k-hop counts."""
    g = powerlaw_graph(3000, alpha=2.1, max_degree=300, seed=11)
    for k in (1, 2):
        d_in, d_out = khop_degrees(g, k)
        assert tail_mass(d_in, 0.1) > 0.5, f"k={k} in-counts not heavy-tailed"
        assert tail_mass(d_out, 0.1) > 0.4, f"k={k} out-counts not heavy-tailed"


def test_theorem2_importance_heavy_tailed():
    """Theorem 2: importance is heavy-tailed -> few vertices worth caching."""
    g = powerlaw_graph(3000, alpha=2.1, max_degree=300, seed=11)
    scores = importance_scores(g, 2)
    assert gini_coefficient(scores) > 0.6
    # The top decile carries most of the importance mass.
    assert tail_mass(scores, 0.1) > 0.5


# --------------------------------------------------------------------- #
# The importance cache ranks once per graph, whatever the server count
# --------------------------------------------------------------------- #
@pytest.fixture
def counted_scores(monkeypatch):
    """``repro.storage.cache.importance_scores``, counting its calls."""
    import repro.storage.cache as cache_module

    calls = []

    def counting(graph, k):
        calls.append((graph, k))
        return importance_scores(graph, k)

    monkeypatch.setattr(cache_module, "importance_scores", counting)
    return calls


def test_importance_ranking_runs_once_per_graph(small_powerlaw, counted_scores):
    policy = ImportanceCachePolicy()
    store = make_store(
        small_powerlaw, 4, cache_policy=policy, cache_budget_fraction=0.1, seed=0
    )
    assert len(counted_scores) == 1  # one ranking for four servers
    store.set_cache_policy(policy, budget=small_powerlaw.n_vertices // 20)
    assert len(counted_scores) == 1  # another budget is a shorter prefix
    other = powerlaw_graph(300, alpha=2.3, max_degree=30, seed=4)
    make_store(other, 2, cache_policy=policy, cache_budget_fraction=0.1, seed=0)
    assert len(counted_scores) == 2 and counted_scores[1][0] is other


def test_importance_caches_pin_one_set_independently(small_powerlaw):
    store = make_store(
        small_powerlaw, 4, cache_policy=ImportanceCachePolicy(),
        cache_budget_fraction=0.1, seed=0,
    )
    caches = [s.neighbor_cache for s in store.servers]
    pinned = caches[0].pinned_vertices()
    assert pinned and all(c.pinned_vertices() == pinned for c in caches)
    # The rows are the graph's, and are the same selection as a fresh rank.
    scores = importance_scores(small_powerlaw, 2)
    top = np.argsort(scores, kind="stable")[::-1][: int(0.1 * small_powerlaw.n_vertices)]
    assert pinned == tuple(sorted(top[scores[top] > 0].tolist()))
    for v in pinned:
        np.testing.assert_array_equal(caches[3].peek(v), small_powerlaw.out_neighbors(v))
    # Each server owns its pin table: a demotion on one leaves the others.
    v = pinned[0]
    assert caches[0].unpin(v)
    assert not caches[0].is_pinned(v)
    assert all(c.is_pinned(v) for c in caches[1:])
    assert replica_holders(store.replicas, v) == (1, 2, 3)


def test_importance_ranking_is_read_only(small_powerlaw):
    selected = ImportanceCachePolicy().select(small_powerlaw, 10, make_rng(0))
    with pytest.raises(ValueError):
        selected[0] = -1


def test_random_caches_differ_per_server_and_repeat_per_seed(small_powerlaw):
    def pinned_sets(seed):
        store = make_store(
            small_powerlaw, 4, cache_policy=RandomCachePolicy(),
            cache_budget_fraction=0.1, seed=seed,
        )
        return [s.neighbor_cache.pinned_vertices() for s in store.servers]

    sets = pinned_sets(7)
    assert len(set(sets)) == len(sets)
    assert pinned_sets(7) == sets


# --------------------------------------------------------------------- #
# Set-up ranks only the head it pins, and walks in-edges without a copy
# --------------------------------------------------------------------- #
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_walks_and_ranking_equal_the_full_sort_oracles(data):
    graph = draw_graph(data)
    for k in (1, 2, 3):
        for got, want in zip(khop_degrees(graph, k), transposed_khop_degrees(graph, k)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    ranking = stable_ranking(importance_scores(graph, MAX_HOP))
    budgets = list(range(graph.n_vertices + 2))
    # Each order on a fresh policy, then back again on the same one: the
    # head is ranked from scratch, extended, and sliced.
    for order in (budgets, budgets[::-1]):
        policy = ImportanceCachePolicy()
        for budget in order + order[::-1]:
            selected = policy.select(graph, budget, make_rng(0))
            assert selected.dtype == np.int64
            assert np.array_equal(selected, ranking[:budget])
            assert budget == 0 or not selected.flags.writeable


def test_ranking_breaks_ties_by_descending_id():
    ring = Graph(6, np.arange(6), (np.arange(6) + 1) % 6, directed=True)  # every score is 1
    policy = ImportanceCachePolicy()
    assert policy.select(ring, 2, make_rng(0)).tolist() == [5, 4]
    assert policy.select(ring, 4, make_rng(0)).tolist() == [5, 4, 3, 2]


def test_importance_store_setup_copies_no_transpose_and_sorts_no_full_array(
    small_powerlaw, monkeypatch
):
    """``make_store`` with the importance policy converts no sparse matrix
    to CSR (the in-walks read the transpose view) and sorts no array as
    long as the vertex set (only the pinned head is ranked)."""
    conversions, sorted_lengths = [], []
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):

        def counting_tocsr(self, *args, _tocsr=cls.tocsr, **kwargs):
            conversions.append(type(self).__name__)
            return _tocsr(self, *args, **kwargs)

        monkeypatch.setattr(cls, "tocsr", counting_tocsr)
    for name in ("argsort", "sort", "lexsort"):

        def recording_sort(keys, *args, _sort=getattr(np, name), **kwargs):
            sorted_lengths.append(np.shape(keys)[-1])
            return _sort(keys, *args, **kwargs)

        monkeypatch.setattr(np, name, recording_sort)
    store = make_store(
        small_powerlaw, 4, cache_policy=ImportanceCachePolicy(),
        cache_budget_fraction=0.1, seed=0,
    )
    assert store.servers[0].neighbor_cache.pinned_vertices()
    assert conversions == []
    assert sorted_lengths and max(sorted_lengths) < small_powerlaw.n_vertices // 2
