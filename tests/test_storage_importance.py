"""Importance metric, k-hop degrees, Algorithm 2, Theorems 1–2 and the cache's one ranking."""

import numpy as np
import pytest

from repro.data import powerlaw_graph
from repro.errors import StorageError
from repro.graph import Graph
from repro.storage import ImportanceCachePolicy, RandomCachePolicy
from repro.storage.cluster import make_store
from repro.storage.importance import (
    importance_scores,
    khop_degrees,
    plan_importance_cache,
)
from repro.utils.powerlaw import gini_coefficient, tail_mass
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
    d_in = np.array([count(v, graph.in_neighbors) for v in everyone], dtype=np.float64)
    return d_in, d_out


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
    low = plan_importance_cache(small_powerlaw, max_hop=2, thresholds=0.05)
    high = plan_importance_cache(small_powerlaw, max_hop=2, thresholds=0.45)
    assert low.cache_fraction(1000) >= high.cache_fraction(1000)
    assert set(high.all_cached_vertices()) <= set(low.all_cached_vertices())


def test_plan_per_hop_thresholds(small_powerlaw):
    plan = plan_importance_cache(small_powerlaw, max_hop=2, thresholds=[0.1, 0.3])
    assert plan.thresholds == [0.1, 0.3]
    assert 1 in plan.cached_by_hop and 2 in plan.cached_by_hop


def test_plan_threshold_count_validation(small_powerlaw):
    with pytest.raises(StorageError):
        plan_importance_cache(small_powerlaw, max_hop=2, thresholds=[0.1])


def test_plan_max_cached_hop(small_powerlaw):
    plan = plan_importance_cache(small_powerlaw, max_hop=2, thresholds=0.1)
    cached = plan.cached_by_hop[2]
    if cached.size:
        assert plan.max_cached_hop(int(cached[0])) >= 1
    assert plan.max_cached_hop(-1) == 0


def test_empty_plan():
    from repro.storage.importance import CachePlan

    plan = CachePlan(max_hop=2, thresholds=[0.2, 0.2])
    assert plan.all_cached_vertices().size == 0
    assert plan.cache_fraction(0) == 0.0


def test_theorem1_khop_degrees_heavy_tailed():
    """Theorem 1: power-law degrees imply heavy-tailed k-hop counts."""
    g = powerlaw_graph(3000, alpha=2.1, max_degree=300, preferential=True, seed=11)
    for k in (1, 2):
        d_in, d_out = khop_degrees(g, k)
        assert tail_mass(d_in, 0.1) > 0.5, f"k={k} in-counts not heavy-tailed"
        assert tail_mass(d_out, 0.1) > 0.4, f"k={k} out-counts not heavy-tailed"


def test_theorem2_importance_heavy_tailed():
    """Theorem 2: importance is heavy-tailed -> few vertices worth caching."""
    g = powerlaw_graph(3000, alpha=2.1, max_degree=300, preferential=True, seed=11)
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
    assert store.replicas.holders(v) == (1, 2, 3)


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
