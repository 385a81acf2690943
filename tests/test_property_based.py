"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.graph import Graph
from repro.nn.tensor import Tensor
from repro.storage.partition import EdgeCutPartitioner, StreamingPartitioner
from repro.tasks.metrics import f1_score, pr_auc, roc_auc
from repro.utils.alias import AliasTable
from repro.utils.lru import LRUCache
from repro.utils.rng import make_rng
from tests.conftest import in_neighbors

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
edge_lists = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=1,
            max_size=80,
        ),
    )
)


def _graph_from(n: int, edges: list) -> Graph:
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Graph(n, src, dst, directed=True)


# --------------------------------------------------------------------- #
# Graph invariants
# --------------------------------------------------------------------- #
@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_degree_sums_equal_edge_count(data):
    n, edges = data
    g = _graph_from(n, edges)
    assert g.out_degrees().sum() == len(edges)
    assert g.in_degrees().sum() == len(edges)


@given(edge_lists)
@settings(max_examples=40, deadline=None)
def test_neighbor_consistency(data):
    n, edges = data
    g = _graph_from(n, edges)
    for v in range(n):
        for u in g.out_neighbors(v):
            assert v in in_neighbors(g, int(u))


# --------------------------------------------------------------------- #
# Alias table: empirical distribution tracks weights
# --------------------------------------------------------------------- #
@given(
    arrays(
        np.float64,
        st.integers(1, 12),
        elements=st.floats(0.0, 100.0, allow_nan=False),
    ).filter(lambda w: w.sum() > 1e-6)
)
@settings(max_examples=25, deadline=None)
def test_alias_distribution_matches_weights(weights):
    table = AliasTable(weights)
    rng = make_rng(0)
    draws = table.draw_batch(rng, 30_000)
    freq = np.bincount(draws, minlength=weights.size) / draws.size
    np.testing.assert_allclose(freq, weights / weights.sum(), atol=0.03)


# --------------------------------------------------------------------- #
# LRU invariants
# --------------------------------------------------------------------- #
@given(
    st.integers(1, 8),
    st.lists(st.tuples(st.booleans(), st.integers(0, 15)), max_size=120),
)
@settings(max_examples=50, deadline=None)
def test_lru_never_exceeds_capacity(capacity, ops):
    cache = LRUCache(capacity)
    for is_put, key in ops:
        if is_put:
            cache.put(key, key)
        else:
            cache.get(key)
        assert len(cache) <= capacity
    assert cache.hits + cache.misses == sum(1 for p, _ in ops if not p)


@given(st.integers(1, 8), st.lists(st.integers(0, 20), min_size=1, max_size=60))
@settings(max_examples=50, deadline=None)
def test_lru_most_recent_put_always_present(capacity, keys):
    cache = LRUCache(capacity)
    for key in keys:
        cache.put(key, key)
        assert key in cache


# --------------------------------------------------------------------- #
# Partitioners: total assignment, bounded parts
# --------------------------------------------------------------------- #
@given(edge_lists, st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_partitioners_assign_every_vertex(data, n_parts):
    n, edges = data
    g = _graph_from(n, edges)
    for partitioner in (EdgeCutPartitioner(), StreamingPartitioner()):
        a = partitioner.partition(g, n_parts)
        assert a.vertex_to_part.shape == (n,)
        assert ((0 <= a.vertex_to_part) & (a.vertex_to_part < n_parts)).all()
        assert a.vertex_counts().sum() == n


# --------------------------------------------------------------------- #
# Metric invariances
# --------------------------------------------------------------------- #
scores_and_labels = st.integers(4, 60).flatmap(
    lambda n: st.tuples(
        arrays(
            np.float64,
            n,
            # Quantized scores: subnormal values like 1e-308 would collapse
            # into ties under an affine transform (7 + 3e-308 == 7.0),
            # which is a float-representation artifact, not a metric bug.
            elements=st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 3)),
        ),
        arrays(np.int64, n, elements=st.integers(0, 1)),
    )
).filter(lambda t: 0 < t[1].sum() < t[1].size)


@given(scores_and_labels)
@settings(max_examples=50, deadline=None)
def test_roc_auc_bounds_and_complement(data):
    scores, labels = data
    auc = roc_auc(scores, labels)
    assert 0.0 <= auc <= 1.0
    # Negating scores complements the AUC.
    assert abs(roc_auc(-scores, labels) - (1.0 - auc)) < 1e-9


@given(scores_and_labels)
@settings(max_examples=50, deadline=None)
def test_pr_f1_bounds(data):
    scores, labels = data
    assert 0.0 <= pr_auc(scores, labels) <= 1.0
    assert 0.0 <= f1_score(scores, labels) <= 1.0


@given(scores_and_labels)
@settings(max_examples=30, deadline=None)
def test_metrics_invariant_under_monotone_transform(data):
    scores, labels = data
    shifted = 3.0 * scores + 7.0
    assert abs(roc_auc(scores, labels) - roc_auc(shifted, labels)) < 1e-9
    assert abs(f1_score(scores, labels) - f1_score(shifted, labels)) < 1e-9


# --------------------------------------------------------------------- #
# Autograd: random elementwise expressions gradient-check
# --------------------------------------------------------------------- #
@given(
    arrays(np.float64, (3, 2), elements=st.floats(-2, 2, allow_nan=False)),
    arrays(np.float64, (3, 2), elements=st.floats(0.5, 2, allow_nan=False)),
)
@settings(max_examples=25, deadline=None)
def test_tensor_expression_gradients(a_data, b_data):
    from tests.gradcheck import check_gradients

    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    check_gradients(lambda: ((a * b + a) / b).sum(), [a, b], atol=1e-4)
