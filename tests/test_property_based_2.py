"""More property-based tests: splits, io round-trips, edge embeddings,
importance, cost accounting."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.splits import train_test_split_edges
from repro.graph import Graph
from repro.storage.importance import importance_scores, khop_degrees
from repro.tasks.edge_embeddings import subgraph_embedding
from repro.utils.timer import CostAccumulator

graphs = st.integers(4, 25).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=5,
            max_size=60,
        ),
    )
)


def _graph(data) -> Graph:
    n, edges = data
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Graph(n, src, dst, directed=True)


@given(graphs, st.floats(0.1, 0.5))
@settings(max_examples=30, deadline=None)
def test_split_partitions_edges(data, fraction):
    g = _graph(data)
    split = train_test_split_edges(g, fraction, seed=0)
    assert split.train_graph.n_edges + split.n_test == g.n_edges
    assert split.train_graph.n_vertices == g.n_vertices
    # Every held-out positive is a real edge of the original graph.
    for u, v in split.test_pos:
        assert g.has_edge(int(u), int(v))


@given(graphs, st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_khop_counts_non_negative_and_grow(data, k):
    g = _graph(data)
    d_in, d_out = khop_degrees(g, k)
    assert (d_in >= 0).all() and (d_out >= 0).all()
    if k > 1:
        d_in1, d_out1 = khop_degrees(g, k - 1)
        # Cumulative 1..k counts dominate 1..k-1 counts.
        assert (d_out + 1e-9 >= d_out1).all()
        assert (d_in + 1e-9 >= d_in1).all()


@given(graphs)
@settings(max_examples=25, deadline=None)
def test_importance_non_negative_finite(data):
    g = _graph(data)
    scores = importance_scores(g, 2)
    assert np.isfinite(scores).all()
    assert (scores >= 0).all()


@given(
    arrays(np.float64, (6, 3), elements=st.floats(-3, 3, allow_nan=False)),
    st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True),
)
@settings(max_examples=30, deadline=None)
def test_subgraph_mean_bounded_by_members(emb, members):
    ids = np.array(members, dtype=np.int64)
    pooled = subgraph_embedding(emb, ids)
    rows = emb[ids]
    assert (pooled <= rows.max(axis=0) + 1e-12).all()
    assert (pooled >= rows.min(axis=0) - 1e-12).all()


@given(
    st.dictionaries(
        st.sampled_from(["a", "b", "c"]), st.floats(0, 100), min_size=1
    ),
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.integers(0, 50)),
        max_size=30,
    ),
)
@settings(max_examples=40, deadline=None)
def test_cost_accumulator_linear(costs, events):
    acc = CostAccumulator(costs=costs)
    expected = 0.0
    for name, times in events:
        acc.record(name, times)
        expected += costs.get(name, 0.0) * times
    assert abs(acc.modelled_micros() - expected) < 1e-6
    assert abs(acc.modelled_millis() * 1000 - acc.modelled_micros()) < 1e-9
