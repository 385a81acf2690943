"""Frontier-sampling kernels: adjacency blocks, grouped alias tables,
equivalence to the scalar oracles below, determinism, dynamic refresh, and the
one draw path every provider (in-memory or store-backed) runs."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import dynamic_taobao, make_dataset
from repro.errors import SamplingError
from repro.graph import Graph
from repro.graph.dynamic import EdgeEvent
from repro.runtime import FaultPlan, RetryPolicy, RpcRuntime
from repro.sampling import (
    CsrAdjacency,
    FullNeighborSampler,
    GraphProvider,
    ImportanceNeighborSampler,
    SnapshotProvider,
    StoreProvider,
    TopKNeighborSampler,
    UniformNeighborSampler,
    WeightedNeighborSampler,
)
from repro.sampling.randomwalk import random_walks
from repro.storage.cache import ImportanceCachePolicy, LRUCachePolicy
from repro.storage.cluster import make_store
from repro.storage.costmodel import EV_ITEM_SHIPPED
from repro.utils.alias import AliasTable, GroupedAliasTable, build_alias_arrays
from repro.utils.rng import make_rng
from repro.utils.stats import ZipfSampler, chi2_sf, chi_square_gof, zipf_probs
from tests.conftest import out_weights, python_calls

P_FLOOR = 1e-4  # equivalence tests: H0 true, so p is uniform on [0, 1]


def chi_square_homogeneity(counts_a, counts_b) -> "tuple[float, float]":
    """Two-sample test: were ``counts_a`` and ``counts_b`` drawn alike?

    Standard 2×k contingency chi-square; cells empty in both samples are
    dropped. Returns ``(statistic, p_value)``.
    """
    counts_a = np.asarray(counts_a, dtype=np.float64)
    counts_b = np.asarray(counts_b, dtype=np.float64)
    assert counts_a.shape == counts_b.shape and counts_a.ndim == 1
    live = (counts_a + counts_b) > 0
    a, b = counts_a[live], counts_b[live]
    na, nb = a.sum(), b.sum()
    assert na > 0 and nb > 0, "both samples need at least one observation"
    pooled = (a + b) / (na + nb)
    stat = float(
        np.sum((a - na * pooled) ** 2 / (na * pooled))
        + np.sum((b - nb * pooled) ** 2 / (nb * pooled))
    )
    df = int(live.sum()) - 1
    if df < 1:
        return stat, 1.0
    return stat, chi2_sf(stat, df)


def _sampler(kind: str, graph: Graph, provider=None, max_fanout: int = 512):
    provider = provider or GraphProvider(graph)
    if kind == "uniform":
        return UniformNeighborSampler(provider)
    if kind == "weighted":
        return WeightedNeighborSampler(provider)
    if kind == "topk":
        return TopKNeighborSampler(provider)
    if kind == "importance":
        return ImportanceNeighborSampler(provider, graph.out_degrees())
    return FullNeighborSampler(provider, max_fanout=max_fanout)


ALL_KINDS = ["uniform", "weighted", "topk", "importance", "full"]


# --------------------------------------------------------------------- #
# Scalar oracles: the loops the kernels replaced, over public API only
# --------------------------------------------------------------------- #
def oracle_children(sampler, vertices, count, rng):
    """``sampler.sample_children`` one block row at a time, with scalar code.

    uniform / top-k / full must equal it exactly (uniform consuming ``rng``
    identically); weighted / importance draw by inverse CDF, sharing nothing
    with the alias tables, and must match it distributionally.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    block, rows = sampler.provider.frontier_block(vertices)
    children = np.repeat(vertices[:, None], count, axis=1)
    for i, (v, row) in enumerate(zip(vertices.tolist(), rows.tolist())):
        nbrs = block.neighbors(row)
        if nbrs.size == 0:
            continue  # self-padded
        if isinstance(sampler, UniformNeighborSampler):
            children[i] = nbrs[rng.integers(nbrs.size, size=count)]
        elif isinstance(sampler, TopKNeighborSampler):
            order = np.lexsort((nbrs, -block.weights_of(row)))
            children[i] = np.resize(nbrs[order[:count]], count)
        elif isinstance(sampler, FullNeighborSampler):
            children[i] = np.resize(nbrs[: sampler.max_fanout], count)
        else:
            if isinstance(sampler, ImportanceNeighborSampler):
                scores = sampler._scores[nbrs]
                p = scores / scores.sum()
            else:
                w = block.weights_of(row)
                p = w / w.sum()
            children[i] = nbrs[rng.choice(nbrs.size, size=count, p=p)]
    return children


def oracle_walks(graph, starts, length, rng):
    """``random_walks`` one walk and one scalar step at a time."""
    walks = []
    for start in np.asarray(starts).tolist():
        walk = [start]
        for _ in range(length):
            nbrs = graph.out_neighbors(walk[-1])
            if nbrs.size == 0:
                break
            walk.append(int(nbrs[rng.integers(nbrs.size)]))
        walks.append(np.asarray(walk, dtype=np.int64))
    return walks


# --------------------------------------------------------------------- #
# Strategies: random ragged adjacency behind either provider shape
# --------------------------------------------------------------------- #
@st.composite
def ragged_graphs(draw, min_vertices=2, max_vertices=10, sink=False):
    """Directed multigraph with empty rows, self-loops and tied weights
    (``sink``: the last row is empty and the first is not)."""
    n = draw(st.integers(min_vertices, max_vertices))
    degrees = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    if sink:
        degrees[0], degrees[-1] = max(degrees[0], 1), 0
    rng = make_rng(draw(st.integers(0, 2**16)))
    src = np.repeat(np.arange(n), degrees)
    dst = rng.integers(0, n, size=src.size)
    weights = rng.integers(1, 4, size=src.size).astype(np.float64)
    return Graph(n, src, dst, weights=weights, directed=True)


@st.composite
def ragged_frontiers(draw):
    """``(graph, provider, frontier)``: the frontier repeats ids; the provider
    is the whole-graph snapshot or a store packing a sub-block with ``ids``."""
    graph = draw(ragged_graphs())
    n = graph.n_vertices
    frontier = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    if draw(st.booleans()):
        provider = StoreProvider(make_store(graph, 2, seed=0), from_part=0)
    else:
        provider = GraphProvider(graph)
    return graph, provider, np.asarray(frontier, dtype=np.int64)


def _draw_counts(draw_fn, graph, frontier, count, rounds, rng):
    """``(parent, child)`` frequencies of ``rounds`` frontier expansions."""
    n = graph.n_vertices
    acc = np.zeros((n, n), dtype=np.int64)
    for _ in range(rounds):
        children = draw_fn(frontier, count, rng)
        np.add.at(acc, (np.repeat(frontier, count), children.ravel()), 1)
    return acc.ravel()


# --------------------------------------------------------------------- #
# CsrAdjacency
# --------------------------------------------------------------------- #
class TestCsrAdjacency:
    def test_from_graph_matches_adjacency(self, tiny_graph):
        csr = CsrAdjacency.from_graph(tiny_graph)
        assert csr.n_vertices == tiny_graph.n_vertices
        for v in range(tiny_graph.n_vertices):
            assert np.array_equal(csr.neighbors(v), tiny_graph.out_neighbors(v))
            assert np.array_equal(csr.weights_of(v), out_weights(tiny_graph, v))
        assert np.array_equal(csr.degrees, tiny_graph.out_degrees())
        assert csr.indices.size == int(tiny_graph.out_degrees().sum())

    def test_from_rows_equals_from_graph(self, tiny_graph):
        a = CsrAdjacency.from_graph(tiny_graph)
        rows = [tiny_graph.out_neighbors(v) for v in range(tiny_graph.n_vertices)]
        b = CsrAdjacency.from_rows(rows)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.all(b.weights == 1.0)  # packed rows are uniformly weighted
        assert CsrAdjacency.from_rows([]).n_vertices == 0

    @settings(max_examples=80, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 5), max_size=8),
        seed=st.integers(0, 2**16),
        named=st.booleans(),
    )
    def test_from_rows_equals_validated_constructor(self, lengths, seed, named):
        # from_rows sets its fields without re-validating them; the checked
        # constructor over the same arrays is its oracle, dtypes included.
        rng = make_rng(seed)
        rows = [rng.integers(0, 50, size=k) for k in lengths]
        ids = 3 * np.arange(len(rows), dtype=np.int64) if named else None
        packed = CsrAdjacency.from_rows(rows, ids)
        indptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
        indices = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        checked = CsrAdjacency(indptr, indices, np.ones(indices.size), ids)
        for field in ("indptr", "indices", "weights", "degrees"):
            got, want = getattr(packed, field), getattr(checked, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        assert packed.ids is checked.ids
        assert np.array_equal(packed.ranked(), checked.ranked())

    @settings(max_examples=100, deadline=None)
    @given(
        frontier=st.one_of(
            st.just([]),
            st.lists(st.integers(0, 40), min_size=1, max_size=1),
            st.lists(st.integers(0, 40), min_size=2, max_size=60),
        )
    )
    @example(frontier=[7, 3, 7, 7, 0, 3])
    def test_frontier_dedup_equals_np_unique(self, frontier):
        class EchoStore:
            def get_neighbors_batch(self, ids, from_part):
                return {v: np.zeros(0, dtype=np.int64) for v in ids.tolist()}

        frontier = np.asarray(frontier, dtype=np.int64)
        block, rows = StoreProvider(EchoStore(), 0).frontier_block(frontier)
        ids, inverse = np.unique(frontier, return_inverse=True)
        assert block.ids.dtype == ids.dtype and np.array_equal(block.ids, ids)
        assert rows.dtype == inverse.dtype and np.array_equal(rows, inverse)

    def test_block_rows_are_named_by_ids(self, tiny_graph):
        whole = CsrAdjacency.from_graph(tiny_graph)
        assert whole.ids is None  # row v is vertex v
        ids = np.array([1, 4], dtype=np.int64)
        block = CsrAdjacency.from_rows(
            [tiny_graph.out_neighbors(1), tiny_graph.out_neighbors(4)], ids
        )
        assert block.ids is ids
        assert np.array_equal(block.neighbors(1), [0, 5])
        with pytest.raises(SamplingError):
            CsrAdjacency.from_rows([tiny_graph.out_neighbors(1)], ids)

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(SamplingError):
            CsrAdjacency(np.array([1, 2]), np.array([0, 1]), np.ones(2))
        with pytest.raises(SamplingError):
            CsrAdjacency(np.array([0, 3]), np.array([0, 1]), np.ones(2))
        with pytest.raises(SamplingError):
            CsrAdjacency(np.array([0, 2, 1]), np.array([0, 1]), np.ones(2))

    def test_ranked_orders_by_weight_then_id(self, tiny_graph):
        csr = CsrAdjacency.from_graph(tiny_graph)
        perm = csr.ranked()
        # vertex 4 has neighbors 0 (w=6) and 5 (w=7) -> heaviest first is 5.
        start = csr.indptr[4]
        assert csr.indices[perm[start]] == 5
        assert csr.indices[perm[start + 1]] == 0

    def test_uniform_kernel_stays_in_neighbor_set(self, tiny_graph, rng):
        csr = CsrAdjacency.from_graph(tiny_graph)
        vs = np.array([0, 2, 4], dtype=np.int64)
        out = csr.sample_uniform(vs, 16, rng)
        for row, v in zip(out, vs):
            assert set(row) <= set(int(u) for u in tiny_graph.out_neighbors(v))

    def test_zero_degree_rows_self_pad(self, tiny_graph, rng):
        csr = CsrAdjacency.from_graph(tiny_graph)
        out = csr.sample_uniform(np.array([5]), 4, rng)  # 5 is a sink
        assert np.array_equal(out, np.full((1, 4), 5))
        # A frontier block pads with the vertex's global id, not its row.
        block = CsrAdjacency.from_rows(
            [tiny_graph.out_neighbors(5)], np.array([5], dtype=np.int64)
        )
        rows, pad = np.array([0]), np.array([5])
        for out in (
            block.sample_uniform(rows, 3, rng, pad),
            block.sample_ranked(rows, 3, pad_ids=pad),
            block.sample_leading(rows, 3, pad_ids=pad),
        ):
            assert np.array_equal(out, np.full((1, 3), 5))


# --------------------------------------------------------------------- #
# Grouped alias tables
# --------------------------------------------------------------------- #
class TestGroupedAlias:
    def test_implied_probabilities_exact(self, small_powerlaw):
        csr = CsrAdjacency.from_graph(small_powerlaw)
        table = GroupedAliasTable(csr.weights, csr.indptr)
        implied = table.probabilities()
        for v in range(csr.n_vertices):
            w = csr.weights_of(v)
            if w.size == 0:
                continue
            got = implied[csr.indptr[v] : csr.indptr[v + 1]]
            assert np.allclose(got, w / w.sum(), atol=1e-12)

    def test_matches_per_list_alias_tables(self, rng):
        # Same distribution as independently built per-list AliasTables,
        # checked exactly (implied probs) and empirically (chi-square).
        weights = np.array([1.0, 3.0, 6.0, 2.0, 2.0, 5.0, 1.0])
        indptr = np.array([0, 3, 3, 7])
        grouped = GroupedAliasTable(weights, indptr)
        for g, (s, e) in enumerate(zip(indptr[:-1], indptr[1:])):
            if e == s:
                continue
            w = weights[s:e]
            single = AliasTable(w)
            sp, sa = single._prob, single._alias
            implied = sp.copy()
            np.add.at(implied, sa, 1.0 - sp)
            implied /= w.size
            got = grouped.probabilities()[s:e]
            assert np.allclose(got, implied, atol=1e-12)
            draws = grouped.draw_for_groups(np.array([g]), 4000, rng)[0] - s
            counts = np.bincount(draws, minlength=w.size)
            _, p = chi_square_gof(counts, w / w.sum())
            assert p > P_FLOOR

    def test_empty_group_draw_rejected(self, rng):
        table = GroupedAliasTable(np.array([1.0, 2.0]), np.array([0, 2, 2]))
        with pytest.raises(SamplingError):
            table.draw_for_groups(np.array([1]), 3, rng)

    def test_build_rejects_all_zero_group(self):
        with pytest.raises(SamplingError):
            build_alias_arrays(np.array([0.0, 0.0]), np.array([0, 2]))

    def test_build_handles_empty_and_singleton_groups(self):
        prob, alias = build_alias_arrays(
            np.array([2.0, 1.0, 1.0]), np.array([0, 1, 1, 3])
        )
        assert prob[0] == 1.0 and alias[0] == 0
        assert np.allclose(prob[1:], 1.0)


# --------------------------------------------------------------------- #
# sample_children: public batched API
# --------------------------------------------------------------------- #
class TestSampleChildren:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_shapes_and_membership(self, small_powerlaw, rng, kind):
        sampler = _sampler(kind, small_powerlaw)
        vs = np.array([0, 5, 17, 300], dtype=np.int64)
        children = sampler.sample_children(vs, 7, rng)
        assert children.shape == (4, 7)
        for row, v in zip(children, vs):
            nbrs = set(int(u) for u in small_powerlaw.out_neighbors(v))
            allowed = nbrs | {int(v)} if not nbrs else nbrs | (
                {int(v)} if int(v) in nbrs else set()
            )
            if not nbrs:
                assert np.all(row == v)
            else:
                assert set(int(c) for c in row) <= allowed

    # The id survives from when a reference arm shipped beside the kernel.
    @pytest.mark.parametrize("kind", ["uniform"], ids=["batched"])
    @settings(max_examples=60, deadline=None)
    @given(case=ragged_frontiers(), count=st.integers(1, 9))
    def test_uniform_matches_per_row_oracle_exactly(self, kind, case, count):
        # The broadcast draw consumes the stream like one scalar call per
        # non-empty row, in frontier order: not merely the same law.
        graph, provider, frontier = case
        sampler = _sampler(kind, graph, provider)
        rng_k, rng_o = make_rng(21), make_rng(21)
        got = sampler.sample_children(frontier, count, rng_k)
        want = oracle_children(sampler, frontier, count, rng_o)
        assert np.array_equal(got, want)
        assert rng_k.bit_generator.state == rng_o.bit_generator.state

    @pytest.mark.parametrize("via_store", [False, True], ids=["graph", "store"])
    @settings(max_examples=40, deadline=None)
    @given(graph=ragged_graphs(sink=True), count=st.integers(1, 9), data=st.data())
    def test_pad_free_uniform_arm_equals_padded_arm(self, via_store, graph, count, data):
        # A frontier of non-empty rows skips the pad scaffold; adding a sink
        # takes the padded arm, whose draw for the other rows is the same
        # call. Both must equal the oracle and each other, rng state included.
        sink = graph.n_vertices - 1
        busy = np.flatnonzero(graph.out_degrees() > 0).tolist()
        frontier = np.asarray(
            data.draw(st.lists(st.sampled_from(busy), min_size=1, max_size=12)),
            dtype=np.int64,
        )
        provider = (
            StoreProvider(make_store(graph, 2, seed=0), from_part=0)
            if via_store
            else GraphProvider(graph)
        )
        sampler = UniformNeighborSampler(provider)
        padded_calls = []
        pad_empty = CsrAdjacency._pad_empty

        def spy(block, *args):
            padded_calls.append(True)
            return pad_empty(block, *args)

        draws = {}
        for arm, vertices in (("pad-free", frontier), ("padded", np.append(frontier, sink))):
            rng_k, rng_o = make_rng(21), make_rng(21)
            padded_calls.clear()
            with mock.patch.object(CsrAdjacency, "_pad_empty", spy):
                got = sampler.sample_children(vertices, count, rng_k)
            assert bool(padded_calls) == (arm == "padded")
            want = oracle_children(sampler, vertices, count, rng_o)
            assert np.array_equal(got, want)
            assert rng_k.bit_generator.state == rng_o.bit_generator.state
            draws[arm] = got, rng_k.bit_generator.state
        (free, free_state), (padded, padded_state) = draws["pad-free"], draws["padded"]
        assert np.array_equal(free, padded[:-1]) and np.all(padded[-1] == sink)
        assert free_state == padded_state

    @pytest.mark.parametrize("kind", ["topk", "full"])
    @settings(max_examples=60, deadline=None)
    @given(
        case=ragged_frontiers(),
        count=st.integers(1, 9),
        max_fanout=st.integers(1, 8),
    )
    def test_deterministic_kinds_match_reference_exactly(
        self, kind, case, count, max_fanout
    ):
        graph, provider, frontier = case
        sampler = _sampler(kind, graph, provider, max_fanout=max_fanout)
        rng_k, rng_o = make_rng(3), make_rng(3)
        got = sampler.sample_children(frontier, count, rng_k)
        want = oracle_children(sampler, frontier, count, rng_o)
        assert np.array_equal(got, want)
        # Neither side draws: fan-out > degree tiles, it does not resample.
        assert rng_k.bit_generator.state == rng_o.bit_generator.state

    @pytest.mark.parametrize("kind", ["weighted", "importance"])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(case=ragged_frontiers(), count=st.integers(1, 9))
    def test_stochastic_kinds_chi_square_equivalent(self, kind, case, count):
        graph, provider, frontier = case
        sampler = _sampler(kind, graph, provider)
        kernel = _draw_counts(
            sampler.sample_children, graph, frontier, count, 150, make_rng(1)
        )
        oracle = _draw_counts(
            lambda vs, c, rng: oracle_children(sampler, vs, c, rng),
            graph, frontier, count, 150, make_rng(2),
        )
        _, p = chi_square_homogeneity(kernel, oracle)
        assert p > P_FLOOR, f"{kind} kernel diverges from the oracle (p={p:.2e})"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_same_seed_determinism(self, small_powerlaw, kind):
        vs = np.array([3, 14, 15, 92, 653], dtype=np.int64)
        a = _sampler(kind, small_powerlaw).sample_children(vs, 9, make_rng(99))
        b = _sampler(kind, small_powerlaw).sample_children(vs, 9, make_rng(99))
        assert np.array_equal(a, b)

    def test_multi_hop_sample_uses_batched_kernels(self, small_powerlaw):
        sampler = _sampler("uniform", small_powerlaw)
        out = sampler.sample(np.array([1, 2, 3]), [4, 2], make_rng(0))
        assert out.layers[1].size == 12 and out.layers[2].size == 24
        assert out.n_hops == 2

    def test_genuine_self_loop_marks_pad(self):
        # Vertex 0's only edge is a self-loop: every draw equals the parent,
        # exactly as the padding of a neighborless vertex does.
        g = Graph(
            2,
            np.array([0, 1]),
            np.array([0, 0]),
            weights=np.array([1.0, 1.0]),
            directed=True,
        )
        sampler = UniformNeighborSampler(GraphProvider(g))
        parents = np.array([0, 1])
        children = sampler.sample_children(parents, 3, make_rng(0))
        pad = children == parents[:, None]
        assert np.all(children[0] == 0) and np.all(pad[0])
        assert np.all(children[1] == 0) and not np.any(pad[1])


# --------------------------------------------------------------------- #
# Dynamic-graph refresh
# --------------------------------------------------------------------- #
class TestDynamicRefresh:
    def test_advance_rebuilds_csr_and_stays_deterministic(self):
        dyn = dynamic_taobao(n_vertices=300, n_timestamps=3, seed=11)

        def run():
            provider = dyn.provider()
            sampler = UniformNeighborSampler(provider)
            seeds = np.arange(48, dtype=np.int64)
            before = sampler.sample(seeds, [6, 3], make_rng(3))
            provider.advance(2)
            after = sampler.sample(seeds, [6, 3], make_rng(3))
            return before, after

        (b1, a1), (b2, a2) = run(), run()
        for x, y in zip(b1.layers + a1.layers, b2.layers + a2.layers):
            assert np.array_equal(x, y)
        # And the refreshed draws respect the *new* snapshot's adjacency.
        g2 = dyn.snapshot(2)
        kids = a1.layers[1].reshape(48, -1)
        for v, row in zip(np.arange(48), kids):
            nbrs = set(int(u) for u in g2.out_neighbors(int(v)))
            for c in row:
                assert int(c) in nbrs or int(c) == int(v)

    def test_alias_table_cached_per_snapshot_object(self):
        dyn = dynamic_taobao(n_vertices=300, n_timestamps=3, seed=11)
        provider = dyn.provider()
        sampler = WeightedNeighborSampler(provider)
        seeds = np.arange(32, dtype=np.int64)
        sampler.sample_children(seeds, 4, make_rng(0))
        first = sampler._table
        sampler.sample_children(seeds, 4, make_rng(0))
        assert sampler._table is first  # same snapshot object: table kept
        provider.advance(1)
        sampler.sample_children(seeds, 4, make_rng(0))
        assert sampler._table is not first  # new snapshot: rebuilt on it
        assert len(sampler._table) == dyn.snapshot(1).n_edges


# --------------------------------------------------------------------- #
# Batched negatives and walks
# --------------------------------------------------------------------- #
class TestBatchedNegativesAndWalks:
    @settings(max_examples=60, deadline=None)
    @given(
        graph=ragged_graphs(),
        length=st.integers(1, 8),
        data=st.data(),
    )
    def test_batched_walks_follow_edges_and_truncate(self, graph, length, data):
        starts = np.asarray(
            data.draw(
                st.lists(st.integers(0, graph.n_vertices - 1), min_size=1, max_size=8)
            ),
            dtype=np.int64,
        )
        walks = random_walks(graph, starts, length, make_rng(1))
        assert [int(w[0]) for w in walks] == starts.tolist()
        for walk in walks:
            for a, b in zip(walk[:-1], walk[1:]):
                assert int(b) in graph.out_neighbors(int(a))
            # Only a sink ends a walk early.
            assert walk.size == length + 1 or graph.out_degrees()[int(walk[-1])] == 0

    def test_batched_walks_deterministic(self, tiny_graph):
        a = random_walks(tiny_graph, np.array([0, 1]), 8, make_rng(6))
        b = random_walks(tiny_graph, np.array([0, 1]), 8, make_rng(6))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_walk_backends_step_distribution_match(self, small_powerlaw):
        graph = small_powerlaw
        start = int(np.argmax(graph.out_degrees()))
        counts = []
        for seed, walker in ((8, random_walks), (9, oracle_walks)):
            walks = walker(graph, np.full(800, start), 2, make_rng(seed))
            counts.append(
                np.bincount(
                    np.concatenate([w[1:] for w in walks]), minlength=graph.n_vertices
                )
            )
        _, p = chi_square_homogeneity(*counts)
        assert p > P_FLOOR, f"p={p:.2e}"


# --------------------------------------------------------------------- #
# Providers
# --------------------------------------------------------------------- #
class TestBackendSelection:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_store_sample_reads_only_frontier_rows(self, small_powerlaw, seed):
        # No whole-graph read hides behind the batched kernels: what a
        # sample ships is bounded by the rows of the frontiers it expanded.
        store = make_store(small_powerlaw, 2, seed=0)
        store.attach_runtime(RpcRuntime(store))
        sampler = UniformNeighborSampler(StoreProvider(store, from_part=0))
        batch = make_rng(seed).integers(0, small_powerlaw.n_vertices, size=3)
        out = sampler.sample(batch, [4, 2], make_rng(seed))
        degrees = small_powerlaw.out_degrees()
        frontier_slots = sum(
            int(degrees[np.unique(layer)].sum()) for layer in out.layers[:-1]
        )
        assert 0 < store.ledger.count(EV_ITEM_SHIPPED) <= frontier_slots
        assert frontier_slots < small_powerlaw.n_edges // 10

    def test_zipf_probs_normalized_and_monotone(self):
        probs = zipf_probs(50, exponent=1.2)
        assert probs.shape == (50,)
        assert np.isclose(probs.sum(), 1.0)
        assert np.all(np.diff(probs) < 0)  # strictly rank-decreasing
        # exponent 0 degenerates to uniform.
        assert np.allclose(zipf_probs(8, exponent=0.0), 1.0 / 8)

    def test_zipf_sampler_chi_square_matches_law(self):
        n = 40
        sampler = ZipfSampler(n, exponent=1.1)
        draws = sampler.sample(30_000, make_rng(13))
        counts = np.bincount(draws, minlength=n)
        _, p = chi_square_gof(counts, zipf_probs(n, exponent=1.1))
        assert p > P_FLOOR, f"Zipf draws diverge from the law (p={p:.2e})"

    def test_zipf_sampler_population_and_determinism(self):
        population = np.array([7, 99, 3, 42], dtype=np.int64)
        sampler = ZipfSampler(population, exponent=1.5)
        a = sampler.sample(64, make_rng(5))
        b = ZipfSampler(population, exponent=1.5).sample(64, make_rng(5))
        assert np.array_equal(a, b)
        assert set(a.tolist()) <= set(population.tolist())
        # Rank 1 (value 7) must dominate under a strong exponent.
        assert np.mean(a == 7) > np.mean(a == 42)

    def test_zipf_validation(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            zipf_probs(0)
        with pytest.raises(ReproError):
            zipf_probs(4, exponent=-0.5)
        with pytest.raises(ReproError):
            ZipfSampler(np.array([], dtype=np.int64))

    def test_snapshot_provider_exposes_versioned_csr(self):
        dyn = dynamic_taobao(n_vertices=200, n_timestamps=3, seed=1)
        provider = SnapshotProvider(dyn)
        frontier = np.array([3, 1, 3], dtype=np.int64)
        v0, rows = provider.frontier_block(frontier)
        assert rows is frontier and v0.ids is None  # whole graph, row == id
        assert provider.frontier_block(frontier)[0] is v0
        provider.advance(1)
        v1, _ = provider.frontier_block(frontier)
        assert v1 is not v0 and v1.indices.size == dyn.snapshot(1).n_edges
        provider.advance(1)  # no-op
        assert provider.frontier_block(frontier)[0] is v1


# --------------------------------------------------------------------- #
# One draw path: store-backed frontier blocks
# --------------------------------------------------------------------- #
def _sink_graph() -> Graph:
    """240 vertices, ~1.4k directed edges; vertices >= 200 have no out-edges."""
    rng = make_rng(17)
    src = rng.integers(0, 200, size=1500)
    dst = rng.integers(0, 240, size=1500)
    return Graph(240, src, dst, directed=True)


class TestStoreBackedBlocks:
    @pytest.mark.parametrize("policy", [ImportanceCachePolicy, LRUCachePolicy])
    def test_store_draws_equal_graph_draws_bit_for_bit(self, policy):
        graph = _sink_graph()
        sinks = np.flatnonzero(graph.out_degrees() == 0)
        assert sinks.size >= 40
        batches = [
            np.array([7, 7, sinks[0], 3, 7, sinks[1], 3], dtype=np.int64),
            np.array([11], dtype=np.int64),  # batch of one
            sinks[:2],  # nothing to draw at all
            make_rng(5).integers(0, graph.n_vertices, size=96),
        ]
        n_workers = 3
        for part in range(n_workers):
            store = make_store(
                graph,
                n_workers,
                cache_policy=policy(),
                cache_budget_fraction=0.2,
                seed=0,
            )
            store.attach_runtime(
                RpcRuntime(
                    store,
                    faults=FaultPlan(drop_rate=0.25, seed=part),
                    retry=RetryPolicy(max_attempts=40),
                )
            )
            via_store = UniformNeighborSampler(StoreProvider(store, part))
            via_graph = UniformNeighborSampler(GraphProvider(graph))
            rng_s, rng_g = make_rng(9), make_rng(9)
            for batch in batches:
                a = via_store.sample(batch, [5, 3], rng_s)
                b = via_graph.sample(batch, [5, 3], rng_g)
                for x, y in zip(a.layers, b.layers):
                    assert np.array_equal(x, y)
            assert store.runtime.metrics.counter("rpc.retries").value > 0

    def test_provider_rows_are_never_stale(self):
        # Regression: the provider used to keep the last prefetched rows and
        # serve them after the store had changed the adjacency.
        graph = make_dataset("taobao-small-sim", scale=0.1, seed=0)
        store = make_store(graph, 2, seed=0)
        provider = StoreProvider(store, from_part=0)
        hub = int(np.argmax(graph.out_degrees()))
        sampler = UniformNeighborSampler(provider)
        sampler.sample(np.array([hub]), [4], make_rng(0))  # reads hub's row
        victim = int(graph.out_neighbors(hub)[0])
        store.apply_edge_events([EdgeEvent(0, hub, victim, "remove")])
        fresh = store.neighbors(hub, from_part=0)
        assert fresh.size == graph.out_degrees()[hub] - 1
        assert np.array_equal(provider.neighbors(hub), fresh)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_samplers_follow_edge_churn(self, kind):
        graph = make_dataset("taobao-small-sim", scale=0.1, seed=0)
        store = make_store(graph, 2, seed=0)
        sampler = _sampler(kind, graph, StoreProvider(store, 0))
        hubs = np.argsort(graph.out_degrees())[-6:].astype(np.int64)
        rng = make_rng(3)
        sampler.sample(hubs, [16, 2], rng)
        newcomer = int(np.flatnonzero(graph.out_degrees() == graph.out_degrees().min())[0])
        events = []
        for hub in hubs.tolist():
            row = graph.out_neighbors(hub)
            # Shrink every hub to one old neighbor plus one new one.
            events += [EdgeEvent(0, hub, int(u), "remove") for u in row[1:]]
            events.append(EdgeEvent(0, hub, newcomer, "add"))
        store.apply_edge_events(events)
        # Used to die here with a bare IndexError from a stale alias table.
        children = sampler.sample_children(hubs, 64, rng)
        seen_newcomer = False
        for hub, kids in zip(hubs.tolist(), children):
            current = set(store.neighbors(hub, from_part=0).tolist())
            assert newcomer in current and len(current) <= 2
            assert set(kids.tolist()) <= current | {hub}
            seen_newcomer |= newcomer in kids
        assert seen_newcomer  # additions are sampled, not only removals honoured

    def test_sampling_call_count_independent_of_batch_size(self):
        # The per-vertex loop cannot come back unnoticed: the Python calls
        # one store-backed expansion makes inside repro.sampling do not
        # depend on how many vertices it expands.
        graph = make_dataset("taobao-small-sim", scale=0.3, seed=0)
        store = make_store(
            graph, 4, cache_policy=ImportanceCachePolicy(), cache_budget_fraction=0.1, seed=0
        )
        sampler = UniformNeighborSampler(StoreProvider(store, from_part=0))
        counts = {
            size: python_calls(
                lambda: sampler.sample(
                    make_rng(1).integers(0, graph.n_vertices, size=size),
                    [10, 5],
                    make_rng(2),
                ),
                under="/repro/sampling/",
            )
            for size in (64, 512)
        }
        assert counts[64] == counts[512] > 0
        assert counts[512] < 64
