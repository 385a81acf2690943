"""Batched frontier-sampling kernels: adjacency blocks, grouped alias tables,
oracle equivalence, determinism, dynamic refresh, and the one draw path every
provider (in-memory or store-backed) runs."""

from __future__ import annotations

import numpy as np
import pytest

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
from repro.sampling.negative import DegreeBiasedNegativeSampler, UniformNegativeSampler
from repro.sampling.randomwalk import random_walks
from repro.storage.cache import ImportanceCachePolicy, LRUCachePolicy
from repro.storage.cluster import make_store
from repro.storage.costmodel import (
    EV_CACHE_HIT,
    EV_ITEM_SHIPPED,
    EV_LOCAL_READ,
    EV_REMOTE_RPC,
)
from repro.utils.alias import AliasTable, GroupedAliasTable, build_alias_arrays
from repro.utils.rng import make_rng
from repro.utils.stats import (
    ZipfSampler,
    chi_square_gof,
    chi_square_homogeneity,
    zipf_probs,
)
from tests.conftest import python_calls

P_FLOOR = 1e-4  # equivalence tests: H0 true, so p is uniform on [0, 1]


def _sampler(kind: str, graph: Graph, backend: str, provider=None):
    provider = provider or GraphProvider(graph)
    if kind == "uniform":
        return UniformNeighborSampler(provider, backend=backend)
    if kind == "weighted":
        return WeightedNeighborSampler(provider, backend=backend)
    if kind == "topk":
        return TopKNeighborSampler(provider, backend=backend)
    if kind == "importance":
        return ImportanceNeighborSampler(
            provider, graph.out_degrees(), backend=backend
        )
    return FullNeighborSampler(provider, backend=backend)


ALL_KINDS = ["uniform", "weighted", "topk", "importance", "full"]


# --------------------------------------------------------------------- #
# CsrAdjacency
# --------------------------------------------------------------------- #
class TestCsrAdjacency:
    def test_from_graph_matches_adjacency(self, tiny_graph):
        csr = CsrAdjacency.from_graph(tiny_graph)
        assert csr.n_vertices == tiny_graph.n_vertices
        for v in range(tiny_graph.n_vertices):
            assert np.array_equal(csr.neighbors(v), tiny_graph.out_neighbors(v))
            assert np.array_equal(csr.weights_of(v), tiny_graph.out_weights(v))
        assert np.array_equal(csr.degrees, tiny_graph.out_degrees())
        assert csr.n_slots == int(tiny_graph.out_degrees().sum())

    def test_from_rows_equals_from_graph(self, tiny_graph):
        a = CsrAdjacency.from_graph(tiny_graph)
        rows = [tiny_graph.out_neighbors(v) for v in range(tiny_graph.n_vertices)]
        b = CsrAdjacency.from_rows(rows)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.all(b.weights == 1.0)  # packed rows are uniformly weighted
        assert CsrAdjacency.from_rows([]).n_vertices == 0

    def test_block_rows_are_named_by_ids(self, tiny_graph):
        whole = CsrAdjacency.from_graph(tiny_graph)
        assert whole.row_of(4) == 4 and whole.row_of(6) == -1
        ids = np.array([1, 4], dtype=np.int64)
        block = CsrAdjacency.from_rows(
            [tiny_graph.out_neighbors(1), tiny_graph.out_neighbors(4)], ids
        )
        assert block.row_of(4) == 1 and block.row_of(1) == 0
        assert block.row_of(0) == block.row_of(3) == block.row_of(9) == -1
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
            draws = grouped.draw_group(g, 4000, rng) - s
            counts = np.bincount(draws, minlength=w.size)
            _, p = chi_square_gof(counts, w / w.sum())
            assert p > P_FLOOR

    def test_update_group_redirects_mass(self, rng):
        weights = np.array([1.0, 1.0, 1.0, 1.0, 9.0])
        indptr = np.array([0, 2, 5])
        table = GroupedAliasTable(weights, indptr)
        table.update_group(1, np.array([0.0, 0.0, 1.0]))
        draws = table.draw_for_groups(np.array([1]), 500, rng)
        assert np.all(draws == 4)  # flat slot of the only surviving weight
        # group 0 untouched
        assert np.allclose(table.probabilities()[:2], 0.5)

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
        sampler = _sampler(kind, small_powerlaw, "batched")
        vs = np.array([0, 5, 17, 300], dtype=np.int64)
        children, pad = sampler.sample_children(vs, 7, rng)
        assert children.shape == pad.shape == (4, 7)
        for row, prow, v in zip(children, pad, vs):
            nbrs = set(int(u) for u in small_powerlaw.out_neighbors(v))
            allowed = nbrs | {int(v)} if not nbrs else nbrs | (
                {int(v)} if int(v) in nbrs else set()
            )
            if not nbrs:
                assert np.all(row == v) and np.all(prow)
            else:
                assert set(int(c) for c in row) <= allowed
            assert np.array_equal(prow, row == v)

    @pytest.mark.parametrize("backend", ["batched", "reference"])
    def test_uniform_matches_per_row_oracle_exactly(self, small_powerlaw, backend):
        # The broadcast draw consumes the stream like one scalar call per
        # non-empty row, in frontier order: not merely the same law.
        vs = make_rng(4).integers(0, small_powerlaw.n_vertices, size=400)
        got, _ = _sampler("uniform", small_powerlaw, backend).sample_children(
            vs, 7, make_rng(21)
        )
        rng = make_rng(21)
        for v, kids in zip(vs.tolist(), got):
            row = small_powerlaw.out_neighbors(v)
            want = row[rng.integers(row.size, size=7)] if row.size else v
            assert np.array_equal(kids, np.broadcast_to(want, (7,)))

    @pytest.mark.parametrize("kind", ["topk", "full"])
    def test_deterministic_kinds_match_reference_exactly(
        self, small_powerlaw, rng, kind
    ):
        vs = np.arange(small_powerlaw.n_vertices, dtype=np.int64)
        got, gp = _sampler(kind, small_powerlaw, "batched").sample_children(
            vs, 6, rng
        )
        want, wp = _sampler(kind, small_powerlaw, "reference").sample_children(
            vs, 6, rng
        )
        assert np.array_equal(got, want)
        assert np.array_equal(gp, wp)

    @pytest.mark.parametrize("kind", ["weighted", "importance"])
    def test_stochastic_kinds_chi_square_equivalent(self, small_powerlaw, kind):
        degrees = small_powerlaw.out_degrees()
        parents = np.argsort(degrees)[-12:].astype(np.int64)
        counts = {}
        for seed, backend in ((1, "batched"), (2, "reference")):
            sampler = _sampler(kind, small_powerlaw, backend)
            rng = make_rng(seed)
            acc = np.zeros(
                (parents.size, small_powerlaw.n_vertices), dtype=np.int64
            )
            for _ in range(300):
                children, _ = sampler.sample_children(parents, 8, rng)
                for i, kids in enumerate(children):
                    acc[i] += np.bincount(
                        kids, minlength=small_powerlaw.n_vertices
                    )
            counts[backend] = acc.ravel()
        _, p = chi_square_homogeneity(counts["batched"], counts["reference"])
        assert p > P_FLOOR, f"{kind} backends diverge (p={p:.2e})"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_same_seed_determinism(self, small_powerlaw, kind):
        vs = np.array([3, 14, 15, 92, 653], dtype=np.int64)
        a, _ = _sampler(kind, small_powerlaw, "batched").sample_children(
            vs, 9, make_rng(99)
        )
        b, _ = _sampler(kind, small_powerlaw, "batched").sample_children(
            vs, 9, make_rng(99)
        )
        assert np.array_equal(a, b)

    def test_multi_hop_sample_uses_batched_kernels(self, small_powerlaw):
        sampler = _sampler("uniform", small_powerlaw, "batched")
        assert sampler.backend == "batched"
        out = sampler.sample(np.array([1, 2, 3]), [4, 2], make_rng(0))
        assert out.layers[1].size == 12 and out.layers[2].size == 24
        assert len(out.pad_masks) == 2

    def test_genuine_self_loop_marks_pad(self):
        # Vertex 0's only edge is a self-loop: every draw equals the parent
        # and is flagged by the pad mask (the documented contract).
        g = Graph(
            2,
            np.array([0, 1]),
            np.array([0, 0]),
            weights=np.array([1.0, 1.0]),
            directed=True,
        )
        sampler = UniformNeighborSampler(GraphProvider(g), backend="batched")
        children, pad = sampler.sample_children(
            np.array([0, 1]), 3, make_rng(0)
        )
        assert np.all(children[0] == 0) and np.all(pad[0])
        assert np.all(children[1] == 0) and not np.any(pad[1])

    def test_weight_update_moves_batched_distribution(self, tiny_graph):
        sampler = WeightedNeighborSampler(
            GraphProvider(tiny_graph), backend="batched"
        )
        rng = make_rng(5)
        sampler.sample_children(np.array([0]), 4, rng)  # builds the table
        # Push vertex 0's mass almost entirely onto neighbor 2.
        sampler.backward(0, np.array([-40.0, 40.0]), lr=1.0)
        children, _ = sampler.sample_children(np.array([0]), 400, rng)
        assert np.mean(children == 2) > 0.97

    def test_invalid_backend_rejected(self, tiny_graph):
        for backend in ("turbo", "auto"):
            with pytest.raises(SamplingError):
                UniformNeighborSampler(GraphProvider(tiny_graph), backend=backend)


# --------------------------------------------------------------------- #
# Dynamic-graph refresh
# --------------------------------------------------------------------- #
class TestDynamicRefresh:
    def test_advance_rebuilds_csr_and_stays_deterministic(self):
        dyn = dynamic_taobao(n_vertices=300, n_timestamps=3, seed=11)

        def run():
            provider = dyn.provider(0)
            sampler = UniformNeighborSampler(provider, backend="batched")
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
        kids = a1.hop(1)
        for v, row in zip(np.arange(48), kids):
            nbrs = set(int(u) for u in g2.out_neighbors(int(v)))
            for c in row:
                assert int(c) in nbrs or int(c) == int(v)

    def test_alias_table_cached_per_snapshot_object(self):
        dyn = dynamic_taobao(n_vertices=300, n_timestamps=3, seed=11)
        provider = dyn.provider(0)
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
    def test_strict_negatives_avoid_true_edges(self, small_powerlaw):
        anchors = np.argsort(small_powerlaw.out_degrees())[-8:].astype(np.int64)
        sampler = UniformNegativeSampler(
            small_powerlaw, strict=True, backend="batched"
        )
        out = sampler.sample(anchors, 32, make_rng(2))
        for anchor, row in zip(anchors, out):
            forbidden = set(
                int(u) for u in small_powerlaw.out_neighbors(int(anchor))
            )
            forbidden.add(int(anchor))
            hits = sum(1 for c in row if int(c) in forbidden)
            # max_retries rounds make a surviving collision overwhelmingly
            # unlikely on a 1000-vertex pool.
            assert hits == 0

    def test_strict_backends_distributionally_equivalent(self, small_powerlaw):
        anchors = np.array([3, 14, 15], dtype=np.int64)
        counts = {}
        for seed, backend in ((4, "batched"), (5, "reference")):
            sampler = DegreeBiasedNegativeSampler(
                small_powerlaw, strict=True, backend=backend
            )
            acc = np.zeros(small_powerlaw.n_vertices, dtype=np.int64)
            rng = make_rng(seed)
            for _ in range(60):
                acc += np.bincount(
                    sampler.sample(anchors, 40, rng).ravel(),
                    minlength=small_powerlaw.n_vertices,
                )
            counts[backend] = acc
        _, p = chi_square_homogeneity(counts["batched"], counts["reference"])
        assert p > P_FLOOR

    def test_batched_walks_follow_edges_and_truncate(self, tiny_graph):
        walks = random_walks(
            tiny_graph, np.array([0, 1, 5]), 6, make_rng(1), backend="batched"
        )
        assert len(walks) == 3
        assert walks[2].tolist() == [5]  # sink start: truncated immediately
        for walk in walks:
            for a, b in zip(walk[:-1], walk[1:]):
                assert int(b) in set(
                    int(u) for u in tiny_graph.out_neighbors(int(a))
                )

    def test_batched_walks_deterministic_and_weighted(self, tiny_graph):
        a = random_walks(tiny_graph, np.array([0, 1]), 8, make_rng(6))
        b = random_walks(tiny_graph, np.array([0, 1]), 8, make_rng(6))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        # Weighted first step from 0: neighbor 2 (w=2) vs 1 (w=1).
        firsts = [
            int(
                random_walks(
                    tiny_graph,
                    np.array([0]),
                    1,
                    make_rng(seed),
                    weighted=True,
                    backend="batched",
                )[0][1]
            )
            for seed in range(300)
        ]
        frac2 = np.mean(np.asarray(firsts) == 2)
        assert 0.55 < frac2 < 0.8  # expected 2/3

    def test_walk_backends_step_distribution_match(self, small_powerlaw):
        start = int(np.argmax(small_powerlaw.out_degrees()))
        counts = {}
        for seed, backend in ((8, "batched"), (9, "reference")):
            rng = make_rng(seed)
            acc = np.zeros(small_powerlaw.n_vertices, dtype=np.int64)
            for _ in range(800):
                walk = random_walks(
                    small_powerlaw, np.array([start]), 1, rng, backend=backend
                )[0]
                if walk.size > 1:
                    acc[int(walk[1])] += 1
            counts[backend] = acc
        _, p = chi_square_homogeneity(counts["batched"], counts["reference"])
        assert p > P_FLOOR


# --------------------------------------------------------------------- #
# Providers and auto backend
# --------------------------------------------------------------------- #
class TestBackendSelection:
    def test_default_backend_is_batched_on_every_provider(self, small_powerlaw):
        store = make_store(small_powerlaw, 2, seed=0)
        degrees = small_powerlaw.out_degrees()
        for provider in (GraphProvider(small_powerlaw), StoreProvider(store, 0)):
            samplers = [
                UniformNeighborSampler(provider),
                WeightedNeighborSampler(provider),
                TopKNeighborSampler(provider),
                ImportanceNeighborSampler(provider, degrees),
                FullNeighborSampler(provider),
            ]
            assert all(s.backend == "batched" for s in samplers)

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
        provider = SnapshotProvider(dyn, 0)
        frontier = np.array([3, 1, 3], dtype=np.int64)
        v0, rows = provider.frontier_block(frontier)
        assert rows is frontier and v0.ids is None  # whole graph, row == id
        assert provider.frontier_block(frontier)[0] is v0
        provider.advance(1)
        v1, _ = provider.frontier_block(frontier)
        assert v1 is not v0 and v1.n_slots == dyn.snapshot(1).n_edges
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
                for x, y in zip(a.layers + a.pad_masks, b.layers + b.pad_masks):
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
        assert fresh.size == graph.out_degree(hub) - 1
        assert np.array_equal(provider.neighbors(hub), fresh)
        # ... and weights() is one priced read, not neighbors() plus another.
        def reads() -> int:
            return sum(
                store.ledger.count(ev)
                for ev in (EV_LOCAL_READ, EV_CACHE_HIT, EV_REMOTE_RPC)
            )

        before = reads()
        assert provider.weights(hub).shape == fresh.shape
        assert reads() == before + 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_samplers_follow_edge_churn(self, kind):
        graph = make_dataset("taobao-small-sim", scale=0.1, seed=0)
        store = make_store(graph, 2, seed=0)
        sampler = _sampler(kind, graph, "batched", StoreProvider(store, 0))
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
        children, _ = sampler.sample_children(hubs, 64, rng)
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
