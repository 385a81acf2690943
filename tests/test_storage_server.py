"""The columnar shard against its dict-of-rows oracle, and bulk cache install.

``OracleServer`` is the ``GraphServer`` body as it was before the shard
became one CSR slice — one ``np.array`` copy per owned row. A hypothesis
state machine drives both through every mutator and compares the whole
public surface after each step; ``pin_loop_cache`` is ``make_cache`` as it
was, one ``pin`` per selected vertex, the oracle for the bulk install.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.data import powerlaw_graph
from repro.errors import StorageError
from repro.graph import Graph
from repro.storage import ImportanceCachePolicy, LRUCachePolicy, RandomCachePolicy
from repro.storage.cache import NeighborCache, make_cache
from repro.storage.cluster import build_distributed, make_store
from repro.storage.partition import EdgeCutPartitioner
from repro.storage.server import GraphServer
from repro.utils.lru import LRUCache
from repro.utils.rng import make_rng


class OracleServer:
    """Dict-of-rows shard: one copied array per owned vertex."""

    def __init__(self, part_id, owned_vertices, graph):
        self.part_id = part_id
        self.rows = {
            int(v): np.array(graph.out_neighbors(int(v)), dtype=np.int64)
            for v in owned_vertices
        }
        self.weights = {
            int(v): np.array(graph.out_weights(int(v)), dtype=np.float64)
            for v in owned_vertices
        }

    def owns(self, vertex):
        return vertex in self.rows

    @property
    def n_local_edges(self):
        return sum(row.size for row in self.rows.values())

    def add_local_edge(self, src, dst, weight=1.0):
        self.rows[src] = np.append(self.rows[src], np.int64(dst))
        self.weights[src] = np.append(self.weights[src], float(weight))

    def remove_local_edge(self, src, dst):
        hits = np.flatnonzero(self.rows[src] == dst)
        if hits.size == 0:
            return False
        self.rows[src] = np.delete(self.rows[src], hits[0])
        self.weights[src] = np.delete(self.weights[src], hits[0])
        return True

    def ingest_vertex(self, vertex, neighbors, weights):
        self.rows[vertex], self.weights[vertex] = neighbors, weights

    def release_vertex(self, vertex):
        return self.rows.pop(vertex), self.weights.pop(vertex)


@st.composite
def shard_setups(draw):
    """Small graph (isolated vertices, duplicate arcs, self loops) + workers."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 5)), max_size=24))
    graph = Graph(
        n,
        np.array([e[0] for e in edges], dtype=np.int64),
        np.array([e[1] for e in edges], dtype=np.int64),
        weights=np.array([e[2] for e in edges], dtype=np.float64),
        directed=draw(st.booleans()),
    )
    # More workers than vertices leaves some shards empty.
    return graph, draw(st.integers(1, n + 3))


class ShardMachine(RuleBasedStateMachine):
    """Real shards and oracle shards take the same writes, step for step."""

    @initialize(setup=shard_setups())
    def build(self, setup):
        graph, n_workers = setup
        self.n = graph.n_vertices
        assignment = EdgeCutPartitioner().partition(graph, n_workers)
        owned = [assignment.part_vertices(p) for p in range(n_workers)]
        self.servers = [GraphServer(p, owned[p], graph) for p in range(n_workers)]
        self.oracles = [OracleServer(p, owned[p], graph) for p in range(n_workers)]
        self.owner = assignment.vertex_to_part.tolist()
        # Every row object ever handed out, with its contents at the time.
        self.handed_out = {}

    def _pair(self, vertex):
        part = self.owner[vertex]
        return self.servers[part], self.oracles[part]

    @rule(data=st.data())
    def add_edge(self, data):
        src = data.draw(st.integers(0, self.n - 1))
        dst = data.draw(st.integers(0, self.n - 1))
        weight = float(data.draw(st.integers(1, 5)))
        for shard in self._pair(src):
            shard.add_local_edge(src, dst, weight)

    @rule(data=st.data())
    def remove_edge(self, data):
        # Any dst: present once, present as a duplicate arc, or absent.
        src = data.draw(st.integers(0, self.n - 1))
        dst = data.draw(st.integers(0, self.n - 1))
        server, oracle = self._pair(src)
        assert server.remove_local_edge(src, dst) == oracle.remove_local_edge(src, dst)

    @rule(data=st.data(), and_back=st.booleans())
    def migrate(self, data, and_back):
        vertex = data.draw(st.integers(0, self.n - 1))
        home = self.owner[vertex]
        away = data.draw(st.integers(0, len(self.servers) - 1))
        if away == home:
            return
        for source, target in [(home, away), (away, home)][: 1 + and_back]:
            with pytest.raises(StorageError):  # never two owners at once
                self.servers[source].ingest_vertex(
                    vertex, np.zeros(0, np.int64), np.zeros(0)
                )
            neighbors, weights, _ = self.servers[source].release_vertex(vertex)
            self.servers[target].ingest_vertex(vertex, neighbors, weights)
            self.oracles[target].ingest_vertex(
                vertex, *self.oracles[source].release_vertex(vertex)
            )
            self.owner[vertex] = target

    @rule(data=st.data())
    def foreign_writes_raise(self, data):
        vertex = data.draw(st.integers(0, self.n - 1))
        for server in self.servers:
            if server.part_id != self.owner[vertex]:
                for write in (
                    lambda: server.add_local_edge(vertex, 0),
                    lambda: server.remove_local_edge(vertex, 0),
                    lambda: server.release_vertex(vertex),
                ):
                    with pytest.raises(StorageError):
                        write()

    @invariant()
    def shards_equal_the_oracle(self):
        for row, then in self.handed_out.values():
            assert np.array_equal(row, then), "a row handed out earlier changed"
        for server, oracle in zip(self.servers, self.oracles):
            assert server.n_local_edges == oracle.n_local_edges
            for v in range(self.n):
                assert server.owns(v) == oracle.owns(v) == (self.owner[v] == server.part_id)
                if not server.owns(v):
                    for read in (server.local_neighbors, server.local_weights):
                        with pytest.raises(StorageError):
                            read(v)
                    continue
                for row, want in (
                    (server.local_neighbors(v), oracle.rows[v]),
                    (server.local_weights(v), oracle.weights[v]),
                ):
                    assert row.dtype == want.dtype and np.array_equal(row, want)
                    self.handed_out.setdefault(id(row), (row, row.copy()))


TestShardMachine = ShardMachine.TestCase
TestShardMachine.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None
)


# --------------------------------------------------------------------- #
# Built stores serve the graph's rows
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("directed", [True, False])
def test_built_rows_equal_the_graph(directed):
    graph = powerlaw_graph(400, alpha=2.3, max_degree=40, directed=directed, seed=5)
    built, _ = build_distributed(graph, 5)
    for store in (built, make_store(graph, 5, seed=0)):
        for v in range(graph.n_vertices):
            server = store.servers[store.owner(v)]
            np.testing.assert_array_equal(server.local_neighbors(v), graph.out_neighbors(v))
            np.testing.assert_array_equal(server.local_weights(v), graph.out_weights(v))
        # Mirrored arcs count on both endpoints' shards when undirected.
        assert sum(s.n_local_edges for s in store.servers) == graph.csr_arrays()[1].size


def test_shard_rows_are_copies_of_the_graph(small_powerlaw):
    store = make_store(small_powerlaw, 3, seed=0)
    indices = small_powerlaw.csr_arrays()[1]
    for v in (0, 1, 2):
        row = store.servers[store.owner(v)].local_neighbors(v)
        assert not np.shares_memory(row, indices)


# --------------------------------------------------------------------- #
# Bulk cache install vs the per-vertex pin loop
# --------------------------------------------------------------------- #
def pin_loop_cache(policy, graph, budget, rng):
    """``make_cache`` as it was: one ``pin`` per selected vertex."""
    cache = NeighborCache(budget)
    if policy.demand_filled:
        return cache
    for v in policy.select(graph, budget, rng):
        cache.pin(int(v), graph.out_neighbors(int(v)))
    cache._lru = LRUCache(0)
    return cache


def _audit(store):
    contents = {
        s.part_id: set(s.neighbor_cache.pinned_vertices()) for s in store.servers
    }
    return store.replicas.audit(contents)


def _assert_same_caches(bulk, loop):
    for ours, theirs in zip(bulk.servers, loop.servers):
        a, b = ours.neighbor_cache, theirs.neighbor_cache
        assert a.pinned_vertices() == b.pinned_vertices()
        assert len(a) == len(b) and a.capacity == b.capacity
        assert a.supports_batch_probe == b.supports_batch_probe
        for v in a.pinned_vertices():
            np.testing.assert_array_equal(a.peek(v), b.peek(v))
        assert bulk.replicas.held_by(ours.part_id) == loop.replicas.held_by(ours.part_id)
    assert _audit(bulk) == _audit(loop) == {"missing": [], "stale": []}
    assert bulk._rng.bit_generator.state == loop._rng.bit_generator.state


_POLICIES = {
    "importance": ImportanceCachePolicy,
    "random": RandomCachePolicy,
    "lru": LRUCachePolicy,
}


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("first", sorted(_POLICIES))
@pytest.mark.parametrize("second", sorted(_POLICIES))
def test_bulk_cache_install_matches_pin_loop(first, second, directed):
    graph = powerlaw_graph(600, alpha=2.3, max_degree=50, directed=directed, seed=9)
    budget = int(0.1 * graph.n_vertices)
    bulk = make_store(
        graph, 4, cache_policy=_POLICIES[first](), cache_budget_fraction=0.1, seed=3
    )
    loop = make_store(graph, 4, seed=3)
    for server in loop.servers:
        server.neighbor_cache = pin_loop_cache(_POLICIES[first](), graph, budget, loop._rng)
    _assert_same_caches(bulk, loop)

    bulk.set_cache_policy(_POLICIES[second](), budget=budget // 2)
    for server in loop.servers:
        server.neighbor_cache = pin_loop_cache(
            _POLICIES[second](), graph, budget // 2, loop._rng
        )
    _assert_same_caches(bulk, loop)


def test_bulk_install_rejects_an_oversized_selection(small_powerlaw):
    class Greedy(RandomCachePolicy):
        def select(self, graph, budget, rng):
            return np.arange(budget + 1, dtype=np.int64)

    with pytest.raises(StorageError, match="capacity"):
        make_cache(Greedy(), small_powerlaw, 10, make_rng(0))
