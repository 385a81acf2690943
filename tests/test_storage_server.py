"""The columnar shard against its dict-of-rows oracle, and bulk cache ops.

``OracleServer`` is the ``GraphServer`` body as it was before the shard
became one CSR slice — one ``np.array`` copy per owned row, edited one arc
at a time. A hypothesis state machine drives both through every mutator
(a batch of row edits against the scalar add/remove sequence) and compares
the whole public surface after each step; ``pin_loop_cache`` is
the cache install as it was, one ``pin`` per selected vertex, the oracle for
the bulk install; ``DictCache``, the neighbor cache as it was (pinned rows
in a dict of arrays), fed one vertex at a time, is the oracle for
``get_many`` / ``admit_many`` / ``invalidate_many`` and the pin arena.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.data import powerlaw_graph
from repro.errors import StorageError
from repro.graph import Graph
from repro.runtime import RpcRuntime
from repro.storage import ImportanceCachePolicy, LRUCachePolicy, RandomCachePolicy
from repro.storage.cache import NeighborCache, make_caches, make_pinned_cache
from repro.storage.cluster import build_distributed, make_store
from repro.storage.costmodel import EV_CACHE_FILL, EV_CACHE_HIT
from repro.storage.partition import EdgeCutPartitioner
from repro.storage.replicas import ReplicaRegistry
from repro.storage.server import GraphServer
from repro.utils.lru import IdLRU, LRUCache
from repro.utils.rng import make_rng
from tests.conftest import (
    block_rows,
    pack_block,
    python_calls,
    replica_holders,
)


class OracleServer:
    """Dict-of-rows shard: one copied array per owned vertex."""

    def __init__(self, part_id, owned_vertices, graph):
        self.part_id = part_id
        self.rows = {
            int(v): np.array(graph.out_neighbors(int(v)), dtype=np.int64)
            for v in owned_vertices
        }

    def owns(self, vertex):
        return vertex in self.rows

    @property
    def n_local_edges(self):
        return sum(row.size for row in self.rows.values())

    def add_local_edge(self, src, dst):
        self.rows[src] = np.append(self.rows[src], np.int64(dst))

    def remove_local_edge(self, src, dst):
        hits = np.flatnonzero(self.rows[src] == dst)
        if hits.size == 0:
            return False
        self.rows[src] = np.delete(self.rows[src], hits[0])
        return True

    def ingest_vertex(self, vertex, neighbors):
        self.rows[vertex] = neighbors

    def release_vertex(self, vertex):
        return self.rows.pop(vertex)


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
    def edit_row(self, data):
        # Removes name any dst: present once, a duplicate arc, or absent.
        src = data.draw(st.integers(0, self.n - 1))
        kind = st.sampled_from(["add", "remove"])
        ops = data.draw(st.lists(st.tuples(kind, st.integers(0, self.n - 1)), max_size=6))
        server, oracle = self._pair(src)
        sizes = []
        for kind, dst in ops:
            if kind == "add":
                oracle.add_local_edge(src, dst)
            elif not oracle.remove_local_edge(src, dst):
                continue
            sizes.append(oracle.rows[src].size)
        assert server.edit_rows({src: ops}).get(src, []) == sizes

    @rule(data=st.data(), and_back=st.booleans())
    def migrate(self, data, and_back):
        vertex = data.draw(st.integers(0, self.n - 1))
        home = self.owner[vertex]
        away = data.draw(st.integers(0, len(self.servers) - 1))
        if away == home:
            return
        for source, target in [(home, away), (away, home)][: 1 + and_back]:
            with pytest.raises(StorageError):  # never two owners at once
                self.servers[source].ingest_vertex(vertex, np.zeros(0, np.int64))
            neighbors, attr = self.servers[source].release_vertex(vertex)
            assert attr is None
            self.servers[target].ingest_vertex(vertex, neighbors)
            self.oracles[target].ingest_vertex(
                vertex, self.oracles[source].release_vertex(vertex)
            )
            self.owner[vertex] = target

    @rule(data=st.data())
    def foreign_writes_raise(self, data):
        vertex = data.draw(st.integers(0, self.n - 1))
        for server in self.servers:
            if server.part_id != self.owner[vertex]:
                for write in (
                    lambda: server.edit_rows({vertex: [("add", 0)]}),
                    lambda: server.edit_rows({vertex: [("remove", 0)]}),
                    lambda: server.edit_rows({vertex: []}),
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
            # The row table is clipped, never wrapped: ids outside [0, n).
            for outside in (-1, -2, self.n):
                assert not server.owns(outside)
                with pytest.raises(StorageError):
                    server.local_rows([outside])
            owned = sorted(oracle.rows)
            block = server.local_rows(owned)
            assert block.ids.tolist() == owned
            want = pack_block(owned, oracle.rows)
            for got, expect in zip(block, want):
                assert got.dtype == expect.dtype and np.array_equal(got, expect)
            self.handed_out.setdefault(id(block.indices), (block.indices, want.indices))
            for v in range(self.n):
                assert server.owns(v) == oracle.owns(v) == (self.owner[v] == server.part_id)
                if not server.owns(v):
                    with pytest.raises(StorageError):
                        server.local_neighbors(v)
                    continue
                row, want = server.local_neighbors(v), oracle.rows[v]
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
    """One server's cache install as it was: one ``pin`` per selected vertex."""
    cache = NeighborCache(budget)
    if policy.demand_filled:
        return cache
    for v in policy.select(graph, budget, rng):
        cache.pin(int(v), graph.out_neighbors(int(v)))
    cache._lru = IdLRU(0)
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
        make_caches(Greedy(), small_powerlaw, 10, make_rng(0), 1)


# --------------------------------------------------------------------- #
# Bulk cache reads / admissions vs the same ids fed one by one, on the
# cache as it was: pinned rows in a dict of arrays
# --------------------------------------------------------------------- #
class DictCache:
    """The neighbor cache before its pinned side became arena rows: pinned
    rows in a dict of arrays by vertex, demand-filled ones in an
    ``LRUCache``, every operation one vertex at a time."""

    def __init__(self, capacity, pin_only, pinned=None):
        self.capacity = capacity
        self.pinned = dict(pinned or {})
        self.lru = LRUCache(0 if pin_only else capacity)
        self.hits = self.misses = 0

    def __len__(self):
        return len(self.pinned) + len(self.lru)

    def holds(self, ids):
        return np.array([v in self.pinned or v in self.lru for v in ids.tolist()], dtype=bool)

    def peek_many(self, ids):
        return pack_block(ids, {v: self.peek(v) for v in ids.tolist()})

    def get(self, vertex):
        row = self.pinned.get(vertex)
        if row is None:
            row = self.lru.get(vertex)
        self.hits += row is not None
        self.misses += row is None
        return row

    def admit(self, vertex, row):
        if self.lru.capacity and vertex not in self.pinned:
            self.lru.put(vertex, row)

    def pin(self, vertex, row):
        if vertex not in self.pinned and len(self.pinned) >= self.capacity:
            raise StorageError("neighbor cache pin capacity exhausted")
        self.pinned[vertex] = np.array(row, dtype=np.int64)

    def unpin(self, vertex):
        return self.pinned.pop(vertex, None) is not None

    def invalidate(self, vertex):
        self.pinned.pop(vertex, None)
        self.lru.delete(vertex)

    def is_pinned(self, vertex):
        return vertex in self.pinned

    def peek(self, vertex):
        row = self.pinned.get(vertex)
        return row if row is not None else self.lru._store.get(vertex)

    @property
    def free_pin_slots(self):
        return max(0, self.capacity - len(self.pinned))

    def pinned_vertices(self):
        return tuple(sorted(self.pinned))

    def cached_vertices(self):
        return tuple(sorted({*self.pinned, *self.lru._store}))


_IDS = st.integers(0, 11)
_CACHE_OPS = st.one_of(
    st.tuples(st.just("get_many"), st.lists(_IDS, max_size=10)),  # duplicates too
    st.tuples(st.just("admit_many"), st.lists(_IDS, max_size=10, unique=True)),
    st.tuples(st.just("invalidate_many"), st.lists(_IDS, max_size=6)),
    st.tuples(st.sampled_from(["pin", "unpin", "invalidate"]), _IDS),
)
#: Twelve vertices whose rows seed the pinned caches ``make_caches`` builds.
_SEED_GRAPH = powerlaw_graph(12, alpha=2.3, max_degree=6, seed=4)


class _Fixed(RandomCachePolicy):
    def __init__(self, selected):
        self.selected = np.array(selected, dtype=np.int64)

    def select(self, graph, budget, rng):
        return self.selected


def _cache_state(cache, lru_order, lru_counts):
    # The cache seen as part 1 of a two-server view (part 0 holds nothing).
    registry = ReplicaRegistry(
        [SimpleNamespace(neighbor_cache=NeighborCache(0)), SimpleNamespace(neighbor_cache=cache)]
    )
    rows = [cache.peek(v) for v in range(-1, 13)]
    held = {v for v in range(12) if cache.peek(v) is not None}
    copies = block_rows(cache.peek_many(np.array(sorted(held), dtype=np.int64)))
    ids = np.arange(12)
    return (
        cache.pinned_vertices(),
        cache.cached_vertices(),
        lru_order,
        (cache.hits, cache.misses, *lru_counts),
        (len(cache), cache.free_pin_slots),
        cache.holds(np.arange(-1, 13)).tolist(),
        [cache.is_pinned(v) for v in range(-1, 13)],
        [None if row is None else row.tolist() for row in rows],
        sorted((v, row.tolist()) for v, row in copies.items()),
        registry.held_by(1),
        [replica_holders(registry, v) for v in range(12)],
        registry.first_holders(ids, np.zeros(12, dtype=np.int64), set()).tolist(),
        registry.first_holders(ids, np.ones(12, dtype=np.int64), set()).tolist(),
        registry.audit({1: held}),
    )


def _bulk_state(cache):
    lru = cache._lru
    return _cache_state(cache, lru.keys(), (lru.hits, lru.misses, lru.evictions))


def _oracle_state(cache):
    lru = cache.lru
    return _cache_state(cache, tuple(lru._store), (lru.hits, lru.misses, lru.evictions))


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(0, 4),
    pin_only=st.booleans(),
    seeded=st.lists(_IDS, max_size=4, unique=True),
    ops=st.lists(_CACHE_OPS, max_size=30),
)
def test_bulk_cache_ops_equal_their_scalar_sequence(capacity, pin_only, seeded, ops):
    # A non-empty ``seeded`` selection builds two pinned caches through
    # ``make_caches`` (one block, two span tables) and drives the second.
    if seeded and len(seeded) <= capacity:
        sibling, bulk = make_caches(_Fixed(seeded), _SEED_GRAPH, capacity, make_rng(0), 2)
        pinned = {v: _SEED_GRAPH.out_neighbors(v) for v in seeded}
        scalar = DictCache(capacity, pin_only=True, pinned=pinned)
    else:
        sibling = None
        bulk = make_pinned_cache(capacity) if pin_only else NeighborCache(capacity)
        scalar = DictCache(capacity, pin_only)
    before = sibling and _bulk_state(sibling)
    for step, (op, arg) in enumerate(ops):
        if op == "get_many":
            block, misses = bulk.get_many(arg)
            hits = block_rows(block)
            one_by_one = [(v, scalar.get(v)) for v in arg]
            assert misses.tolist() == [v for v, row in one_by_one if row is None]
            assert hits.keys() == {v for v, row in one_by_one if row is not None}
            for v, row in one_by_one:
                if row is not None:
                    np.testing.assert_array_equal(hits[v], row)
        elif op == "admit_many":
            # Each row holds its id and the admitting step: its value shows
            # whose copy a later get returns.
            rows = {v: np.array([v, step], dtype=np.int64) for v in arg}
            bulk.admit_many(pack_block(arg, rows))
            for v, row in rows.items():
                scalar.admit(v, row)
        elif op == "invalidate_many":
            was_pinned = []
            for v in arg:
                if scalar.is_pinned(v):
                    was_pinned.append(v)
                scalar.invalidate(v)
            assert bulk.invalidate_many(arg) == was_pinned
        else:
            row = np.array([step], dtype=np.int64)
            outcomes = []
            for cache in (bulk, scalar):
                try:
                    call = getattr(cache, op)
                    outcomes.append(call(arg, row) if op == "pin" else call(arg))
                except StorageError as exc:  # pin capacity exhausted
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        state = _bulk_state(bulk)
        assert state == _oracle_state(scalar)
        assert state[-1] == {"missing": [], "stale": []}
    if sibling is not None:  # the shared block never shows another's edits
        assert _bulk_state(sibling) == before


def test_pin_rejects_malformed_ids_before_changing_anything():
    cache = make_pinned_cache(4)
    cache.pin(1, np.array([5, 6]))
    before = _bulk_state(cache)
    for vertex, neighbors in ((3, [0.7, 2.9]), (-1, [2]), (True, [2]), (2.5, [2])):
        with pytest.raises(StorageError, match=r"pinned (vertex|neighbors)"):
            cache.pin(vertex, neighbors)
        assert _bulk_state(cache) == before
    # The padding slot a key of -1 would have hit still makes clipped
    # lookups miss.
    block, misses = cache.get_many([-1, 1, 12, 10**6])
    assert block.ids.tolist() == [1] and misses.tolist() == [-1, 12, 10**6]


def test_cached_rows_never_keep_their_response_alive():
    # Demand fill copies admitted rows into the cache's own arena: no
    # cached row shares memory with the block it came in, and the arena
    # stays within a constant factor of the rows held (at most 8 rows of
    # under 20 ids here) plus the largest batch, however many blocks pass.
    rng = make_rng(0)
    cache = NeighborCache(8)
    largest = 0
    for _ in range(300):
        ids = rng.choice(1000, size=50, replace=False)
        rows = {int(v): rng.integers(0, 1000, size=int(rng.integers(0, 20))) for v in ids}
        block = pack_block(ids, rows)
        cache.admit_many(block)
        largest = max(largest, block.indices.size)
        for v in cache.cached_vertices():
            assert not np.shares_memory(cache.peek(v), block.indices)
            assert np.array_equal(cache.peek(v), rows.get(v, cache.peek(v)))
    assert len(cache) == 8
    assert cache._rows._cells.size <= 2 * 8 * 19 + 4 * largest


def test_local_rows_matches_local_neighbors(small_powerlaw):
    store = make_store(small_powerlaw, 3, seed=0)
    server = store.servers[0]
    owned = [v for v in range(60) if server.owns(v)]
    foreign = next(v for v in range(60) if not server.owns(v))
    # Rewritten rows (an edit, a migration in) sit between slice rows.
    server.edit_rows({owned[1]: [("add", 0)]})
    server.ingest_vertex(foreign, np.array([7, 8], dtype=np.int64))
    batch = owned[:4] + [foreign] + owned[4:]
    rows = block_rows(server.local_rows(batch))
    assert list(rows) == batch
    for v in batch:
        want = server.local_neighbors(v)
        assert rows[v].dtype == want.dtype and np.array_equal(rows[v], want)
    empty = server.local_rows([])
    assert empty.ids.size == empty.indices.size == 0 and empty.offsets.tolist() == [0]
    server.release_vertex(foreign)
    with pytest.raises(StorageError) as scalar:
        server.local_neighbors(foreign)
    with pytest.raises(StorageError) as bulk:
        server.local_rows(owned[:3] + [foreign] + owned[3:])
    assert str(bulk.value) == str(scalar.value) and str(foreign) in str(bulk.value)


def test_ids_outside_the_graph_are_owned_by_no_shard(small_powerlaw):
    # The row table is indexed by vertex id: -1 must not read the last
    # vertex's entry, nor n one past the end.
    store = make_store(small_powerlaw, 2, seed=0)
    n = small_powerlaw.n_vertices
    for server in store.servers:
        for outside in (-1, -n, n, n + 1):
            assert not server.owns(outside)
            with pytest.raises(StorageError):
                server.local_neighbors(outside)
            with pytest.raises(StorageError):
                server.local_rows([outside])
            with pytest.raises(StorageError):
                server.edit_rows({outside: [("add", 0)]})
            with pytest.raises(StorageError):  # nor may a migration land there
                server.ingest_vertex(outside, np.array([0], dtype=np.int64))
            assert not server.owns(outside)


def test_rows_handed_out_keep_their_contents(small_powerlaw):
    # A write replaces a row, never edits it: rows read before an edit or a
    # release (one row, or a batch block) read the same afterwards.
    store = make_store(small_powerlaw, 2, seed=0)
    server = store.servers[0]
    owned = [v for v in range(small_powerlaw.n_vertices) if server.owns(v)][:6]
    single = {v: server.local_neighbors(v) for v in owned}
    block = server.local_rows(owned)
    then = {v: row.copy() for v, row in single.items()}
    then_block = [array.copy() for array in block]
    server.edit_rows({owned[0]: [("add", owned[1]), ("add", owned[2])]})
    if single[owned[1]].size:
        server.edit_rows({owned[1]: [("remove", int(single[owned[1]][0]))]})
    server.release_vertex(owned[2])
    for v, row in single.items():
        assert np.array_equal(row, then[v])
    for array, was in zip(block, then_block):
        assert np.array_equal(array, was)
    assert server.local_neighbors(owned[0]).tolist() == then[owned[0]].tolist() + owned[1:3]


def test_migrating_away_and_back_restores_the_vertex(small_powerlaw):
    store = make_store(small_powerlaw, 2, seed=0)
    home, away = store.servers
    v = next(
        u for u in range(small_powerlaw.n_vertices)
        if home.owns(u) and small_powerlaw.out_neighbors(u).size
    )
    edges = (home.n_local_edges, away.n_local_edges)
    degree = small_powerlaw.out_neighbors(v).size
    neighbors, _ = home.release_vertex(v)
    away.ingest_vertex(v, neighbors)
    assert not home.owns(v) and away.owns(v)
    assert (home.n_local_edges, away.n_local_edges) == (edges[0] - degree, edges[1] + degree)
    neighbors, _ = away.release_vertex(v)
    home.ingest_vertex(v, neighbors)
    assert home.owns(v) and not away.owns(v)
    assert (home.n_local_edges, away.n_local_edges) == edges
    np.testing.assert_array_equal(home.local_neighbors(v), small_powerlaw.out_neighbors(v))
    np.testing.assert_array_equal(home.local_rows([v]).indices, small_powerlaw.out_neighbors(v))
    with pytest.raises(StorageError):
        away.local_neighbors(v)


def test_batch_read_makes_no_call_per_vertex():
    # The whole LRU round trip — classify, probe, fetch, fill — then the
    # same batch again as hits: the work is per arm and per request.
    graph = powerlaw_graph(4000, alpha=2.3, max_degree=40, seed=2)
    calls = {}
    for size in (64, 2048):
        store = make_store(
            graph, 4, cache_policy=LRUCachePolicy(), cache_budget_fraction=0.6, seed=0
        )
        store.attach_runtime(RpcRuntime(store))
        batch = make_rng(size).choice(graph.n_vertices, size=size, replace=False)
        calls[size] = python_calls(
            lambda: [store.get_neighbors_batch(batch, from_part=1) for _ in range(2)],
            under="/repro/",
        )
        assert store.ledger.count(EV_CACHE_FILL) == store.ledger.count(EV_CACHE_HIT) > size // 2
    assert calls[2048] <= calls[64] + 8, calls
