"""The four partition strategies: validity, balance, quality, registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph import Graph
from repro.storage.cluster import DistributedGraphStore
from repro.storage.partition import (
    EdgeCutPartitioner,
    MetisPartitioner,
    PartitionAssignment,
    StreamingPartitioner,
    TwoDimPartitioner,
    VertexCutPartitioner,
    get_partitioner,
)
from repro.storage.partition.base import _REGISTRY
from repro.storage.partition.streaming import SLACK
from repro.storage.partition.twodim import squarest_grid
from tests.conftest import draw_graph

#: The partitioners that place edges themselves; every other one places an
#: edge at its source's part.
EXPLICIT_EDGE_MAPS = ("2d", "vertex_cut")


def loop_replication_factor(assignment: PartitionAssignment) -> float:
    """Oracle: replicas per non-isolated vertex, one edge at a time."""
    src, dst, _ = assignment.graph.edge_array()
    replicas: set[tuple[int, int]] = set()
    touched: set[int] = set()
    for u, v, p in zip(src, dst, assignment.edge_to_part):
        replicas.add((int(u), int(p)))
        replicas.add((int(v), int(p)))
        touched.add(int(u))
        touched.add(int(v))
    return len(replicas) / len(touched) if touched else 1.0


def _community_graph(seed: int = 0) -> Graph:
    """Two dense communities joined by a single bridge edge."""
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for offset in (0, 50):
        for _ in range(400):
            u, v = rng.integers(0, 50, size=2)
            if u != v:
                src.append(offset + u)
                dst.append(offset + v)
    src.append(0)
    dst.append(50)
    return Graph(100, np.array(src), np.array(dst), directed=True)


ALL_PARTITIONERS = [
    EdgeCutPartitioner(),
    VertexCutPartitioner(),
    MetisPartitioner(seed=1),
    TwoDimPartitioner(),
    StreamingPartitioner(),
]


@pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: p.name)
def test_every_vertex_assigned(partitioner, small_powerlaw):
    assignment = partitioner.partition(small_powerlaw, 4)
    assert assignment.vertex_to_part.shape == (small_powerlaw.n_vertices,)
    assert assignment.vertex_to_part.min() >= 0
    assert assignment.vertex_to_part.max() < 4
    assert assignment.edge_to_part.shape == (small_powerlaw.n_edges,)


@pytest.mark.parametrize("partitioner", ALL_PARTITIONERS, ids=lambda p: p.name)
def test_single_part_no_cut(partitioner, small_powerlaw):
    assignment = partitioner.partition(small_powerlaw, 1)
    assert assignment.edge_cut_fraction() == 0.0
    assert assignment.balance() == 1.0


@pytest.mark.parametrize(
    "partitioner",
    [EdgeCutPartitioner(), MetisPartitioner(seed=1), StreamingPartitioner(), TwoDimPartitioner()],
    ids=lambda p: p.name,
)
def test_reasonable_balance(partitioner, small_powerlaw):
    assignment = partitioner.partition(small_powerlaw, 4)
    assert assignment.balance() < 1.6


def test_metis_beats_hash_on_community_graph():
    g = _community_graph()
    hash_cut = EdgeCutPartitioner().partition(g, 2).edge_cut_fraction()
    metis_cut = MetisPartitioner(seed=1).partition(g, 2).edge_cut_fraction()
    assert metis_cut < hash_cut
    assert metis_cut < 0.1  # the bridge structure is essentially recovered


def test_streaming_beats_hash_on_community_graph():
    g = _community_graph()
    hash_cut = EdgeCutPartitioner().partition(g, 2).edge_cut_fraction()
    ldg_cut = StreamingPartitioner().partition(g, 2).edge_cut_fraction()
    assert ldg_cut < hash_cut


def test_streaming_capacity_respected(small_powerlaw):
    assignment = StreamingPartitioner().partition(small_powerlaw, 5)
    capacity = SLACK * small_powerlaw.n_vertices / 5
    assert assignment.vertex_counts().max() <= capacity + 1


def test_vertex_cut_replication_reported(small_powerlaw):
    assignment = VertexCutPartitioner().partition(small_powerlaw, 4)
    rf = assignment.replication_factor()
    assert 1.0 <= rf <= 4.0


def test_vertex_cut_lower_replication_than_random_edges(small_powerlaw):
    greedy = VertexCutPartitioner().partition(small_powerlaw, 4)
    # Random edge placement baseline.
    rng = np.random.default_rng(0)
    random_edges = rng.integers(0, 4, size=small_powerlaw.n_edges)
    random_assignment = PartitionAssignment(
        small_powerlaw, 4, greedy.vertex_to_part, edge_to_part=random_edges
    )
    assert greedy.replication_factor() < random_assignment.replication_factor()


def test_2d_grid_shapes():
    assert squarest_grid(4) == (2, 2)
    assert squarest_grid(6) == (2, 3)
    assert squarest_grid(7) == (1, 7)
    with pytest.raises(PartitionError):
        squarest_grid(0)


def test_2d_edge_placement_follows_blocks(small_powerlaw):
    assignment = TwoDimPartitioner().partition(small_powerlaw, 4)
    # 2x2 grid: edge part = rowblock(src)*2 + colblock(dst).
    n = small_powerlaw.n_vertices
    src, dst, _ = small_powerlaw.edge_array()
    row = np.minimum(src * 2 // n, 1)
    col = np.minimum(dst * 2 // n, 1)
    np.testing.assert_array_equal(assignment.edge_to_part, row * 2 + col)


def test_metis_deterministic_with_seed(small_powerlaw):
    a1 = MetisPartitioner(seed=5).partition(small_powerlaw, 3)
    a2 = MetisPartitioner(seed=5).partition(small_powerlaw, 3)
    np.testing.assert_array_equal(a1.vertex_to_part, a2.vertex_to_part)


def test_edge_cut_deterministic(small_powerlaw):
    a1 = EdgeCutPartitioner().partition(small_powerlaw, 4)
    a2 = EdgeCutPartitioner().partition(small_powerlaw, 4)
    np.testing.assert_array_equal(a1.vertex_to_part, a2.vertex_to_part)


def test_registry_contains_all_four_families():
    for name in ("metis", "edge_cut", "vertex_cut", "2d", "streaming"):
        assert get_partitioner(name).name == name


def test_registry_instantiates():
    p = get_partitioner("metis", seed=3)
    assert isinstance(p, MetisPartitioner)
    assert p.seed == 3


def test_registry_unknown():
    with pytest.raises(PartitionError):
        get_partitioner("quantum")


def test_assignment_validations(small_powerlaw):
    with pytest.raises(PartitionError):
        PartitionAssignment(small_powerlaw, 2, np.zeros(3, dtype=np.int64))
    bad = np.zeros(small_powerlaw.n_vertices, dtype=np.int64)
    bad[0] = 9
    with pytest.raises(PartitionError):
        PartitionAssignment(small_powerlaw, 2, bad)


def test_part_vertices_partition_the_set(small_powerlaw):
    assignment = EdgeCutPartitioner().partition(small_powerlaw, 3)
    union = np.concatenate([assignment.part_vertices(p) for p in range(3)])
    assert np.sort(union).tolist() == list(range(small_powerlaw.n_vertices))
    with pytest.raises(PartitionError):
        assignment.part_vertices(3)


def test_crossing_edges_match_fraction(small_powerlaw):
    assignment = EdgeCutPartitioner().partition(small_powerlaw, 4)
    assert assignment.edge_cut_fraction() == pytest.approx(
        assignment.crossing_edges() / small_powerlaw.n_edges
    )


def _assert_matches_edge_map(assignment: PartitionAssignment, edge_map: np.ndarray) -> None:
    """The assignment's edge map, counts and replication against a per-edge
    map kept beside it (the source-placement one being ``vertex_to_part[src]``)."""
    np.testing.assert_array_equal(assignment.edge_to_part, edge_map)
    counts = assignment.edge_counts()
    want = np.bincount(edge_map, minlength=assignment.n_parts)
    assert counts.dtype == want.dtype and np.array_equal(counts, want)
    assert assignment.replication_factor() == loop_replication_factor(assignment)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_edge_maps_equal_the_per_edge_oracle_across_migrations(data):
    graph = draw_graph(data)
    name = data.draw(st.sampled_from(sorted(_REGISTRY)), label="partitioner")
    n_parts = data.draw(st.integers(1, 4), label="n_parts")
    assignment = get_partitioner(name).partition(graph, n_parts)
    src, _, _ = graph.edge_array()
    edge_map = assignment.edge_to_part.copy()
    if name not in EXPLICIT_EDGE_MAPS:
        np.testing.assert_array_equal(edge_map, assignment.vertex_to_part[src])
    _assert_matches_edge_map(assignment, edge_map)

    # Migrations through the store, a batch at a time: the edges sourced at
    # a moved vertex follow it, one vertex at a time in the kept map.
    store = DistributedGraphStore(graph, assignment)
    owners = assignment.vertex_to_part.copy()
    batch = st.lists(st.integers(0, graph.n_vertices - 1), max_size=4, unique=True)
    moves = st.tuples(batch, st.integers(0, n_parts - 1))
    for batch, part in data.draw(st.lists(moves, max_size=6), label="moves"):
        ids = np.array(batch, dtype=np.int64)
        for previous in np.unique(owners[ids]).tolist():
            moved = ids[owners[ids] == previous]
            if previous != part:
                store.servers[part].ingest(store.servers[previous].local_rows(moved), {})
                store.servers[previous].release(moved)
                for v in moved.tolist():
                    edge_map[src == v] = part
        assert store.commit_migration(ids, part).tolist() == owners[ids].tolist()
        owners[ids] = part
    np.testing.assert_array_equal(assignment.vertex_to_part, owners)
    _assert_matches_edge_map(assignment, edge_map)


def test_source_placement_edge_map_is_read_only(small_powerlaw):
    assignment = EdgeCutPartitioner().partition(small_powerlaw, 4)
    with pytest.raises(ValueError):
        assignment.edge_to_part[0] = 1
