"""Adaptive placement: windowed stats, cost-model gates, migration safety."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.graph.dynamic import EdgeEvent
from repro.obs import AccessRecorder
from repro.runtime import FaultPlan, RpcRuntime
from repro.storage import CostModel, ImportanceCachePolicy
from repro.storage.cluster import make_store
from repro.storage.costmodel import (
    EV_MIGRATION_RPC,
    EV_REMOTE_RPC,
    EV_REPLICA_DROP,
    EV_REPLICA_INSTALL,
    EV_VERTEX_MIGRATED,
)
from repro.storage.placement import PlacementConfig, PlacementController
from repro.utils.rng import make_rng
from tests.access_oracle import CounterRecorder
from tests.conftest import replica_holders


# ---------------------------------------------------------------------- #
# Windowed recorder
# ---------------------------------------------------------------------- #
def test_windowed_recorder_cumulative_view_matches_plain():
    # Rolling the window leaves the cumulative view exactly what the plain
    # per-vertex recorder counts.
    rec, plain = AccessRecorder(50, 4), CounterRecorder()
    rng = make_rng(3)
    for _ in range(200):
        v = int(rng.integers(50))
        issuer = int(rng.integers(4))
        owner = int(rng.integers(4))
        route = "local" if issuer == owner else "remote"
        rec.record(v, owner, issuer, route)
        plain.record(v, owner, issuer, route)
        if rng.random() < 0.1:
            rec.roll(0.5)
    read = np.flatnonzero(rec.vertex_reads)
    assert dict(zip(read.tolist(), rec.vertex_reads[read].tolist())) == plain.vertex_reads
    assert rec.route_reads == {r: plain.route_reads[r] for r in rec.route_reads}
    assert {
        (i, o): c for (i, o), c in np.ndenumerate(rec.traffic) if c
    } == plain.traffic


def test_windowed_recorder_tracks_hot_set_shift():
    rec = AccessRecorder(3, 3)
    for _ in range(10):
        rec.record(1, owners=0, issuer=2, route="remote")
    rec.roll(0.5)
    for _ in range(10):
        rec.record(2, owners=0, issuer=2, route="remote")
    rec.roll(0.5)
    # Cumulatively equal, but recency says vertex 2 is the hot one now.
    assert rec.vertex_reads[1] == rec.vertex_reads[2] == 10
    assert rec.decayed_issuer_reads[2, 2] > rec.decayed_issuer_reads[1, 2]
    assert rec.decayed_issuer_reads[1, 2] == 5.0
    assert rec.decayed_remote_reads[2, 2] == 10.0
    assert rec.decayed_remote_reads[1, 2] == 5.0  # one half-life


def test_windowed_recorder_prunes_dead_entries():
    rec = AccessRecorder(8, 2)
    rec.record(7, owners=0, issuer=1, route="remote")
    for _ in range(10):
        rec.roll(0.1)
    assert rec.decayed_issuer_reads[7, 1] == 0.0  # decayed below the floor
    assert rec.decayed_remote_reads[7, 1] == 0.0
    assert rec.vertex_reads[7] == 1  # cumulative view never forgets


def test_placement_config_validates_decay():
    for decay in (1.0, -0.1):
        with pytest.raises(StorageError, match="decay"):
            PlacementConfig(decay=decay)
    assert PlacementConfig(decay=0.0).decay == 0.0


# ---------------------------------------------------------------------- #
# Cost-model gates
# ---------------------------------------------------------------------- #
def test_replication_gain_signs():
    cm = CostModel()
    # Many remote reads of a small row: clearly worth a replica.
    assert cm.replication_gain_us(remote_reads=50.0, out_degree=10) > 0
    # A single read never pays for the install.
    assert cm.replication_gain_us(remote_reads=1.0, out_degree=10) < 0
    # Heavy refresh churn can turn a win into a loss.
    assert cm.replication_gain_us(
        remote_reads=5.0, out_degree=10, refreshes=10.0
    ) < cm.replication_gain_us(remote_reads=5.0, out_degree=10)


def test_migration_gain_and_cost():
    cm = CostModel()
    assert cm.migration_cost_us(0) == 2 * cm.migration_rpc_us
    assert cm.migration_gain_us(10.0, 0.0) > 0
    assert cm.migration_gain_us(1.0, 10.0) < 0


# ---------------------------------------------------------------------- #
# Replica index exactness under churn
# ---------------------------------------------------------------------- #
def _public_contents(store):
    """What each cache answers for, through pinned_vertices() and peek."""
    n = store.graph.n_vertices
    out = {}
    for part, server in enumerate(store.servers):
        cache = server.neighbor_cache
        out[part] = set(cache.pinned_vertices()) | {
            v for v in range(n) if cache.peek(v) is not None
        }
    return out


def test_replica_registry_exact_after_placement_churn(small_powerlaw):
    store = make_store(
        small_powerlaw, 4,
        cache_policy=ImportanceCachePolicy(), cache_budget_fraction=0.05,
        seed=0,
    )
    controller = PlacementController(
        store,
        PlacementConfig(epoch_us=500.0, min_decision_weight=0.3,
                        migrate_dominance=1.5),
    )
    rng = make_rng(5)
    hot = rng.permutation(small_powerlaw.n_vertices)[:40]
    for step in range(400):
        v = int(hot[step % hot.size])
        store.get_neighbors_batch((v,), int(rng.integers(4)))
        controller.poll()
    totals = controller.totals()
    assert totals["epochs"] > 0
    contents = _public_contents(store)
    assert store.replicas.audit(contents) == {"missing": [], "stale": []}
    for v in range(small_powerlaw.n_vertices):
        assert replica_holders(store.replicas, v) == tuple(p for p in range(4) if v in contents[p])


# ---------------------------------------------------------------------- #
# Server handoff primitives
# ---------------------------------------------------------------------- #
def test_server_ingest_release_roundtrip(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    v = 0
    src = store.owner(v)
    dst = (src + 1) % 4
    row, attr = store.servers[src].release_vertex(v)
    np.testing.assert_array_equal(
        np.sort(row), np.sort(small_powerlaw.out_neighbors(v))
    )
    assert not store.servers[src].owns(v)
    store.servers[dst].ingest_vertex(v, row, attr)
    assert store.servers[dst].owns(v)
    np.testing.assert_array_equal(store.servers[dst].local_neighbors(v), row)
    # Double-ingest and releasing a non-owned vertex both refuse.
    with pytest.raises(StorageError):
        store.servers[dst].ingest_vertex(v, row, attr)
    with pytest.raises(StorageError):
        store.servers[src].release_vertex(v)


def test_migration_moves_row_and_attr_bytes(small_powerlaw):
    # The two-phase protocol (fetch, ingest, release, commit) ships a
    # vertex's neighbor row and attribute row, nothing else.
    store = make_store(small_powerlaw, 4, seed=0)
    feats = make_rng(1).standard_normal((small_powerlaw.n_vertices, 6))
    for v in range(small_powerlaw.n_vertices):
        store.servers[store.owner(v)].ingest_vertex_attr(v, feats[v])
    controller = PlacementController(store)
    old, new = store.servers[0], store.servers[2]
    moved = [v for v in range(small_powerlaw.n_vertices) if store.owner(v) == 0][:3]
    before = {
        v: (old.local_neighbors(v).tobytes(), old.local_vertex_attr(v).tobytes())
        for v in moved
    }
    n_items = sum(old.local_neighbors(v).size + feats[v].size for v in moved)
    edges = old.n_local_edges + new.n_local_edges
    assert controller._migrate_batch(0, 2, moved) == (len(moved), n_items)
    for v in moved:
        assert store.owner(v) == 2 and new.owns(v) and not old.owns(v)
        assert not old.attrs.has_vertex_attr(v)
        after = (new.local_neighbors(v).tobytes(), new.local_vertex_attr(v).tobytes())
        assert after == before[v]
    assert old.n_local_edges + new.n_local_edges == edges
    assert store.ledger.count(EV_VERTEX_MIGRATED) == len(moved)


def test_commit_migration_flips_owner_and_edges(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    v = 5
    src = store.owner(v)
    dst = (src + 2) % 4
    row, attr = store.servers[src].release_vertex(v)
    store.servers[dst].ingest_vertex(v, row, attr)
    assert store.commit_migration(v, dst) == src
    assert store.owner(v) == dst
    assert store.ledger.count(EV_VERTEX_MIGRATED) == 1
    # Every edge sourced at v follows its owner.
    assignment = store.assignment
    src_col, _, _ = small_powerlaw.edge_array()
    np.testing.assert_array_equal(
        assignment.edge_to_part[src_col == v],
        np.full(int((src_col == v).sum()), dst),
    )


def test_commit_migration_requires_ingest(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    v = 3
    dst = (store.owner(v) + 1) % 4
    with pytest.raises(StorageError):
        store.commit_migration(v, dst)


# ---------------------------------------------------------------------- #
# Controller decisions
# ---------------------------------------------------------------------- #
def _drive(store, controller, reads, rng):
    """Replay ``(vertex, issuer)`` reads, polling the controller between."""
    for v, issuer in reads:
        store.get_neighbors_batch((int(v),), int(issuer))
        controller.poll()


def test_controller_promotes_hot_remote_vertex(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    controller = PlacementController(
        store,
        PlacementConfig(epoch_us=300.0, min_decision_weight=0.5,
                        migrate_per_epoch=0),  # promotion only
    )
    v = 0
    owner = store.owner(v)
    issuers = [p for p in range(4) if p != owner]
    # Spread reads across several issuers so no single one dominates
    # enough to trigger migration; all should earn replicas.
    reads = [(v, issuers[i % len(issuers)]) for i in range(120)]
    _drive(store, controller, reads, None)
    assert controller.totals()["promoted"] >= 1
    assert store.ledger.count(EV_REPLICA_INSTALL) >= 1
    assert any(
        store.servers[p].neighbor_cache.is_pinned(v) for p in issuers
    )
    # Promoted copies now serve the read without a remote RPC.
    before = store.ledger.count(EV_REMOTE_RPC)
    pinned_on = next(
        p for p in issuers if store.servers[p].neighbor_cache.is_pinned(v)
    )
    store.get_neighbors_batch((v,), pinned_on)
    assert store.ledger.count(EV_REMOTE_RPC) == before


def test_controller_demotes_cooled_replicas(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    config = PlacementConfig(epoch_us=300.0, min_decision_weight=0.5,
                             migrate_per_epoch=0, decay=0.3)
    controller = PlacementController(store, config)
    v = 0
    issuer = (store.owner(v) + 1) % 4
    _drive(store, controller, [(v, issuer)] * 60, None)
    assert store.servers[issuer].neighbor_cache.is_pinned(v)
    # The hot set moves elsewhere; the stale pin must be released.
    others = [u for u in range(1, 200) if store.owner(u) != issuer][:20]
    cold_reads = [(u, issuer) for u in others for _ in range(8)]
    _drive(store, controller, cold_reads, None)
    assert not store.servers[issuer].neighbor_cache.is_pinned(v)
    assert controller.totals()["demoted"] >= 1
    assert store.ledger.count(EV_REPLICA_DROP) >= 1


def test_controller_migrates_to_dominant_reader(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    controller = PlacementController(
        store,
        PlacementConfig(epoch_us=300.0, min_decision_weight=0.5,
                        migrate_dominance=1.5, promote_per_epoch=0),
    )
    v = 0
    src = store.owner(v)
    dst = (src + 1) % 4
    _drive(store, controller, [(v, dst)] * 80, None)
    assert store.owner(v) == dst
    assert controller.totals()["migrated"] >= 1
    assert store.ledger.count(EV_MIGRATION_RPC) >= 2  # fetch + release
    # Reads stay correct from every issuer after the handoff.
    for issuer in range(4):
        got = store.neighbors(v, from_part=issuer)
        np.testing.assert_array_equal(
            np.sort(got), np.sort(small_powerlaw.out_neighbors(v))
        )


def test_one_controller_per_runtime(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    PlacementController(store)
    with pytest.raises(Exception):
        PlacementController(store)


def test_controller_adopts_or_installs_the_runtime_recorder(small_taobao):
    # A recorder already riding the runtime is adopted ...
    store = make_store(small_taobao, 2, seed=0)
    runtime = RpcRuntime(store)
    store.attach_runtime(runtime)
    mine = runtime.recorder = AccessRecorder(small_taobao.n_vertices, 2)
    assert PlacementController(store).recorder is mine
    # ... and one is installed only when there is none.
    store = make_store(small_taobao, 2, seed=0)
    controller = PlacementController(store)
    assert controller.recorder is store.runtime.recorder
    assert controller.recorder.decayed_issuer_reads.shape == (small_taobao.n_vertices, 2)


def test_controller_keeps_counting_on_the_callers_recorder(small_taobao):
    store = make_store(small_taobao, 2, seed=0)
    runtime = RpcRuntime(store)
    store.attach_runtime(runtime)
    mine = runtime.recorder = AccessRecorder(small_taobao.n_vertices, 2)
    ids = np.arange(300) % small_taobao.n_vertices
    for v in ids[:100].tolist():
        store.neighbors(v, from_part=0)
    controller = PlacementController(store)
    for v in ids[100:].tolist():
        store.neighbors(v, from_part=0)
    assert controller.recorder is mine and runtime.recorder is mine
    assert mine.total_reads == 300


# ---------------------------------------------------------------------- #
# Migration safety invariants
# ---------------------------------------------------------------------- #
def _shifting_reads(n_vertices, n_phases, per_phase, seed):
    rng = make_rng(seed)
    reads = []
    for _ in range(n_phases):
        hot = rng.permutation(n_vertices)[:30]
        for _ in range(per_phase):
            reads.append(
                (int(hot[int(rng.integers(hot.size))]), int(rng.integers(4)))
            )
    return reads


def test_reads_correct_and_balanced_through_migrations(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    config = PlacementConfig(epoch_us=400.0, min_decision_weight=0.3,
                             migrate_dominance=1.5)
    controller = PlacementController(store, config)
    for v, issuer in _shifting_reads(small_powerlaw.n_vertices, 3, 300, 11):
        got = store.get_neighbors_batch((v,), issuer).indices
        np.testing.assert_array_equal(
            np.sort(got), np.sort(small_powerlaw.out_neighbors(v))
        )
        controller.poll()
    assert controller.totals()["migrated"] >= 1
    # Ownership is exact: every vertex owned by exactly the assigned server.
    for v in range(small_powerlaw.n_vertices):
        owner = store.owner(v)
        assert store.servers[owner].owns(v)
        assert sum(s.owns(v) for s in store.servers) == 1
    # Partition balance stays within the configured bound.
    counts = store.assignment.vertex_counts()
    assert counts.max() <= config.balance_limit * counts.mean() + 1


def test_epoch_reports_bit_identical_same_seed(small_powerlaw):
    def run():
        store = make_store(small_powerlaw, 4, seed=0)
        controller = PlacementController(
            store,
            PlacementConfig(epoch_us=400.0, min_decision_weight=0.3,
                            migrate_dominance=1.5),
        )
        for v, issuer in _shifting_reads(small_powerlaw.n_vertices, 2, 250, 4):
            store.get_neighbors_batch((v,), issuer)
            controller.poll()
        return controller.epoch_reports

    first, second = run(), run()
    assert first == second
    assert len(first) > 0


def test_updates_route_to_migrated_owner(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    controller = PlacementController(
        store,
        PlacementConfig(epoch_us=300.0, min_decision_weight=0.5,
                        migrate_dominance=1.5, promote_per_epoch=0),
    )
    v = 0
    dst = (store.owner(v) + 1) % 4
    _drive(store, controller, [(v, dst)] * 80, None)
    assert store.owner(v) == dst
    # An edge event lands on the *new* owner's shard.
    target = int(small_powerlaw.out_neighbors(v)[0])
    store.apply_edge_events(
        [EdgeEvent(timestamp=1, src=v, dst=target, kind="remove")]
    )
    got = store.neighbors(v, from_part=dst)
    expected = np.sort(small_powerlaw.out_neighbors(v))
    expected = expected[expected != target]
    np.testing.assert_array_equal(np.sort(got), expected)


def test_migration_exactly_once_under_faults(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    runtime = RpcRuntime(
        store, faults=FaultPlan(drop_rate=0.3, seed=9)
    )
    store.attach_runtime(runtime)
    controller = PlacementController(
        store,
        PlacementConfig(epoch_us=400.0, min_decision_weight=0.3,
                        migrate_dominance=1.5),
    )
    for v, issuer in _shifting_reads(small_powerlaw.n_vertices, 3, 300, 21):
        got = store.get_neighbors_batch((v,), issuer).indices
        np.testing.assert_array_equal(
            np.sort(got), np.sort(small_powerlaw.out_neighbors(v))
        )
        controller.poll()
    totals = controller.totals()
    assert totals["migrated"] >= 1
    # Dropped/timed-out protocol RPCs never half-apply: exactly one owner
    # per vertex, and the assignment always points at it.
    for v in range(small_powerlaw.n_vertices):
        assert sum(s.owns(v) for s in store.servers) == 1
        assert store.servers[store.owner(v)].owns(v)


def test_migrate_items_respect_token_budget(small_powerlaw):
    store = make_store(small_powerlaw, 4, seed=0)
    config = PlacementConfig(
        epoch_us=400.0, min_decision_weight=0.3, migrate_dominance=1.5,
        migrate_items_per_epoch=64, migrate_burst_items=64,
    )
    controller = PlacementController(store, config)
    for v, issuer in _shifting_reads(small_powerlaw.n_vertices, 3, 300, 13):
        store.get_neighbors_batch((v,), issuer)
        controller.poll()
    assert controller.totals()["migrated"] >= 1
    assert all(
        r["migrate_items"] <= config.migrate_burst_items
        for r in controller.epoch_reports
    )


# ---------------------------------------------------------------------- #
# Serving-tier attachment
# ---------------------------------------------------------------------- #
def test_serving_engine_polls_placement(small_taobao):
    from repro.serving import ClosedLoopWorkload, ServingEngine

    store = make_store(small_taobao, 4, seed=0)
    controller = PlacementController(
        store, PlacementConfig(epoch_us=2_000.0, min_decision_weight=0.3)
    )
    engine = ServingEngine(store, placement=controller, seed=0)
    records = engine.run(
        ClosedLoopWorkload(
            small_taobao.vertices_of_type("user"),
            n_clients=8,
            requests_per_client=10,
            think_us=200.0,
            fresh_fraction=0.5,
            seed=0,
        )
    )
    assert len(records) == 80
    assert controller.totals()["epochs"] >= 1


def test_placement_comparison_needs_two_workers(small_powerlaw):
    from tests.conftest import bench_script

    placement = bench_script("bench_placement")
    with pytest.raises(StorageError, match="needs >= 2 workers"):
        placement.run_placement_comparison(
            small_powerlaw, placement.PlacementWorkload(n_workers=1)
        )
