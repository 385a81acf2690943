"""The columnar placement passes against the per-candidate oracle.

Two stores built from one seed take the same decayed-weight matrices, the
same pre-pinned replicas, attribute rows, failed worker and seeded RPC
drops (a dropped fetch or release aborts its batch); one controller
runs its demote / migrate / promote passes, the other the loops of
``tests/placement_oracle.py``. Weights are drawn from a few values (the
decision floor and ties included), pin caches are small enough to fill, and
every per-epoch cap can bind. Each pass must rank the same candidates with
the same gains, pick the same ids in the same order and leave the same
caches, owners, token bucket, ledger counts and metrics.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data import powerlaw_graph
from repro.runtime import FaultPlan, RetryPolicy, RpcRuntime
from repro.storage.cache import ImportanceCachePolicy, LRUCachePolicy, RandomCachePolicy
from repro.storage.cluster import make_store
from repro.storage.placement import PlacementConfig, PlacementController
from tests import placement_oracle as oracle
from tests.conftest import pin_row, shard_row

_GRAPH = powerlaw_graph(60, alpha=2.2, max_degree=12, seed=8)
_POLICIES = {
    "none": None,
    "importance": ImportanceCachePolicy,
    "random": RandomCachePolicy,
    "lru": LRUCachePolicy,
}
#: Decayed weights: zeros, ties, and the default decision floor itself.
_WEIGHTS = st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.5, 1.5, 2.0, 3.0, 3.0, 6.0])
#: Reads that stayed local: mostly none, so remote readers can dominate.
_LOCAL = st.sampled_from([0.0] * 6 + [1.5, 3.0])


@st.composite
def scenarios(draw):
    n_parts = draw(st.integers(2, 4))
    shape = (_GRAPH.n_vertices, n_parts)
    remote = draw(arrays(np.float64, shape, elements=_WEIGHTS))
    local = draw(arrays(np.float64, shape, elements=_LOCAL))
    config = PlacementConfig(
        replica_capacity=draw(st.integers(0, 5)),
        promote_per_epoch=draw(st.integers(0, 12)),
        demote_per_epoch=draw(st.integers(0, 6)),
        demote_margin=draw(st.sampled_from([0.25, 1.0, 4.0])),
        migrate_per_epoch=draw(st.integers(0, 8)),
        migrate_items_per_epoch=draw(st.sampled_from([0, 8, 40, 4096, 4096])),
        migrate_dominance=draw(st.sampled_from([1.0, 2.0])),
        balance_limit=draw(st.sampled_from([1.0, 1.3, 1.6])),
    )
    return {
        "n_parts": n_parts,
        "policy": draw(st.sampled_from(sorted(_POLICIES))),
        "config": config,
        "remote": remote,
        "issuer": remote + local,
        "pins": draw(st.lists(st.integers(0, _GRAPH.n_vertices - 1), max_size=8)),
        "attrs": draw(st.booleans()),
        "failed": draw(st.sampled_from([None, *range(n_parts)])),
        "drop_rate": draw(st.sampled_from([0.0, 0.0, 0.5])),  # aborted batches
    }


def _build(sc):
    policy = _POLICIES[sc["policy"]]
    store = make_store(
        _GRAPH, sc["n_parts"], cache_policy=policy and policy(),
        cache_budget_fraction=0.05 if policy else 0.0, seed=0,
    )
    faults = FaultPlan(drop_rate=sc["drop_rate"], seed=1)
    store.attach_runtime(RpcRuntime(store, faults=faults, retry=RetryPolicy(max_attempts=1)))
    controller = PlacementController(store, sc["config"])
    if sc["attrs"]:  # every other vertex has a row, of a width its id picks
        for v in range(0, _GRAPH.n_vertices, 2):
            store.servers[store.owner(v)].ingest_vertex_attr(v, np.full(1 + v % 3, v / 7))
    # Remote replicas, round-robin over the parts, until their caches fill.
    for k, v in enumerate(sc["pins"]):
        part = k % sc["n_parts"]
        cache = store.servers[part].neighbor_cache
        if store.owner(v) != part and cache.free_pin_slots and not cache.is_pinned(v):
            pin_row(cache, v, shard_row(store.servers[store.owner(v)], v))
    if sc["failed"] is not None:
        store.fail_worker(sc["failed"])
    controller.recorder.decayed_remote_reads[:] = sc["remote"]
    controller.recorder.decayed_issuer_reads[:] = sc["issuer"]
    return store, controller


def _state(store, controller):
    caches = [s.neighbor_cache for s in store.servers]
    return (
        [c.pinned_vertices() for c in caches],
        [[c.peek(v).tolist() for v in c.pinned_vertices()] for c in caches],
        [c.free_pin_slots for c in caches],
        store.assignment.vertex_to_part.tolist(),
        [(s.n_local_edges, s.attrs.inline_bytes()) for s in store.servers],
        controller._tokens,
        dict(store.ledger.counts),
        controller.runtime.metrics.summary_rows(),
        controller.runtime.clock.now_us,
    )


def _unpins(store, log):
    """Log each ``unpin_many`` as ``(part, vertex)`` pairs, in call order."""
    for server in store.servers:
        cache = server.neighbor_cache

        def unpin_many(ids, cache=cache, part=server.part_id):
            held = type(cache).unpin_many(cache, ids)
            log.extend((part, v) for v in held)
            return held

        cache.unpin_many = unpin_many


def _batches(controller, log):
    """Log each migration batch as ``(src, dst, ids)``."""
    migrate = controller._migrate_batch

    def logged(src, dst, vertices):
        log.append((src, dst, np.asarray(vertices).tolist()))
        return migrate(src, dst, vertices)

    controller._migrate_batch = logged


@settings(max_examples=150, deadline=None)
@given(sc=scenarios())
def test_columnar_passes_pick_what_the_loops_pick(sc):
    store, controller = _build(sc)
    twin, twin_controller = _build(sc)
    assert _state(store, controller) == _state(twin, twin_controller)

    demoted = []
    _unpins(store, demoted)
    assert controller._demote_pass() == len(demoted)
    assert demoted == oracle.demote_pass(twin_controller)
    assert _state(store, controller) == _state(twin, twin_controller)

    ranked = list(zip(*(a.tolist() for a in controller._migrate_candidates())))
    assert ranked == oracle.migrate_candidates(twin_controller)
    batches, twin_batches = [], []
    _batches(controller, batches)
    _batches(twin_controller, twin_batches)
    assert controller._migrate_pass() == oracle.migrate_pass(twin_controller)
    assert batches == twin_batches
    assert _state(store, controller) == _state(twin, twin_controller)

    gain, vertices, issuers, _ = controller._promote_candidates()
    ranked = list(zip(gain.tolist(), vertices.tolist(), issuers.tolist()))
    assert ranked == oracle.promote_scores(twin_controller)
    promoted = controller._promote_pass()
    twin_promoted = oracle.promote_pass(twin_controller)
    assert promoted == len(twin_promoted)
    # The pins the oracle made, in its order, are the ranked candidates the
    # columnar pass pinned.
    caches = [s.neighbor_cache for s in store.servers]
    assert twin_promoted == [(v, i) for _, v, i in ranked if caches[i].is_pinned(v)]
    assert _state(store, controller) == _state(twin, twin_controller)
