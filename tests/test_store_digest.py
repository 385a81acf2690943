"""The store's observable behaviour on one seeded scenario, pinned by digest.

A 4-worker store under each cache policy runs batched neighbor reads of 1
to 2 048 ids (5 % of RPC attempts dropped), a write batch that re-pins
replicas, placement epochs that promote, demote and migrate, and a read
whose owner is down. Every read's ``RowBlock`` is hashed as it comes back;
at the end the ledger counts, the virtual clock, each server's pinned ids
and hit/miss counters, the replica audit, the placement decision log and
the rendered metrics are hashed too. A rewrite of the read path, the cache
representation or the RPC planner that moves any of them by a bit fails.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.graph.dynamic import EdgeEvent
from repro.runtime import FaultPlan, RpcRuntime
from repro.storage import ImportanceCachePolicy, LRUCachePolicy, RandomCachePolicy
from repro.storage.cluster import make_store
from repro.storage.costmodel import EV_FAILOVER_READ
from repro.storage.placement import PlacementConfig, PlacementController
from repro.utils.rng import make_rng

_SIZES = (1, 2, 3, 5, 9, 16, 17, 33, 100, 512, 2048)


def _public_contents(store):
    """What each cache answers for, through ``pinned_vertices()`` and ``peek``."""
    n = store.graph.n_vertices
    return {
        s.part_id: set(s.neighbor_cache.pinned_vertices())
        | {v for v in range(n) if s.neighbor_cache.peek(v) is not None}
        for s in store.servers
    }


def _scenario(graph, policy):
    digest = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            if isinstance(part, np.ndarray):
                digest.update(f"{part.dtype.str}{part.shape}".encode())
                digest.update(np.ascontiguousarray(part).tobytes())
            else:
                digest.update(repr(part).encode())

    def read(ids, issuer):
        block = store.get_neighbors_batch(ids, issuer)
        feed("read", issuer, *block)
        return block

    n = graph.n_vertices
    store = make_store(graph, 4, cache_policy=policy, cache_budget_fraction=0.05, seed=3)
    runtime = RpcRuntime(store, faults=FaultPlan(drop_rate=0.05, seed=11))
    store.attach_runtime(runtime)
    rng = make_rng(21)
    hot = rng.permutation(n)[:60]

    # Batched reads, uniform and hot-skewed, round-robin over the issuers.
    for i, size in enumerate(_SIZES * 2):
        pool = hot if i % 2 else np.arange(n)
        read(pool[rng.integers(0, pool.size, size=size)], i % 4)

    # A write batch on pinned, demand-cached and cold sources: re-pins and
    # drops replicas, and a ``remove`` that matches no arc.
    sources = [
        *store.servers[0].neighbor_cache.pinned_vertices()[:4],
        *store.servers[1].neighbor_cache.cached_vertices()[:4],
        *rng.integers(0, n, size=4).tolist(),
    ]
    events = []
    for k, src in enumerate(sources):
        row = store.servers[store.owner(src)].local_neighbors(src)
        events.append(EdgeEvent(timestamp=0, src=src, dst=(src * 7 + k) % n))
        if row.size:
            events.append(EdgeEvent(timestamp=0, src=src, dst=int(row[0]), kind="remove"))
        events.append(EdgeEvent(timestamp=0, src=src, dst=n - 1 - k, kind="remove"))
    feed("applied", store.apply_edge_events(events))
    for size in (1, 7, 64, 2048):
        read(np.array(sources + rng.integers(0, n, size=size).tolist()), size % 4)

    # Placement: a vertex read only from one remote issuer migrates to
    # it; vertices read evenly from parts 0-2 (their owner included) earn
    # replicas there instead, which cool and are demoted once the reads
    # move to another set. Under LRU the demand fill answers most of those
    # reads, so fewer epochs run and nothing is promoted.
    controller = PlacementController(
        store,
        PlacementConfig(epoch_us=1000.0, min_decision_weight=0.5, migrate_dominance=1.5),
    )
    migrant = int(hot[0])
    target = (store.owner(migrant) + 1) % 4
    for _ in range(80):
        read((migrant,), target)
        controller.poll()
    for first in (1, 7):
        for step in range(120):
            read(hot[first : first + 6], step % 3)
            controller.poll()
    totals = controller.totals()
    assert totals["migrated"] > 0
    if not policy.demand_filled:
        assert min(totals["promoted"], totals["demoted"]) > 0
    feed("placement", json.dumps(controller.epoch_reports, sort_keys=True))

    # Part 3 reads, with a worker down, every vertex that worker owns and
    # some server holds, plus others: part 3's own copies answer as cache
    # hits, the rest fail over to another server's copy.
    def held_elsewhere(v):
        owner = store.owner(v)
        return any(
            s.neighbor_cache.peek(v) is not None for s in store.servers if s.part_id != owner
        )

    down = next(
        store.owner(v) for v in range(n)
        if store.owner(v) != 3 and held_elsewhere(v) and store.servers[3].neighbor_cache.peek(v) is None
    )
    store.fail_worker(down)
    held = [v for v in range(n) if store.owner(v) == down and held_elsewhere(v)]
    others = [v for v in range(0, n, 37) if store.owner(v) != down]
    failovers = store.ledger.count(EV_FAILOVER_READ)
    read(np.array(held + others), 3)
    assert store.ledger.count(EV_FAILOVER_READ) > failovers

    feed("ledger", sorted(store.ledger.counts.items()))
    feed("clock", runtime.clock.now_us.hex())
    for server in store.servers:
        cache = server.neighbor_cache
        feed("cache", server.part_id, cache.pinned_vertices(), cache.hits, cache.misses)
    audit = store.replicas.audit(_public_contents(store))
    assert audit == {"missing": [], "stale": []}
    feed("audit", audit, runtime.metrics.render())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "policy, expected",
    [
        (ImportanceCachePolicy, "67f7dec423c068fe"),
        (RandomCachePolicy, "11d702c4c7ac5807"),
        (LRUCachePolicy, "8844b02c59ba5818"),
    ],
)
def test_seeded_store_scenario_matches_pinned_digest(small_powerlaw, policy, expected):
    assert _scenario(small_powerlaw, policy()) == expected
