"""Per-candidate placement passes: the oracle for the columnar ones.

The controller's demote / migrate / promote passes as they walked the
recorder's ``(vertex, issuer)`` entries one at a time, with a checked
``store.owner(v)`` and a scalar cost-model call per candidate, and pinned,
unpinned and migrated one vertex per call. ``repro.storage.placement``
ranks the same candidates with masks and one ``lexsort``;
``tests/test_placement_passes.py`` holds the two equal on random
decayed-weight matrices. Each pass takes the controller it stands in for
and returns what it picked, in order.
"""

from __future__ import annotations

import numpy as np

from repro.storage.costmodel import EV_ITEM_SHIPPED, EV_REPLICA_DROP, EV_REPLICA_INSTALL
from tests.conftest import pin_row, shard_row


def remote_weights(controller):
    """``(vertex, issuer, weight)`` of every nonzero decayed remote weight at
    or above the decision floor, in ``(vertex, issuer)`` order."""
    remote = controller.recorder.decayed_remote_reads
    floor = controller.config.min_decision_weight
    vertices, issuers = np.nonzero((remote != 0.0) & (remote >= floor))
    return zip(vertices.tolist(), issuers.tolist(), remote[vertices, issuers].tolist())


def demote_pass(controller) -> "list[tuple[int, int]]":
    """Unpin cooled and now-local replicas; the ``(part, vertex)`` unpinned."""
    cfg = controller.config
    store = controller.store
    cost = store.cost_model
    per_read = cost.remote_rpc_us - cost.cache_hit_us
    keep_floor = cost.replica_install_us * cfg.demote_margin
    weights = controller.recorder.decayed_issuer_reads
    demoted: "list[tuple[int, int]]" = []
    for part, server in enumerate(store.servers):
        cache = server.neighbor_cache
        for v in cache.pinned_vertices():
            if len(demoted) >= cfg.demote_per_epoch:
                return demoted
            now_local = store.owner(v) == part
            if not now_local:
                if weights[v, part] * per_read >= keep_floor:
                    continue
            cache.unpin_many([v])
            store.ledger.record(EV_REPLICA_DROP)
            controller.runtime.metrics.counter("placement.demote").inc()
            demoted.append((part, v))
    return demoted


def migrate_candidates(controller) -> "list[tuple[float, int, int, int, int]]":
    """Ranked ``(gain, vertex, src, dst, items)`` migration candidates."""
    cfg = controller.config
    store = controller.store
    cost = store.cost_model
    all_reads = controller.recorder.decayed_issuer_reads
    # Dominant remote reader per vertex (ties -> smaller part id).
    best: "dict[int, tuple[float, int]]" = {}
    for v, issuer, w in remote_weights(controller):
        cur = best.get(v)
        if cur is None or w > cur[0]:
            best[v] = (w, issuer)
    ranked: "list[tuple[float, int, int, int, int]]" = []
    for v in sorted(best):
        w_target, target = best[v]
        owner = store.owner(v)
        if target == owner:
            continue
        if owner in store.failed_workers:
            continue
        if target in store.failed_workers:
            continue
        w_owner = float(all_reads[v, owner])
        if w_target < cfg.migrate_dominance * max(w_owner, 1e-12):
            continue
        server = store.servers[owner]
        items = int(shard_row(server, v).size)
        if server.attrs.has_vertex_attr(v):
            items += int(server.attrs.peek_vertex_attrs(np.array([v]))[v].size)
        gain = cost.migration_gain_us(w_target, w_owner)
        if gain * cfg.payback_windows <= cost.migration_cost_us(items):
            continue
        ranked.append((gain, v, owner, target, items))
    ranked.sort(key=lambda t: (-t[0], t[1]))
    return ranked


def migrate_pass(controller) -> "tuple[int, int, int]":
    """Execute the top candidates within the epoch's traffic budget, one
    ``_migrate_batch`` per ``(src, dst)`` pair in pair order."""
    cfg = controller.config
    counts = controller.store.assignment.vertex_counts().astype(np.int64)
    mean = counts.sum() / counts.size if counts.size else 0.0
    limit = cfg.balance_limit * mean
    selected: "dict[tuple[int, int], list[tuple[int, int]]]" = {}
    n_selected = 0
    items_used = 0
    for _gain, v, src, dst, items in migrate_candidates(controller):
        if n_selected >= cfg.migrate_per_epoch:
            break
        if items > controller._tokens:
            continue
        if counts[dst] + 1 > limit:
            continue
        selected.setdefault((src, dst), []).append((v, items))
        controller._tokens -= items
        counts[src] -= 1
        counts[dst] += 1
        n_selected += 1
    migrated = 0
    aborted = 0
    for (src, dst) in sorted(selected):
        batch = selected[(src, dst)]
        done, items = controller._migrate_batch(src, dst, [v for v, _ in batch])
        migrated += done
        items_used += items
        if done == 0:
            aborted += len(batch)
            controller._tokens += sum(i for _, i in batch)
    return migrated, items_used, aborted


def promote_scores(controller) -> "list[tuple[float, int, int]]":
    """Ranked ``(gain, vertex, issuer)`` promotion candidates."""
    store = controller.store
    cost = store.cost_model
    scored: "list[tuple[float, int, int]]" = []
    for v, issuer, w in remote_weights(controller):
        owner = store.owner(v)
        if owner == issuer or owner in store.failed_workers:
            continue
        cache = store.servers[issuer].neighbor_cache
        if cache.is_pinned(v):
            continue
        degree = int(shard_row(store.servers[owner], v).size)
        gain = cost.replication_gain_us(w, degree)
        if gain <= 0.0:
            continue
        scored.append((gain, v, issuer))
    scored.sort(key=lambda t: (-t[0], t[1], t[2]))
    return scored


def promote_pass(controller) -> "list[tuple[int, int]]":
    """Pin hot remote vertices best gain first; the ``(vertex, issuer)``
    pinned, in order."""
    store = controller.store
    promoted: "list[tuple[int, int]]" = []
    for _gain, v, issuer in promote_scores(controller):
        if len(promoted) >= controller.config.promote_per_epoch:
            break
        cache = store.servers[issuer].neighbor_cache
        if cache.free_pin_slots == 0:
            continue
        row = shard_row(store.servers[store.owner(v)], v)
        pin_row(cache, v, row)
        store.ledger.record(EV_REPLICA_INSTALL)
        if row.size:
            store.ledger.record(EV_ITEM_SHIPPED, times=int(row.size))
        controller.runtime.metrics.counter("placement.promote").inc()
        promoted.append((v, issuer))
    return promoted
