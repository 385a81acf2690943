"""Trace-driven adaptive placement: replica promotion + incremental repartitioning.

The paper's §4 storage layer decides caching and partitioning *offline*;
when the workload drifts (shifting Zipf hot sets rotate which vertices are
hot and which edges cross the cut), this module closes the observe →
decide → migrate loop on the virtual clock:

* a :class:`PlacementController` reads the decayed ``(vertex, issuer)``
  arrays of an :class:`~repro.obs.workload.AccessRecorder` once per
  decision epoch, and each pass ranks its candidates with masks and one
  ``lexsort`` (gain descending, ties by vertex id, then issuer);
* **replica promotion/demotion** prices each candidate with the §4 cost
  model (:meth:`CostModel.replication_gain_us`) instead of the static
  importance heuristic: pin where the modelled remote-read savings beat the
  install + maintenance cost, unpin replicas the hot set left behind;
* an **incremental repartitioner** migrates vertices toward their dominant
  reader in bounded batches: a token bucket caps migration items per epoch,
  and each batch moves as one row block through a two-phase RPC protocol
  (``placement.fetch`` then ``placement.release``) on the normal
  :class:`RpcRuntime` — same clock, same fault injection, same retries — so
  migration traffic is priced on the ledger (``migration_rpc`` /
  ``item_shipped`` / ``vertex_migrated`` events).

Handoff safety on the single-threaded simulator: the new owner *ingests
before* the old owner releases, and the assignment flips only after the
release RPC succeeded — every instant of the protocol has exactly one
server the router resolves for the vertex, and that server holds the row.
The fault model rolls drop/timeout *before* serving, so a release that
fails after retries provably never executed: the controller rolls the
staged copy back and the batch simply stays put (exactly-once semantics).
Per-epoch reports are plain dicts; two same-seed runs produce
bit-identical decision sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StorageError
from repro.obs.workload import AccessRecorder
from repro.storage.cache import make_pinned_cache
from repro.storage.cluster import DistributedGraphStore
from repro.storage.costmodel import (
    EV_ITEM_SHIPPED,
    EV_MIGRATION_RPC,
    EV_REPLICA_DROP,
    EV_REPLICA_INSTALL,
)
from repro.storage.rows import RowBlock

#: Migration protocol verbs (registered on the runtime via register_service).
KIND_MIGRATE_FETCH = "placement.fetch"
KIND_MIGRATE_RELEASE = "placement.release"


@dataclass(frozen=True)
class PlacementConfig:
    """Knobs of the adaptive placement loop (all priced per decision epoch)."""

    #: Virtual-clock time between decision epochs.
    epoch_us: float = 20_000.0
    #: Exponential decay per window for the recorder's recency weighting,
    #: in ``[0, 1)``.
    decay: float = 0.5
    #: Pin slots ensured on every server's neighbor cache so promotions
    #: have somewhere to land (servers with a larger policy cache keep it).
    replica_capacity: int = 256
    #: Max replica pins installed per epoch (cluster-wide).
    promote_per_epoch: int = 32
    #: Max replica pins released per epoch (cluster-wide).
    demote_per_epoch: int = 64
    #: Keep a pinned replica only while its decayed read weight times the
    #: per-read saving stays above this fraction of the install cost.
    demote_margin: float = 0.25
    #: Max vertices migrated per epoch (cluster-wide).
    migrate_per_epoch: int = 16
    #: Token bucket: migration items (adjacency entries + attr rows)
    #: granted per epoch, and the cap unused tokens accumulate to.
    migrate_items_per_epoch: int = 4096
    migrate_burst_items: int = 8192
    #: A vertex migrates only toward an issuer reading it at least this
    #: multiple of the current owner's own read weight (hysteresis).
    migrate_dominance: float = 2.0
    #: Windows over which a migration's wire cost must pay back.
    payback_windows: float = 4.0
    #: Noise floor: decayed weights below this never trigger a decision.
    min_decision_weight: float = 1.5
    #: Reject migrations that would push any part past this multiple of
    #: the mean vertex count (same bound the partitioners target).
    balance_limit: float = 1.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.decay < 1.0:
            raise StorageError(f"decay must be in [0, 1), got {self.decay}")


class PlacementController:
    """Online placement decisions over a :class:`DistributedGraphStore`.

    Construction adopts the :class:`AccessRecorder` riding the store's
    runtime (``runtime.recorder``), installing one there when the runtime
    carries none, and registers the migration
    protocol verbs; :meth:`poll` — cheap enough to call per request — fires
    :meth:`run_epoch` whenever the virtual clock crosses the next epoch
    boundary. One controller per runtime: the protocol verbs cannot be
    registered twice.
    """

    def __init__(
        self,
        store: DistributedGraphStore,
        config: "PlacementConfig | None" = None,
    ) -> None:
        self.store = store
        self.config = config or PlacementConfig()
        self.runtime = store._ensure_runtime()
        if self.runtime.recorder is None:
            self.runtime.recorder = AccessRecorder(
                store.graph.n_vertices, len(store.servers)
            )
        self.recorder: AccessRecorder = self.runtime.recorder
        self.runtime.register_service(KIND_MIGRATE_FETCH, self._serve_fetch)
        self.runtime.register_service(KIND_MIGRATE_RELEASE, self._serve_release)
        self._ensure_caches()
        self._next_epoch_us = self.runtime.clock.now_us + self.config.epoch_us
        self._tokens = float(self.config.migrate_items_per_epoch)
        #: One plain dict per epoch — the deterministic decision log.
        self.epoch_reports: "list[dict]" = []

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _ensure_caches(self) -> None:
        """Make every server's cache able to hold the replica budget.

        Cacheless servers get a pin-only cache; servers whose policy cache
        is smaller than ``replica_capacity`` have their pin capacity
        raised (existing pinned contents are kept — the controller will
        demote them through the cost model if they turn out cold).
        """
        for server in self.store.servers:
            cache = server.neighbor_cache
            if cache.capacity == 0:
                server.neighbor_cache = make_pinned_cache(
                    self.config.replica_capacity
                )
            elif cache.capacity < self.config.replica_capacity:
                cache.capacity = self.config.replica_capacity

    # ------------------------------------------------------------------ #
    # Migration protocol handlers (run on the *old owner* via the runtime)
    # ------------------------------------------------------------------ #
    def _serve_fetch(self, req) -> "tuple[RowBlock, dict, int]":
        """Phase 1: read out the batch's neighbor rows (one block) and the
        attribute rows of those that have them, off the shard and the
        attribute index — no IV-cache traffic."""
        server = self.store.servers[req.dst_part]
        block = server.local_rows(req.vertices)
        attrs = server.attrs.peek_vertex_attrs(req.vertices)
        return block, attrs, int(block.offsets[-1]) + sum(map(len, attrs.values()))

    def _serve_release(self, req) -> "tuple[None, dict, int]":
        """Phase 2: the old owner surrenders the rows it still holds (an
        idempotent ack: a retried release finds them gone)."""
        server = self.store.servers[req.dst_part]
        server.release(req.vertices[server.owns(req.vertices)])
        return None, {}, 0

    # ------------------------------------------------------------------ #
    # The decision loop
    # ------------------------------------------------------------------ #
    def poll(self) -> None:
        """Run an epoch if the virtual clock crossed the next boundary."""
        if self.runtime.clock.now_us >= self._next_epoch_us:
            self.run_epoch()
            self._next_epoch_us = (
                self.runtime.clock.now_us + self.config.epoch_us
            )

    def run_epoch(self) -> dict:
        """Roll the stats window, then demote → migrate → promote."""
        cfg = self.config
        epoch = len(self.epoch_reports)
        self._tokens = min(
            float(cfg.migrate_burst_items),
            self._tokens + float(cfg.migrate_items_per_epoch),
        )
        with self.runtime.tracer.span("placement.epoch", epoch=epoch):
            self.recorder.roll(cfg.decay)
            demoted = self._demote_pass()
            migrated, migrate_items, aborted = self._migrate_pass()
            promoted = self._promote_pass()
        metrics = self.runtime.metrics
        metrics.counter("placement.epochs").inc()
        report = {
            "epoch": epoch,
            "now_us": round(self.runtime.clock.now_us, 3),
            "demoted": demoted,
            "migrated": migrated,
            "migrate_items": migrate_items,
            "migrate_aborted": aborted,
            "promoted": promoted,
            "tokens_left": round(self._tokens, 3),
        }
        self.epoch_reports.append(report)
        return report

    # -- demotion ------------------------------------------------------ #
    def _demote_pass(self) -> int:
        """Unpin replicas the hot set left behind (and now-local pins): one
        mask per server, servers in part order and each one's pins in id
        order, at most ``demote_per_epoch`` in all."""
        cfg = self.config
        cost = self.store.cost_model
        per_read = cost.remote_rpc_us - cost.cache_hit_us
        keep_floor = cost.replica_install_us * cfg.demote_margin
        weights = self.recorder.decayed_issuer_reads
        vertex_to_part = self.store.assignment.vertex_to_part
        demoted = 0
        for part, server in enumerate(self.store.servers):
            room = cfg.demote_per_epoch - demoted
            if room <= 0:
                break
            cache = server.neighbor_cache
            pinned = np.array(cache.pinned_vertices(), dtype=np.int64)
            cold = (vertex_to_part[pinned] == part) | ~(
                weights[pinned, part] * per_read >= keep_floor
            )
            dropped = cache.unpin_many(pinned[cold][:room])
            if dropped:
                self.store.ledger.record(EV_REPLICA_DROP, times=len(dropped))
                self.runtime.metrics.counter("placement.demote").inc(len(dropped))
                demoted += len(dropped)
        return demoted

    def _remote_entries(self) -> "np.ndarray":
        """Mask of the nonzero decayed remote weights at or above the
        decision floor, by ``(vertex, issuer)``."""
        remote = self.recorder.decayed_remote_reads
        return (remote != 0.0) & (remote >= self.config.min_decision_weight)

    def _items(self, vertices: np.ndarray, owners: np.ndarray, attrs: bool) -> np.ndarray:
        """Items each of ``vertices`` holds on its owner (``owners``,
        aligned): its row's length, plus its attribute row's when
        ``attrs``. Read off the shards and the attribute indexes, one batch
        per owner, charging nothing."""
        items = np.zeros(vertices.size, dtype=np.int64)
        for part in np.unique(owners).tolist():
            at = owners == part
            server = self.store.servers[part]
            items[at] = np.diff(server.local_rows(vertices[at]).offsets)
            if attrs:
                items[at] += server.attrs.attr_sizes(vertices[at])
        return items

    # -- migration ----------------------------------------------------- #
    def _migrate_candidates(self) -> "tuple[np.ndarray, ...]":
        """Ranked migration candidates as aligned ``(gain, vertex, src, dst,
        items)`` arrays: gain descending, ties by vertex id."""
        cfg = self.config
        store = self.store
        cost = store.cost_model
        remote = self.recorder.decayed_remote_reads
        live = self._remote_entries()
        vertices = np.flatnonzero(live.any(axis=1))
        # Dominant remote reader per vertex (ties -> smaller part id).
        targets = np.where(live[vertices], remote[vertices], -np.inf).argmax(axis=1)
        owners = store.assignment.vertex_to_part[vertices]
        w_target = remote[vertices, targets]
        w_owner = self.recorder.decayed_issuer_reads[vertices, owners]
        failed = list(store.failed_workers)
        keep = (
            (targets != owners)
            & ~np.isin(owners, failed)
            & ~np.isin(targets, failed)
            & ~(w_target < cfg.migrate_dominance * np.maximum(w_owner, 1e-12))
        )
        vertices, owners, targets = vertices[keep], owners[keep], targets[keep]
        items = self._items(vertices, owners, attrs=True)
        gain = cost.migration_gain_us(w_target[keep], w_owner[keep])
        ranked = np.flatnonzero(gain * cfg.payback_windows > cost.migration_cost_us(items))
        ranked = ranked[np.lexsort((vertices[ranked], -gain[ranked]))]
        return tuple(a[ranked] for a in (gain, vertices, owners, targets, items))

    def _migrate_pass(self) -> "tuple[int, int, int]":
        """Execute the top candidates within the epoch's traffic budget."""
        cfg = self.config
        counts = self.store.assignment.vertex_counts().astype(np.int64)
        mean = counts.sum() / counts.size if counts.size else 0.0
        limit = cfg.balance_limit * mean
        _, vertices, owners, targets, items = self._migrate_candidates()
        # The token bucket and the balance bound change with each pick.
        selected: "dict[tuple[int, int], list[int]]" = {}
        n_selected = 0
        for i, (src, dst, size) in enumerate(
            zip(owners.tolist(), targets.tolist(), items.tolist())
        ):
            if n_selected >= cfg.migrate_per_epoch:
                break
            if size > self._tokens or counts[dst] + 1 > limit:
                continue
            selected.setdefault((src, dst), []).append(i)
            self._tokens -= size
            counts[src] -= 1
            counts[dst] += 1
            n_selected += 1
        migrated = items_used = aborted = 0
        for (src, dst) in sorted(selected):
            batch = np.array(selected[(src, dst)], dtype=np.int64)
            done, shipped = self._migrate_batch(src, dst, vertices[batch])
            migrated += done
            items_used += shipped
            if done == 0:
                aborted += batch.size
                # Refund the unused budget: nothing moved.
                self._tokens += int(items[batch].sum())
        return migrated, items_used, aborted

    def _migrate_batch(
        self, src: int, dst: int, vertices: "np.ndarray | list[int]"
    ) -> "tuple[int, int]":
        """Two-phase handoff of ``vertices`` from ``src`` to ``dst``.

        ``dst`` here is the migration *target* issuing the protocol;
        ``src`` is the current owner serving both RPCs. The batch moves as
        one block: one fetch, one ingest, one release, one commit. Returns
        ``(migrated, items_shipped)`` — all-or-nothing per batch.
        """
        runtime = self.runtime
        metrics = runtime.metrics
        store = self.store
        ids = np.asarray(vertices, dtype=np.int64)
        with runtime.tracer.span(
            "placement.migrate", src=src, dst=dst, vertices=ids.size
        ):
            owners = np.full(ids.size, src, dtype=np.int64)
            (resp,) = runtime.execute(runtime.plan(KIND_MIGRATE_FETCH, dst, ids, owners))
            if not resp.ok:
                metrics.counter("placement.migrate_aborted").inc(ids.size)
                return 0, 0
            n_items = resp.n_items  # rows + attrs, as the old owner summed them
            store.ledger.record(EV_MIGRATION_RPC)
            if n_items:
                store.ledger.record(EV_ITEM_SHIPPED, times=n_items)
            # Stage the rows on the new owner *before* the old owner
            # releases: every instant has a server holding the data.
            target = store.servers[dst]
            target.ingest(resp.payload, resp.meta)
            (ack,) = runtime.execute(runtime.plan(KIND_MIGRATE_RELEASE, dst, ids, owners))
            if not ack.ok:
                # The release provably never executed (faults roll before
                # serving): the old owner still holds every row. Roll the
                # staged copies back and leave ownership untouched.
                target.release(ids)
                metrics.counter("placement.migrate_aborted").inc(ids.size)
                return 0, 0
            store.ledger.record(EV_MIGRATION_RPC)
            store.commit_migration(ids, dst)
            metrics.counter("placement.migrate").inc(ids.size)
            metrics.counter("placement.migrate_items").inc(n_items)
        return ids.size, n_items

    # -- promotion ----------------------------------------------------- #
    def _promote_candidates(self) -> "tuple[np.ndarray, ...]":
        """Ranked promotion candidates as aligned ``(gain, vertex, issuer,
        degree)`` arrays: each remote reader of a live owner's vertex it
        does not pin yet, where the replica pays; gain descending, ties by
        vertex, then issuer."""
        store = self.store
        vertices, issuers = np.nonzero(self._remote_entries())
        weights = self.recorder.decayed_remote_reads[vertices, issuers]
        owners = store.assignment.vertex_to_part[vertices]
        keep = (owners != issuers) & ~np.isin(owners, list(store.failed_workers))
        for part, server in enumerate(store.servers):  # one pin mask per server
            mine = keep & (issuers == part)
            keep[mine] = ~server.neighbor_cache.is_pinned(vertices[mine])
        vertices, issuers, owners, weights = (
            a[keep] for a in (vertices, issuers, owners, weights)
        )
        degrees = self._items(vertices, owners, attrs=False)
        gain = store.cost_model.replication_gain_us(weights, degrees)
        ranked = np.flatnonzero(gain > 0.0)
        ranked = ranked[np.lexsort((issuers[ranked], vertices[ranked], -gain[ranked]))]
        return tuple(a[ranked] for a in (gain, vertices, issuers, degrees))

    def _promote_pass(self) -> int:
        """Pin hot remote vertices where the §4 cost model says they pay:
        best gain first, each issuer up to its free pin slots, at most
        ``promote_per_epoch`` in all."""
        store = self.store
        _, vertices, issuers, degrees = self._promote_candidates()
        # Each issuer's best candidates up to its free pin slots fit.
        fits = np.zeros(vertices.size, dtype=bool)
        for part, server in enumerate(store.servers):
            fits[np.flatnonzero(issuers == part)[: server.neighbor_cache.free_pin_slots]] = True
        picks = np.flatnonzero(fits)[: max(0, self.config.promote_per_epoch)]
        for part in np.unique(issuers[picks]).tolist():
            cache = store.servers[part].neighbor_cache
            cache.pin(store.owner_rows(vertices[picks[issuers[picks] == part]]))
        if picks.size:
            store.ledger.record(EV_REPLICA_INSTALL, times=picks.size)
            shipped = int(degrees[picks].sum())
            if shipped:
                store.ledger.record(EV_ITEM_SHIPPED, times=shipped)
            self.runtime.metrics.counter("placement.promote").inc(picks.size)
        return int(picks.size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def totals(self) -> dict:
        """Cumulative decision counts over all epochs (plain dict)."""
        keys = ("demoted", "migrated", "migrate_items", "migrate_aborted", "promoted")
        out = {k: sum(int(r[k]) for r in self.epoch_reports) for k in keys}
        out["epochs"] = len(self.epoch_reports)
        return out

    def __repr__(self) -> str:
        t = self.totals()
        return (
            f"PlacementController(epochs={t['epochs']}, "
            f"promoted={t['promoted']}, demoted={t['demoted']}, "
            f"migrated={t['migrated']})"
        )
