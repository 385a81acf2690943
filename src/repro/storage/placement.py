"""Trace-driven adaptive placement: replica promotion + incremental repartitioning.

The paper's §4 storage layer decides caching and partitioning *offline*;
everything this repo measured since PR 3 says the workload drifts out from
under those decisions (shifting Zipf hot sets rotate which vertices are hot
and which edges cross the cut). This module closes the observe → decide →
migrate loop on the virtual clock:

* a :class:`PlacementController` consumes the decayed per-vertex /
  per-issuer statistics of an :class:`~repro.obs.workload.AccessRecorder`
  once per decision epoch;
* **replica promotion/demotion** prices each candidate with the §4 cost
  model (:meth:`CostModel.replication_gain_us`) instead of the static
  importance heuristic: pin where the modelled remote-read savings beat the
  install + maintenance cost, unpin replicas the hot set left behind;
* an **incremental repartitioner** migrates vertices toward their dominant
  reader in bounded batches: a token bucket caps migration items per epoch,
  and ownership handoff runs as a two-phase RPC protocol (``placement.fetch``
  then ``placement.release``) through the normal :class:`RpcRuntime` — same
  clock, same fault injection, same retries — so migration traffic is priced
  on the ledger (``migration_rpc`` / ``item_shipped`` / ``vertex_migrated``
  events) and a mid-migration fault leaves the cluster consistent.

Handoff safety on the single-threaded simulator: the new owner *ingests
before* the old owner releases, and the assignment flips only after the
release RPC succeeded — every instant of the protocol has exactly one
server the router resolves for the vertex, and that server holds the row.
The fault model rolls drop/timeout *before* serving, so a release that
fails after retries provably never executed: the controller rolls the
staged copy back and the vertex simply stays put (exactly-once semantics).

Everything is deterministic: candidate scans visit ``(vertex, issuer)``
entries in order, ties
break on vertex id, and per-epoch reports are plain dicts — two same-seed
runs produce bit-identical decision sequences.
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
    def _serve_fetch(self, req) -> "tuple[dict, dict, int]":
        """Phase 1: read out the neighbor row and attrs of each vertex."""
        server = self.store.servers[req.dst_part]
        payload: "dict[int, np.ndarray]" = {}
        meta: "dict[int, object]" = {}
        n_items = 0
        for v in req.vertices.tolist():
            row = server.local_neighbors(v)
            attr = (
                server.attrs.get_vertex_attr(v)
                if server.attrs.has_vertex_attr(v)
                else None
            )
            payload[v] = row
            meta[v] = attr
            n_items += int(row.size) + (int(attr.size) if attr is not None else 0)
        return payload, meta, n_items

    def _serve_release(self, req) -> "tuple[dict, dict, int]":
        """Phase 2: the old owner surrenders the rows (idempotent ack)."""
        server = self.store.servers[req.dst_part]
        payload = {v: np.zeros(0, dtype=np.int64) for v in req.vertices.tolist()}
        for v in payload:
            if server.owns(v):
                server.release_vertex(v)
        return payload, {}, 0

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
        """Unpin replicas the hot set left behind (and now-local pins)."""
        cfg = self.config
        cost = self.store.cost_model
        per_read = cost.remote_rpc_us - cost.cache_hit_us
        keep_floor = cost.replica_install_us * cfg.demote_margin
        weights = self.recorder.decayed_issuer_reads
        demoted = 0
        for part, server in enumerate(self.store.servers):
            cache = server.neighbor_cache
            for v in cache.pinned_vertices():
                if demoted >= cfg.demote_per_epoch:
                    return demoted
                now_local = self.store.owner(v) == part
                if not now_local:
                    if weights[v, part] * per_read >= keep_floor:
                        continue
                cache.unpin(v)
                self.store.ledger.record(EV_REPLICA_DROP)
                self.runtime.metrics.counter("placement.demote").inc()
                demoted += 1
        return demoted

    def _remote_weights(self) -> "zip":
        """``(vertex, issuer, weight)`` of every nonzero decayed remote
        weight at or above the decision floor, in ``(vertex, issuer)`` order."""
        remote = self.recorder.decayed_remote_reads
        floor = self.config.min_decision_weight
        vertices, issuers = np.nonzero((remote != 0.0) & (remote >= floor))
        return zip(
            vertices.tolist(), issuers.tolist(), remote[vertices, issuers].tolist()
        )

    # -- migration ----------------------------------------------------- #
    def _migrate_candidates(self) -> "list[tuple[float, int, int, int, int]]":
        """Ranked ``(gain, vertex, src, dst, items)`` migration candidates."""
        cfg = self.config
        cost = self.store.cost_model
        all_reads = self.recorder.decayed_issuer_reads
        # Dominant remote reader per vertex (ties -> smaller part id).
        best: "dict[int, tuple[float, int]]" = {}
        for v, issuer, w in self._remote_weights():
            cur = best.get(v)
            if cur is None or w > cur[0]:
                best[v] = (w, issuer)
        ranked: "list[tuple[float, int, int, int, int]]" = []
        for v in sorted(best):
            w_target, target = best[v]
            owner = self.store.owner(v)
            if target == owner:
                continue
            if owner in self.store.failed_workers:
                continue
            if target in self.store.failed_workers:
                continue
            w_owner = float(all_reads[v, owner])
            if w_target < cfg.migrate_dominance * max(w_owner, 1e-12):
                continue
            server = self.store.servers[owner]
            items = int(server.local_neighbors(v).size)
            if server.attrs.has_vertex_attr(v):
                items += int(server.attrs.get_vertex_attr(v).size)
            gain = cost.migration_gain_us(w_target, w_owner)
            if gain * cfg.payback_windows <= cost.migration_cost_us(items):
                continue
            ranked.append((gain, v, owner, target, items))
        ranked.sort(key=lambda t: (-t[0], t[1]))
        return ranked

    def _migrate_pass(self) -> "tuple[int, int, int]":
        """Execute the top candidates within the epoch's traffic budget."""
        cfg = self.config
        counts = self.store.assignment.vertex_counts().astype(np.int64)
        mean = counts.sum() / counts.size if counts.size else 0.0
        limit = cfg.balance_limit * mean
        selected: "dict[tuple[int, int], list[tuple[int, int]]]" = {}
        n_selected = 0
        items_used = 0
        for gain, v, src, dst, items in self._migrate_candidates():
            if n_selected >= cfg.migrate_per_epoch:
                break
            if items > self._tokens:
                continue
            if counts[dst] + 1 > limit:
                continue
            selected.setdefault((src, dst), []).append((v, items))
            self._tokens -= items
            counts[src] -= 1
            counts[dst] += 1
            n_selected += 1
        migrated = 0
        aborted = 0
        for (src, dst) in sorted(selected):
            batch = selected[(src, dst)]
            done, items = self._migrate_batch(
                src, dst, [v for v, _ in batch]
            )
            migrated += done
            items_used += items
            if done == 0:
                aborted += len(batch)
                # Refund the unused budget: nothing moved.
                self._tokens += sum(i for _, i in batch)
                for _v, _i in batch:
                    counts[src] += 1
                    counts[dst] -= 1
        return migrated, items_used, aborted

    def _migrate_batch(
        self, src: int, dst: int, vertices: "list[int]"
    ) -> "tuple[int, int]":
        """Two-phase handoff of ``vertices`` from ``src`` to ``dst``.

        ``dst`` here is the migration *target* issuing the protocol;
        ``src`` is the current owner serving both RPCs. Returns
        ``(migrated, items_shipped)`` — all-or-nothing per batch.
        """
        runtime = self.runtime
        metrics = runtime.metrics
        store = self.store
        with runtime.tracer.span(
            "placement.migrate", src=src, dst=dst, vertices=len(vertices)
        ):
            owners = [src] * len(vertices)
            fetch = runtime.plan(KIND_MIGRATE_FETCH, dst, vertices, owners)
            (resp,) = runtime.execute(fetch)
            if not resp.ok:
                metrics.counter("placement.migrate_aborted").inc(len(vertices))
                return 0, 0
            n_items = resp.n_items  # rows + attrs, as the old owner summed them
            store.ledger.record(EV_MIGRATION_RPC)
            if n_items:
                store.ledger.record(EV_ITEM_SHIPPED, times=n_items)
            # Stage the rows on the new owner *before* the old owner
            # releases: every instant has a server holding the data.
            target = store.servers[dst]
            for v in vertices:
                target.ingest_vertex(v, resp.payload[v], resp.meta[v])
            release = runtime.plan(KIND_MIGRATE_RELEASE, dst, vertices, owners)
            (ack,) = runtime.execute(release)
            if not ack.ok:
                # The release provably never executed (faults roll before
                # serving): the old owner still holds every row. Roll the
                # staged copies back and leave ownership untouched.
                for v in vertices:
                    target.release_vertex(v)
                metrics.counter("placement.migrate_aborted").inc(len(vertices))
                return 0, 0
            store.ledger.record(EV_MIGRATION_RPC)
            for v in vertices:
                store.commit_migration(v, dst)
                metrics.counter("placement.migrate").inc()
            metrics.counter("placement.migrate_items").inc(n_items)
        return len(vertices), n_items

    # -- promotion ----------------------------------------------------- #
    def _promote_pass(self) -> int:
        """Pin hot remote vertices where the §4 cost model says they pay."""
        cfg = self.config
        cost = self.store.cost_model
        scored: "list[tuple[float, int, int]]" = []
        for v, issuer, w in self._remote_weights():
            owner = self.store.owner(v)
            if owner == issuer or owner in self.store.failed_workers:
                continue
            cache = self.store.servers[issuer].neighbor_cache
            if cache.is_pinned(v):
                continue
            degree = int(self.store.servers[owner].local_neighbors(v).size)
            gain = cost.replication_gain_us(w, degree)
            if gain <= 0.0:
                continue
            scored.append((gain, v, issuer))
        scored.sort(key=lambda t: (-t[0], t[1], t[2]))
        promoted = 0
        for _gain, v, issuer in scored:
            if promoted >= cfg.promote_per_epoch:
                break
            cache = self.store.servers[issuer].neighbor_cache
            if cache.free_pin_slots == 0:
                continue
            owner = self.store.owner(v)
            row = self.store.servers[owner].local_neighbors(v)
            cache.pin(v, row)
            self.store.ledger.record(EV_REPLICA_INSTALL)
            if row.size:
                self.store.ledger.record(EV_ITEM_SHIPPED, times=int(row.size))
            self.runtime.metrics.counter("placement.promote").inc()
            promoted += 1
        return promoted

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
