"""The distributed graph store: routing, caching and exact cost accounting.

:class:`DistributedGraphStore` glues together a partition assignment, one
:class:`GraphServer` per worker, a neighbor-cache policy and a
:class:`CostModel`. Every read states which worker issued it, and the router
charges exactly one of three paths:

* the issuer owns the vertex            -> ``local_read``
* the issuer's neighbor cache hits      -> ``cache_hit``
* otherwise                             -> ``remote_rpc`` + per-item shipping
  (plus a demand-fill admission when the policy is LRU)

These counters are the entire substance of Figures 8–9 and Table 4, so the
experiments measure them exactly and convert to time through the cost model.
A read batch is classified once and each path is served — and charged, with
``record(event, times=n)`` — in bulk (see ``_resolve_read``).

Cross-server traffic is mediated by the simulated RPC runtime
(:mod:`repro.runtime`): the batch entry points ``get_neighbors_batch`` /
``get_attrs_batch`` coalesce a batch's remote misses into one deduplicated
request per owning server — charging one ``remote_rpc`` per batch instead of
one per vertex — with seeded fault injection, capped-backoff retries and
cache-replica failover handled by the attached :class:`RpcRuntime`.

:func:`build_distributed` reproduces the Figure 7 pipeline: edges are
assigned to workers by the partition's ASSIGN function and each worker's
shard is built once, as a columnar slice of the graph's CSR (see
:mod:`repro.storage.server`) — the same constructor path :func:`make_store`
takes. Its :class:`BuildReport` keeps two clocks apart: the *modelled* build
time is the critical path — the most-loaded worker's edges at the cost
model's per-edge ingest price — plus a coordination term, exactly how a
synchronous distributed build behaves; the *wall-clock* seconds each shard
took in this process ride along as a diagnostic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    ReadUnavailableError,
    RetryExhaustedError,
    StorageError,
    check_id,
    check_ids,
)
from repro.graph.graph import Graph, take_rows
from repro.storage.cache import CachePolicy, make_caches
from repro.storage.costmodel import (
    EV_ATTR_CACHE_HIT,
    EV_ATTR_DECODE,
    EV_CACHE_FILL,
    EV_CACHE_HIT,
    EV_COORDINATION,
    EV_DEGRADED_READ,
    EV_EDGE_INGESTED,
    EV_FAILOVER_READ,
    EV_ITEM_SHIPPED,
    EV_LOCAL_READ,
    EV_REMOTE_RPC,
    EV_REPLICA_REFRESH,
    EV_SUSPECT_ROUTE,
    EV_VERTEX_MIGRATED,
    CostModel,
)
from repro.runtime.rpc import KIND_ATTRS, KIND_NEIGHBORS, RpcRuntime
from repro.storage.partition.base import PartitionAssignment, Partitioner
from repro.storage.partition.hashcut import EdgeCutPartitioner
from repro.storage.replicas import ReplicaRegistry
from repro.storage.rows import RowBlock, concat_blocks
from repro.storage.server import GraphServer
from repro.utils.rng import make_rng
from repro.utils.timer import CostAccumulator

#: A read of up to this many ids dedups them on a list, a larger one with
#: the store's scratch table: each costs the other's reads
#: about 8 % (table on every ``serve_mixed`` read, whose reads are all at
#: most 16 ids; list on every ``sample_store`` read, all larger; DESIGN §7).
FEW_ROWS = 16


class DistributedGraphStore:
    """A cluster of :class:`GraphServer` shards with accounted routing."""

    def __init__(
        self,
        graph: Graph,
        assignment: PartitionAssignment,
        cost_model: CostModel | None = None,
        cache_policy: CachePolicy | None = None,
        cache_budget_fraction: float = 0.0,
        attr_cache_capacity: int = 4096,
        seed: int = 0,
        degraded_reads: bool = False,
    ) -> None:
        if assignment.graph is not graph:
            raise StorageError("assignment was computed for a different graph")
        self.graph = graph
        self.assignment = assignment
        self.cost_model = cost_model or CostModel()
        self.ledger: CostAccumulator = self.cost_model.accumulator()
        self._rng = make_rng(seed)

        self.servers: list[GraphServer] = []
        #: Wall-clock seconds each shard took to build, by part — a
        #: diagnostic (:func:`build_distributed` reports it), never an input
        #: to the modelled numbers.
        self.shard_build_seconds: list[float] = []
        for p in range(assignment.n_parts):
            owned = assignment.part_vertices(p)
            start = time.perf_counter()
            self.servers.append(
                GraphServer(
                    part_id=p,
                    owned_vertices=owned,
                    graph=graph,
                    attr_cache_capacity=attr_cache_capacity,
                )
            )
            self.shard_build_seconds.append(time.perf_counter() - start)

        #: Which servers hold which cached vertices: a view read off the
        #: caches, never maintained beside them.
        self.replicas = ReplicaRegistry(self.servers)

        #: When True, a neighbors read that no healthy server or replica
        #: can serve degrades to an empty row (``EV_DEGRADED_READ``)
        #: instead of raising. Attribute reads never degrade — a feature
        #: row cannot be faked — so they raise regardless.
        self.degraded_reads = degraded_reads

        self.cache_policy = cache_policy
        self._cache_budget = (
            int(cache_budget_fraction * graph.n_vertices)
            if cache_budget_fraction > 0
            else 0
        )
        if cache_policy is not None and cache_budget_fraction > 0:
            self._install_caches(cache_policy, self._cache_budget)
        self._failed: set[int] = set()
        self.runtime: "RpcRuntime | None" = None
        # Vertex-indexed scratch for a read's dedup and block merge: each
        # use writes the entries of its ids, then reads them.
        self._position = np.empty(graph.n_vertices, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Cache installation
    # ------------------------------------------------------------------ #
    def _install_caches(self, policy: CachePolicy, budget: int) -> None:
        """Give every server a neighbor cache built under ``policy``.

        The paper caches an important vertex's out-neighbors "on each
        partition it occurs" — operationally, every server can then resolve
        that vertex locally, so we install the selected set on all servers.
        A deterministic policy's selection (importance) is ranked and
        sliced out of the graph once for all of them; a randomized one
        draws each server's set from the store rng in part order.
        """
        caches = make_caches(policy, self.graph, budget, self._rng, len(self.servers))
        for server, cache in zip(self.servers, caches):
            server.neighbor_cache = cache

    def set_cache_policy(self, policy: CachePolicy, budget: int) -> None:
        """Swap the neighbor-cache policy at runtime (used by Figure 9)."""
        self.cache_policy = policy
        self._cache_budget = budget
        self._install_caches(policy, budget)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        """Number of graph servers."""
        return len(self.servers)

    def owner(self, vertex: int) -> int:
        """The worker owning ``vertex``."""
        vertex = check_id(vertex, self.graph.n_vertices, StorageError, "vertex")
        return int(self.assignment.vertex_to_part[vertex])

    # ------------------------------------------------------------------ #
    # Failure injection (operational concern of any production cluster)
    # ------------------------------------------------------------------ #
    def fail_worker(self, part: int) -> None:
        """Take worker ``part`` offline: its shard stops serving reads."""
        self._failed.add(check_id(part, self.n_workers, StorageError, "worker"))

    def restore_worker(self, part: int) -> None:
        """Bring a failed worker back (its shard is intact — fail-stop)."""
        self._failed.discard(check_id(part, self.n_workers, StorageError, "worker"))

    @property
    def failed_workers(self) -> "frozenset[int]":
        """The currently offline workers."""
        return frozenset(self._failed)

    # ------------------------------------------------------------------ #
    # The unified read path
    #
    # Every read — scalar or batched, neighbors or attributes — resolves
    # through _resolve_read, so local/cached/remote/failover/degraded
    # semantics are identical on all four entry points. Scalar reads are
    # batches of one: same validation, same ledger events, same failure
    # behaviour.
    # ------------------------------------------------------------------ #
    def attach_runtime(self, runtime: RpcRuntime) -> None:
        """Install the RPC runtime mediating this store's batched reads.

        A runtime carrying an enabled tracer is bound to the cost ledger:
        every ledger event recorded while a trace span is open is stamped
        with that span's ids (the ledger<->trace cross-reference). The
        read path also takes its access recorder and time-series sampler
        from ``runtime.recorder`` / ``runtime.timeseries`` (``None`` = off).
        """
        if runtime.store is not self:
            raise StorageError("runtime was constructed for a different store")
        self.runtime = runtime
        if runtime.tracer.enabled:
            runtime.tracer.bind_ledger(self.ledger)

    def _ensure_runtime(self) -> RpcRuntime:
        """The attached runtime, creating a fault-free default on first use."""
        if self.runtime is None:
            self.attach_runtime(RpcRuntime(self))
        return self.runtime

    def _resolve_read(
        self, kind: str, vertices: "np.ndarray | list[int]", from_part: int
    ) -> "RowBlock | dict[int, np.ndarray]":
        """Resolve a read batch as seen by ``from_part``.

        The ids (a 1-D integer batch, ``bool`` excepted) and the issuer are
        checked before anything is charged. The batch is deduplicated to
        first-seen order, classified once and each arm is served in bulk,
        in this order: vertices the issuer owns read its shard (local); the
        rest probe the issuer's neighbor cache in batch order; misses whose
        owner is fail-stopped fail over to a replica and misses whose owner
        is suspect route to one (with probing), arms entered only when such
        an owner exists (``_serve_troubled``); what is left goes remote via
        the runtime, one coalesced request per owning server, and a
        successful response is absorbed whole (rows, shipping charge,
        demand fill). A request that runs out of retries falls back, whole,
        to the same replica arms and raises
        :class:`~repro.errors.RetryExhaustedError` when no replica holds
        one of its ids (or degrades, see ``degraded_reads``). A neighbors read
        answers with one :class:`RowBlock` in batch order, an attribute
        read with a dict of rows by vertex.

        The ledger is charged per arm (``record(event, times=n)``): the
        contract is the per-span event *counts*, not the order events were
        recorded in. Cache recency and contents, hit/miss counters and
        everything the runtime keeps are exactly what resolving the
        batch one vertex at a time would leave.
        """
        if kind not in (KIND_NEIGHBORS, KIND_ATTRS):
            raise StorageError(f"unknown read kind {kind!r}")
        from_part = check_id(from_part, len(self.servers), StorageError, "worker")
        vertices = check_ids(vertices, self.graph.n_vertices, StorageError, "vertex ids")
        if from_part in self._failed:
            raise StorageError(f"issuing worker {from_part} is down")
        runtime = self._ensure_runtime()
        with runtime.tracer.span(
            "store.resolve_read", kind=kind, issuer=from_part
        ) as read_span:
            results = self._resolve_read_traced(
                kind, vertices, from_part, runtime, read_span
            )
        if runtime.timeseries is not None:
            runtime.timeseries.poll()
        return results

    def _resolve_read_traced(
        self,
        kind: str,
        vertices: np.ndarray,
        from_part: int,
        runtime: RpcRuntime,
        read_span: "object",
    ) -> "RowBlock | dict[int, np.ndarray]":
        neighbors = kind == KIND_NEIGHBORS
        issuer = self.servers[from_part]
        ledger = self.ledger
        rec = runtime.recorder

        # Dedup the (checked) ids to first-seen order (what a dict keeps),
        # so every arm below — cache recency, fills, request payloads — sees
        # a stable order: a small batch on a list, a larger one by keeping
        # each id's first position in the scratch table (FEW_ROWS). ``uniq``
        # becomes the answer's ids: never the caller's array. Then split it
        # into the issuer's own vertices (local arm) and the rest (cache
        # arm).
        vertex_to_part = self.assignment.vertex_to_part
        if vertices.size <= FEW_ROWS:
            uniq = np.array(list(dict.fromkeys(vertices.tolist())), dtype=np.int64)
        else:
            first, seen = self._position, np.arange(vertices.size)
            first[vertices] = vertices.size
            np.minimum.at(first, vertices, seen)
            uniq = vertices[first[vertices] == seen]
        is_local = vertex_to_part[uniq] == from_part
        local, foreign = uniq[is_local], uniq[~is_local]

        # A neighbors read collects one block per arm (and per response);
        # an attribute read, rows by vertex.
        blocks: "list[RowBlock]" = []
        rows: "dict[int, np.ndarray]" = {}
        if neighbors:
            if local.size:
                blocks.append(issuer.local_rows(local))
                ledger.record(EV_LOCAL_READ, times=local.size)
        else:
            # The IV-LRU front moves per access, so attribute rows decode
            # one by one.
            for v in local.tolist():
                if not issuer.attrs.has_vertex_attr(v):
                    raise StorageError(f"vertex {v} has no attributes stored")
                was_cached = v in issuer.attrs.iv_cache
                rows[v] = issuer.local_vertex_attr(v)
                ledger.record(EV_ATTR_CACHE_HIT if was_cached else EV_ATTR_DECODE)
        if rec is not None and local.size:
            rec.record(local, from_part, from_part, "local")

        missed = foreign
        if neighbors and foreign.size:
            hits, missed = issuer.neighbor_cache.get_many(foreign)
            if hits.ids.size:
                blocks.append(hits)
                ledger.record(EV_CACHE_HIT, times=hits.ids.size)
                if rec is not None:
                    rec.record(hits.ids, vertex_to_part[hits.ids], from_part, "cache_hit")

        # Only a fail-stopped or suspect owner's ids are routed around it
        # (attribute rows have no replicas to route a suspect's reads to).
        if missed.size and (
            self._failed or (neighbors and runtime.health.suspect_parts)
        ):
            missed = self._serve_troubled(kind, missed, False, from_part, blocks)
        if not neighbors:
            for v, owner in zip(missed.tolist(), vertex_to_part[missed].tolist()):
                if not self.servers[owner].attrs.has_vertex_attr(v):
                    raise StorageError(f"vertex {v} has no attributes stored")

        read_span.annotate(
            vertices=uniq.size,
            resolved_local=uniq.size - len(missed),
            remote=len(missed),
        )
        demand_fill = (
            neighbors
            and self.cache_policy is not None
            and self.cache_policy.demand_filled
        )
        shipped: "list[RowBlock]" = []
        if missed.size:
            with runtime.tracer.span("batch.plan", kind=kind) as plan_span:
                requests = runtime.plan(kind, from_part, missed, vertex_to_part[missed])
                plan_span.annotate(reads=missed.size, batches=len(requests))
            for req, resp in zip(requests, runtime.execute(requests)):
                if not resp.ok:
                    try:
                        self._serve_troubled(kind, req.vertices, True, from_part, blocks)
                    except ReadUnavailableError as exc:
                        if demand_fill and shipped:  # what came back first still fills
                            issuer.neighbor_cache.admit_many(concat_blocks(shipped))
                        raise RetryExhaustedError(
                            f"{kind} of vertex {exc.vertex}: {resp.error}, "
                            "and no healthy replica holds it",
                            resp.attempts,
                        ) from exc
                    continue
                payload = resp.payload
                ledger.record(EV_REMOTE_RPC)
                if rec is not None:
                    rec.record(req.vertices, req.dst_part, from_part, "remote")
                if neighbors:
                    shipped.append(payload)
                    ledger.record(EV_ITEM_SHIPPED, times=resp.n_items)
                    if demand_fill:
                        ledger.record(EV_CACHE_FILL, times=req.vertices.size)
                else:
                    rows.update(payload)
                    iv_hits = sum(resp.meta.values())
                    if iv_hits:
                        ledger.record(EV_ATTR_CACHE_HIT, times=iv_hits)
                    if iv_hits < len(payload):
                        ledger.record(EV_ATTR_DECODE, times=len(payload) - iv_hits)
        if not neighbors:
            return rows
        if demand_fill and shipped:
            # The responses' rows, in request order, fill the cache at once.
            issuer.neighbor_cache.admit_many(concat_blocks(shipped))
        blocks.extend(shipped)
        # The arms' blocks partition the read: the answer is the one block
        # already in first-seen order, or one gather out of all of them.
        if len(blocks) == 1 and np.array_equal(blocks[0].ids, uniq):
            return blocks[0]
        block = concat_blocks(blocks)
        position = self._position
        position[block.ids] = np.arange(block.ids.size)
        order = position[uniq]
        offsets = block.offsets
        return RowBlock(uniq, *take_rows(offsets[:-1][order], offsets[1:][order], block.indices))

    def _serve_troubled(
        self, kind: str, ids: np.ndarray, exhausted: bool, from_part: int, blocks: "list[RowBlock]"
    ) -> np.ndarray:
        """Serve what replicas can of a read's ids (distinct, in batch
        order) whose owner is in trouble; return the ids left to fetch.

        An id fails over when ``exhausted`` (its request ran out of
        retries) or its owner is fail-stopped: to a replica (``failover``),
        else to an empty row (``degraded``: neighbors under
        ``degraded_reads``), else it is unavailable. A neighbors id whose
        owner is suspect routes to a replica (``suspect``) unless it probes
        or none holds it. A replica is the first healthy server, in part
        order, other than the issuer and the owner, whose cache holds the
        id. Each arm is charged, counted and recorded once; rows join
        ``blocks``. The first unavailable id raises
        :class:`~repro.errors.ReadUnavailableError` once the ids ahead of
        it are served, as a read one id at a time would.
        """
        neighbors, runtime = kind == KIND_NEIGHBORS, self.runtime
        owners = self.assignment.vertex_to_part[ids]
        down = exhausted | np.isin(owners, list(self._failed))
        holders = np.full(ids.size, -1)
        if neighbors:
            holders = self.replicas.first_holders(ids, owners, {from_part, *self._failed})
        lost = down & (holders < 0)
        error = None
        if lost.any() and not (neighbors and self.degraded_reads):
            cut = int(lost.argmax())
            error = ReadUnavailableError(int(ids[cut]), int(owners[cut]), kind)
            ids, owners, down, holders = ids[:cut], owners[:cut], down[:cut], holders[:cut]
        routed = ~down & np.isin(owners, list(runtime.health.suspect_parts) if neighbors else [])
        if routed.any():
            routed[routed] = ~runtime.health.probe_mask(owners[routed])
            routed &= holders >= 0
        failover, degraded = down & (holders >= 0), down & (holders < 0)
        rec = runtime.recorder
        for arm, event, route, counter in (
            (failover, EV_FAILOVER_READ, "failover", None),
            (routed, EV_SUSPECT_ROUTE, "suspect", "health.suspect_routes"),
            (degraded, EV_DEGRADED_READ, "degraded", "reads.degraded"),
        ):
            n = int(np.count_nonzero(arm))
            if n:
                self.ledger.record(event, times=n)
                if counter is not None:
                    runtime.metrics.counter(counter).inc(n)
                if rec is not None:
                    rec.record(ids[arm], owners[arm], from_part, route)
        served = failover | routed
        blocks.extend(  # one block per holder
            self.servers[part].neighbor_cache.peek_many(ids[served & (holders == part)])
            for part in np.unique(holders[served]).tolist()
        )
        if degraded.any():  # empty rows
            blocks.append(RowBlock(ids[degraded], np.zeros(degraded.sum() + 1, np.int64), ids[:0]))
        if error is not None:
            raise error
        return ids[~(down | routed)]

    def neighbors(self, vertex: int, from_part: int) -> np.ndarray:
        """Out-neighbors of ``vertex`` as seen by worker ``from_part``.

        A batch of one through the unified read path: charges
        local/cached/remote cost according to where the data lives; reads
        of vertices owned by failed workers fail over to any healthy cache
        replica (or raise when none exists).
        """
        return self._resolve_read(KIND_NEIGHBORS, (vertex,), from_part).indices

    def vertex_attr(self, vertex: int, from_part: int) -> np.ndarray:
        """Attribute row of ``vertex`` as seen by worker ``from_part``.

        A batch of one through the unified read path — validation and
        failure semantics are identical to :meth:`neighbors`: unknown or
        down issuers are rejected and reads of vertices owned by failed
        workers raise (attribute rows have no replicas to fail over to).
        """
        return self._resolve_read(KIND_ATTRS, (vertex,), from_part)[int(vertex)]

    def get_neighbors_batch(
        self, vertices: "np.ndarray | list[int]", from_part: int
    ) -> RowBlock:
        """Out-neighbors of a vertex batch as seen by worker ``from_part``.

        Answers with one :class:`RowBlock`: ``ids`` is the batch with
        repeats dropped, in first-seen order, and row ``i`` of the block is
        ``ids[i]``'s out-neighbors. Routing per vertex is identical to
        :meth:`neighbors` (same shared path), but all remote misses
        coalesce into one deduplicated request per owning server through
        the runtime: the ledger charges one ``remote_rpc`` per batch plus
        per-item shipping. A request whose retries are exhausted falls back
        to replica failover and raises
        :class:`~repro.errors.RetryExhaustedError` when no replica holds
        one of its vertices.
        """
        return self._resolve_read(KIND_NEIGHBORS, vertices, from_part)

    def get_attrs_batch(
        self, vertices: "np.ndarray | list[int]", from_part: int
    ) -> "dict[int, np.ndarray]":
        """Attribute rows of a vertex batch as seen by worker ``from_part``.

        Remote rows coalesce into one request per owning server; the ledger
        charges one ``remote_rpc`` per batch and the per-vertex decode /
        IV-cache-hit events exactly as :meth:`vertex_attr` does. Reads of
        vertices owned by failed workers raise :class:`StorageError`
        (attribute rows have no replicas), and the issuer-down check is the
        same one every other read path applies.
        """
        return self._resolve_read(KIND_ATTRS, vertices, from_part)

    # ------------------------------------------------------------------ #
    # Streaming updates (the "frequent edge updates" regime of §3.2)
    # ------------------------------------------------------------------ #
    def apply_edge_events(self, events: "list") -> int:
        """Apply a batch of :class:`~repro.graph.dynamic.EdgeEvent` updates.

        Additions/removals are routed to the source vertex's owning shard,
        which rebuilds each touched row once per batch, applying that
        source's events in order. Every cached copy of a changed vertex's
        neighbor list is then invalidated — one ``invalidate_many`` per
        server — so subsequent reads observe the new adjacency. Servers
        that held the vertex as a *pinned* (importance-selected) entry are
        re-pinned with the fresh adjacency: a hot vertex keeps its replica
        set, and therefore its failover coverage, across updates.
        Demand-filled (LRU) copies are dropped only; they re-fill on the
        next access. The ledger is charged as if each event were pushed on
        its own: one ``edge_ingested`` per valid event and, per non-owner
        pinned holder, one ``replica_refresh`` plus the row's then size in
        ``item_shipped`` per event that changed the row. A ``remove`` that
        matches no arc is charged its ``edge_ingested`` (the shard did
        process the message) and touches nothing else. Returns the number
        of applied events. An event with a non-integer or unknown ``src`` /
        ``dst``, or whose owner is down, raises :class:`StorageError`; the
        events ahead of it in the batch are applied first, it and the rest
        are not. Note: the immutable analytical snapshot (``self.graph``)
        is not mutated — this is the serving path.
        """
        n_vertices = self.graph.n_vertices
        vertex_to_part = self.assignment.vertex_to_part
        failed = self._failed
        ops: "dict[int, list[tuple[str, int]]]" = {}
        n_valid = 0
        error = None
        # One id check for the batch; only a failed one is retraced event
        # by event, so the events ahead of the bad one still apply.
        n_checked = len(events)
        sources = [ev.src for ev in events]
        try:
            check_ids(sources + [ev.dst for ev in events], n_vertices, StorageError, "ids")
        except StorageError:
            for n_checked, ev in enumerate(events):
                try:
                    check_id(ev.src, n_vertices, StorageError, "vertex")
                    check_id(ev.dst, n_vertices, StorageError, "vertex")
                except StorageError as exc:
                    error = StorageError(f"{exc} in {ev}")
                    break
        for ev, src in zip(events[:n_checked], sources):
            src = int(src)
            if failed and int(vertex_to_part[src]) in failed:
                error = StorageError(
                    f"cannot apply update: owner worker {int(vertex_to_part[src])} is down"
                )
                break
            ops.setdefault(src, []).append((ev.kind, int(ev.dst)))
            n_valid += 1
        if n_valid:
            self.ledger.record(EV_EDGE_INGESTED, times=n_valid)

        # src -> (owner, row size after each event that changed the row).
        changed: "dict[int, tuple[int, list[int]]]" = {}
        applied = 0
        srcs = list(ops)
        owners = dict(zip(srcs, vertex_to_part[srcs].tolist()))
        by_owner: "dict[int, dict[int, list[tuple[str, int]]]]" = {}
        for src, owner in owners.items():
            by_owner.setdefault(owner, {})[src] = ops[src]
        sizes_of: "dict[int, list[int]]" = {}
        for owner, owner_ops in by_owner.items():
            sizes_of.update(self.servers[owner].edit_rows(owner_ops))
        for src in srcs:
            if src in sizes_of:
                changed[src] = (owners[src], sizes_of[src])
                applied += len(sizes_of[src])
        refreshes = shipped = 0
        if changed:
            touched = list(changed)
            for p, server in enumerate(self.servers):
                cache = server.neighbor_cache
                for src in cache.invalidate_many(touched):
                    owner, sizes = changed[src]
                    cache.pin(src, self.servers[owner].local_neighbors(src))
                    if p != owner:
                        refreshes += len(sizes)
                        shipped += sum(sizes)
        if refreshes:
            self.ledger.record(EV_REPLICA_REFRESH, times=refreshes)
        if shipped:
            self.ledger.record(EV_ITEM_SHIPPED, times=shipped)
        if error is not None:
            raise error
        return applied

    def commit_migration(self, vertex: int, new_part: int) -> int:
        """Flip ownership of ``vertex`` to ``new_part``; returns the old owner.

        The placement controller calls this only after the data handoff
        succeeded (row installed on ``new_part``, old owner released), so
        the flip is the last, purely-local step of the migration protocol —
        reads before it route to the old owner's (still-installed) shard,
        reads after it to the new owner's. The new owner's cached replica
        of the vertex, if any, is dropped: owned rows are served from the
        shard, and a lingering copy would advertise a failover replica on
        the very server whose failure it should cover.
        """
        vertex = check_id(vertex, self.graph.n_vertices, StorageError, "vertex")
        new_part = check_id(new_part, self.n_workers, StorageError, "worker")
        if not self.servers[new_part].owns(vertex):
            raise StorageError(
                f"cannot commit migration of vertex {vertex}: "
                f"worker {new_part} has not ingested it"
            )
        previous = self.assignment.reassign_vertex(vertex, new_part)
        self.servers[new_part].neighbor_cache.invalidate(vertex)
        self.ledger.record(EV_VERTEX_MIGRATED)
        return previous

    def reset_ledger(self) -> None:
        """Zero the cost counters (cache contents are kept)."""
        self.ledger.reset()

    def cache_hit_rate(self) -> float:
        """Aggregate neighbor-cache hit rate across servers."""
        hits = sum(s.neighbor_cache.hits for s in self.servers)
        misses = sum(s.neighbor_cache.misses for s in self.servers)
        total = hits + misses
        return hits / total if total else 0.0


@dataclass(frozen=True)
class BuildReport:
    """Report of one distributed graph build (Figure 7 row), on two clocks.

    *Modelled* (bit-reproducible, the prices the build ledger charges):
    ``ingest_seconds`` — the critical path ``max_w(per_worker_edges)`` at
    ``CostModel.edge_ingest_us`` per edge — ``coordination_seconds`` and
    their sum :attr:`total_seconds`. *Wall-clock* (diagnostics of this
    process, noisy at small scale): ``per_worker_seconds``, what building
    each shard actually took, and their max ``critical_path_seconds``.
    """

    n_workers: int
    n_edges: int
    per_worker_edges: tuple[int, ...]
    ingest_seconds: float
    coordination_seconds: float
    per_worker_seconds: tuple[float, ...]
    critical_path_seconds: float

    @property
    def total_seconds(self) -> float:
        """Modelled build time: slowest worker's ingest + coordination."""
        return self.ingest_seconds + self.coordination_seconds


def make_store(
    graph: Graph,
    n_workers: int,
    partitioner: Partitioner | None = None,
    cost_model: CostModel | None = None,
    cache_policy: CachePolicy | None = None,
    cache_budget_fraction: float = 0.0,
    seed: int = 0,
    degraded_reads: bool = False,
) -> DistributedGraphStore:
    """Partition ``graph`` and stand up a distributed store over it."""
    partitioner = partitioner or EdgeCutPartitioner()
    assignment = partitioner.partition(graph, n_workers)
    return DistributedGraphStore(
        graph,
        assignment,
        cost_model=cost_model,
        cache_policy=cache_policy,
        cache_budget_fraction=cache_budget_fraction,
        seed=seed,
        degraded_reads=degraded_reads,
    )


#: Coordination barriers one distributed build charges (Figure 7).
COORDINATION_ROUNDS = 3


def build_distributed(
    graph: Graph,
    n_workers: int,
    cost_model: CostModel | None = None,
) -> tuple[DistributedGraphStore, BuildReport]:
    """Simulate the distributed build of Figure 7.

    Edges are routed to workers by source-vertex hash (the stateless ASSIGN
    of Algorithm 2 lines 1–4) and each worker builds its shard — the
    :class:`GraphServer` the returned store serves from, so the thing timed
    is the thing built. The build ledger is charged one ``edge_ingested``
    per edge, worker by worker, then the coordination rounds; the report's
    modelled build time is the critical path ``max_w(edges_w)`` at the same
    per-edge price plus coordination — the time a p-worker cluster doing
    this work in parallel would take — with the wall-clock seconds each
    shard took here alongside as a diagnostic.
    """
    cost_model = cost_model or CostModel()
    assignment = EdgeCutPartitioner().partition(graph, n_workers)
    ledger = cost_model.accumulator()
    store = DistributedGraphStore(graph, assignment, cost_model=cost_model)
    per_worker_edges = tuple(assignment.edge_counts().tolist())
    for edges in per_worker_edges:
        ledger.record(EV_EDGE_INGESTED, times=edges)
    ledger.record(EV_COORDINATION, times=COORDINATION_ROUNDS)

    report = BuildReport(
        n_workers=n_workers,
        n_edges=graph.n_edges,
        per_worker_edges=per_worker_edges,
        ingest_seconds=max(per_worker_edges) * cost_model.edge_ingest_us / 1e6,
        coordination_seconds=COORDINATION_ROUNDS * cost_model.coordination_us / 1e6,
        per_worker_seconds=tuple(store.shard_build_seconds),
        critical_path_seconds=max(store.shard_build_seconds),
    )
    return store, report
