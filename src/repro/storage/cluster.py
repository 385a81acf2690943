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

from repro.errors import ReadUnavailableError, RetryExhaustedError, StorageError
from repro.graph.graph import Graph
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
from repro.storage.server import GraphServer
from repro.utils.rng import make_rng
from repro.utils.timer import CostAccumulator

#: What a vertex id may be (``bool`` excepted): anything else is rejected
#: before it can be truncated into an int64 row or alias another id.
_INTEGER = (int, np.integer)


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
        if not 0 <= vertex < self.graph.n_vertices:
            raise StorageError(f"unknown vertex {vertex}")
        return int(self.assignment.vertex_to_part[vertex])

    # ------------------------------------------------------------------ #
    # Failure injection (operational concern of any production cluster)
    # ------------------------------------------------------------------ #
    def fail_worker(self, part: int) -> None:
        """Take worker ``part`` offline: its shard stops serving reads."""
        if not 0 <= part < self.n_workers:
            raise StorageError(f"unknown worker {part}")
        self._failed.add(part)

    def restore_worker(self, part: int) -> None:
        """Bring a failed worker back (its shard is intact — fail-stop)."""
        self._failed.discard(part)

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

    def _replica_peek(self, vertex: int, exclude_part: int) -> "np.ndarray | None":
        """A healthy replica's copy of ``vertex``'s neighbors, or None.

        The servers are asked in part order, each with ``peek``, so
        availability probes never touch any cache's hit/miss counters.
        """
        for p, server in enumerate(self.servers):
            if p == exclude_part or p in self._failed:
                continue
            row = server.neighbor_cache.peek(vertex)
            if row is not None:
                return row
        return None

    def _read_unavailable(
        self, vertex: int, kind: str, from_part: int = -1
    ) -> np.ndarray:
        """Last resort for a read no server or replica can serve."""
        if self.degraded_reads and kind == KIND_NEIGHBORS:
            self.ledger.record(EV_DEGRADED_READ)
            if self.runtime is not None:
                self.runtime.metrics.counter("reads.degraded").inc()
                rec = self.runtime.recorder
                if rec is not None and from_part >= 0:
                    rec.record(vertex, self.owner(vertex), from_part, "degraded")
            return np.zeros(0, dtype=np.int64)
        raise ReadUnavailableError(vertex, self.owner(vertex), kind)

    def _failover_read(self, vertex: int, from_part: int, kind: str) -> np.ndarray:
        """Serve a read whose owner is unreachable from a healthy replica.

        Replicas exist wherever a neighbor cache pinned/holds the vertex —
        exactly the importance-cache entries ("cached on each partition it
        occurs") — so hot vertices survive worker loss, cold ones do not.
        Attribute rows have no replicas, so attr reads go straight to
        :meth:`_read_unavailable` (raise, or degrade when enabled).
        """
        if kind == KIND_NEIGHBORS:
            row = self._replica_peek(vertex, from_part)
            if row is not None:
                self.ledger.record(EV_FAILOVER_READ)
                rec = self.runtime.recorder
                if rec is not None:
                    rec.record(vertex, self.owner(vertex), from_part, "failover")
                return row
        return self._read_unavailable(vertex, kind, from_part)

    def _resolve_read(
        self, kind: str, vertices: "np.ndarray | list[int]", from_part: int
    ) -> "dict[int, np.ndarray]":
        """Resolve a deduplicated read batch as seen by ``from_part``.

        The batch is classified once and each arm is served in bulk, in
        this order: vertices the issuer owns read its shard (local); the
        rest probe the issuer's neighbor cache in batch order; misses whose
        owner is fail-stopped fail over to a replica and misses whose owner
        is suspect route to one (with probing) — the only per-vertex arm,
        entered only when such an owner exists; what is left goes remote
        via the runtime, one coalesced request per owning server, and a
        successful response is absorbed whole (results, shipping charge,
        demand fill). RPC failures past the retry budget fall back to
        replica failover per vertex and raise
        :class:`~repro.errors.RetryExhaustedError` when no replica holds
        the data (or degrade, see ``degraded_reads``).

        The ledger is charged per arm (``record(event, times=n)``): the
        contract is the per-span event *counts*, not the order events were
        recorded in. Cache recency and contents, hit/miss counters and
        everything the runtime keeps are exactly what resolving the
        batch one vertex at a time would leave.
        """
        if kind not in (KIND_NEIGHBORS, KIND_ATTRS):
            raise StorageError(f"unknown read kind {kind!r}")
        if not 0 <= from_part < self.n_workers:
            raise StorageError(f"unknown worker {from_part}")
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
        vertices: "np.ndarray | list[int]",
        from_part: int,
        runtime: RpcRuntime,
        read_span: "object",
    ) -> "dict[int, np.ndarray]":
        neighbors = kind == KIND_NEIGHBORS
        issuer = self.servers[from_part]
        ledger = self.ledger
        rec = runtime.recorder

        # Dedup to first-seen order (what a dict keeps), so every arm below
        # — cache recency, fills, request payloads — sees a stable order;
        # validate the ids with array ops.
        arr = np.asarray(vertices, dtype=np.int64).reshape(-1)
        ids = list(dict.fromkeys(arr.tolist()))
        uniq = arr if len(ids) == arr.size else np.array(ids, dtype=np.int64)
        oob = (uniq < 0) | (uniq >= self.graph.n_vertices)
        if oob.any():
            raise StorageError(f"unknown vertex {int(uniq[oob][0])}")

        # Classify once, on plain lists (small reads dominate serving, and
        # a handful of mask ops costs more than the ids they sort): owned
        # by the issuer -> local arm, everything else -> cache arm.
        owner_of = dict(zip(ids, self.assignment.vertex_to_part[uniq].tolist()))
        local = [v for v in ids if owner_of[v] == from_part]
        foreign = [v for v in ids if owner_of[v] != from_part]

        if neighbors:
            results = issuer.local_rows(local)
            if local:
                ledger.record(EV_LOCAL_READ, times=len(local))
        else:
            # The IV-LRU front moves per access, so attribute rows decode
            # one by one.
            results = {}
            for v in local:
                if not issuer.attrs.has_vertex_attr(v):
                    raise StorageError(f"vertex {v} has no attributes stored")
                was_cached = v in issuer.attrs.iv_cache
                results[v] = issuer.local_vertex_attr(v)
                ledger.record(EV_ATTR_CACHE_HIT if was_cached else EV_ATTR_DECODE)
        if rec is not None:
            for v in local:
                rec.record(v, from_part, from_part, "local")

        missed = foreign
        if neighbors and foreign:
            hits, missed = issuer.neighbor_cache.get_many(foreign)
            if hits:
                results.update(hits)
                ledger.record(EV_CACHE_HIT, times=len(hits))
                if rec is not None:
                    for v in hits:
                        rec.record(v, owner_of[v], from_part, "cache_hit")

        # Only a fail-stopped or suspect owner needs per-vertex routing
        # (attribute rows have no replicas to route a suspect's reads to).
        if missed and (
            self._failed or (neighbors and runtime.health.suspect_parts)
        ):
            missed = self._route_around(
                kind, missed, owner_of, from_part, runtime, results
            )
        if not neighbors:
            for v in missed:
                if not self.servers[owner_of[v]].attrs.has_vertex_attr(v):
                    raise StorageError(f"vertex {v} has no attributes stored")

        read_span.annotate(
            vertices=len(ids),
            resolved_local=len(results),
            remote=len(missed),
        )
        if not missed:
            return results
        with runtime.tracer.span("batch.plan", kind=kind) as plan_span:
            requests = runtime.plan(
                kind, from_part, missed, [owner_of[v] for v in missed]
            )
            plan_span.annotate(reads=len(missed), batches=len(requests))
        demand_fill = (
            neighbors
            and self.cache_policy is not None
            and self.cache_policy.demand_filled
        )
        for req, resp in zip(requests, runtime.execute(requests)):
            if not resp.ok:
                for v in req.vertices:
                    try:
                        results[v] = self._failover_read(v, from_part, kind)
                    except ReadUnavailableError as exc:
                        raise RetryExhaustedError(
                            f"{kind} of vertex {v}: {resp.error}, "
                            "and no healthy replica holds it",
                            resp.attempts,
                        ) from exc
                continue
            payload = resp.payload
            results.update(payload)
            ledger.record(EV_REMOTE_RPC)
            if rec is not None:
                for v in payload:
                    rec.record(v, req.dst_part, from_part, "remote")
            if neighbors:
                ledger.record(EV_ITEM_SHIPPED, times=resp.n_items)
                if demand_fill:
                    issuer.neighbor_cache.admit_many(payload)
                    ledger.record(EV_CACHE_FILL, times=len(payload))
            else:
                iv_hits = sum(resp.meta.values())
                if iv_hits:
                    ledger.record(EV_ATTR_CACHE_HIT, times=iv_hits)
                if iv_hits < len(payload):
                    ledger.record(EV_ATTR_DECODE, times=len(payload) - iv_hits)
        return results

    def _route_around(
        self,
        kind: str,
        missed: "list[int]",
        owner_of: "dict[int, int]",
        from_part: int,
        runtime: RpcRuntime,
        results: "dict[int, np.ndarray]",
    ) -> "list[int]":
        """Serve what a troubled owner's vertices can get from replicas.

        The scalar arm of the read path, in batch order (``should_probe``
        counts per read): a fail-stopped owner's vertex fails over to a
        replica (or degrades / raises); a suspect owner's vertex routes to
        a replica unless this read is the probe or no replica holds it.
        Fills ``results`` and returns the ids still to fetch remotely.
        """
        health = runtime.health
        rec = runtime.recorder
        remote: "list[int]" = []
        for v in missed:
            owner = owner_of[v]
            if owner in self._failed:
                results[v] = self._failover_read(v, from_part, kind)
                continue
            if (
                kind == KIND_NEIGHBORS
                and health.is_suspect(owner)
                and not health.should_probe(owner)
            ):
                row = self._replica_peek(v, from_part)
                if row is not None:
                    self.ledger.record(EV_SUSPECT_ROUTE)
                    runtime.metrics.counter("health.suspect_routes").inc()
                    if rec is not None:
                        rec.record(v, owner, from_part, "suspect")
                    results[v] = row
                    continue
            remote.append(v)
        return remote

    def neighbors(self, vertex: int, from_part: int) -> np.ndarray:
        """Out-neighbors of ``vertex`` as seen by worker ``from_part``.

        A batch of one through the unified read path: charges
        local/cached/remote cost according to where the data lives; reads
        of vertices owned by failed workers fail over to any healthy cache
        replica (or raise when none exists).
        """
        return self._resolve_read(KIND_NEIGHBORS, (vertex,), from_part)[
            int(vertex)
        ]

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
    ) -> "dict[int, np.ndarray]":
        """Out-neighbors of a vertex batch as seen by worker ``from_part``.

        Routing per vertex is identical to :meth:`neighbors` (same shared
        path), but all remote misses coalesce into one deduplicated
        request per owning server through the runtime: the ledger charges
        one ``remote_rpc`` per batch plus per-item shipping. A batch whose
        retries are exhausted falls back to a per-vertex failover read and
        raises :class:`~repro.errors.RetryExhaustedError` when no replica
        holds the vertex.
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
        for ev in events:
            src, dst = ev.src, ev.dst
            if isinstance(src, bool) or isinstance(dst, bool) or not (
                isinstance(src, _INTEGER) and isinstance(dst, _INTEGER)
            ):
                error = StorageError(f"non-integer vertex id in {ev}")
                break
            if not 0 <= src < n_vertices:
                error = StorageError(f"unknown vertex {src}")
                break
            if not 0 <= dst < n_vertices:
                error = StorageError(f"unknown vertex {dst} in {ev}")
                break
            if failed and int(vertex_to_part[src]) in failed:
                error = StorageError(
                    f"cannot apply update: owner worker {int(vertex_to_part[src])} is down"
                )
                break
            ops.setdefault(int(src), []).append((ev.kind, int(dst)))
            n_valid += 1
        if n_valid:
            self.ledger.record(EV_EDGE_INGESTED, times=n_valid)

        # src -> (owner, row size after each event that changed the row).
        changed: "dict[int, tuple[int, list[int]]]" = {}
        applied = 0
        srcs = list(ops)
        for src, owner in zip(srcs, vertex_to_part[srcs].tolist()):
            sizes = self.servers[owner].edit_row(src, ops[src])
            if sizes:
                changed[src] = (owner, sizes)
                applied += len(sizes)
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
        if not 0 <= new_part < self.n_workers:
            raise StorageError(f"unknown worker {new_part}")
        if not self.servers[new_part].owns(int(vertex)):
            raise StorageError(
                f"cannot commit migration of vertex {vertex}: "
                f"worker {new_part} has not ingested it"
            )
        previous = self.assignment.reassign_vertex(int(vertex), new_part)
        self.servers[new_part].neighbor_cache.invalidate(int(vertex))
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
