"""The simulated RPC layer: envelopes, the request planner and a
virtual-clock scheduler.

Cross-server reads in the cluster simulation used to be synchronous function
calls. This module gives them the shape of real traffic:

* a read's remote arm becomes wire requests in one place,
  :meth:`RpcRuntime.plan` — one :class:`Request` per owning server (the
  paper's §3 storage layer batches a worker's reads per server);
* every request crosses the wire explicitly and comes back as a
  :class:`Response`;
* a deterministic event loop orders deliveries on a :class:`VirtualClock`
  (simulated microseconds) — requests to different servers overlap, retries
  are rescheduled after a timeout plus capped exponential backoff, and two
  runs with the same seed replay identically.

Latency is *modelled*, not measured: a successful delivery costs the cost
model's ``remote_rpc_us`` plus per-item shipping, scaled by the destination's
slow-server factor. The cost ledger (Figures 8–9 semantics) is charged by the
store per successful batch; this layer's metrics cover everything else —
attempts, drops, timeouts, retries and latency percentiles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import RuntimeConfigError
from repro.runtime.faults import (
    OUTCOME_OK,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
)
from repro.runtime.health import HealthTracker
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.tracing import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.storage.cluster import DistributedGraphStore
    from repro.storage.server import RowBlock

#: Request kinds served by the graph store itself. Further kinds are added
#: per-runtime by registered services (:meth:`RpcRuntime.register_service`),
#: e.g. the embedding KV store's pull/push verbs.
KIND_NEIGHBORS = "neighbors"
KIND_ATTRS = "attrs"
_KINDS = frozenset({KIND_NEIGHBORS, KIND_ATTRS})

#: Simulated µs an issuer waits on a dropped or timed-out request before
#: rescheduling it.
TIMEOUT_US = 500.0


@dataclass(frozen=True, eq=False)
class Request:
    """One cross-server request envelope (a deduplicated key batch), minted
    by :meth:`RpcRuntime.plan`.

    ``vertices`` carries the batch's keys (graph vertices or embedding row
    ids) as one int64 array; ``body`` is an optional opaque payload shipped
    *with* the request — the embedding store's push verb uses it for the
    gradient rows. Both ride through retries untouched
    (``dataclasses.replace`` keeps them). Requests compare by identity: an
    array field has no single truth value to compare by.
    """

    req_id: int
    kind: str
    src_part: int
    dst_part: int
    vertices: np.ndarray
    attempt: int = 1
    body: "object | None" = None


@dataclass
class Response:
    """The answer to a :class:`Request` (or its typed failure).

    ``payload`` is a :class:`~repro.storage.server.RowBlock` for a
    neighbors read and maps each key to its row for every other kind.
    ``meta`` carries per-key scalars next to the payload rows: the IV-cache
    flag for attribute reads, the row version for embedding pulls.
    ``n_items`` is the item count the serving side summed over the payload —
    what priced the response's shipping time on the virtual clock.
    """

    req_id: int
    ok: bool
    payload: "RowBlock | dict[int, np.ndarray]" = field(default_factory=dict)
    meta: "dict[int, object]" = field(default_factory=dict)
    n_items: int = 0
    attempts: int = 1
    error: "str | None" = None


class VirtualClock:
    """Monotone simulated time in microseconds."""

    def __init__(self) -> None:
        self._now_us = 0.0

    @property
    def now_us(self) -> float:
        """Current simulated time."""
        return self._now_us

    def advance(self, us: float) -> None:
        """Move time forward by ``us`` microseconds."""
        if us < 0:
            raise RuntimeConfigError(f"cannot advance the clock by {us}us")
        self._now_us += us

    def advance_to(self, t_us: float) -> None:
        """Move time forward to ``t_us`` (no-op if already past it)."""
        self._now_us = max(self._now_us, t_us)


class RpcRuntime:
    """Mediates every cross-server read of a :class:`DistributedGraphStore`.

    The runtime owns the virtual clock, the fault injector, the retry
    policy and the metrics registry. A caller turns the remote arm of a
    read into wire requests with :meth:`plan` (one :class:`Request` per
    owning server) and runs them with :meth:`execute`.

    The runtime is also the one carrier of the read/serve-path instruments:
    ``tracer`` (constructor argument, :data:`NULL_TRACER` when off) plus the
    plain attributes ``recorder`` (an
    :class:`~repro.obs.workload.AccessRecorder`) and ``timeseries`` (a
    :class:`~repro.obs.timeseries.TimeSeriesSampler`), ``None`` when off.
    The store's read path, the serving engine and the placement
    controller all read them from here.
    """

    def __init__(
        self,
        store: "DistributedGraphStore",
        faults: "FaultPlan | FaultInjector | None" = None,
        retry: "RetryPolicy | None" = None,
        metrics: "MetricsRegistry | None" = None,
        health: "HealthTracker | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.store = store
        self.clock = VirtualClock()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled and self.tracer.clock is None:
            self.tracer.clock = self.clock
        #: Fed one ``record`` per resolved read; ``None`` = off.
        self.recorder: "object | None" = None
        #: Polled once per resolved read batch and per finished serving
        #: request, so snapshots advance with the clock; ``None`` = off.
        self.timeseries: "object | None" = None
        self.health = health or HealthTracker(
            len(store.servers), metrics=self.metrics
        )
        self.retry = retry or RetryPolicy()
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        self.faults: "FaultInjector | None" = faults
        self._next_req_id = 0
        self._seq = 0
        #: kind -> handler(request) -> (payload, meta, n_items). Services
        #: (the embedding KV store) extend the runtime with new verbs
        #: without touching the scheduler: registered kinds get the same
        #: fault injection, retries, clock accounting and metrics as the
        #: built-in graph reads.
        self._services: "dict[str, object]" = {}
        self._served: "dict[int, object]" = {}  # part -> its server.served

    # The hot-path instruments, each bound on first use (``server.served``
    # per part too): a runtime registers the series a lookup per use would.
    _requests = cached_property(lambda self: self.metrics.counter("rpc.requests"))
    _batch_size = cached_property(lambda self: self.metrics.histogram("rpc.batch_size"))
    _attempts = cached_property(lambda self: self.metrics.counter("rpc.attempts"))
    _completed = cached_property(lambda self: self.metrics.counter("rpc.completed"))
    _latency_us = cached_property(lambda self: self.metrics.histogram("rpc.latency_us"))

    # ------------------------------------------------------------------ #
    # Request construction
    # ------------------------------------------------------------------ #
    def register_service(self, kind: str, handler: "object") -> None:
        """Register ``handler`` to serve requests of a new ``kind``.

        ``handler(request)`` must return ``(payload, meta, n_items)`` with
        the same shapes :meth:`_serve` produces for the built-in kinds;
        ``n_items`` prices the response's shipping time on the virtual
        clock. Built-in kinds cannot be overridden.
        """
        if kind in _KINDS:
            raise RuntimeConfigError(f"cannot override built-in kind {kind!r}")
        if kind in self._services:
            raise RuntimeConfigError(f"service kind {kind!r} already registered")
        self._services[kind] = handler

    def plan(
        self,
        kind: str,
        src_part: int,
        vertices: "np.ndarray | list[int]",
        owners: "np.ndarray | list[int]",
        rows: "np.ndarray | None" = None,
    ) -> "list[Request]":
        """One request per owning server for already-deduplicated keys.

        ``vertices`` / ``owners`` are aligned, with no repeated key (every
        caller dedups its batch up front). Destinations come in
        first-appearance order, each keeps its keys in input order, and the
        requests take consecutive ids in that order. ``rows``, aligned with
        ``vertices``, ships each destination's slice as ``Request.body``.
        """
        if kind not in _KINDS and kind not in self._services:
            raise RuntimeConfigError(f"unknown request kind {kind!r}")
        vertices = np.asarray(vertices, dtype=np.int64)
        owners = np.asarray(owners, dtype=np.int64)
        requests: "list[Request]" = []
        for dest in dict.fromkeys(owners.tolist()):  # first-appearance order
            mask = owners == dest
            requests.append(
                Request(
                    req_id=self._next_req_id,
                    kind=kind,
                    src_part=src_part,
                    dst_part=dest,
                    vertices=vertices[mask],
                    body=None if rows is None else rows[mask],
                )
            )
            self._next_req_id += 1
        return requests

    # ------------------------------------------------------------------ #
    # The deterministic event loop
    # ------------------------------------------------------------------ #
    def _serve(self, req: Request) -> "tuple[object, dict[int, bool], int]":
        """Execute ``req`` on its destination shard.

        Returns ``(payload, meta, n_items)``. A neighbors payload is the
        shard's :class:`~repro.storage.server.RowBlock` for the request's
        vertices, and ``n_items`` its edge count; an attribute payload maps
        each vertex to its row, and ``meta`` says whether that row was
        already in the IV cache (the store charges decode vs cache-hit
        events from it). Registered service kinds dispatch to their handler
        instead.
        """
        handler = self._services.get(req.kind)
        if handler is not None:
            return handler(req)
        server = self.store.servers[req.dst_part]
        if req.kind == KIND_NEIGHBORS:
            block = server.local_rows(req.vertices)
            return block, {}, int(block.offsets[-1])
        payload = {}
        meta: "dict[int, bool]" = {}
        for v in req.vertices.tolist():
            meta[v] = v in server.attrs.iv_cache
            payload[v] = server.local_vertex_attr(v)
        return payload, meta, sum(map(len, payload.values()))

    def execute(self, requests: "list[Request]") -> "list[Response]":
        """Run ``requests`` to completion; responses align with the input.

        Deliveries are ordered by ``(ready time, submission sequence)`` on
        the virtual clock. Drops and timeouts consume an attempt and are
        rescheduled after :data:`TIMEOUT_US` plus the retry policy's backoff;
        a request that exhausts its attempt budget yields a failed
        :class:`Response` (the store decides between failover and raising).
        """
        if not requests:
            return []
        with self.tracer.span("rpc.execute", requests=len(requests)) as exec_span:
            submit_us = self.clock.now_us
            heap: "list[tuple[float, int, Request]]" = []
            for req in requests:
                self._seq += 1
                heapq.heappush(heap, (submit_us, self._seq, req))
                self._requests.inc()
                self._batch_size.observe(req.vertices.size)
            responses: "dict[int, Response]" = {}
            while heap:
                ready_us, _, req = heapq.heappop(heap)
                response = self._deliver(req, ready_us, submit_us, exec_span)
                if response is not None:
                    responses[req.req_id] = response
                    continue
                self.metrics.counter("rpc.retries").inc()
                backoff = self.retry.backoff_us(req.attempt)
                self._seq += 1
                heapq.heappush(
                    heap,
                    (
                        ready_us + TIMEOUT_US + backoff,
                        self._seq,
                        replace(req, attempt=req.attempt + 1),
                    ),
                )
            return [responses[req.req_id] for req in requests]

    def _deliver(
        self, req: Request, ready_us: float, submit_us: float, exec_span: "object"
    ) -> "Response | None":
        """Process one scheduled delivery; ``None`` means "retry it"."""
        tracer = self.tracer
        cost = self.store.cost_model
        self.clock.advance_to(ready_us)
        # Fail-stop membership is authoritative: a request addressed to
        # a worker the store has declared down fails immediately — no
        # retries (the server will never answer), no fault roll. The
        # store's routing avoids dispatching these; this is the
        # runtime-level guarantee that a downed shard cannot serve.
        if req.dst_part in self.store.failed_workers:
            self.metrics.counter("rpc.unreachable").inc()
            tracer.record_span(
                "rpc.request",
                ready_us,
                ready_us,
                part=req.dst_part,
                kind=req.kind,
                outcome="unreachable",
            )
            return Response(
                req_id=req.req_id,
                ok=False,
                attempts=req.attempt,
                error=(
                    f"{req.kind} request to server {req.dst_part}: "
                    "server is down (fail-stop)"
                ),
            )
        self._attempts.inc()
        outcome = self.faults.roll() if self.faults is not None else OUTCOME_OK
        if outcome != OUTCOME_OK:
            self.health.record_failure(req.dst_part)
            self.metrics.counter(f"rpc.{outcome}s").inc()
            tracer.record_span(
                "rpc.attempt",
                ready_us,
                ready_us + TIMEOUT_US,
                part=req.dst_part,
                kind=req.kind,
                attempt=req.attempt,
                outcome=outcome,
            )
            if req.attempt < self.retry.max_attempts:
                return None
            exec_span.event("rpc.retry_exhausted", req.dst_part)
            return Response(
                req_id=req.req_id,
                ok=False,
                attempts=req.attempt,
                error=(
                    f"{req.kind} request to server {req.dst_part} "
                    f"{outcome}ped past the retry budget"
                    if outcome == "drop"
                    else f"{req.kind} request to server {req.dst_part} "
                    f"timed out past the retry budget"
                ),
            )
        self.health.record_success(req.dst_part)
        payload, meta, n_items = self._serve(req)
        factor = (
            self.faults.service_factor(req.dst_part)
            if self.faults is not None
            else 1.0
        )
        service_us = (
            cost.remote_rpc_us + cost.item_shipped_us * n_items
        ) * factor
        done_us = ready_us + service_us
        self.clock.advance_to(done_us)
        latency = done_us - submit_us
        self._completed.inc()
        part = req.dst_part
        served = self._served.get(part) or self._served.setdefault(
            part, self.metrics.counter("server.served", labels={"part": part})
        )
        served.inc()
        self._latency_us.observe(latency)
        tracer.record_span(
            "rpc.request",
            ready_us,
            done_us,
            part=req.dst_part,
            kind=req.kind,
            vertices=req.vertices.size,
            attempt=req.attempt,
            latency_us=latency,
        )
        return Response(
            req_id=req.req_id,
            ok=True,
            payload=payload,
            meta=meta,
            n_items=n_items,
            attempts=req.attempt,
        )
