"""Simulated RPC runtime: the transport under the distributed graph store.

Production GNN platforms (the paper's §3.2 storage layer, DistDGL, GLISP)
treat cross-server traffic as a first-class subsystem: requests are batched
per destination, failures are expected and retried, and everything is
observable. This package brings those three concerns to the cluster
simulation:

* :mod:`repro.runtime.rpc` — request/response envelopes, the one planner
  that turns a read's remote arm into one request per owning server
  (``RpcRuntime.plan``) and a deterministic virtual-clock scheduler;
* :mod:`repro.runtime.faults` — seeded drop/timeout/slow-server injection
  plus a capped-exponential-backoff retry policy;
* :mod:`repro.runtime.metrics` — counters, gauges and latency histograms
  behind one registry (with per-server / per-edge-type labels);
* :mod:`repro.runtime.tracing` — deterministic trace/span infrastructure
  over the whole read path. Spans are the one timing record: the
  ledger<->trace correlation table and the training stage profile are
  group-bys over them;
* :mod:`repro.runtime.export` — Chrome trace-event JSON (Perfetto) and
  Prometheus text exposition.

:class:`~repro.storage.cluster.DistributedGraphStore` routes its batch read
entry points (``get_neighbors_batch`` / ``get_attrs_batch``) through an
:class:`RpcRuntime`; the samplers reach it through
``StoreProvider.frontier_block`` — one deduplicated batch read per hop.
"""

from repro.runtime.export import chrome_trace, prometheus_text, write_chrome_trace
from repro.runtime.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.runtime.health import (
    STATE_HEALTHY,
    STATE_SUSPECT,
    HealthTracker,
)
from repro.runtime.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.runtime.rpc import (
    KIND_ATTRS,
    KIND_NEIGHBORS,
    Request,
    Response,
    RpcRuntime,
    VirtualClock,
)
from repro.runtime.tracing import (
    NULL_PROFILER,
    NULL_TRACER,
    TRAIN_STAGES,
    Span,
    StageProfiler,
    Tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "StageProfiler",
    "NULL_PROFILER",
    "TRAIN_STAGES",
    "chrome_trace",
    "prometheus_text",
    "write_chrome_trace",
    "FaultInjector",
    "FaultPlan",
    "RetryPolicy",
    "HealthTracker",
    "STATE_HEALTHY",
    "STATE_SUSPECT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Request",
    "Response",
    "RpcRuntime",
    "VirtualClock",
    "KIND_NEIGHBORS",
    "KIND_ATTRS",
]
