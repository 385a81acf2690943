"""Workload introspection: time series, critical paths, traffic mining.

``repro.obs`` consumes the observability streams the runtime already emits
— :class:`~repro.runtime.tracing.Tracer` spans, the
:class:`~repro.runtime.metrics.MetricsRegistry`, the cost ledger — and
turns them into answers: how metrics evolved over virtual time
(:mod:`~repro.obs.timeseries`), where each request's latency actually went
(:mod:`~repro.obs.critical_path`), and which vertices are hot and which reads
cross partitions (:mod:`~repro.obs.workload`).

Everything here is read-side: the only hooks on hot paths are the
``runtime.recorder`` / ``runtime.timeseries`` attributes of the
:class:`~repro.runtime.rpc.RpcRuntime`, ``None`` when off, which keep
disabled runs at one ``is not None`` check per read (experiment
``instrument_overhead`` counts the calls it makes). All reports
are plain dicts with stable ordering — two same-seed runs compare equal
with ``==``.
"""

from repro.obs.critical_path import (
    SEGMENTS,
    analyze,
    classify_span,
    critical_path,
)
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.workload import (
    ROUTES,
    AccessRecorder,
    WindowedAccessRecorder,
    cache_efficacy,
    fit_zipf,
    mine_workload,
)

__all__ = [
    "AccessRecorder",
    "ROUTES",
    "SEGMENTS",
    "TimeSeriesSampler",
    "WindowedAccessRecorder",
    "analyze",
    "cache_efficacy",
    "classify_span",
    "critical_path",
    "fit_zipf",
    "mine_workload",
]
