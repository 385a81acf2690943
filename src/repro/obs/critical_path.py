"""Critical-path analytics over the tracer's span forest.

A trace answers "what happened"; operators need "what should I make
faster". For every trace this module extracts the **critical path** — the
root-to-leaf chain found by always descending into the longest child — and
attributes each span's *self time* (duration minus the interval-union of
its children, clipped to the span) to one of a few canonical segments:

==============  ======================================================
segment         span names
==============  ======================================================
sample          ``pipeline.*``, ``train.sample``, ``serve.request``
materialize     ``store.resolve_read``, ``train.materialize``
rpc             ``rpc.request``, ``rpc.attempt``, ``batch.plan``
queue           ``rpc.execute`` self time (submit→drain slack)
aggregate       ``train.aggregate`` / ``train.combine``
other           everything else (``train.backward``, custom spans, ...)
==============  ======================================================

:func:`analyze` aggregates across all traces and answers the §5-style
question "where does p99 live": total and tail-only segment shares, with
the tail defined by the nearest-rank p99 of root-span durations — the same
percentile convention as ``Histogram.percentiles``. All outputs are plain
dicts with sorted/stable ordering, bit-identical across same-seed runs.
"""

from __future__ import annotations

import math

from repro.runtime.tracing import Span, Tracer

#: Canonical segments, in report order.
SEGMENTS = ("sample", "materialize", "rpc", "queue", "aggregate", "other")

_PREFIX_SEGMENTS = (
    ("pipeline.", "sample"),
    ("serve.", "sample"),
    ("store.", "materialize"),
    ("batch.", "rpc"),
    ("rpc.execute", "queue"),
    ("rpc.", "rpc"),
    ("train.sample", "sample"),
    ("train.materialize", "materialize"),
    ("train.aggregate", "aggregate"),
    ("train.combine", "aggregate"),
    ("emb.", "rpc"),
)


def classify_span(name: str) -> str:
    """Map a span name onto its canonical segment (first prefix wins)."""
    for prefix, segment in _PREFIX_SEGMENTS:
        if name.startswith(prefix):
            return segment
    return "other"


def _interval_union_us(intervals: "list[tuple[float, float]]") -> float:
    """Total length covered by possibly-overlapping ``(start, end)`` pairs."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_s, cur_e = intervals[0]
    for s, e in intervals[1:]:
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (cur_e - cur_s)


class _TraceIndex:
    """Children-by-parent index over one trace's spans."""

    def __init__(self, spans: "list[Span]") -> None:
        self.spans = spans
        self.children: "dict[str | None, list[Span]]" = {}
        for sp in spans:
            self.children.setdefault(sp.parent_id, []).append(sp)

    def roots(self) -> "list[Span]":
        return self.children.get(None, [])

    def self_time_us(self, sp: Span) -> float:
        """Span duration not covered by its children, clipped to the span."""
        if sp.end_us is None:
            return 0.0
        covered = _interval_union_us(
            [
                (max(c.start_us, sp.start_us), min(c.end_us, sp.end_us))
                for c in self.children.get(sp.span_id, [])
                if c.end_us is not None and c.end_us > sp.start_us
                and c.start_us < sp.end_us
            ]
        )
        return max(0.0, sp.duration_us - covered)


def critical_path(tracer: Tracer, trace_id: str) -> "list[dict]":
    """Root-to-leaf chain of one trace, always taking the longest child.

    Ties break on earliest start then span id, so the path is a pure
    function of the trace. Each row carries the span name, segment, total
    duration and self time.
    """
    index = _TraceIndex(tracer.trace_spans(trace_id))
    roots = index.roots()
    if not roots:
        return []
    path: "list[dict]" = []
    sp = max(roots, key=lambda s: (s.duration_us, -s.start_us, s.span_id))
    while sp is not None:
        path.append(
            {
                "span": sp.name,
                "segment": classify_span(sp.name),
                "duration_us": round(sp.duration_us, 3),
                "self_us": round(index.self_time_us(sp), 3),
            }
        )
        kids = index.children.get(sp.span_id, [])
        sp = (
            max(kids, key=lambda s: (s.duration_us, -s.start_us, s.span_id))
            if kids
            else None
        )
    return path


def _segment_totals(index: _TraceIndex) -> "dict[str, float]":
    totals = {seg: 0.0 for seg in SEGMENTS}
    for sp in index.spans:
        totals[classify_span(sp.name)] += index.self_time_us(sp)
    return totals


#: The tail an analysis isolates (nearest-rank percentile of latency).
TAIL_PCT = 99.0


def analyze(tracer: Tracer) -> dict:
    """Aggregate "where does the time (and the tail) live" across traces.

    Per trace the root span's duration is the request latency and each
    span's self time lands in its segment bucket. The tail set is every
    trace whose latency is >= the nearest-rank ``TAIL_PCT`` percentile of
    latencies, so ``segments_tail`` answers "where does p99 live" while
    ``segments_total`` covers the whole run.
    """
    per_trace: "list[dict]" = []
    for trace_id in tracer.traces():
        index = _TraceIndex(tracer.trace_spans(trace_id))
        roots = index.roots()
        if not roots:
            continue
        latency = max(r.duration_us for r in roots)
        per_trace.append(
            {
                "trace_id": trace_id,
                "root": max(
                    roots, key=lambda s: (s.duration_us, -s.start_us, s.span_id)
                ).name,
                "latency_us": round(latency, 3),
                "segments": {
                    seg: round(v, 3) for seg, v in _segment_totals(index).items()
                },
            }
        )
    if not per_trace:
        return {
            "n_traces": 0,
            "tail_pct": TAIL_PCT,
            "tail_threshold_us": 0.0,
            "n_tail": 0,
            "latency_us": {"p50": 0.0, "p95": 0.0, "p99": 0.0},
            "segments_total": {seg: 0.0 for seg in SEGMENTS},
            "segments_tail": {seg: 0.0 for seg in SEGMENTS},
            "traces": [],
        }

    latencies = sorted(t["latency_us"] for t in per_trace)
    n = len(latencies)

    def rank(p: float) -> float:
        # Nearest-rank, same convention as Histogram.percentiles.
        return latencies[max(1, math.ceil(p / 100.0 * n)) - 1]

    threshold = rank(TAIL_PCT)
    tail = [t for t in per_trace if t["latency_us"] >= threshold]

    def sum_segments(traces: "list[dict]") -> "dict[str, float]":
        totals = {seg: 0.0 for seg in SEGMENTS}
        for t in traces:
            for seg in SEGMENTS:
                totals[seg] += t["segments"][seg]
        return {seg: round(v, 3) for seg, v in totals.items()}

    return {
        "n_traces": n,
        "tail_pct": TAIL_PCT,
        "tail_threshold_us": round(threshold, 3),
        "n_tail": len(tail),
        "latency_us": {
            "p50": round(rank(50.0), 3),
            "p95": round(rank(95.0), 3),
            "p99": round(rank(99.0), 3),
        },
        "segments_total": sum_segments(per_trace),
        "segments_tail": sum_segments(tail),
        "traces": per_trace,
    }

