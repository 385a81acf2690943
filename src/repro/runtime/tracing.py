"""Deterministic request tracing: spans, ledger correlation, stage profiling.

Production GNN platforms answer "where did this sampling request spend its
time?" with distributed tracing; the AliGraph paper's §5 cost breakdown
(storage vs cache vs RPC vs operators) is exactly a span tree aggregated
over many requests. This module gives the simulation the same substrate:

* :class:`Span` — one timed operation with parent/child links, static
  attributes and timestamped events;
* :class:`Tracer` — seeded, virtual-clock span factory. Span and trace ids
  come from ``(seed, counter)``, timestamps from the runtime's
  :class:`~repro.runtime.rpc.VirtualClock`, so two runs with the same seed
  produce **bit-identical traces**. Spans cover the whole read path —
  ``pipeline.sample`` → ``store.resolve_read`` → ``batch.plan`` →
  ``rpc.execute`` → per-request ``rpc.request`` — with cache hit/miss,
  failover, suspect-route, retry and degraded-read activity stamped on via
  the cost-ledger hook (see :meth:`Tracer.bind_ledger`);
* :class:`StageProfiler` — buckets each training step of the Algorithm-1
  framework into sample / materialize / aggregate / combine / backward /
  optimizer stage spans; its totals are group-bys over those spans.

Tracing is **opt-in and pay-for-what-you-use**: the shared
:data:`NULL_TRACER` answers every call with no-ops, so the instrumented
hot paths cost one attribute check when tracing is off (experiment
``instrument_overhead`` counts the calls they make).

Exporters (Chrome trace-event JSON for Perfetto, Prometheus text
exposition) live in :mod:`repro.runtime.export`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


#: Canonical training-step stages bucketed by :class:`StageProfiler`.
TRAIN_STAGES = (
    "sample",
    "materialize",
    "aggregate",
    "combine",
    "backward",
    "optimizer",
)


@dataclass
class Span:
    """One timed operation inside a trace.

    ``attrs`` are static key/values set at open (or via :meth:`annotate`);
    ``events`` are timestamped ``[t_us, name, value]`` rows — ledger events
    recorded while the span is active land here as ``ledger:<event>``.
    """

    trace_id: str
    span_id: str
    parent_id: "str | None"
    name: str
    start_us: float
    end_us: "float | None" = None
    attrs: dict = field(default_factory=dict)
    events: "list[list]" = field(default_factory=list)
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    @property
    def duration_us(self) -> float:
        """Span duration (0.0 while still open)."""
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def annotate(self, **attrs: object) -> "Span":
        """Attach static attributes to this span (returns self)."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, value: object = 1) -> None:
        """Record a timestamped event on this span."""
        t = self._tracer._now_us() if self._tracer is not None else self.start_us
        self.events.append([t, name, value])

    # Context-manager protocol: entering pushes the span on its tracer's
    # stack, exiting closes it. Spans are minted by Tracer.span().
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._tracer is not None:
            self._tracer._close(self)


class _NullSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def annotate(self, **attrs: object) -> "_NullSpan":
        return self

    def event(self, name: str, value: object = 1) -> None:
        return None


#: The singleton no-op span every disabled tracer hands out.
NULL_SPAN = _NullSpan()


class Tracer:
    """Seeded, deterministic span factory shared by a whole read path.

    One tracer instance is threaded through the pipeline, the store and
    the RPC runtime; its span stack links nested operations into one
    trace (a span opened with an empty stack starts a new trace). With a
    virtual ``clock`` (anything exposing ``now_us``) timestamps are
    simulated microseconds and traces replay bit-identically at a fixed
    seed; without one, wall-clock microseconds are the explicit fallback.
    """

    def __init__(
        self,
        clock: "object | None" = None,
        seed: int = 0,
        enabled: bool = True,
        max_spans: int = 1_000_000,
    ) -> None:
        self.clock = clock
        self.seed = int(seed)
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: "list[Span]" = []
        #: Spans discarded because :attr:`spans` already held ``max_spans``.
        self.dropped = 0
        self._stack: "list[Span]" = []
        self._next_trace = 0
        self._next_span = 0

    # ------------------------------------------------------------------ #
    # Time and ids
    # ------------------------------------------------------------------ #
    def _now_us(self) -> float:
        if self.clock is not None:
            return float(self.clock.now_us)
        return time.perf_counter() * 1e6

    def _trace_id(self) -> str:
        self._next_trace += 1
        return f"{self.seed & 0xFFFF:04x}t{self._next_trace:08x}"

    def _span_id(self) -> str:
        self._next_span += 1
        return f"{self.seed & 0xFFFF:04x}s{self._next_span:010x}"

    # ------------------------------------------------------------------ #
    # Span lifecycle
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: object) -> "Span | _NullSpan":
        """Open a span (use as a context manager).

        The span becomes a child of the innermost open span; with an empty
        stack it roots a fresh trace.
        """
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            trace_id=parent.trace_id if parent else self._trace_id(),
            span_id=self._span_id(),
            parent_id=parent.span_id if parent else None,
            name=name,
            start_us=self._now_us(),
            attrs=attrs,
            _tracer=self,
        )
        self._admit(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end_us = self._now_us()
        # Close any children left open by an exception unwinding past them.
        while self._stack and self._stack[-1] is not sp:
            dangling = self._stack.pop()
            dangling.end_us = sp.end_us
        if self._stack:
            self._stack.pop()

    def record_span(
        self,
        name: str,
        start_us: float,
        end_us: float,
        **attrs: object,
    ) -> "Span | None":
        """Record an already-timed span as a child of the current span.

        The RPC event loop interleaves requests in virtual time, so their
        spans are recorded with explicit timestamps rather than nested
        ``with`` blocks.
        """
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            trace_id=parent.trace_id if parent else self._trace_id(),
            span_id=self._span_id(),
            parent_id=parent.span_id if parent else None,
            name=name,
            start_us=float(start_us),
            end_us=float(end_us),
            attrs=attrs,
            _tracer=self,
        )
        self._admit(sp)
        return sp

    def _admit(self, sp: Span) -> None:
        if len(self.spans) < self.max_spans:
            self.spans.append(sp)
        else:
            self.dropped += 1

    # ------------------------------------------------------------------ #
    # Ledger correlation
    # ------------------------------------------------------------------ #
    def bind_ledger(self, accumulator: "object") -> None:
        """Stamp this tracer's ids onto ``accumulator``'s recorded events.

        Every :meth:`~repro.utils.timer.CostAccumulator.record` call made
        while a span is open lands on that span as a ``ledger:<event>``
        event carrying its ``times``; :attr:`ledger_rows` reads them back.
        """
        if self.enabled:
            accumulator.trace_hook = self.on_ledger_event

    def on_ledger_event(self, event: str, times: int) -> None:
        """Ledger hook target; correlates one ``record`` call with a span."""
        if self._stack:
            self._stack[-1].events.append([self._now_us(), f"ledger:{event}", times])

    @property
    def ledger_rows(self) -> "list[list]":
        """The ledger<->trace correlation table, read off the stored spans.

        One ``[t_us, trace_id, span_id, event, times]`` row per ``record``
        call, in span-open order, then record order within a span. The
        store charges a read batch per arm, so the contract is the sum of
        ``times`` per (span, event), not the number or order of rows. A
        span dropped past ``max_spans`` takes its rows with it (``dropped``
        counts it; the ledger keeps every count), so the table is bounded.
        """
        return [
            [t, sp.trace_id, sp.span_id, name[len("ledger:"):], times]
            for sp in self.spans
            for t, name, times in sp.events
            if name.startswith("ledger:")
        ]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def traces(self) -> "list[str]":
        """Trace ids in first-span order."""
        seen: "dict[str, None]" = {}
        for sp in self.spans:
            seen.setdefault(sp.trace_id, None)
        return list(seen)

    def trace_spans(self, trace_id: str) -> "list[Span]":
        """All spans of one trace, in open order."""
        return [sp for sp in self.spans if sp.trace_id == trace_id]


#: Shared disabled tracer: the default wired into every runtime. All of
#: its methods are no-ops (``enabled`` is False), so untraced hot paths
#: pay only the call into them.
NULL_TRACER = Tracer(enabled=False)


class StageProfiler:
    """Buckets training steps into the canonical Algorithm-1 stages.

    Each stage runs under a ``train.<stage>`` span and :meth:`step` wraps
    one optimizer step in a ``train.step`` span, all on one tracer; the
    totals and the per-step times ("which stage dominates a step") are
    group-bys over those spans. Attach one to a
    :class:`~repro.algorithms.framework.GNNFramework` via its ``profiler``
    argument.

    Training stages do real computation, so the default tracer is on the
    wall clock; pass a ``Tracer(clock=...)`` for deterministic simulated
    timings in tests.
    """

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()

    def stage(self, name: str) -> "Span | _NullSpan":
        """Context manager timing one stage of the current step."""
        return self.tracer.span(f"train.{name}")

    def step(self) -> "Span | _NullSpan":
        """Context manager wrapping one whole training step."""
        return self.tracer.span("train.step")

    def _durations(self, name: str) -> "list[float]":
        return [sp.duration_us for sp in self.tracer.spans if sp.name == name]

    def step_us(self) -> "list[float]":
        """Duration of every step, in order."""
        return self._durations("train.step")

    def stage_totals(self) -> "dict[str, float]":
        """Total microseconds per stage (stages never hit report 0.0)."""
        return {
            name: sum(self._durations(f"train.{name}"), 0.0) for name in TRAIN_STAGES
        }

#: Shared disabled profiler: what ``profiler=None`` means in every trainer.
NULL_PROFILER = StageProfiler(NULL_TRACER)
