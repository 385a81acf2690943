"""Virtual-clock time series: periodic snapshots of the metrics registry.

Counters and histograms answer "how much, in total"; operators also need
"how did it evolve" — queue depth over the burst, p99 drift as the cache
warms, RPC rate around a failure. :class:`TimeSeriesSampler` turns the
registry into exactly that: on every crossed tick of the virtual clock it
snapshots each counter (value), gauge (value) and histogram (count plus
exact percentiles) into per-series ring buffers.

Sampling is **pull-based and deterministic**: a sampler rides the
:class:`~repro.runtime.rpc.RpcRuntime` as ``runtime.timeseries`` and the
instrumented subsystems call :meth:`TimeSeriesSampler.poll` at natural
points (the store after each resolved read batch, the serving engine after
each request); a sample is taken only when the clock has crossed the next
tick boundary — stamped *at the boundary*, so two same-seed runs produce
bit-identical series no matter how often either polls. ``None`` there
means off: un-instrumented runs pay one ``is not None`` check per batch
(see the ``instrument_overhead`` experiment).

Exports: plain dict (:meth:`to_dict`), CSV rows (:meth:`to_csv`) and
Chrome trace-event counter (``ph: "C"``) events that render as time-series
tracks alongside spans in Perfetto (:meth:`chrome_counter_events`).
"""

from __future__ import annotations

import math
from collections import deque
from operator import itemgetter

from repro.errors import ReproError
from repro.runtime.metrics import MetricsRegistry, _series_key

#: Histogram percentiles captured per snapshot.
PERCENTILES = (50.0, 95.0, 99.0)


class TimeSeriesSampler:
    """Snapshots a :class:`MetricsRegistry` on virtual-clock tick crossings.

    Parameters
    ----------
    metrics:
        The registry to snapshot (shared with the runtime / store).
    clock:
        Anything exposing ``now_us`` — normally the runtime's
        :class:`~repro.runtime.rpc.VirtualClock`.
    tick_us:
        Sampling period in (simulated) microseconds. A ``poll()`` that
        finds the clock past one or more boundaries records **one** sample
        stamped at the most recent boundary — ticks with no poll in
        between are coalesced, never back-filled, so series stay a pure
        function of (workload, seed, tick).
    capacity:
        Ring-buffer length per series; the oldest samples fall off first.

    Histograms are captured as their count and :data:`PERCENTILES`
    (p50/p95/p99, matching every latency table in the repo).
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        clock: "object",
        tick_us: float = 1000.0,
        capacity: int = 4096,
    ) -> None:
        if tick_us <= 0:
            raise ReproError(f"tick_us must be > 0, got {tick_us}")
        if capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity}")
        self.metrics = metrics
        self.clock = clock
        self.tick_us = float(tick_us)
        self.capacity = int(capacity)
        self._suffixes = tuple(f":p{p:g}" for p in PERCENTILES)
        #: ``(name, frozen labels, suffix)`` -> ring; exports name a ring by
        #: its rendered series key plus the suffix.
        self.series: "dict[tuple, deque]" = {}
        self.n_samples = 0
        # First sample lands on the first boundary strictly ahead of the
        # clock's position at construction time.
        self._next_due = (
            math.floor(float(clock.now_us) / self.tick_us) + 1
        ) * self.tick_us

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def _ring(self, metric: "object", suffix: str = "") -> deque:
        key = (metric.name, metric.labels, suffix)
        ring = self.series.get(key)
        if ring is None:
            ring = self.series[key] = deque(maxlen=self.capacity)
        return ring

    def _snapshot(self, t_us: float) -> None:
        for c in self.metrics.counters():
            self._ring(c).append((t_us, c.value))
        for g in self.metrics.gauges():
            self._ring(g).append((t_us, g.value))
        for h in self.metrics.histograms():
            self._ring(h, ":count").append((t_us, h.count))
            values = h.percentiles(PERCENTILES)
            for suffix, value in zip(self._suffixes, values):
                self._ring(h, suffix).append((t_us, value))
        self.n_samples += 1

    def _named(self) -> "list[tuple[str, deque]]":
        """``(export name, ring)`` for every series, sorted by name."""
        return sorted(
            (
                (_series_key(name, labels) + suffix, ring)
                for (name, labels, suffix), ring in self.series.items()
            ),
            key=itemgetter(0),
        )

    def poll(self) -> bool:
        """Sample if the clock has crossed the next tick; returns whether.

        Crossing several boundaries between polls records one sample at
        the latest boundary (coalescing, not back-filling).
        """
        now = float(self.clock.now_us)
        if now < self._next_due:
            return False
        t = math.floor(now / self.tick_us) * self.tick_us
        self._snapshot(t)
        self._next_due = t + self.tick_us
        return True

    def sample_now(self) -> None:
        """Take an unconditional sample stamped at the clock's position.

        For end-of-run flushes — the tick schedule is unaffected.
        """
        self._snapshot(float(self.clock.now_us))

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def to_csv(self) -> str:
        """``t_us,series,value`` rows, time-major then series-sorted."""
        rows = [(t, key, v) for key, ring in self._named() for t, v in ring]
        rows.sort(key=lambda r: (r[0], r[1]))
        lines = ["t_us,series,value"]
        for t, key, v in rows:
            lines.append(f"{t:g},{key},{v:g}")
        return "\n".join(lines) + "\n"

    def chrome_counter_events(self) -> "list[dict]":
        """Chrome trace-event counter (``ph: "C"``) events, Perfetto-ready.

        Merge these into a :func:`~repro.runtime.export.chrome_trace`
        payload's ``traceEvents`` to see metrics tracks under the spans.
        """
        events: "list[dict]" = []
        for key, ring in self._named():
            for t, v in ring:
                events.append(
                    {
                        "name": key,
                        "cat": "timeseries",
                        "ph": "C",
                        "ts": t,
                        "pid": 0,
                        "tid": 0,
                        "args": {"value": v},
                    }
                )
        events.sort(key=lambda ev: (ev["ts"], ev["name"]))
        return events
