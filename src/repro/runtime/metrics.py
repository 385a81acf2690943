"""Metrics registry for the simulated RPC runtime.

Production graph platforms expose their serving behaviour through counters
(requests, retries, drops), gauges (queue depths) and latency histograms;
this module provides the same three primitives behind a single
:class:`MetricsRegistry` that the runtime, the distributed store and the
sampling pipeline share. Stage *times* are not metrics: they are tracer
spans (:mod:`repro.runtime.tracing`).

Metrics may carry **labels** (``counter("server.served", labels={"part":
"2"})``): each label set is its own time series under one family name,
which is how the per-server and per-edge-type breakdowns export to
Prometheus (:mod:`repro.runtime.export`). A series *is* its name plus its
frozen label tuple; the rendered ``name{k=v,...}`` string only orders and
names series in exports, and a repeated lookup costs one dict probe.

Everything is plain Python and deterministic: histograms keep their raw
observations (the simulation's scales are small), so percentiles are exact
and two runs with the same seed produce bit-identical summaries. The
registry reads no clock; its latency histograms are observed in the
virtual-clock microseconds their callers computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

from repro.errors import RuntimeConfigError

#: Frozen ``((key, value), ...)`` form of a label dict.
LabelSet = "tuple[tuple[str, str], ...] | None"


def _freeze_labels(labels: "dict[str, object] | None") -> "LabelSet":
    if not labels:
        return None
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(text: str) -> str:
    """``text`` with the separators of a rendered label set escaped."""
    return text.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")


def _series_key(name: str, labels: "LabelSet") -> str:
    """``name{k=v,...}`` — distinct label sets never render alike."""
    if not labels:
        return name
    body = ",".join(f"{_escape(k)}={_escape(v)}" for k, v in labels)
    return name + "{" + body + "}"


@dataclass
class Counter:
    """A monotonically increasing event count."""

    name: str
    value: int = 0
    labels: "LabelSet" = None

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise RuntimeConfigError(f"counter increment must be >= 0, got {n}")
        self.value += n


@dataclass
class Gauge:
    """A point-in-time value with a tracked maximum (high-water mark)."""

    name: str
    value: float = 0.0
    high_water: float = 0.0
    labels: "LabelSet" = None

    def set(self, value: float) -> None:
        """Set the current value, updating the high-water mark."""
        self.value = float(value)
        self.high_water = max(self.high_water, self.value)


@dataclass
class Histogram:
    """Exact distribution of observed values (latencies, batch sizes)."""

    name: str
    samples: list = field(default_factory=list)
    labels: "LabelSet" = None
    _total: float = field(default=0.0, repr=False, compare=False)
    #: Sorted view of ``samples``, kept from one percentile query to the
    #: next ``observe`` (the time-series sampler queries every tick).
    _sorted: "list | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._total = float(sum(self.samples))

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.samples.append(value)
        self._total += value
        self._sorted = None

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self.samples)

    @property
    def total(self) -> float:
        """Sum of observations (tracked incrementally, not re-summed)."""
        return self._total

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self._total / self.count if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile ``p`` in [0, 100] (0.0 when empty)."""
        return self.percentiles((p,))[0]

    def percentiles(self, ps: "tuple[float, ...] | list[float]") -> "list[float]":
        """Nearest-rank percentiles for every ``p`` in ``ps``.

        The sample list is sorted at most once per ``observe``: repeated
        queries between observations (summary tables, the Prometheus
        exporter, SLO reports, the per-tick time-series sampler) reuse the
        sorted view.
        """
        for p in ps:
            if not 0.0 <= p <= 100.0:
                raise RuntimeConfigError(f"percentile must be in [0, 100], got {p}")
        if not self.samples:
            return [0.0 for _ in ps]
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        ordered = self._sorted
        return [
            ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1] for p in ps
        ]


class MetricsRegistry:
    """Get-or-create registry of counters, gauges and histograms.

    Each ``(name, labels)`` pair is one independent series; the optional
    ``labels`` dict is frozen into the metric for exporters to render.
    """

    def __init__(self) -> None:
        #: Per kind: ``(name, frozen labels)`` -> ``(rendered key, series)``.
        self._tables: "dict[type, dict[tuple, tuple[str, object]]]" = {
            Counter: {}, Gauge: {}, Histogram: {}
        }
        #: A call site's ``(kind, name, *keys, *str(values))`` -> series:
        #: a repeated lookup neither sorts nor renders its labels.
        self._memo: "dict[tuple, object]" = {}

    def _series(
        self, kind: type, name: str, labels: "dict[str, object] | None"
    ) -> object:
        key = (kind, name, *labels, *map(str, labels.values())) if labels else (kind, name)
        series = self._memo.get(key)
        if series is None:
            frozen = _freeze_labels(labels)
            table = self._tables[kind]
            entry = table.get((name, frozen))
            if entry is None:
                entry = (_series_key(name, frozen), kind(name, labels=frozen))
                table[(name, frozen)] = entry
            series = entry[1]
            # Values enter the key as their str, so 1, 1.0 and True stay
            # three series; keys enter raw, so only str keys are memoised.
            if all(type(k) is str for k in labels or ()):
                self._memo[key] = series
        return series

    def _ordered(self, kind: type) -> "list[tuple[str, object]]":
        return sorted(self._tables[kind].values(), key=itemgetter(0))

    def counter(
        self, name: str, labels: "dict[str, object] | None" = None
    ) -> Counter:
        """The counter series ``(name, labels)`` (created on first use)."""
        return self._series(Counter, name, labels)

    def gauge(
        self, name: str, labels: "dict[str, object] | None" = None
    ) -> Gauge:
        """The gauge series ``(name, labels)`` (created on first use)."""
        return self._series(Gauge, name, labels)

    def histogram(
        self, name: str, labels: "dict[str, object] | None" = None
    ) -> Histogram:
        """The histogram series ``(name, labels)`` (created on first use)."""
        return self._series(Histogram, name, labels)

    def counters(self) -> "list[Counter]":
        """All counter series, ordered by series key."""
        return [c for _, c in self._ordered(Counter)]

    def gauges(self) -> "list[Gauge]":
        """All gauge series, ordered by series key."""
        return [g for _, g in self._ordered(Gauge)]

    def histograms(self) -> "list[Histogram]":
        """All histogram series, ordered by series key."""
        return [h for _, h in self._ordered(Histogram)]

    def summary_rows(self) -> "list[list]":
        """Rows of ``[name, type, count/value, mean, p50, p95, p99]``, sorted.

        Histograms report the full tail (p50/p95/p99) so SLO tables — the
        serving tier's per-class latency rows included — come straight from
        the registry without re-deriving percentiles.
        """
        rows: list[list] = []
        for name, c in self._ordered(Counter):
            rows.append([name, "counter", c.value, "", "", "", ""])
        for name, g in self._ordered(Gauge):
            rows.append(
                [name, "gauge", g.value, "", "", f"hw={g.high_water:.4g}", ""]
            )
        for name, h in self._ordered(Histogram):
            p50, p95, p99 = h.percentiles((50, 95, 99))
            rows.append(
                [
                    name,
                    "histogram",
                    h.count,
                    round(h.mean, 3),
                    round(p50, 3),
                    round(p95, 3),
                    round(p99, 3),
                ]
            )
        return rows
