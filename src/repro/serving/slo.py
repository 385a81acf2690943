"""SLO reporting: per-class latency tails, goodput and loss accounting.

A serving tier is judged against its service-level objectives, not its
means: the questions are "what is the p99 per request class?", "how many
answers arrived *within deadline* per second?" (goodput) and "how much
load was shed or expired?". :func:`build_slo_report` folds a request trace
(the :class:`~repro.serving.requests.ServeRecord` list an engine run
returns) into exactly those rows, using the registry's exact nearest-rank
percentiles so the numbers match every other latency table in the repo.

Reports are plain data (:meth:`SLOReport.to_dict` is JSON-ready) and are
**bit-comparable**: the determinism tests and
the serving bench assert equality of whole reports across same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.metrics import Histogram
from repro.serving.requests import (
    OUTCOME_DEADLINE,
    OUTCOME_LATE,
    OUTCOME_OK,
    OUTCOME_SHED,
    REQUEST_CLASSES,
)


@dataclass
class SLOClassReport:
    """SLO outcome of one request class."""

    cls: str
    requests: int = 0
    ok: int = 0
    late: int = 0
    shed: int = 0
    expired: int = 0
    cache_hits: int = 0
    p50_us: float = 0.0
    p95_us: float = 0.0
    p99_us: float = 0.0
    mean_us: float = 0.0

    @property
    def completed(self) -> int:
        """Requests that received an answer (in or out of deadline)."""
        return self.ok + self.late

    def to_dict(self) -> dict:
        return {
            "class": self.cls,
            "requests": self.requests,
            "ok": self.ok,
            "late": self.late,
            "shed": self.shed,
            "expired": self.expired,
            "cache_hits": self.cache_hits,
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "mean_us": self.mean_us,
        }


@dataclass
class SLOReport:
    """The full SLO table of one serving run."""

    duration_us: float
    classes: "list[SLOClassReport]" = field(default_factory=list)

    def class_report(self, cls: str) -> SLOClassReport:
        """The row for request class ``cls``."""
        for row in self.classes:
            if row.cls == cls:
                return row
        raise KeyError(cls)

    @property
    def goodput_rps(self) -> float:
        """In-deadline answers per simulated second, all classes."""
        if self.duration_us <= 0:
            return 0.0
        return sum(r.ok for r in self.classes) / (self.duration_us / 1e6)

    def to_dict(self) -> dict:
        """JSON-ready payload (the determinism comparison unit)."""
        return {
            "duration_us": self.duration_us,
            "goodput_rps": round(self.goodput_rps, 6),
            "classes": [r.to_dict() for r in self.classes],
        }

def build_slo_report(
    records: "list",
    duration_us: "float | None" = None,
) -> SLOReport:
    """Fold a request trace into an :class:`SLOReport`.

    ``duration_us`` defaults to the last terminal event's timestamp, so
    goodput is measured over the span the trace actually covers. Latency
    percentiles are computed over *answered* requests only (ok + late);
    shed and expired requests are counted, not averaged in — a shed
    request has no latency, it has an outcome.
    """
    if duration_us is None:
        duration_us = max((r.end_us for r in records), default=0.0)
    report = SLOReport(duration_us=float(duration_us))
    for cls in REQUEST_CLASSES:
        row = SLOClassReport(cls=cls)
        lat = Histogram(f"slo.{cls}")
        for rec in records:
            if rec.cls != cls:
                continue
            row.requests += 1
            if rec.cache_hit:
                row.cache_hits += 1
            if rec.outcome == OUTCOME_OK:
                row.ok += 1
            elif rec.outcome == OUTCOME_LATE:
                row.late += 1
            elif rec.outcome == OUTCOME_SHED:
                row.shed += 1
            elif rec.outcome == OUTCOME_DEADLINE:
                row.expired += 1
            if rec.outcome in (OUTCOME_OK, OUTCOME_LATE):
                lat.observe(rec.latency_us)
        if lat.count:
            row.p50_us, row.p95_us, row.p99_us = lat.percentiles((50, 95, 99))
            row.mean_us = round(lat.mean, 3)
        if row.requests:
            report.classes.append(row)
    return report
