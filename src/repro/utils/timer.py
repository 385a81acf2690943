"""Simulated-cost accounting.

The paper's system experiments (Figures 7–9, Tables 4–5) were measured on an
Alibaba production cluster. We reproduce them on one machine with
:class:`CostAccumulator` — exact event counting (local reads, remote RPCs,
cache hits, bytes moved) converted to modelled time through a calibratable
per-event cost table. The *shape* of every storage-layer result depends only
on these counts, which we measure exactly. (Wall-clock columns, where a
claim is about recomputation avoided, are taken by the benchmarks
themselves with ``time.perf_counter``.)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import StorageError


@dataclass
class CostAccumulator:
    """Counts named events and prices them with a per-event cost table.

    ``costs`` maps event name -> cost in *microseconds per event*; events
    without a price contribute zero time but are still counted (useful for
    pure bookkeeping like ``bytes_sent``).

    ``trace_hook`` is the tracing layer's tap: when set (see
    :meth:`repro.runtime.tracing.Tracer.bind_ledger`) every recorded event
    is also stamped onto the active trace span, giving each ledger row a
    ``(trace_id, span_id)`` cross-reference. Untraced runs pay one ``is
    None`` check per record.
    """

    costs: dict[str, float] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    trace_hook: "object | None" = field(default=None, repr=False, compare=False)

    def record(self, event: str, times: int = 1) -> None:
        """Record ``times`` occurrences of ``event``."""
        if times < 0:
            raise StorageError(f"cannot record a negative count: {times}")
        self.counts[event] += times
        if self.trace_hook is not None:
            self.trace_hook(event, times)

    def count(self, event: str) -> int:
        """Occurrences recorded for ``event`` so far."""
        return self.counts[event]

    def modelled_micros(self) -> float:
        """Total modelled time in microseconds under the cost table."""
        return sum(self.costs.get(ev, 0.0) * n for ev, n in self.counts.items())

    def modelled_millis(self) -> float:
        """Total modelled time in milliseconds."""
        return self.modelled_micros() / 1000.0

    def merge(self, other: "CostAccumulator") -> "CostAccumulator":
        """Fold another accumulator's counts into this one (returns self).

        Per-server runtime ledgers combine into a cluster-wide view this
        way; prices missing from this accumulator's table are adopted from
        ``other`` so the merged modelled time stays complete.
        """
        self.counts.update(other.counts)
        for event, price in other.costs.items():
            self.costs.setdefault(event, price)
        return self

    def summary(self) -> str:
        """Readable per-event breakdown: count, unit price, modelled time.

        Events are ordered by modelled-time contribution (heaviest first),
        then alphabetically, with a total row — printable as-is by benchmarks
        instead of ad-hoc dict poking.
        """
        lines = [f"{'event':<16} {'count':>10} {'us/event':>10} {'total_ms':>10}"]
        rows = sorted(
            self.counts.items(),
            key=lambda kv: (-self.costs.get(kv[0], 0.0) * kv[1], kv[0]),
        )
        for event, n in rows:
            price = self.costs.get(event, 0.0)
            lines.append(
                f"{event:<16} {n:>10} {price:>10.4g} {price * n / 1000.0:>10.4g}"
            )
        lines.append(
            f"{'TOTAL':<16} {sum(self.counts.values()):>10} {'':>10} "
            f"{self.modelled_millis():>10.4g}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        events = "+".join(f"{ev}:{n}" for ev, n in sorted(self.counts.items()))
        return (
            f"CostAccumulator({events or 'empty'}, "
            f"modelled={self.modelled_millis():.4g}ms)"
        )

    def reset(self) -> None:
        """Zero all counters (the cost table is kept)."""
        self.counts.clear()
