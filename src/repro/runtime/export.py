"""Exporters: Chrome trace-event JSON and Prometheus text exposition.

Two standard observability surfaces over the runtime's tracing and metrics:

* :func:`chrome_trace` — converts a :class:`~repro.runtime.tracing.Tracer`'s
  spans into the Chrome trace-event format (``{"traceEvents": [...]}`` with
  ``ph: "X"`` complete events and ``ph: "i"`` instants), loadable directly
  in Perfetto / ``chrome://tracing``. Timestamps are already microseconds —
  the trace-event native unit — so spans render at simulated-time scale.
* :func:`prometheus_text` — renders a
  :class:`~repro.runtime.metrics.MetricsRegistry` in the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` + samples). Counters map to
  ``counter``, gauges to ``gauge`` (plus a ``_high_water`` companion),
  histograms to ``summary`` with exact 0.5/0.95/0.99 quantiles. Labeled
  metrics (per-server, per-edge-type) render as label sets on one family.

Both formats are validated in CI by ``tests/format_checkers.py``.
"""

from __future__ import annotations

import re

from repro.runtime.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.runtime.tracing import Tracer

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: Quantiles exposed per histogram in the Prometheus summary rendering.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def _sanitize(name: str) -> str:
    """A metric name valid under the Prometheus data model."""
    name = _NAME_OK.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _escape_label_value(value: object) -> str:
    """A label value escaped per the text exposition format 0.0.4.

    Backslash, double-quote and line feed are the three characters the
    spec requires escaping inside quoted label values; everything else
    passes through verbatim. Backslash must go first or it would
    double-escape the other two.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_str(labels: "tuple[tuple[str, str], ...] | None", extra: "dict | None" = None) -> str:
    pairs = list(labels or ())
    if extra:
        pairs.extend(extra.items())
    if not pairs:
        return ""
    body = ",".join(
        f'{_sanitize(k)}="{_escape_label_value(v)}"' for k, v in pairs
    )
    return "{" + body + "}"


def _fmt(value: float) -> str:
    """Float formatting with exact ints kept integral."""
    f = float(value)
    return repr(int(f)) if f == int(f) else repr(f)


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (0.0.4)."""
    families: "dict[str, tuple[str, list]]" = {}

    def add(metric: "Counter | Gauge | Histogram", kind: str) -> None:
        base = _sanitize(metric.name)
        families.setdefault(base, (kind, []))[1].append(metric)

    for metric in registry.counters():
        add(metric, "counter")
    for metric in registry.gauges():
        add(metric, "gauge")
    for metric in registry.histograms():
        add(metric, "summary")

    if not families:
        return ""
    lines: "list[str]" = []
    for base in sorted(families):
        kind, metrics = families[base]
        lines.append(f"# HELP {base} {kind} exported from the repro runtime")
        lines.append(f"# TYPE {base} {kind}")
        if kind == "gauge":
            hw_lines = []
        for m in metrics:
            labels = getattr(m, "labels", None)
            if kind == "counter":
                lines.append(f"{base}{_label_str(labels)} {m.value}")
            elif kind == "gauge":
                lines.append(f"{base}{_label_str(labels)} {_fmt(m.value)}")
                hw_lines.append(
                    f"{base}_high_water{_label_str(labels)} {_fmt(m.high_water)}"
                )
            else:
                values = m.percentiles([q * 100.0 for q in SUMMARY_QUANTILES])
                for q, value in zip(SUMMARY_QUANTILES, values):
                    lines.append(
                        f"{base}{_label_str(labels, {'quantile': repr(q)})} "
                        f"{_fmt(value)}"
                    )
                lines.append(f"{base}_sum{_label_str(labels)} {_fmt(m.total)}")
                lines.append(f"{base}_count{_label_str(labels)} {m.count}")
        if kind == "gauge" and hw_lines:
            lines.append(
                f"# HELP {base}_high_water high-water mark of {base}"
            )
            lines.append(f"# TYPE {base}_high_water gauge")
            lines.extend(hw_lines)
    return "\n".join(lines) + "\n"


def chrome_trace(tracer: Tracer) -> dict:
    """Tracer spans as a Chrome trace-event JSON object (Perfetto-ready).

    Each trace renders as its own ``tid`` row; span attributes, ids and
    ledger-correlation events travel in ``args`` so the Perfetto UI shows
    the full cross-reference on click.
    """
    tid_of: "dict[str, int]" = {}
    events: "list[dict]" = []
    for trace_id in tracer.traces():
        tid_of[trace_id] = len(tid_of)
    for sp in tracer.spans:
        tid = tid_of[sp.trace_id]
        end_us = sp.end_us if sp.end_us is not None else sp.start_us
        args = {
            "trace_id": sp.trace_id,
            "span_id": sp.span_id,
            "parent_id": sp.parent_id,
        }
        args.update({str(k): v for k, v in sp.attrs.items()})
        events.append(
            {
                "name": sp.name,
                "cat": sp.name.split(".", 1)[0],
                "ph": "X",
                "ts": sp.start_us,
                "dur": end_us - sp.start_us,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
        for t_us, ev_name, value in sp.events:
            events.append(
                {
                    "name": ev_name,
                    "cat": "event",
                    "ph": "i",
                    "ts": t_us,
                    "pid": 0,
                    "tid": tid,
                    "s": "t",
                    "args": {"span_id": sp.span_id, "value": value},
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.runtime.export",
            "seed": tracer.seed,
            "n_traces": len(tid_of),
            "n_ledger_rows": len(tracer.ledger_rows),
            "dropped_spans": tracer.dropped,
        },
    }
