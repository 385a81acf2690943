"""Spans recorded from outside the program, and the arithmetic on them.

The harness never edits the program under test: a layer boundary is a
public method on an instance the harness built (or, for code that builds
its own instance, a public method on the class), and :meth:`SpanRecorder.wrap`
replaces that attribute with a closure that opens a span around the call.
A span is ``(name, layer, start, end, parent)``; spans live in memory and
are written as Chrome-trace JSON when the benchmark ends.

A layer's *self time* is the duration of its spans minus the part of each
span covered by its child spans, so self times over all layers add up to
the root span — the conservation the harness asserts within 1 %.
"""

from __future__ import annotations

import json
import pstats
import time
from contextlib import contextmanager

#: ``py_calls.<bucket>`` names: the ``repro`` sub-packages plus the two
#: foreign buckets a sampling or training round spends its calls in.
PY_CALL_BUCKETS = (
    "graph", "storage", "runtime", "sampling", "ops", "nn", "algorithms",
    "serving", "obs", "utils", "numpy", "builtins",
)


class SpanRecorder:
    """In-memory span list with a parent stack (single thread)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, layer, start, end, parent_index]``; parent ``-1`` = root.
        self.spans: "list[list]" = []
        self.targets_missing = 0
        self._stack: "list[int]" = []
        self._undo: "list[tuple[object, str, object, bool]]" = []

    @contextmanager
    def span(self, name: str, layer: str):
        """Open a span under the innermost open one."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, layer, self.clock(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[3] = self.clock()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float, parent: int) -> None:
        """Record a span whose bounds were measured elsewhere."""
        self.spans.append([name, layer, start, end, parent])

    def wrap(self, owner: object, attr: str, layer: str, name: "str | None" = None) -> bool:
        """Record a span around every call of ``owner.attr`` from now on.

        ``owner`` is an instance (the bound method is shadowed by an
        instance attribute) or a class (the function is replaced, so
        instances the program builds itself are covered). A target that
        does not exist is counted in :attr:`targets_missing` and skipped:
        a refactor may rename a layer boundary without crashing the
        benchmark.
        """
        target = getattr(owner, attr, None)
        if not callable(target):
            self.targets_missing += 1
            return False
        owner_name = owner.__name__ if isinstance(owner, type) else type(owner).__name__
        label = name or f"{owner_name}.{attr}"
        recorder = self

        def traced(*args, **kwargs):
            with recorder.span(label, layer):
                return target(*args, **kwargs)

        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, traced)
        return True

    def unwrap_all(self) -> None:
        """Put back every attribute :meth:`wrap` replaced."""
        while self._undo:
            owner, attr, previous, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)


def _covered(intervals: "list[tuple[float, float]]") -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: "list[list]") -> "list[float]":
    """Per-span self time: duration minus the union of its children.

    Children are clipped to their parent first, so a child that sticks out
    of its parent (a span laid in from a duration measured elsewhere) can
    never push a self time below zero.
    """
    children: "dict[int, list[tuple[float, float]]]" = {}
    for _, _, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][2], spans[parent][3]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return [
        (end - start) - _covered(children.get(i, []))
        for i, (_, _, start, end, _) in enumerate(spans)
    ]


def layer_self_times(spans: "list[list]") -> "dict[str, float]":
    """Self time summed per layer."""
    out: "dict[str, float]" = {}
    for span, self_s in zip(spans, self_times(spans)):
        out[span[1]] = out.get(span[1], 0.0) + self_s
    return out


def conservation_gap(spans: "list[list]") -> float:
    """``|Σ self − Σ roots| / Σ roots``: 0 when every instant has one owner."""
    roots = sum(end - start for _, _, start, end, parent in spans if parent < 0)
    if roots <= 0:
        return 0.0
    return abs(sum(self_times(spans)) - roots) / roots


def chrome_trace(spans: "list[list]") -> dict:
    """Spans as Chrome trace-event JSON (complete ``X`` events, µs from the first)."""
    origin = min((s[2] for s in spans), default=0.0)
    events = [
        {
            "name": name,
            "cat": layer,
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"span": i, "parent": parent},
        }
        for i, (name, layer, start, end, parent) in enumerate(spans)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: "list[list]") -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(chrome_trace(spans), f)


def _bucket_of(filename: str) -> "str | None":
    if filename == "~":
        return "builtins"
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        package = path.rsplit("/repro/", 1)[1].split("/", 1)[0]
        return package if package in PY_CALL_BUCKETS else None
    if "/numpy/" in path:
        return "numpy"
    return None


def py_calls(profile) -> "dict[str, int]":
    """Exact Python call counts of a ``cProfile`` run, bucketed by module.

    ``total`` counts every call, bucketed or not (harness and standard
    library frames land only there).
    """
    counts = {bucket: 0 for bucket in PY_CALL_BUCKETS}
    total = 0
    for (filename, _, _), (_, n_calls, _, _, _) in pstats.Stats(profile).stats.items():
        total += n_calls
        bucket = _bucket_of(filename)
        if bucket is not None:
            counts[bucket] += n_calls
    counts["total"] = total
    return counts
