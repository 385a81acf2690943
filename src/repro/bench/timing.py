"""The one timing protocol: arms interleaved so drift lands on all alike, each call
timed right after ``gc.collect()`` with GC off, median and IQR by the perf trajectory's
``statistics.quantiles(n=4)``. Only :func:`assert_faster` asserts wall-clock.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from typing import Callable, Sequence

from repro.errors import CheckFailedError, ReproError


class Timing:
    """Wall-clock samples of one arm, in seconds: median and IQR."""

    def __init__(self, samples_s: "Sequence[float]") -> None:
        self.samples_s = [float(s) for s in samples_s]
        if len(self.samples_s) < 2:
            raise ReproError(f"a Timing needs >= 2 samples, got {len(self.samples_s)}")
        self.q1, self.median, self.q3 = statistics.quantiles(self.samples_s, n=4)
        self.iqr = self.q3 - self.q1

    def columns(self, name: str, per_s: float = 1e3, digits: int = 2) -> "dict[str, float]":
        """``{name: median, name_iqr: iqr}`` in units of ``1 / per_s`` seconds."""
        median, iqr = (round(x * per_s, digits) for x in (self.median, self.iqr))
        return {name: median, f"{name}_iqr": iqr}


def time_arms(arms: "dict[str, Callable[[], object]]", rounds: int) -> "dict[str, Timing]":
    """Call every arm once per round, round ``r`` starting at arm ``r mod len(arms)``."""
    names = list(arms)
    samples: "dict[str, list[float]]" = {name: [] for name in names}
    gc_was_enabled = gc.isenabled()
    try:
        for r in range(rounds):
            for name in names[r % len(names):] + names[: r % len(names)]:
                gc.collect()
                gc.disable()
                start = time.perf_counter()
                arms[name]()
                samples[name].append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {name: Timing(samples[name]) for name in names}


def assert_faster(slow: Timing, fast: Timing, at_least: float) -> None:
    """Raise :class:`CheckFailedError` unless ``fast`` beats ``slow`` by a
    median ratio of ``at_least``: *unresolved* if the IQRs overlap, else
    *refuted* if the ratio falls short."""
    seen = ", ".join(f"{t.median * 1e3:.4g} ms (IQR {t.iqr * 1e3:.2g})" for t in (slow, fast))
    seen += f": median ratio {slow.median / fast.median:.3g}x, claimed >= {at_least:g}x"
    if slow.q1 <= fast.q3 and fast.q1 <= slow.q3:
        raise CheckFailedError(f"unresolved, the IQRs overlap: {seen}")
    if slow.median < at_least * fast.median:
        raise CheckFailedError(f"refuted: {seen}")


def python_calls(fn: "Callable[[], object]", under: str) -> int:
    """Python-level calls made while ``fn`` runs, in files whose path contains ``under``."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and under in frame.f_code.co_filename:
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls
