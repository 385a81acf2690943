"""Do repeated runs of the benchmark agree with each other?

``python3 benchmarks/perf/agree.py`` runs the whole benchmark N times
(default 2) on this checkout with one seed and checks that every exact
metric is bit-equal between the runs and every banded end-to-end metric
stays within the bound ``BENCHMARK.json`` records for it. It prints, per
metric and workload, the spread it saw — the numbers the bounds were fixed
from, and the tool a later PR uses to show that a moved metric is resolved
and not noise.

``--vary-seed`` is the acceptance protocol of the benchmark itself: N
untraced runs, each with another seed. Exact metrics differ between seeds
by design, so only spreads are judged.

Spread is (Q3 - Q1) / median as ``statistics.quantiles(values, n=4)`` gives
the quartiles; below four runs there are no quartiles to speak of and it is
(max - min) / median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run

#: Where the read path is timed ``host_cost_cu`` should repeat within a tenth;
#: a wider pair is flagged, not failed (the recorded bound is what fails).
READ_PATH = ("sample_store", "serve_mixed", "store_rw")


def spread(values: "list[float]") -> float:
    """Interquartile (under four values: full) range as a share of the median."""
    median = statistics.median(values)
    if not median:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def load_bounds() -> "dict[str, float]":
    path = os.path.join(os.path.dirname(os.path.dirname(run.HERE)), "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=2, help="how many runs to compare")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--vary-seed", action="store_true",
        help="untraced runs with seeds SEED..SEED+RUNS-1; judge spreads only",
    )
    parser.add_argument("--workload", action="append", help="restrict to this workload")
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    parser.add_argument("--out", default=run.DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    return args


def collect(args: argparse.Namespace) -> "list[dict[str, dict]]":
    """``runs[i][workload]`` = that run's record."""
    import harness

    names = args.workload or list(harness.WORKLOADS)
    runs = []
    for i in range(args.runs):
        if args.vary_seed:
            runs.append({
                name: run.run_workload(name, args.seed + i, args.seconds, False, args.out)
                for name in names
            })
        else:
            runs.append(run.run_all(args.seed, args.seconds, args.out, names))
    return runs


def main(argv: "list[str] | None" = None) -> int:
    import harness

    args = parse_args(argv)
    bounds = load_bounds()
    runs = collect(args)
    failures = []
    for name, first in runs[0].items():
        if not all(r[name]["correct"] for r in runs):
            failures.append(f"{name}: an output check failed")
        print(f"\n== {name} ==")
        for m in harness.END_TO_END + harness.PER_LAYER:
            if m.name not in first["metrics"] or (m.workloads and name not in m.workloads):
                continue
            values = [r[name]["metrics"][m.name] for r in runs]
            if m.exact and not args.vary_seed:
                same = all(v == values[0] for v in values)
                if not same:
                    failures.append(f"{name}.{m.name}: exact metric differs: {values}")
                if values[0] or not same:
                    print(f"  {m.name:<32} exact  {'equal' if same else 'DIFFERS'} {values[0]!r}")
                continue
            if not any(values):
                continue
            seen = spread(values)
            line = f"  {m.name:<32} spread {seen:7.2%}  median {statistics.median(values):.6g}"
            if m.name in bounds:
                limit = bounds[m.name]
                line += f"  bound {limit:.0%}"
                # Like the driver, the seed protocol does not judge setup_s's spread.
                if seen > limit and not (args.vary_seed and m.name == "setup_s"):
                    failures.append(f"{name}.{m.name}: spread {seen:.2%} over bound {limit:.0%}")
                    line += "  OVER"
                elif seen > limit / 3:
                    line += "  (over a third of the bound)"
                if m.name == "host_cost_cu" and name in READ_PATH and seen > 0.10:
                    line += "  (over a tenth)"
            print(line)
    print()
    for failure in failures:
        print(f"DISAGREE: {failure}")
    print("runs agree" if not failures else f"{len(failures)} disagreements")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
