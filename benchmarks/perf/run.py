"""One command for the repo's performance numbers.

``python3 benchmarks/perf/run.py`` runs every workload, each pass in a fresh
interpreter (so ``peak_rss_mb`` belongs to one workload), prints every
end-to-end metric by name with its unit, checks the outputs and exits
non-zero when a check failed. ``--trace`` also prints the per-layer metrics
of the traced pass.

``--workload NAME --seed N --seconds S --trace 0|1`` measures one workload
in this process and ends with one JSON object on the last line of standard
output — the form ``BENCHMARK.json`` names as the repo's benchmark command.
``--list`` prints workloads and metric names and runs nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The harness measures the package in this checkout, wherever it is run from.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))
DEFAULT_OUT = os.path.join(HERE, "out")
DEFAULT_SECONDS = 12

#: The measuring interpreter's environment. On a small VM the first touch of
#: a page costs 100-400 us of kernel time, so memory glibc hands back to the
#: OS between rounds returns as up to seconds of jitter per round: serve every
#: allocation from the heap and never trim it. One BLAS thread, because the
#: harness is single-threaded by design and a second thread only adds a
#: neighbour's scheduling noise.
_PR_SET_THP_DISABLE = 41
MEASURE_ENV = {
    "PERF_HARNESS_ENV": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(2**32 - 1),
    "MALLOC_TOP_PAD_": str(256 * 1024 * 1024),
}


def enter_measuring_interpreter(argv: "list[str]") -> None:
    """Replace this process by one started under :data:`MEASURE_ENV`.

    The allocator and BLAS read their settings at start-up only. Transparent
    huge pages are switched off for the process as well (kept across exec):
    zeroing 2 MiB per first touch is most of the seconds the discarded
    warm-up round costs here. Where ``prctl`` is missing the run goes on.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_THP_DISABLE, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass
    command = [sys.executable, os.path.abspath(__file__)] + argv
    os.execve(sys.executable, command, {**os.environ, **MEASURE_ENV})


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="length of the measured phase (at least 11 rounds are run)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="per-layer spans, counts and py_calls (with --workload: run the traced pass)",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="directory for records and traces")
    parser.add_argument("--list", action="store_true", help="print names and exit")
    return parser.parse_args(argv)


def print_list() -> None:
    import harness

    print("workloads:")
    for name, workload in harness.WORKLOADS.items():
        print(f"  {name:<14} unit={workload.unit:<8} {workload.size}")
    for title, metrics in (
        ("end-to-end metrics (gated by BENCHMARK.json)", harness.END_TO_END),
        ("end-to-end guards (one workload each; reported with --trace 1)", harness.GUARDS),
        ("per-layer metrics (--trace 1)", harness.LAYERS),
    ):
        print(f"{title}:")
        for m in metrics:
            scope = ",".join(m.workloads) if m.workloads else "all"
            kind = "exact" if m.exact else "banded"
            print(f"  {m.name:<32} {m.unit:<6} {m.better:<6} {kind:<6} {scope}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """Measure ``name`` in a fresh interpreter; returns its full record."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--out", out_dir,
    ]
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    record_path = os.path.join(out_dir, f"{name}.seed{seed}.trace{int(trace)}.json")
    if done.returncode not in (0, 1) or not os.path.exists(record_path):
        raise RuntimeError(f"{name}: measurement exited with code {done.returncode}")
    with open(record_path, encoding="utf-8") as f:
        return json.load(f)


def run_all(
    seed: int, seconds: float, out_dir: str, only: "list[str] | None" = None
) -> "dict[str, dict]":
    """Both passes of every workload, merged into one record per workload.

    The serving guards (tail latencies, goodput, highest good rate) come
    from the sweep, which only the traced pass runs; every number
    ``BENCHMARK.json`` gates comes from the untraced pass.
    """
    import harness

    results = {}
    for name in only or list(harness.WORKLOADS):
        record = run_workload(name, seed, seconds, False, out_dir)
        traced = run_workload(name, seed, seconds, True, out_dir)
        record["metrics"] = {**traced["metrics"], **record["metrics"]}
        record["correct"] = record["correct"] and traced["correct"]
        record["attempted"] += traced["attempted"]
        record["failed"] += traced["failed"]
        record["metrics"]["failed_frac"] = record["failed"] / record["attempted"]
        record["problems"] += traced["problems"]
        record["samples"] = traced["samples"]
        record["diagnostics"].update(traced["diagnostics"])
        results[name] = record
    return results


def print_report(results: "dict[str, dict]", trace: bool) -> None:
    import harness

    listed = harness.END_TO_END + harness.GUARDS + (harness.LAYERS if trace else ())
    for name, record in results.items():
        print(f"\n== {name} (unit: {record['unit']}, seed {record['seed']}, "
              f"{record['diagnostics']['rounds']} rounds) ==")
        for m in listed:
            if m.workloads and name not in m.workloads:
                continue
            value = record["metrics"].get(m.name)
            if value is None or (m in harness.LAYERS and value == 0):
                continue
            kind = "exact" if m.exact else "banded"
            shown_value = str(value) if isinstance(value, int) else f"{value:.8g}"
            print(f"  {m.name:<32} {shown_value:>16} {m.unit:<6} ({m.better} is better, {kind})")
        if record.get("samples"):
            print(f"  percentile samples and per-phase ok/sent: {json.dumps(record['samples'])}")
        if name == "serve_mixed":
            print("  open loop on the virtual clock: latency from arrival_us, generator lateness 0")
        for problem in record["problems"]:
            print(f"  CHECK FAILED: {problem}")
    ok = all(r["correct"] for r in results.values())
    print(f"\noutput checks: {'all passed' if ok else 'FAILED'}")


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.workload is not None and os.environ.get("PERF_HARNESS_ENV") != "1":
        enter_measuring_interpreter(argv)
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if args.list:
        print_list()
        return 0
    if args.workload is not None:
        if args.workload not in harness.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        record = harness.measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.out
        )
        for problem in record["problems"]:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(harness.contract_line(record))
        return 0 if record["correct"] else 1
    results = run_all(args.seed, args.seconds, args.out)
    print_report(results, bool(args.trace))
    with open(os.path.join(args.out, f"report.seed{args.seed}.json"), "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
