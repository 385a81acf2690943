"""Shared scaffolding for the benchmark suite.

Every benchmark regenerates one table/figure of the AliGraph paper, prints
the side-by-side (measured vs paper) report and appends it to
``benchmarks/results/<experiment>.txt`` so the artifact survives pytest's
output capture.
"""

from __future__ import annotations

import argparse
import json
import os

from repro.bench import ExperimentReport

_DEFAULT_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def results_dir() -> str:
    """Where result bundles land: ``REPRO_BENCH_RESULTS_DIR`` or in-tree.

    The env override lets ``repro bench-compare`` re-run benchmarks into a
    scratch directory without rewriting the committed baselines it is
    comparing against.
    """
    return os.environ.get("REPRO_BENCH_RESULTS_DIR") or _DEFAULT_RESULTS_DIR


RESULTS_DIR = _DEFAULT_RESULTS_DIR


def parse_bench_args(
    description: str, argv: "list[str] | None" = None
) -> argparse.Namespace:
    """The shared command-line contract of every runnable benchmark.

    ``--smoke`` asks for a reduced workload (CI-sized: fewer repeats /
    steps, no strict acceptance assertions); ``--json`` additionally
    prints the machine-readable payload to stdout so CI can capture it
    without re-reading the results directory.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced CI-sized workload (skips strict acceptance checks)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="also print the JSON payload to stdout",
    )
    return parser.parse_args(argv)


def emit(report: ExperimentReport, print_json: bool = False) -> None:
    """Print the report and persist it under benchmarks/results/.

    Both a rendered ``.txt`` (human) and a ``.json`` (consumed by the
    Figure 1 summary bench) are written; ``print_json`` additionally
    dumps the payload to stdout (the ``--json`` flag).
    """
    rendered = report.render()
    print("\n" + rendered + "\n")
    out_dir = results_dir()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{report.experiment_id}.txt")
    with open(path, "w", encoding="utf-8") as f:
        f.write(rendered + "\n")
    payload = report.to_payload()
    with open(
        os.path.join(out_dir, f"{report.experiment_id}.json"),
        "w",
        encoding="utf-8",
    ) as f:
        json.dump(payload, f, indent=1)
    if print_json:
        print(json.dumps(payload, indent=1))


def load_result(experiment_id: str) -> "dict | None":
    """Load a previously emitted result bundle (None when absent)."""
    path = os.path.join(results_dir(), f"{experiment_id}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)
