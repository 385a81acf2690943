"""The experiment suite: declarations, reports, and the regression gate.

Each ``benchmarks/bench_*.py`` script declares the tables and figures it
regenerates as :class:`Experiment` records (id, ``run``, ``check``,
``exact``) and nothing else runs them but three consumers of those
declarations: the pytest collector ``benchmarks/test_experiments.py``,
``repro bench`` and ``repro bench-compare``. This package holds what they
share — the declaration and its loader, the report carrying measured
values next to the paper's, the results files, the gate that compares a
fresh run's deterministic columns with the committed one's, and the
timing protocol (``timing``).
"""

from repro.bench.gate import (
    compare_payloads,
    compare_suite,
    flatten_payload,
    render_compare,
)
from repro.bench.harness import (
    Experiment,
    ExperimentRecord,
    ExperimentReport,
    load_experiments,
    load_result,
    results_dir,
    run_experiment,
    select_experiments,
)

__all__ = [
    "Experiment",
    "ExperimentRecord",
    "ExperimentReport",
    "compare_payloads",
    "compare_suite",
    "flatten_payload",
    "load_experiments",
    "load_result",
    "render_compare",
    "results_dir",
    "run_experiment",
    "select_experiments",
]
