"""The pytest collector of the experiment suite.

``python -m pytest benchmarks/test_experiments.py`` regenerates every
table and figure: each declared experiment runs at full size, rewrites
``benchmarks/results/<id>.{txt,json}`` and is held to its ``check``. Pick
one with ``-k <id>``; ``repro bench <id>`` is the same run from the shell.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import load_experiments, results_dir, run_experiment

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@pytest.mark.parametrize(
    "experiment", load_experiments(BENCH_DIR), ids=lambda experiment: experiment.id
)
def test_experiment(experiment) -> None:
    out_dir = results_dir(BENCH_DIR, smoke=False)
    run_experiment(experiment, smoke=False, out_dir=out_dir).print()
