"""Experiments: their declaration, their reports, their results files.

The contract of this reproduction is *shape*, not absolute numbers (our
substrate is a single-machine simulation, not Alibaba's cluster), so every
record stores the measured value and the paper's and the report renders
them adjacent, making the shape comparison auditable. An
:class:`Experiment` declares one table or figure once — how to run it,
what to assert of it, which columns to gate — and :func:`run_experiment`
is the single path from a declaration to ``results/<id>.{txt,json}``.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import CheckFailedError, ReproError
from repro.utils.tables import format_table


@dataclass
class ExperimentRecord:
    """One row of a reproduced table/figure."""

    label: str
    measured: dict[str, Any]
    paper: dict[str, Any] = field(default_factory=dict)


@dataclass
class ExperimentReport:
    """A reproduced experiment: id, rows and rendering."""

    experiment_id: str
    title: str
    records: list[ExperimentRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, measured: dict[str, Any], paper: dict[str, Any] | None = None) -> None:
        """Append one row."""
        self.records.append(ExperimentRecord(label, measured, paper or {}))

    def note(self, text: str) -> None:
        """Append a free-form note shown under the table."""
        self.notes.append(text)

    def _columns(self) -> "list[str]":
        cols: list[str] = []
        for rec in self.records:
            for key in list(rec.measured) + list(rec.paper):
                if key not in cols:
                    cols.append(key)
        return cols

    def render(self) -> str:
        """Render the side-by-side measured/paper table."""
        cols = self._columns()
        headers = ["label"]
        for c in cols:
            headers.append(c)
            if any(c in r.paper for r in self.records):
                headers.append(f"{c} (paper)")
        rows: list[Sequence[Any]] = []
        for rec in self.records:
            row: list[Any] = [rec.label]
            for c in cols:
                row.append(rec.measured.get(c, ""))
                if any(c in r.paper for r in self.records):
                    row.append(rec.paper.get(c, ""))
            rows.append(row)
        out = format_table(headers, rows, title=f"[{self.experiment_id}] {self.title}")
        for note in self.notes:
            out += f"\n  note: {note}"
        return out

    def to_payload(self) -> dict:
        """The machine-readable result contract.

        Shared by :func:`write_results`, the CLI ``--json`` emitters and
        ``repro bench-compare``; validated by
        ``tests/format_checkers.py --results``.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "records": [
                {"label": r.label, "measured": r.measured, "paper": r.paper}
                for r in self.records
            ],
        }

    def print(self) -> None:
        """Print the rendered report (benchmarks call this)."""
        print("\n" + self.render() + "\n")


@dataclass(frozen=True)
class Experiment:
    """One table or figure, declared once.

    ``id`` is the report's ``experiment_id`` and the stem of its
    ``results/<id>.json``. ``run(smoke)`` measures and returns the report
    (``smoke`` asks for the CI-sized workload where the experiment has
    one; the others have a single size and ignore it). ``check(report,
    smoke)`` asserts the acceptance bars and paper claims. ``exact`` are
    regexes searched against ``"<record label>:<measured key>"`` that name
    the deterministic columns ``bench-compare`` holds ``==`` to the
    committed results of the same id; without them the experiment is run
    and checked but never gated.
    """

    id: str
    run: "Callable[[bool], ExperimentReport]"
    check: "Callable[[ExperimentReport, bool], None]"
    exact: "tuple[str, ...]" = ()


def load_experiments(bench_dir: str) -> "list[Experiment]":
    """Every experiment the ``bench_*.py`` scripts of ``bench_dir`` declare.

    Scripts are imported in file-name order and their ``EXPERIMENTS``
    tuples concatenated. A script that reads other experiments' results
    lists those ahead of its own (Figure 1 after Tables 8-12); the first
    mention of an experiment fixes its place, so declaration order is run
    order.
    """
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)  # the scripts import one another by name
    declared: "list[Experiment]" = []
    for path in sorted(glob.glob(os.path.join(bench_dir, "bench_*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        declared.extend(importlib.import_module(name).EXPERIMENTS)
    return list(dict.fromkeys(declared))


def select_experiments(
    experiments: "Sequence[Experiment]", ids: "Sequence[str]"
) -> "list[Experiment]":
    """The experiments named by ``ids``, kept in declaration order."""
    unknown = sorted(set(ids) - {e.id for e in experiments})
    if unknown:
        raise ReproError(
            f"unknown experiment id(s) {', '.join(unknown)}; "
            f"declared: {', '.join(e.id for e in experiments)}"
        )
    return [e for e in experiments if e.id in ids]


def results_dir(bench_dir: str, smoke: bool) -> str:
    """Where committed results live: ``results/``, smoke runs ``results/smoke/``."""
    parts = ("results", "smoke") if smoke else ("results",)
    return os.path.join(bench_dir, *parts)


def write_results(report: ExperimentReport, out_dir: str) -> None:
    """Write ``<out_dir>/<id>.txt`` (rendered) and ``.json`` (the payload)."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, report.experiment_id)
    with open(stem + ".txt", "w", encoding="utf-8") as f:
        f.write(report.render() + "\n")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(report.to_payload(), f, indent=1)


def load_result(directory: str, experiment_id: str) -> "dict | None":
    """A previously written payload (``None`` when absent)."""
    path = os.path.join(directory, f"{experiment_id}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_experiment(
    experiment: Experiment, smoke: bool, out_dir: str
) -> ExperimentReport:
    """Run, write the results under ``out_dir``, then check.

    The one path every consumer takes (the pytest collector, ``repro
    bench``, ``repro bench-compare``); results are on disk before ``check``
    can fail, so a red run leaves its table behind. A failed ``assert`` or
    ``assert_faster`` is re-raised as :class:`CheckFailedError` naming the
    experiment (and the asserting line — the scripts are not test modules,
    so pytest does not rewrite their bare ``assert``s into messages).
    """
    report = experiment.run(smoke)
    if report.experiment_id != experiment.id:
        raise ReproError(
            f"experiment {experiment.id!r} returned a report for "
            f"{report.experiment_id!r}"
        )
    write_results(report, out_dir)
    try:
        experiment.check(report, smoke)
    except AssertionError as exc:
        at = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(at.filename)}:{at.lineno}: {at.line}"
        raise CheckFailedError(
            f"{experiment.id}: check failed: "
            + (f"{exc} ({where})" if str(exc) else where)
        ) from exc
    except CheckFailedError as exc:
        raise CheckFailedError(f"{experiment.id}: check failed: {exc}") from exc
    return report
