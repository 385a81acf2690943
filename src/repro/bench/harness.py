"""Experiment records: measured values next to the paper's reference values.

The contract of this reproduction is *shape*, not absolute numbers (our
substrate is a single-machine simulation, not Alibaba's cluster), so every
record stores both and the report renders them adjacent, making the
shape comparison auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

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

        Shared by the benchmark writers (``benchmarks/_common.emit``), the
        CLI ``--json`` emitters and ``repro bench-compare``; validated by
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
