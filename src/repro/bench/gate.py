"""Benchmark regression gate: fresh runs vs the committed results.

Earlier PRs bought concrete numbers — 3.6x cached-class p99, 99.5x block
training steps, 44.8x fewer remote RPCs under adaptive placement — and
without a gate nothing notices when a later change quietly gives them
back. This module is the gate: it runs each gated
:class:`~repro.bench.harness.Experiment` in-process, checks it, loads the
committed results file of the same id (``benchmarks/results/smoke/`` for
the CI-sized ``--smoke`` runs, ``benchmarks/results/`` for full size) and
compares every gated value with ``==``.

An experiment's ``exact`` patterns name its deterministic columns —
virtual-clock latencies, ledger counts, block sizes, seeded qualities —
and the contract for those is "same seed → same bits", so any difference
fails, as does a gated value present on one side only. Wall-clock columns
(``wall_ms`` and friends) match no pattern; their claims are held by
:func:`repro.bench.timing.assert_faster` in the experiment's ``check``.
A change that means to move a gated number regenerates the baseline in
the same commit.

Fresh results are written to a scratch directory, never over the
committed files they are compared against. ``repro bench-compare`` is the
CLI face.
"""

from __future__ import annotations

import re
from typing import Sequence

from repro.bench.harness import Experiment, load_result, run_experiment
from repro.errors import CheckFailedError

#: How many differing keys :func:`render_compare` prints per experiment.
SHOWN_DIFFS = 10


def flatten_payload(payload: dict) -> "dict[str, float]":
    """``{"<label>:<key>": value}`` for every numeric measured value.

    Scalar ``measured`` values flatten under the bare label. Strings
    (``"+1.60%"`` annotations) and booleans are not metrics and are
    dropped.
    """
    flat: "dict[str, float]" = {}
    for rec in payload.get("records", []):
        label = rec.get("label", "?")
        measured = rec.get("measured")
        items = (
            measured.items()
            if isinstance(measured, dict)
            else [("", measured)]
        )
        for key, value in items:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            flat[f"{label}:{key}" if key else label] = float(value)
    return flat


def compare_payloads(baseline: dict, fresh: dict, experiment: Experiment) -> dict:
    """Exact comparison of one experiment's fresh run against its baseline.

    Returns ``{experiment_id, ok, n_checked, diffs}``: ``n_checked`` counts
    the gated keys of either payload, ``diffs`` lists ``(key, baseline,
    fresh)`` for every gated key whose values differ, in key order. A key
    on one side only is a difference whose value on the other side is
    ``None``.
    """

    def gated(payload: dict) -> "dict[str, float]":
        return {
            key: value
            for key, value in flatten_payload(payload).items()
            if any(re.search(pattern, key) for pattern in experiment.exact)
        }

    base, new = gated(baseline), gated(fresh)
    keys = sorted(base.keys() | new.keys())
    diffs = [
        (key, base.get(key), new.get(key))
        for key in keys
        if base.get(key) != new.get(key)
    ]
    return {
        "experiment_id": experiment.id,
        "ok": not diffs,
        "n_checked": len(keys),
        "diffs": diffs,
    }


def _failed(experiment_id: str, error: str) -> dict:
    return {
        "experiment_id": experiment_id,
        "ok": False,
        "n_checked": 0,
        "diffs": [],
        "error": error,
    }


def compare_suite(
    experiments: "Sequence[Experiment]",
    baseline_dir: str,
    out_dir: str,
    smoke: bool,
) -> dict:
    """Run ``experiments`` and compare each against its committed results.

    Returns ``{ok, results: [per-experiment compare dicts]}``. A missing
    baseline fails that experiment (commit one with the PR that gates it),
    and so does a failed ``check``; either carries an ``error``.
    """
    results: "list[dict]" = []
    for experiment in experiments:
        baseline = load_result(baseline_dir, experiment.id)
        if baseline is None:
            error = f"no baseline {experiment.id}.json in {baseline_dir}"
            results.append(_failed(experiment.id, error))
            continue
        try:
            fresh = run_experiment(experiment, smoke, out_dir).to_payload()
        except CheckFailedError as exc:
            results.append(_failed(experiment.id, str(exc)))
            continue
        results.append(compare_payloads(baseline, fresh, experiment))
    return {"ok": all(r["ok"] for r in results), "results": results}


def render_compare(report: dict) -> str:
    """Human-readable rendering of :func:`compare_suite` output."""
    lines = ["=== bench-compare ==="]
    for res in report["results"]:
        diffs = res["diffs"]
        lines.append(
            f"[{'OK' if res['ok'] else 'FAIL'}] {res['experiment_id']}: "
            f"{len(diffs)} of {res['n_checked']} gated values differ"
        )
        if res.get("error"):
            lines.append(f"    {res['error']}")
        for key, base, fresh in diffs[:SHOWN_DIFFS]:
            lines.append(f"    {key}: baseline {base!r}, fresh {fresh!r}")
        if len(diffs) > SHOWN_DIFFS:
            lines.append(f"    ... and {len(diffs) - SHOWN_DIFFS} more")
    lines.append("overall: " + ("OK" if report["ok"] else "FAIL"))
    return "\n".join(lines)
