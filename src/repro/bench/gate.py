"""Benchmark regression gate: fresh runs vs the committed results.

Earlier PRs bought concrete numbers — 3.6x cached-class p99, 99.5x block
training steps, 44.8x fewer remote RPCs under adaptive placement — and
without a gate nothing notices when a later change quietly gives them
back. This module is the gate: it runs each gated
:class:`~repro.bench.harness.Experiment` in-process, checks it, loads the
committed results file of the same id (``benchmarks/results/smoke/`` for
the CI-sized ``--smoke`` runs, ``benchmarks/results/`` for full size) and
compares metric by metric under the experiment's own tolerance bands.

Only metrics matched by a :class:`MetricRule` are gated — wall-clock
readings (``wall_ms`` and friends) are machine noise and deliberately have
no rule, while simulated-time latencies, block sizes and trace volumes
are deterministic and band tightly. A metric present in the baseline but
missing fresh (or vice versa) is a failure: renames must touch the
baseline in the same PR.

Fresh results are written to a scratch directory, never over the
committed files they are compared against. ``repro bench-compare`` is the
CLI face; ``--inject-latency-pct`` inflates the fresh payload's
higher-is-worse metrics, proving end to end that the bands actually trip
(the CI gate runs it with 20%).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Sequence

from repro.bench.harness import Experiment, load_result, run_experiment
from repro.errors import CheckFailedError, ReproError

DIRECTIONS = ("higher_is_worse", "lower_is_worse", "both")


@dataclass(frozen=True)
class MetricRule:
    """One tolerance band: which metrics, how much drift, which way hurts.

    ``pattern`` is a regex searched against the metric key
    ``"<record label>:<measured key>"``. ``rel_tol`` is the allowed
    relative deviation from the baseline; ``abs_tol`` additionally forgives
    small absolute drift on near-zero baselines (a 0→1 shed count is not a
    20000% regression). ``direction`` says which side of the band fails:
    latencies are ``higher_is_worse``, speedups/goodputs are
    ``lower_is_worse``, exact counts are ``both``.
    """

    pattern: str
    rel_tol: float
    direction: str = "higher_is_worse"
    abs_tol: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ReproError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )
        if self.rel_tol < 0 or self.abs_tol < 0:
            raise ReproError("tolerances must be >= 0")


# ---------------------------------------------------------------------- #
# Payload flattening and comparison
# ---------------------------------------------------------------------- #
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


def _match_rule(rules: "tuple[MetricRule, ...]", key: str) -> "MetricRule | None":
    for rule in rules:
        if re.search(rule.pattern, key):
            return rule
    return None


def compare_payloads(baseline: dict, fresh: dict, experiment: Experiment) -> dict:
    """Band-by-band comparison of one benchmark's fresh run vs baseline.

    Returns ``{experiment_id, ok, rows, n_checked, n_regressions,
    n_missing, n_skipped}``; ``rows`` carry one entry per gated or missing
    metric with the observed relative delta and its verdict. Unmatched
    metrics are counted as skipped, never failed — the rules define the
    contract.
    """
    base = flatten_payload(baseline)
    new = flatten_payload(fresh)
    rows: "list[dict]" = []
    n_skipped = 0
    for key in sorted(set(base) | set(new)):
        rule = _match_rule(experiment.rules, key)
        if rule is None:
            n_skipped += 1
            continue
        if key not in base or key not in new:
            rows.append(
                {
                    "metric": key,
                    "status": "missing",
                    "baseline": base.get(key),
                    "fresh": new.get(key),
                    "detail": "metric absent from "
                    + ("fresh run" if key not in new else "baseline"),
                }
            )
            continue
        b, f = base[key], new[key]
        delta = f - b
        rel = delta / abs(b) if b != 0 else (0.0 if delta == 0 else float("inf"))
        worse = (
            delta > 0
            if rule.direction == "higher_is_worse"
            else delta < 0
            if rule.direction == "lower_is_worse"
            else delta != 0
        )
        inside = abs(delta) <= rule.abs_tol or abs(rel) <= rule.rel_tol
        status = "ok" if (inside or not worse) else "regression"
        if not worse and not inside:
            status = "improved"
        rows.append(
            {
                "metric": key,
                "status": status,
                "baseline": b,
                "fresh": f,
                "rel_delta": round(rel, 6) if rel != float("inf") else None,
                "rel_tol": rule.rel_tol,
                "direction": rule.direction,
            }
        )
    n_regressions = sum(r["status"] == "regression" for r in rows)
    n_missing = sum(r["status"] == "missing" for r in rows)
    return {
        "experiment_id": experiment.id,
        "ok": n_regressions == 0 and n_missing == 0,
        "rows": rows,
        "n_checked": len(rows),
        "n_regressions": n_regressions,
        "n_missing": n_missing,
        "n_skipped": n_skipped,
    }


def inject_latency(payload: dict, pct: float, experiment: Experiment) -> dict:
    """Inflate every ``higher_is_worse``-gated metric by ``pct`` percent.

    The self-test hook behind ``bench-compare --inject-latency-pct``: a
    gate that cannot flag a synthetic 20% latency regression is not a
    gate. Returns a modified copy; the input payload is untouched.
    """
    out = json.loads(json.dumps(payload))
    factor = 1.0 + pct / 100.0
    for rec in out.get("records", []):
        measured = rec.get("measured")
        if not isinstance(measured, dict):
            continue
        for key, value in measured.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            rule = _match_rule(experiment.rules, f"{rec.get('label', '?')}:{key}")
            if rule is not None and rule.direction == "higher_is_worse":
                measured[key] = type(value)(value * factor)
    return out


# ---------------------------------------------------------------------- #
# Running the gated experiments
# ---------------------------------------------------------------------- #
def _failed(experiment_id: str, error: str) -> dict:
    return {
        "experiment_id": experiment_id,
        "ok": False,
        "rows": [],
        "n_checked": 0,
        "n_regressions": 0,
        "n_missing": 1,
        "n_skipped": 0,
        "error": error,
    }


def compare_suite(
    experiments: "Sequence[Experiment]",
    baseline_dir: str,
    out_dir: str,
    smoke: bool,
    inject_latency_pct: float = 0.0,
) -> dict:
    """Run ``experiments`` and compare each against its committed results.

    Returns ``{ok, results: [per-experiment compare dicts]}``. A missing
    baseline fails that experiment (commit one with the PR that gates it),
    and so does a failed ``check``.
    """
    results: "list[dict]" = []
    for experiment in experiments:
        baseline = load_result(baseline_dir, experiment.id)
        if baseline is None:
            results.append(
                _failed(
                    experiment.id,
                    f"no baseline {experiment.id}.json in {baseline_dir}",
                )
            )
            continue
        try:
            fresh = run_experiment(experiment, smoke, out_dir).to_payload()
        except CheckFailedError as exc:
            results.append(_failed(experiment.id, str(exc)))
            continue
        if inject_latency_pct:
            fresh = inject_latency(fresh, inject_latency_pct, experiment)
        results.append(compare_payloads(baseline, fresh, experiment))
    return {"ok": all(r["ok"] for r in results), "results": results}


def render_compare(report: dict) -> str:
    """Human-readable rendering of :func:`compare_suite` output."""
    lines = ["=== bench-compare ==="]
    for res in report["results"]:
        verdict = "OK" if res["ok"] else "FAIL"
        lines.append(
            f"[{verdict}] {res['experiment_id']}: "
            f"{res['n_checked']} gated, {res['n_regressions']} regressions, "
            f"{res['n_missing']} missing, {res['n_skipped']} ungated"
        )
        if res.get("error"):
            lines.append(f"    {res['error']}")
        for row in res["rows"]:
            if row["status"] == "ok":
                continue
            if row["status"] == "missing":
                lines.append(f"    MISSING {row['metric']}: {row['detail']}")
                continue
            rel = row.get("rel_delta")
            rel_s = f"{rel:+.1%}" if rel is not None else "inf"
            lines.append(
                f"    {row['status'].upper()} {row['metric']}: "
                f"{row['baseline']:g} -> {row['fresh']:g} ({rel_s}, "
                f"band {row['rel_tol']:.0%} {row['direction']})"
            )
    lines.append("overall: " + ("OK" if report["ok"] else "FAIL"))
    return "\n".join(lines)
