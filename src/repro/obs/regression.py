"""Benchmark regression gate: fresh smoke runs vs committed baselines.

Earlier PRs bought concrete numbers — 3.6x cached-class p99, 99.5x block
training steps, 44.8x fewer remote RPCs under adaptive placement — and
without a gate nothing notices when a later change quietly gives them
back. This module is the gate: it re-runs each benchmark in ``--smoke
--json`` mode (CI-sized, deterministic under the virtual clock), loads the
committed smoke baseline from ``benchmarks/results/smoke/`` and compares
metric by metric under explicit per-metric tolerance bands.

Only metrics matched by a :class:`MetricRule` are gated — wall-clock
readings (``wall_ms`` and friends) are machine noise and deliberately have
no rule, while simulated-time latencies, block sizes and trace volumes
are deterministic and band tightly. A metric present in the baseline but
missing fresh (or vice versa) is a failure: renames must touch the
baseline in the same PR.

Fresh runs are redirected to a scratch directory via the
``REPRO_BENCH_RESULTS_DIR`` override honored by ``benchmarks/_common.py``,
so a gate run never rewrites the committed artifacts it compares against.
``repro bench-compare`` is the CLI face; ``--inject-latency-pct`` inflates
the fresh payload's higher-is-worse metrics, proving end to end that the
bands actually trip (the CI gate runs it with 20%).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field

from repro.errors import ReproError

#: Env var (honored by benchmarks/_common.py) redirecting result output.
RESULTS_DIR_ENV = "REPRO_BENCH_RESULTS_DIR"

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


@dataclass(frozen=True)
class BenchSpec:
    """One gated benchmark: its id, its script and its tolerance bands."""

    experiment_id: str
    script: str
    rules: "tuple[MetricRule, ...]" = field(default_factory=tuple)


#: The gated suite. Wall-clock metrics carry no rule on purpose; everything
#: banded below is virtual-clock deterministic at a fixed seed.
DEFAULT_SUITE: "tuple[BenchSpec, ...]" = (
    BenchSpec(
        "serving_slo",
        "bench_serving.py",
        (
            MetricRule(r":p(50|95|99)_us$", rel_tol=0.10),
            MetricRule(r":in_deadline_rps$", rel_tol=0.10, direction="lower_is_worse"),
            MetricRule(r":(requests|ok)$", rel_tol=0.05, direction="both", abs_tol=2.0),
            MetricRule(r":(shed|expired)$", rel_tol=0.25, abs_tol=5.0),
        ),
    ),
    BenchSpec(
        "gnn_minibatch",
        "bench_gnn_minibatch.py",
        (
            # Deterministic at a fixed seed: step counts, block sizes and
            # held-out AUC. The step_ms / stage_ms wall-clock columns (and
            # the speedup ratios derived from them) are deliberately
            # unruled.
            MetricRule(r":steps$", rel_tol=0.0, direction="both"),
            MetricRule(
                r":(input|block)_rows_per_step$",
                rel_tol=0.05,
                direction="both",
                abs_tol=2.0,
            ),
            MetricRule(r":auc$", rel_tol=0.10, direction="lower_is_worse"),
        ),
    ),
    BenchSpec(
        "placement_adaptive",
        "bench_placement.py",
        (
            # Virtual-clock deterministic at the fixed seed: latencies are
            # ledger deltas, counts are controller decisions. The headline
            # "...x" strings and the determinism boolean flatten away.
            MetricRule(r":p(50|95|99)_us$", rel_tol=0.10, abs_tol=1.0),
            MetricRule(r":remote_rpcs$", rel_tol=0.10, abs_tol=5.0),
            MetricRule(
                r":local_share$", rel_tol=0.05, direction="lower_is_worse"
            ),
            MetricRule(
                r"^adaptation:(epochs|promoted|demoted|migrated"
                r"|migrate_items|migration_rpcs)$",
                rel_tol=0.10,
                direction="both",
                abs_tol=2.0,
            ),
            MetricRule(r"^adaptation:max_epoch_items$", rel_tol=0.25, abs_tol=5.0),
        ),
    ),
    BenchSpec(
        "fig7",
        "bench_fig7_graph_build.py",
        (
            # The modelled build is ledger prices times partition edge
            # counts: exact at the fixed seed. wall_critical_path_ms is
            # wall-clock and deliberately unruled.
            MetricRule(
                r":(build_s|ingest_s|max_worker_edges)$",
                rel_tol=0.0,
                direction="both",
            ),
        ),
    ),
    BenchSpec(
        "trace_overhead",
        "bench_trace_overhead.py",
        (
            MetricRule(
                r":(spans|ledger_rows|traces)$",
                rel_tol=0.05,
                direction="both",
                abs_tol=2.0,
            ),
        ),
    ),
    BenchSpec(
        "obs_overhead",
        "bench_obs_overhead.py",
        (
            MetricRule(
                r":(reads_recorded|ts_samples|series|spans)$",
                rel_tol=0.05,
                direction="both",
                abs_tol=2.0,
            ),
        ),
    ),
)


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


def compare_payloads(baseline: dict, fresh: dict, spec: BenchSpec) -> dict:
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
        rule = _match_rule(spec.rules, key)
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
        "experiment_id": spec.experiment_id,
        "ok": n_regressions == 0 and n_missing == 0,
        "rows": rows,
        "n_checked": len(rows),
        "n_regressions": n_regressions,
        "n_missing": n_missing,
        "n_skipped": n_skipped,
    }


def inject_latency(payload: dict, pct: float, spec: BenchSpec) -> dict:
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
            rule = _match_rule(spec.rules, f"{rec.get('label', '?')}:{key}")
            if rule is not None and rule.direction == "higher_is_worse":
                measured[key] = type(value)(value * factor)
    return out


# ---------------------------------------------------------------------- #
# Running benchmarks
# ---------------------------------------------------------------------- #
def run_bench(
    spec: BenchSpec, bench_dir: str, out_dir: str, smoke: bool = True
) -> dict:
    """Run one benchmark script and return its fresh JSON payload.

    The subprocess writes its results into ``out_dir`` (via the
    ``REPRO_BENCH_RESULTS_DIR`` override) so the committed artifacts stay
    untouched; the payload is read back from there.
    """
    script = os.path.join(bench_dir, spec.script)
    if not os.path.exists(script):
        raise ReproError(f"benchmark script not found: {script}")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    repro_src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src_root = os.path.dirname(repro_src)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, bench_dir, env.get("PYTHONPATH")) if p
    )
    env[RESULTS_DIR_ENV] = out_dir
    cmd = [sys.executable, script] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise ReproError(
            f"benchmark {spec.script} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    path = os.path.join(out_dir, f"{spec.experiment_id}.json")
    if not os.path.exists(path):
        raise ReproError(
            f"benchmark {spec.script} produced no {spec.experiment_id}.json "
            f"in {out_dir}"
        )
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_baseline(baseline_dir: str, experiment_id: str) -> "dict | None":
    path = os.path.join(baseline_dir, f"{experiment_id}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def compare_suite(
    bench_dir: str,
    baseline_dir: str,
    out_dir: str,
    specs: "tuple[BenchSpec, ...]" = DEFAULT_SUITE,
    smoke: bool = True,
    inject_latency_pct: float = 0.0,
    only: "list[str] | None" = None,
) -> dict:
    """Run the gated suite and compare every benchmark against baseline.

    Returns ``{ok, results: [per-bench compare dicts]}``. A missing
    baseline fails that benchmark (commit one with the PR that adds the
    bench). ``only`` restricts the suite by experiment id.
    """
    results: "list[dict]" = []
    for spec in specs:
        if only and spec.experiment_id not in only:
            continue
        baseline = load_baseline(baseline_dir, spec.experiment_id)
        if baseline is None:
            results.append(
                {
                    "experiment_id": spec.experiment_id,
                    "ok": False,
                    "rows": [],
                    "n_checked": 0,
                    "n_regressions": 0,
                    "n_missing": 1,
                    "n_skipped": 0,
                    "error": f"no baseline {spec.experiment_id}.json "
                    f"in {baseline_dir}",
                }
            )
            continue
        fresh = run_bench(spec, bench_dir, out_dir, smoke=smoke)
        if inject_latency_pct:
            fresh = inject_latency(fresh, inject_latency_pct, spec)
        results.append(compare_payloads(baseline, fresh, spec))
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
