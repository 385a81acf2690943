"""Adaptive placement vs static partition + importance cache under shifting skew.

The ROADMAP's trace-driven placement claim, measured on the virtual clock:

* **Workload**: Zipf point reads with tenant affinity whose hot set
  *rotates* twice mid-run (a fresh rank→vertex permutation per phase) —
  the exact drift a static partition + importance cache cannot follow.
* **Arms**: identical stores and identical seeded request schedules; the
  adaptive arm additionally runs a :class:`PlacementController` (decayed
  window stats → cost-model replica promotion/demotion → token-bucket
  bounded incremental migration, all priced on the same ledger/clock).
* **Acceptance** (full run): ≥ 2× remote-RPC reduction, adaptive p99 below
  static p99, migration items per epoch within the configured budget, and
  a same-seed rerun reproducing the whole comparison dict bit for bit.

Ad-hoc sweeps call :func:`repro.bench.placement.run_placement_comparison`
with their own :class:`PlacementWorkload` / :class:`PlacementConfig`.
"""

from __future__ import annotations

from repro.bench import Experiment, ExperimentReport, MetricRule
from repro.bench.placement import PlacementWorkload, run_placement_comparison
from repro.data import make_dataset
from repro.storage.placement import PlacementConfig

SEED = 7
SCALE = 0.2
N_WORKERS = 4

WORKLOAD = PlacementWorkload(
    n_workers=N_WORKERS,
    n_phases=3,
    requests_per_phase=16_000,
    reads_per_request=1,
    zipf_exponent=2.5,
    issuer_affinity=0.85,
    seed=SEED,
)
SMOKE_WORKLOAD = PlacementWorkload(
    n_workers=N_WORKERS,
    n_phases=2,
    requests_per_phase=2_500,
    reads_per_request=1,
    zipf_exponent=2.5,
    issuer_affinity=0.85,
    seed=SEED,
)
PLACEMENT = PlacementConfig(
    epoch_us=800.0,
    promote_per_epoch=192,
    demote_per_epoch=256,
    migrate_per_epoch=32,
    migrate_dominance=1.5,
    min_decision_weight=0.3,
)


def _arm_cells(report: ExperimentReport, label: str, arm: dict) -> None:
    report.add(
        label,
        {
            "remote_rpcs": arm["remote_rpcs"],
            "local_share": arm["local_share"],
            "p50_us": arm["p50_us"],
            "p95_us": arm["p95_us"],
            "p99_us": arm["p99_us"],
            "request_ms": round(arm["request_us"] / 1000.0, 3),
        },
    )


def _run(smoke: bool) -> ExperimentReport:
    workload = SMOKE_WORKLOAD if smoke else WORKLOAD
    graph = make_dataset("taobao-small-sim", scale=SCALE, seed=0)
    report = ExperimentReport(
        "placement_adaptive",
        "Trace-driven adaptive placement vs static partition + importance "
        f"cache ({workload.n_phases} Zipf phases x "
        f"{workload.requests_per_phase} point reads, hot set rotated per "
        f"phase, {N_WORKERS} workers)",
    )
    result = run_placement_comparison(graph, workload, PLACEMENT)
    _arm_cells(report, "static partition + importance cache", result["static"])
    _arm_cells(report, "adaptive placement (controller on)", result["adaptive"])
    adaptive = result["adaptive"]
    report.add(
        "adaptation",
        {
            "epochs": adaptive["epochs"],
            "promoted": adaptive["promoted"],
            "demoted": adaptive["demoted"],
            "migrated": adaptive["migrated"],
            "migration_rpcs": adaptive["migration_rpcs"],
            "migrate_items": adaptive["migrate_items"],
            "max_epoch_items": adaptive["max_epoch_items"],
            "epoch_item_budget": adaptive["epoch_item_budget"],
            "placement_ms": round(adaptive["placement_us"] / 1000.0, 3),
        },
    )
    report.add(
        "headline",
        {
            "remote_rpc_reduction": f"{result['remote_rpc_reduction']}x",
            "p99_improvement": f"{result['p99_improvement']}x",
        },
    )

    # Determinism: the whole comparison (both arms + controller decisions)
    # must reproduce bit for bit under the same seed.
    rerun = run_placement_comparison(graph, workload, PLACEMENT)
    identical = rerun == result
    report.add("determinism (same-seed rerun)", {"identical": identical})

    report.note(
        "identical seeded request schedules replayed against both arms; "
        "per-request latency is the cost-ledger delta around the read, "
        "controller work is priced between requests (placement_ms, "
        "migration_rpc ledger events) on the same virtual clock"
    )
    report.meta = {
        "identical": identical,
        "remote_rpc_reduction": result["remote_rpc_reduction"],
        "static_p99_us": result["static"]["p99_us"],
        "adaptive_p99_us": result["adaptive"]["p99_us"],
        "max_epoch_items": adaptive["max_epoch_items"],
        "epoch_item_budget": adaptive["epoch_item_budget"],
    }
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    meta = report.meta
    assert meta["identical"], "same-seed placement comparisons diverged"
    assert meta["remote_rpc_reduction"] >= 2.0, (
        f"adaptive placement cut remote RPCs only "
        f"{meta['remote_rpc_reduction']}x (< 2x)"
    )
    assert meta["max_epoch_items"] <= meta["epoch_item_budget"], (
        "migration traffic exceeded the per-epoch token budget"
    )
    if smoke:
        return  # the p99 win needs the full workload to converge
    assert meta["adaptive_p99_us"] < meta["static_p99_us"], (
        f"adaptive p99 {meta['adaptive_p99_us']}us did not beat static "
        f"{meta['static_p99_us']}us"
    )


EXPERIMENTS = (
    Experiment(
        "placement_adaptive",
        _run,
        _check,
        # Virtual-clock deterministic at the fixed seed: latencies are
        # ledger deltas, counts are controller decisions. The headline
        # "...x" strings and the determinism boolean flatten away.
        (
            MetricRule(r":p(50|95|99)_us$", rel_tol=0.10, abs_tol=1.0),
            MetricRule(r":remote_rpcs$", rel_tol=0.10, abs_tol=5.0),
            MetricRule(r":local_share$", rel_tol=0.05, direction="lower_is_worse"),
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
)
