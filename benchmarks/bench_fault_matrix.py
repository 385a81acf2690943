"""Fault matrix — read availability under {drop rate x dead workers x cache}.

Sweeps the health-aware read path (``repro.bench.fault_matrix``) over a
2-hop GraphSAGE workload and reports, per cell, the fraction of logical
neighbor reads served with data, plus failover/suspect/degraded counts,
retries and modelled p95 RPC latency. The acceptance bar from the issue:
with ``FaultPlan(drop_rate=0.2)``, one fail-stopped worker and the
importance cache, availability must be >= 99% — while LRU and cacheless
stores sit near the live-shard fraction (~62% with 1 of 4 workers down),
because only importance caching replicates the hub mass every hop
expansion keeps landing on.
"""

from __future__ import annotations

from repro.bench import Experiment, ExperimentReport, MetricRule
from repro.bench.fault_matrix import run_fault_matrix
from repro.data import make_dataset

SEED = 7
AVAILABILITY_BAR = 0.99
ACCEPTANCE_CELL = "drop=20% failed=1 cache=importance"


def _run(smoke: bool) -> ExperimentReport:
    report = ExperimentReport(
        "fault_matrix",
        "read availability: {drop rate x failed workers x cache policy}",
    )
    graph = make_dataset("taobao-small-sim", scale=0.2, seed=0)
    rows = run_fault_matrix(graph, seed=SEED)
    for row in rows:
        report.add(
            row.cell.label,
            {
                "reads": row.reads_total,
                "availability": round(row.availability, 4),
                "failover": row.failover_reads,
                "suspect_routes": row.suspect_routes,
                "degraded": row.degraded_reads,
                "retries": row.retries,
                "p95_us": round(row.p95_latency_us, 1),
            },
        )
    report.note(
        "availability = logical neighbor reads served with data / issued "
        "(hub-weighted, pre-dedup); seeds drawn from live shards, hop "
        "expansion reads everywhere. failover=0 here is structural: the "
        "importance plan pins the same hub set on every server, so the "
        "issuer's own cache hit subsumes the replica probe — failover "
        "fires when caches diverge (exercised by tests/test_fault_matrix)."
    )
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    by_label = {r.label: r.measured for r in report.records}

    # Acceptance: >= 99% availability with 20% drops, one dead worker and
    # the importance cache.
    assert by_label[ACCEPTANCE_CELL]["availability"] >= AVAILABILITY_BAR

    # Healthy cells are fully available regardless of policy.
    for label, m in by_label.items():
        if "failed=0" in label:
            assert m["availability"] == 1.0

    # Importance caching strictly beats LRU and cacheless under a dead
    # worker (those two degrade identically: LRU only demand-fills on the
    # issuer, so no other server holds replicas).
    for drop in ("0%", "20%"):
        imp = by_label[f"drop={drop} failed=1 cache=importance"]
        lru = by_label[f"drop={drop} failed=1 cache=lru"]
        none = by_label[f"drop={drop} failed=1 cache=none"]
        assert imp["availability"] > lru["availability"]
        assert lru["availability"] == none["availability"]

    # Injected drops surface as retries and a fatter latency tail.
    assert by_label["drop=20% failed=0 cache=none"]["retries"] > 0
    assert (
        by_label["drop=20% failed=0 cache=none"]["p95_us"]
        > by_label["drop=0% failed=0 cache=none"]["p95_us"]
    )


EXPERIMENTS = (
    Experiment(
        "fault_matrix",
        _run,
        _check,
        # Every column is a ledger count or a virtual-clock latency.
        (
            MetricRule(r":availability$", rel_tol=0.005, direction="lower_is_worse"),
            MetricRule(r":p95_us$", rel_tol=0.10, abs_tol=1.0),
            MetricRule(
                r":(reads|failover|suspect_routes|degraded|retries)$",
                rel_tol=0.05,
                direction="both",
                abs_tol=2.0,
            ),
        ),
    ),
)
