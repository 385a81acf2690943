"""Ablations of the storage-layer design choices DESIGN.md calls out.

Not direct paper tables — these quantify the individual design decisions
the paper asserts qualitatively:

* the four partition strategies' cut quality / balance / replication;
* separate vs inline attribute storage space (the §3.2 cost comparison);
* lock-free request-flow buckets vs a lock-based store (§3.3, Figure 6);
* alias-table vs linear-scan weighted sampling (the sampling layer's O(1)
  draw machinery).
"""

from __future__ import annotations

from functools import partial

from repro.bench import Experiment, ExperimentReport
from repro.bench.timing import assert_faster, time_arms
from repro.data import make_dataset
from repro.storage.attributes import SeparateAttributeStore
from repro.storage.buckets import RequestFlowBuckets, synthetic_trace
from repro.storage.partition import (
    EdgeCutPartitioner,
    MetisPartitioner,
    StreamingPartitioner,
    TwoDimPartitioner,
    VertexCutPartitioner,
)
from repro.utils.alias import AliasTable
from repro.utils.rng import make_rng


def _run_partition(smoke: bool) -> ExperimentReport:
    """Cut/balance/replication across the four built-in strategies."""
    graph = make_dataset("taobao-small-sim", scale=0.5, seed=0)
    report = ExperimentReport(
        "ablation_partition", "Partition strategies at 8 workers"
    )
    partitioners = (
        MetisPartitioner(seed=0),
        EdgeCutPartitioner(),
        VertexCutPartitioner(),
        TwoDimPartitioner(),
        StreamingPartitioner(),
    )
    timings = time_arms({p.name: partial(p.partition, graph, 8) for p in partitioners}, 3)
    for partitioner in partitioners:
        assignment = partitioner.partition(graph, 8)
        report.add(
            partitioner.name,
            {
                "edge_cut": round(assignment.edge_cut_fraction(), 3),
                "balance": round(assignment.balance(), 3),
                "replication": round(assignment.replication_factor(), 2),
                **timings[partitioner.name].columns("time_s", per_s=1, digits=3),
            },
        )
    report.note("METIS/streaming minimize the cut; hash methods are cheapest")
    return report


def _check_partition(report: ExperimentReport, smoke: bool) -> None:
    rows = {r.label: r.measured for r in report.records}
    # The quality strategies must beat the stateless hash cut.
    assert rows["metis"]["edge_cut"] < rows["edge_cut"]["edge_cut"]
    assert rows["streaming"]["edge_cut"] < rows["edge_cut"]["edge_cut"]


def _run_attrs(smoke: bool) -> ExperimentReport:
    """Separate (deduplicating) vs inline attribute storage."""
    graph = make_dataset("taobao-small-sim", seed=0)
    store = SeparateAttributeStore()
    for v in range(graph.n_vertices):
        store.put_vertex_attr(v, graph.vertex_features[v])
    report = ExperimentReport(
        "ablation_attrs", "Attribute storage: inline vs separate indices"
    )
    report.add(
        "taobao-small-sim",
        {
            "inline_mb": round(store.inline_bytes() / 2**20, 2),
            "separate_mb": round(store.separated_bytes() / 2**20, 2),
            "saving_ratio": round(store.space_saving_ratio(), 1),
            "distinct_payloads": len(store.iv),
        },
    )
    report.note("O(n*N_D*N_L) inline vs O(n*N_D + N_A*N_L) separated (§3.2)")
    return report


def _check_attrs(report: ExperimentReport, smoke: bool) -> None:
    row = report.records[0].measured
    # Whole-row dedup: profile archetypes collide even though the one-hot
    # interest tags split them, so separation still wins clearly.
    assert row["saving_ratio"] > 1.2
    assert row["distinct_payloads"] < 0.8 * 16_000


def _run_buckets(smoke: bool) -> ExperimentReport:
    """Figure 6's lock-free request-flow buckets vs a lock-based store."""
    rng = make_rng(0)
    report = ExperimentReport(
        "ablation_buckets", "Lock-free buckets vs lock-based makespan (ms)"
    )
    buckets = RequestFlowBuckets(n_vertices=10_000, n_buckets=16)
    for update_fraction in (0.0, 0.1, 0.3):
        trace = synthetic_trace(10_000, 40_000, update_fraction, rng)
        lock_free = buckets.lock_free_makespan_us(trace) / 1000
        locked = buckets.locked_makespan_us(trace) / 1000
        report.add(
            f"updates={int(update_fraction * 100)}%",
            {
                "lock_free_ms": round(lock_free, 2),
                "locked_ms": round(locked, 2),
                "speedup": round(locked / lock_free, 1),
            },
        )
    return report


def _check_buckets(report: ExperimentReport, smoke: bool) -> None:
    speedups = [r.measured["speedup"] for r in report.records]
    assert all(s > 1.0 for s in speedups)
    # Update-heavy traces amplify the lock-free advantage.
    assert speedups[-1] > speedups[0]


def _run_alias(smoke: bool) -> ExperimentReport:
    """O(1) alias draws vs O(n) linear-scan weighted sampling."""
    rng = make_rng(1)
    report = ExperimentReport(
        "ablation_alias", "Weighted sampling: alias vs linear scan"
    )
    timings = {}
    for n in (1_000, 10_000, 100_000):
        weights = rng.random(n) + 0.01
        draws = 20_000
        table = AliasTable(weights)
        probs = weights / weights.sum()
        timings[n] = t = time_arms(
            {
                "alias": lambda: table.draw_batch(rng, draws),
                "linear": lambda: rng.choice(n, size=draws, p=probs),  # numpy's linear CDF
            },
            7,
        )
        report.add(
            f"n={n}",
            {
                **t["alias"].columns("alias_ms"),
                **t["linear"].columns("linear_ms"),
                "speedup": round(t["linear"].median / t["alias"].median, 1),
            },
        )
    report.note("alias draw cost is flat in n; CDF sampling grows (median, IQR of 7 rounds)")
    report.meta = {"timings": timings}
    return report


def _check_alias(report: ExperimentReport, smoke: bool) -> None:
    # Alias time is roughly flat; the largest-n case must win clearly.
    largest = report.meta["timings"][100_000]
    assert_faster(largest["linear"], largest["alias"], 1.0)


def _run_fanout(smoke: bool) -> ExperimentReport:
    """GraphSAGE quality vs SAMPLE fan-out (the paper's variance story)."""
    from repro.algorithms import GraphSAGE
    from repro.data import train_test_split_edges
    from repro.tasks import evaluate_link_prediction

    graph = make_dataset("taobao-small-sim", scale=0.25, seed=0)
    split = train_test_split_edges(graph, 0.2, seed=0)
    report = ExperimentReport(
        "ablation_fanout", "GraphSAGE ROC-AUC vs neighbor fan-out"
    )
    for fanout in (1, 4, 12):
        model = GraphSAGE(
            dim=32, fanout=fanout, epochs=3, max_steps_per_epoch=15, seed=0
        )
        model.fit(split.train_graph)
        result = evaluate_link_prediction(model.embeddings(), split)
        report.add(
            f"fanout={fanout}", {"roc_auc": round(result.roc_auc, 2)}
        )
    return report


def _check_fanout(report: ExperimentReport, smoke: bool) -> None:
    rows = [r.measured["roc_auc"] for r in report.records]
    # More sampled neighbors -> lower variance -> better quality.
    assert rows[-1] > rows[0]


EXPERIMENTS = (
    Experiment("ablation_partition", _run_partition, _check_partition),
    Experiment("ablation_attrs", _run_attrs, _check_attrs),
    Experiment("ablation_buckets", _run_buckets, _check_buckets),
    Experiment("ablation_alias", _run_alias, _check_alias),
    Experiment("ablation_fanout", _run_fanout, _check_fanout),
)
