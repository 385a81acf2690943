"""Fault matrix — read availability under {drop rate x dead workers x cache}.

Sweeps {drop rate x failed workers x cache policy} over a 2-hop
GraphSAGE-style sampling workload and measures, per cell:

* **availability** — the fraction of neighbor reads served *with data*
  (local shard, issuer cache, healthy remote, replica failover or suspect
  route). Reads no server or replica can serve degrade to an empty row
  (the store runs with ``degraded_reads=True`` so one dead cold vertex
  does not abort the whole workload) and count as unavailable.
* **failover / suspect-route / degraded counts** from the cost ledger;
* **retries and p95 modelled RPC latency** from the runtime metrics.

This is the serving-layer availability story the paper's §4.3 caching
theorems imply: important vertices are replicated "on each partition it
occurs", so a failed worker's hot data survives in the importance caches
while cold tails degrade. The acceptance bar: with
``FaultPlan(drop_rate=0.2)``, one fail-stopped worker and the importance
cache, availability must be >= 99% — while LRU and cacheless stores sit
near the live-shard fraction (~62% with 1 of 4 workers down), because
only importance caching replicates the hub mass every hop expansion
keeps landing on. A random cache, drawn separately on each server, sits
between the two: its diverged caches serve some of the dead worker's
reads as replica failovers. Other sweeps call :func:`run_fault_matrix` with their
own axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench import Experiment, ExperimentReport
from repro.data import make_dataset
from repro.graph.graph import Graph
from repro.runtime.faults import FaultPlan
from repro.runtime.rpc import RpcRuntime
from repro.storage.cache import (
    CachePolicy,
    ImportanceCachePolicy,
    LRUCachePolicy,
    RandomCachePolicy,
)
from repro.storage.cluster import DistributedGraphStore, make_store
from repro.storage.costmodel import EV_FAILOVER_READ, EV_SUSPECT_ROUTE
from repro.utils.rng import make_rng

#: Cache policies the matrix sweeps, by name.
POLICIES: "dict[str, type[CachePolicy] | None]" = {
    "none": None,
    "lru": LRUCachePolicy,
    "random": RandomCachePolicy,
    "importance": ImportanceCachePolicy,
}


@dataclass(frozen=True)
class FaultMatrixCell:
    """One swept configuration of the fault matrix."""

    drop_rate: float
    n_failed: int
    policy: str

    @property
    def label(self) -> str:
        return (
            f"drop={self.drop_rate:.0%} failed={self.n_failed} "
            f"cache={self.policy}"
        )


@dataclass(frozen=True)
class FaultMatrixRow:
    """Measured outcome of one cell."""

    cell: FaultMatrixCell
    reads_total: int
    reads_served: int
    failover_reads: int
    suspect_routes: int
    degraded_reads: int
    retries: int
    p95_latency_us: float
    modelled_ms: float

    @property
    def availability(self) -> float:
        """Fraction of neighbor reads served with data."""
        if self.reads_total == 0:
            return 1.0
        return self.reads_served / self.reads_total


def _run_workload(
    store: DistributedGraphStore,
    hop_nums: "tuple[int, ...]",
    n_batches: int,
    batch_size: int,
    seed: int,
    from_part: int,
) -> "tuple[int, int]":
    """Drive the 2-hop GraphSAGE-style expansion.

    Mirrors what the neighborhood samplers do through ``StoreProvider`` —
    one deduplicated ``get_neighbors_batch`` per hop frontier — and counts
    *logical* reads (one per sampled neighbor, before the batcher's dedup)
    so availability is weighted the way the traffic actually is: a hub
    sampled forty times is forty served reads, and coalescing them into
    one RPC does not change what the workload observed. Returns
    ``(reads_issued, reads_degraded)``.

    Seed vertices are drawn from live shards only — a trainer cannot
    enumerate minibatch ids on a fail-stopped worker, so it re-shards its
    seed list around the dead partition. Hop expansion has no such
    freedom: sampled neighbors land wherever the graph points, including
    the failed worker, and those reads are where caching earns (or fails
    to earn) its availability.
    """
    rng = make_rng(seed)
    graph = store.graph
    n = graph.n_vertices
    all_ids = np.arange(n)
    owners = np.array([store.owner(int(v)) for v in all_ids])
    alive = all_ids[~np.isin(owners, list(store.failed_workers))]
    reads = 0
    degraded = 0
    for b in range(n_batches):
        frontier = alive[
            (np.arange(b * batch_size, (b + 1) * batch_size)) % alive.size
        ]
        for fanout in hop_nums:
            uniq, mult = np.unique(frontier, return_counts=True)
            weight = dict(zip(uniq.tolist(), mult.tolist()))
            block = store.get_neighbors_batch(frontier, from_part=from_part)
            reads += int(frontier.size)
            # A degraded read comes back as an empty row for a vertex the
            # analytical snapshot knows has neighbors (the workload never
            # mutates the graph, so the snapshot is ground truth).
            empty = block.ids[np.diff(block.offsets) == 0].tolist()
            degraded += sum(
                weight[v] for v in empty if graph.out_neighbors(v).size > 0
            )
            rows = dict(zip(block.ids.tolist(), np.split(block.indices, block.offsets[1:-1])))
            nxt = [
                rng.choice(row, size=fanout, replace=True)
                for row in (rows[v] for v in uniq.tolist())
                if row.size
            ]
            if not nxt:
                break
            frontier = np.concatenate(nxt)
    return reads, degraded


def run_fault_matrix(
    graph: Graph,
    drop_rates: "tuple[float, ...]" = (0.0, 0.2),
    failed_workers: "tuple[int, ...]" = (0, 1),
    policies: "tuple[str, ...]" = ("none", "lru", "random", "importance"),
    n_workers: int = 4,
    cache_fraction: float = 0.25,
    hop_nums: "tuple[int, ...]" = (10, 5),
    n_batches: int = 2,
    batch_size: int = 64,
    seed: int = 7,
) -> "list[FaultMatrixRow]":
    """Sweep the fault matrix over ``graph``; one row per cell.

    Worker 0 issues every read; failed workers are taken from the top of
    the part range (never the issuer), so a cell with ``n_failed=1`` runs
    with worker ``n_workers - 1`` fail-stopped before the first read.
    """
    rows: "list[FaultMatrixRow]" = []
    for policy_name in policies:
        if policy_name not in POLICIES:
            raise ValueError(
                f"unknown policy {policy_name!r}; have {sorted(POLICIES)}"
            )
        for drop_rate in drop_rates:
            for n_failed in failed_workers:
                if n_failed >= n_workers:
                    raise ValueError(
                        f"cannot fail {n_failed} of {n_workers} workers"
                    )
                cell = FaultMatrixCell(drop_rate, n_failed, policy_name)
                policy_cls = POLICIES[policy_name]
                store = make_store(
                    graph,
                    n_workers,
                    cache_policy=policy_cls() if policy_cls else None,
                    cache_budget_fraction=(
                        cache_fraction if policy_cls else 0.0
                    ),
                    seed=seed,
                    degraded_reads=True,
                )
                store.attach_runtime(
                    RpcRuntime(
                        store, faults=FaultPlan(drop_rate=drop_rate, seed=seed)
                    )
                )
                for k in range(n_failed):
                    store.fail_worker(n_workers - 1 - k)
                reads, degraded = _run_workload(
                    store, hop_nums, n_batches, batch_size, seed, from_part=0
                )
                metrics = store.runtime.metrics
                rows.append(
                    FaultMatrixRow(
                        cell=cell,
                        reads_total=reads,
                        reads_served=reads - degraded,
                        failover_reads=store.ledger.count(EV_FAILOVER_READ),
                        suspect_routes=store.ledger.count(EV_SUSPECT_ROUTE),
                        degraded_reads=degraded,
                        retries=metrics.counter("rpc.retries").value,
                        p95_latency_us=metrics.histogram(
                            "rpc.latency_us"
                        ).percentile(95),
                        modelled_ms=store.ledger.modelled_millis(),
                    )
                )
    return rows


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
        "expansion reads everywhere. failover counts reads of a dead "
        "owner's vertex served from another server's replica: the "
        "importance plan pins the same hub set on every server, so the "
        "issuer's own cache hit subsumes the replica probe (failover=0), "
        "while the random plan draws a different set per server and its "
        "diverged caches serve failovers; lru fills only the issuer's cache."
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

    # Under a dead worker importance caching beats random, which beats LRU
    # and cacheless (those two degrade identically: LRU only demand-fills
    # on the issuer, so no other server holds replicas). Random caches
    # diverge across servers, so some reads fail over to a replica.
    for drop in ("0%", "20%"):
        imp = by_label[f"drop={drop} failed=1 cache=importance"]
        rnd = by_label[f"drop={drop} failed=1 cache=random"]
        lru = by_label[f"drop={drop} failed=1 cache=lru"]
        none = by_label[f"drop={drop} failed=1 cache=none"]
        assert imp["availability"] > rnd["availability"] > lru["availability"]
        assert lru["availability"] == none["availability"]
        assert rnd["failover"] > 0

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
            r":(reads|availability|failover|suspect_routes|degraded|retries"
            r"|p95_us)$",
        ),
    ),
)
