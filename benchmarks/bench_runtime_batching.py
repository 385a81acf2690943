"""Runtime batching — RPC count and modelled latency, batched vs unbatched.

A 2-hop GraphSAGE-style sampling workload (fan-outs 10x5) runs twice against
identically partitioned stores: once reading one vertex per RPC (the
pre-runtime path) and once through the runtime's batching/coalescing stage
(one deduplicated request per destination server per hop). Both runs draw
from the same seed, so the sampled outputs are bit-identical — only the
transport differs. A third run enables fault injection (15% drops, 5%
timeouts, one 3x-slow server) and reports the retry and latency metrics.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, ExperimentReport
from repro.data import make_dataset
from repro.runtime import FaultPlan, RpcRuntime
from repro.sampling import CsrAdjacency, StoreProvider, UniformNeighborSampler
from repro.storage.cluster import make_store
from repro.storage.costmodel import EV_REMOTE_RPC
from repro.storage.rows import pack_rows
from repro.utils.rng import make_rng

N_WORKERS = 4
HOP_NUMS = [10, 5]
BATCHES = 4
BATCH_SIZE = 64
SEED = 7


class _PerVertexProvider(StoreProvider):
    """The baseline: one ``store.neighbors`` read per frontier entry — no
    dedup, no coalescing — packed into the same block, so the same draws."""

    def frontier_block(self, frontier):
        ids, rows = np.unique(frontier, return_inverse=True)
        fetched = {v: self.neighbors(v) for v in frontier.tolist()}
        indptr, indices = pack_rows([fetched[v] for v in ids.tolist()])
        return CsrAdjacency(indptr, indices, np.ones(indices.size)), rows


def _run_workload(batched: bool, faults: "FaultPlan | None" = None):
    graph = make_dataset("taobao-small-sim", scale=0.3, seed=0)
    store = make_store(graph, N_WORKERS, seed=0)
    if faults is not None:
        store.attach_runtime(RpcRuntime(store, faults=faults))
    provider = (StoreProvider if batched else _PerVertexProvider)(store, from_part=0)
    sampler = UniformNeighborSampler(provider)
    rng = make_rng(SEED)
    outputs = []
    for start in range(BATCHES):
        seeds = np.arange(start * BATCH_SIZE, (start + 1) * BATCH_SIZE)
        outputs.append(sampler.sample(seeds, HOP_NUMS, rng))
    return outputs, store


def _run(smoke: bool) -> ExperimentReport:
    report = ExperimentReport(
        "runtime_batching",
        "RPC runtime: batched vs unbatched 2-hop sampling workload",
    )
    out_unbatched, store_u = _run_workload(batched=False)
    out_batched, store_b = _run_workload(batched=True)

    # Identical sampled outputs at fixed seed — the transport is invisible.
    for a, b in zip(out_unbatched, out_batched):
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la, lb)

    rpc_u = store_u.ledger.count(EV_REMOTE_RPC)
    rpc_b = store_b.ledger.count(EV_REMOTE_RPC)
    ms_u = store_u.ledger.modelled_millis()
    ms_b = store_b.ledger.modelled_millis()
    report.add(
        "unbatched", {"remote_rpc": rpc_u, "modelled_ms": round(ms_u, 3)}
    )
    report.add(
        "batched",
        {
            "remote_rpc": rpc_b,
            "modelled_ms": round(ms_b, 3),
            "rpc_reduction": f"{rpc_u / max(rpc_b, 1):.1f}x",
        },
    )

    plan = FaultPlan(
        drop_rate=0.15,
        timeout_rate=0.05,
        slow_parts=frozenset({1}),
        slow_factor=3.0,
        seed=SEED,
    )
    out_faulted, store_f = _run_workload(batched=True, faults=plan)
    for a, b in zip(out_unbatched, out_faulted):
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la, lb)
    metrics = store_f.runtime.metrics
    latency = metrics.histogram("rpc.latency_us")
    report.add(
        "batched+faults(20%)",
        {
            "remote_rpc": store_f.ledger.count(EV_REMOTE_RPC),
            "retries": metrics.counter("rpc.retries").value,
            "p50_us": round(latency.percentile(50), 1),
            "p95_us": round(latency.percentile(95), 1),
        },
    )
    report.note(
        "same seed, bit-identical sampled layers in all three runs; the "
        "batched path coalesces each hop frontier into one deduplicated "
        "request per destination server (drops/timeouts retried with "
        "capped exponential backoff)"
    )
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    by_label = {r.label: r.measured for r in report.records}
    rpc_u = by_label["unbatched"]["remote_rpc"]
    rpc_b = by_label["batched"]["remote_rpc"]
    # The acceptance bar is 2x; batching one hop frontier per server
    # lands far beyond it.
    assert rpc_u >= 2 * rpc_b
    assert by_label["batched"]["modelled_ms"] < by_label["unbatched"]["modelled_ms"]
    # Under 20% injected faults the workload still completes, with
    # observable retries and latency percentiles.
    faulted = by_label["batched+faults(20%)"]
    assert faulted["retries"] > 0
    assert faulted["p95_us"] >= faulted["p50_us"] > 0


EXPERIMENTS = (
    Experiment(
        "runtime_batching",
        _run,
        _check,
        # Ledger counts and virtual-clock latencies, exact at the seed.
        (r":(remote_rpc|modelled_ms|p50_us|p95_us|retries)$",),
    ),
)
