"""Sparse-optimizer step cost: dense Adam vs SparseAdam on embedding tables.

The dense-Adam path scatters a minibatch gradient into an O(V x d) dense
array and walks the whole table every step; the sparse path consumes the
``(ids, grad_rows)`` gradient recorded by ``gather_rows`` and touches only
the batch's rows. At AliGraph scale (1e9+ vertices) the dense step is
simply not runnable; this bench measures the crossover on tables that fit
in one process, plus the modelled cost of the same workload through the
partitioned parameter-server KV store (batched, deduplicated pulls and
pushes over the RPC runtime).
"""

from __future__ import annotations

import time

import numpy as np

from repro.data import powerlaw_graph
from repro.bench import Experiment, ExperimentReport
from repro.nn.optim import Adam, SparseAdam
from repro.nn.tensor import Tensor
from repro.storage import EmbeddingKVStore
from repro.storage.cluster import make_store
from repro.storage.costmodel import EV_REMOTE_RPC
from repro.utils.rng import make_rng

DIM = 64
BATCH = 256
SEED = 13


def _batches(n_rows: int, steps: int) -> "list[np.ndarray]":
    rng = make_rng(SEED)
    return [rng.integers(0, n_rows, size=BATCH) for _ in range(steps)]


def _dense_steps(init: np.ndarray, batches: "list[np.ndarray]") -> "tuple[float, np.ndarray]":
    """Seconds per step for dense Adam fed a scattered minibatch gradient."""
    t = Tensor(init.copy(), requires_grad=True)
    opt = Adam([t], lr=0.05)
    start = time.perf_counter()
    for ids in batches:
        t.zero_grad()
        (t.gather_rows(ids) ** 2).sum().backward()
        opt.step()
    return (time.perf_counter() - start) / len(batches), t.data


def _sparse_steps(init: np.ndarray, batches: "list[np.ndarray]") -> "tuple[float, np.ndarray]":
    """Seconds per step for SparseAdam fed the row-sparse gradient."""
    t = Tensor(init.copy(), requires_grad=True)
    t.accumulates_sparse = True
    opt = SparseAdam([t], lr=0.05)
    start = time.perf_counter()
    for ids in batches:
        t.zero_grad()
        (t.gather_rows(ids) ** 2).sum().backward()
        opt.step()
    return (time.perf_counter() - start) / len(batches), t.data


def _kv_steps(init: np.ndarray, batches: "list[np.ndarray]", n_workers: int = 4):
    """The same workload through the parameter-server KV store."""
    n_rows = init.shape[0]
    graph = powerlaw_graph(min(n_rows, 2000), alpha=2.3, max_degree=30, seed=0)
    store = make_store(graph, n_workers, seed=0)
    kv = EmbeddingKVStore(
        store, n_rows, DIM, optimizer="adam", lr=0.05, init=init.copy()
    )
    start = time.perf_counter()
    for ids in batches:
        mb = kv.minibatch(ids)
        (mb.lookup(ids) ** 2).sum().backward()
        mb.push()
    wall = (time.perf_counter() - start) / len(batches)
    return wall, kv.materialize(), store


def _run(smoke: bool) -> ExperimentReport:
    report = ExperimentReport(
        "sparse_optim",
        "Embedding step cost: dense Adam vs sparse row updates "
        f"({BATCH}-row batches, dim {DIM})",
    )
    sizes = [10_000] if smoke else [10_000, 100_000, 1_000_000]
    steps = 5 if smoke else 20
    speedups = {}
    for n_rows in sizes:
        init = make_rng(1).normal(size=(n_rows, DIM)) * 0.01
        batches = _batches(n_rows, steps)
        dense_s, dense_table = _dense_steps(init, batches)
        sparse_s, sparse_table = _sparse_steps(init, batches)
        # On the FIRST step the two semantics coincide (no momentum is
        # stale yet): touched rows must be bit-identical. Beyond step 1
        # the trajectories legitimately diverge — dense Adam drags every
        # momentum-carrying row on every step, which is the bug the
        # sparse pair fixes.
        _, dense_one = _dense_steps(init, batches[:1])
        _, sparse_one = _sparse_steps(init, batches[:1])
        assert np.array_equal(dense_one, sparse_one)
        speedups[n_rows] = dense_s / sparse_s
        report.add(
            f"{n_rows // 1000}k rows",
            {
                "dense_ms_per_step": round(dense_s * 1e3, 3),
                "sparse_ms_per_step": round(sparse_s * 1e3, 3),
                "speedup": f"{dense_s / sparse_s:.1f}x",
            },
        )

    # Parameter-server arm: per-step wall cost plus modelled transport.
    kv_rows = 10_000 if smoke else 100_000
    init = make_rng(1).normal(size=(kv_rows, DIM)) * 0.01
    batches = _batches(kv_rows, steps)
    kv_s, kv_table, store = _kv_steps(init, batches)
    _, sparse_table = _sparse_steps(init, batches)
    report.add(
        f"kv {kv_rows // 1000}k rows x4 shards",
        {
            "sparse_ms_per_step": round(kv_s * 1e3, 3),
            "modelled_ms": round(store.ledger.modelled_millis(), 3),
            "remote_rpc": store.ledger.count(EV_REMOTE_RPC),
            "bitwise_vs_inprocess": bool(
                np.array_equal(kv_table, sparse_table)
            ),
        },
    )
    report.note(
        "dense Adam walks the whole table per step (O(V*d)); SparseAdam "
        "updates only the batch's rows with per-row bias correction. The "
        "kv arm runs the identical workload through the hash-partitioned "
        "parameter server (one pull + one push round-trip per shard per "
        "step) and stays bit-identical to the in-process sparse run."
    )
    report.meta = {"speedups": speedups}
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    kv = report.records[-1].measured
    assert kv["bitwise_vs_inprocess"], "kv arm diverged from the in-process run"
    if smoke:
        return  # only the 10k table is built
    assert report.meta["speedups"][100_000] >= 10.0, (
        "sparse step speedup below the 10x acceptance bar at 100k rows"
    )


EXPERIMENTS = (Experiment("sparse_optim", _run, _check),)
