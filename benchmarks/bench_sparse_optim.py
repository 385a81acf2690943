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

import numpy as np

from repro.data import powerlaw_graph
from repro.bench import Experiment, ExperimentReport
from repro.bench.timing import assert_faster, time_arms
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


def _init(n_rows: int) -> np.ndarray:
    return make_rng(1).normal(size=(n_rows, DIM)) * 0.01


def _trainer(n_rows: int, steps: int, sparse: bool):
    """``(step, table)``: each ``step()`` trains the table on the next batch.

    Dense Adam is fed the scattered minibatch gradient; SparseAdam the
    row-sparse ``(ids, grad_rows)`` gradient ``gather_rows`` records.
    """
    t = Tensor(_init(n_rows), requires_grad=True)
    t.accumulates_sparse = sparse
    opt = (SparseAdam if sparse else Adam)([t], lr=0.05)
    batches = iter(_batches(n_rows, steps))

    def step() -> None:
        t.zero_grad()
        (t.gather_rows(next(batches)) ** 2).sum().backward()
        opt.step()

    return step, t


def _kv_trainer(n_rows: int, steps: int, n_workers: int = 4):
    """The same workload through the parameter-server KV store."""
    graph = powerlaw_graph(min(n_rows, 2000), alpha=2.3, max_degree=30, seed=0)
    store = make_store(graph, n_workers, seed=0)
    kv = EmbeddingKVStore(
        store, n_rows, DIM, optimizer="adam", lr=0.05, init=_init(n_rows)
    )
    batches = iter(_batches(n_rows, steps))

    def step() -> None:
        ids = next(batches)
        mb = kv.minibatch(ids)
        (mb.lookup(ids) ** 2).sum().backward()
        mb.push()

    return step, kv, store


def _run(smoke: bool) -> ExperimentReport:
    report = ExperimentReport(
        "sparse_optim",
        "Embedding step cost: dense Adam vs sparse row updates "
        f"({BATCH}-row batches, dim {DIM})",
    )
    sizes = [10_000] if smoke else [10_000, 100_000, 1_000_000]
    steps = 5 if smoke else 20
    timings, sparse_tables = {}, {}
    for n_rows in sizes:
        dense, dense_t = _trainer(n_rows, steps, sparse=False)
        sparse, sparse_t = _trainer(n_rows, steps, sparse=True)
        # On the FIRST step the two semantics coincide (no momentum is
        # stale yet): touched rows must be bit-identical. Beyond step 1
        # the trajectories legitimately diverge — dense Adam drags every
        # momentum-carrying row on every step, which is the bug the
        # sparse pair fixes. The untimed first step also allocates the
        # optimizer state.
        dense()
        sparse()
        assert np.array_equal(dense_t.data, sparse_t.data)
        timings[n_rows] = t = time_arms({"dense": dense, "sparse": sparse}, steps - 1)
        sparse_tables[n_rows] = sparse_t.data
        report.add(
            f"{n_rows // 1000}k rows",
            {
                **t["dense"].columns("dense_ms_per_step", digits=3),
                **t["sparse"].columns("sparse_ms_per_step", digits=3),
                "speedup": f"{t['dense'].median / t['sparse'].median:.1f}x",
            },
        )

    # Parameter-server arm: per-step wall cost plus modelled transport, on
    # the table and batches of one in-process row above.
    kv_rows = 10_000 if smoke else 100_000
    kv_step, kv, store = _kv_trainer(kv_rows, steps)
    kv_step()
    kv_t = time_arms({"kv": kv_step}, steps - 1)["kv"]
    report.add(
        f"kv {kv_rows // 1000}k rows x4 shards",
        {
            **kv_t.columns("sparse_ms_per_step", digits=3),
            "modelled_ms": round(store.ledger.modelled_millis(), 3),
            "remote_rpc": store.ledger.count(EV_REMOTE_RPC),
            "bitwise_vs_inprocess": bool(
                np.array_equal(kv.materialize(), sparse_tables[kv_rows])
            ),
        },
    )
    report.note(
        "dense Adam walks the whole table per step (O(V*d)); SparseAdam "
        "updates only the batch's rows with per-row bias correction. The "
        "kv arm runs the identical workload through the hash-partitioned "
        "parameter server (one pull + one push round-trip per shard per "
        "step) and stays bit-identical to the in-process sparse run. "
        "*_ms_per_step: median and IQR over steps 2 onward, the dense and "
        "sparse steps interleaved."
    )
    report.meta = {"timings": timings}
    return report


def _check(report: ExperimentReport, smoke: bool) -> None:
    kv = report.records[-1].measured
    assert kv["bitwise_vs_inprocess"], "kv arm diverged from the in-process run"
    if smoke:
        return  # only the 10k table is built
    at_100k = report.meta["timings"][100_000]
    assert_faster(at_100k["dense"], at_100k["sparse"], 10.0)


EXPERIMENTS = (Experiment("sparse_optim", _run, _check),)
