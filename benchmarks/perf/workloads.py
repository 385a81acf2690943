"""The five frozen workloads: inputs, fixtures, timed region, output checks.

Every workload is ``taobao-small-sim`` on 4 workers. ``--seed`` reaches the
program only as generated inputs — the dataset, the RNG streams handed to
samplers, the arrival schedule, the event stream; no code under ``src/``
ever sees a workload name. A workload is five steps the harness drives:

* ``prepare(seed)``   — one-off inputs (timed into ``setup_s``);
* ``build(rec)``      — per-round fixtures, *outside* the timed region, so
  every round does identical work; with a span recorder the layer
  boundaries of those fixtures are wrapped here;
* ``run(ctx)``        — the timed region, nothing else;
* ``check(ctx, out)`` — output checks and the deterministic counters the
  harness asserts equal round to round (untimed);
* ``exact_metrics(sweep)`` — run-once virtual-clock measurements (the
  serving phases).

Sizes are frozen: changing one re-baselines every number in the README.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.graphsage import GraphSAGE
from repro.data import make_dataset
from repro.graph.dynamic import EdgeEvent
from repro.runtime import FaultPlan, RpcRuntime, StageProfiler
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    SamplingPipeline,
    StoreProvider,
    UniformNeighborSampler,
    VertexTraverseSampler,
)
from repro.serving import (
    CLASS_CACHED,
    CLASS_FRESH,
    OUTCOME_DEADLINE,
    OUTCOME_LATE,
    OUTCOME_OK,
    OUTCOME_SHED,
    OpenLoopWorkload,
    ServingConfig,
    ServingEngine,
    build_slo_report,
    constant_rate,
)
from repro.storage import CostModel, ImportanceCachePolicy, LRUCachePolicy
from repro.storage.cluster import build_distributed, make_store
from repro.storage.costmodel import (
    EV_CACHE_FILL,
    EV_CACHE_HIT,
    EV_EDGE_INGESTED,
    EV_ITEM_SHIPPED,
    EV_LOCAL_READ,
    EV_REMOTE_RPC,
    EV_REPLICA_REFRESH,
)
from repro.storage.partition.hashcut import EdgeCutPartitioner

DATASET = "taobao-small-sim"
N_WORKERS = 4
CACHE_FRACTION = 0.1

_LEDGER_EVENTS = {
    "ledger.remote_rpc": EV_REMOTE_RPC,
    "ledger.local_read": EV_LOCAL_READ,
    "ledger.cache_hit": EV_CACHE_HIT,
    "ledger.cache_fill": EV_CACHE_FILL,
    "ledger.item_shipped": EV_ITEM_SHIPPED,
    "ledger.replica_refresh": EV_REPLICA_REFRESH,
    "ledger.edge_ingested": EV_EDGE_INGESTED,
}

#: Public methods wrapped on every store / runtime the harness builds.
_STORE_TARGETS = (
    ("get_neighbors_batch", "storage.cluster"),
    ("neighbors", "storage.cluster"),
    ("apply_edge_events", "storage.cluster"),
    ("set_cache_policy", "storage.cache"),
)
_RUNTIME_TARGETS = (("execute", "runtime.rpc"), ("submit", "runtime.rpc"))


@dataclass
class Outcome:
    """What one round's untimed checks found."""

    units: int
    #: Units whose output failed a check. A check coarser than one unit
    #: (an edge-count mismatch, a dirty replica audit) fails the whole
    #: round's units; per-unit checks fail only the units they caught.
    failed: int = 0
    problems: "list[str]" = field(default_factory=list)
    #: Seeded arithmetic that must repeat exactly round to round.
    counters: dict = field(default_factory=dict)
    #: Exact (virtual-clock / ledger / seeded) end-to-end numbers.
    exact: dict = field(default_factory=dict)
    #: Per-layer counts read after the round.
    layer_counts: dict = field(default_factory=dict)
    #: ``StageProfiler`` totals in seconds (traced ``train_gnn`` rounds only).
    stage_s: dict = field(default_factory=dict)

    def fail_round(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed = self.units


def _span(rec, name: str, layer: str):
    return rec.span(name, layer) if rec is not None else nullcontext()


def _wrap_store(rec, store, runtime) -> None:
    if rec is None:
        return
    for attr, layer in _STORE_TARGETS:
        rec.wrap(store, attr, layer, f"store.{attr}")
    for attr, layer in _RUNTIME_TARGETS:
        rec.wrap(runtime, attr, layer, f"runtime.{attr}")


def _ledger_counts(ledger) -> dict:
    return {name: int(ledger.count(event)) for name, event in _LEDGER_EVENTS.items()}


def _runtime_counts(runtime) -> dict:
    metrics = runtime.metrics
    return {
        "runtime.rpc.requests": int(metrics.counter("rpc.requests").value),
        "runtime.rpc.retries": int(metrics.counter("rpc.retries").value),
        "runtime.rpc.batch_size_mean": float(metrics.histogram("rpc.batch_size").mean),
    }


def _cache_contents(cache, n_vertices: int) -> "set[int]":
    """Vertex ids a neighbor cache holds, through its public surface only."""
    held = set(cache.pinned_vertices())
    if not cache.supports_batch_probe:  # demand-filled entries have no listing
        held.update(v for v in range(n_vertices) if cache.peek(v) is not None)
    return held


def _audit_replicas(store, outcome: Outcome) -> None:
    """The replica index must equal what the caches actually hold."""
    n = store.graph.n_vertices
    contents = {s.part_id: _cache_contents(s.neighbor_cache, n) for s in store.servers}
    audit = store.replicas.audit(contents)
    if audit["missing"] or audit["stale"]:
        outcome.fail_round(
            f"replica audit: {len(audit['missing'])} missing, {len(audit['stale'])} stale"
        )


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    """Rank-skew CDF. The harness draws its own Zipf ids so that its inputs
    do not change when the program's ``ZipfSampler`` does."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


@dataclass(frozen=True)
class LedgerTap(CostModel):
    """A default-priced cost model that remembers the ledgers it hands out.

    ``build_distributed`` charges edge ingestion to a ledger it never
    returns; passing this through the public ``cost_model`` argument is how
    the harness reads it from outside.
    """

    ledgers: list = field(default_factory=list, compare=False)

    def accumulator(self):
        ledger = super().accumulator()
        self.ledgers.append(ledger)
        return ledger


class BuildStore:
    name = "build_store"
    unit = "edge"
    scale = 10.0
    why = (
        "Fig. 7 build time: graph ingest, partitioning, cache planning and server "
        "construction do all the work, so work a later PR moves from reads into set-up shows"
    )
    size = "scale 10 (~52k vertices / ~404k edges): build_distributed + make_store"

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.graph = make_dataset(DATASET, scale=self.scale, seed=seed)
        rng = np.random.default_rng(seed)
        self.probe = rng.choice(self.graph.n_vertices, size=256, replace=False)

    def build(self, rec) -> dict:
        policy = ImportanceCachePolicy()
        if rec is not None:
            # build_distributed makes its own partitioner: wrap the class.
            rec.wrap(EdgeCutPartitioner, "partition", "storage.partition")
            rec.wrap(policy, "select", "storage.cache", "cache_policy.select")
        return {"rec": rec, "policy": policy, "tap": LedgerTap()}

    def run(self, ctx: dict) -> dict:
        rec, tap = ctx["rec"], ctx["tap"]
        with _span(rec, "build_distributed", "storage.cluster") as build_span:
            built, report = build_distributed(self.graph, N_WORKERS, cost_model=tap)
        with _span(rec, "make_store", "storage.cluster"):
            store = make_store(
                self.graph,
                N_WORKERS,
                cost_model=tap,
                cache_policy=ctx["policy"],
                cache_budget_fraction=CACHE_FRACTION,
                seed=self.seed,
            )
        return {"built": built, "report": report, "store": store, "build_span": build_span}

    def _lay_in_ingest_spans(self, rec, out: dict) -> None:
        """``graph`` ingest time is what the build itself clocked per worker.

        The build reports durations, not positions; the spans are laid back
        to back after the partition span, inside ``build_distributed``.
        """
        parent = out["build_span"]
        cursor = max(
            (s[3] for s in rec.spans if s[4] == parent), default=rec.spans[parent][2]
        )
        for worker, seconds in enumerate(getattr(out["report"], "per_worker_seconds", ())):
            rec.add(f"graph.ingest[{worker}]", "graph", cursor, cursor + seconds, parent)
            cursor += seconds

    def check(self, ctx: dict, out: dict) -> Outcome:
        graph, store = self.graph, out["store"]
        outcome = Outcome(units=graph.n_edges)
        if ctx["rec"] is not None:
            self._lay_in_ingest_spans(ctx["rec"], out)
        ledgers = ctx["tap"].ledgers
        modelled_us = sum(ledger.modelled_micros() for ledger in ledgers)
        ingested = sum(int(ledger.count(EV_EDGE_INGESTED)) for ledger in ledgers)
        shard_edges = [
            tuple(int(s.n_local_edges) for s in cluster.servers)
            for cluster in (out["built"], store)
        ]
        for edges in shard_edges:
            if sum(edges) != graph.n_edges:
                outcome.fail_round(f"shards hold {sum(edges)} edges, graph has {graph.n_edges}")
        for v in self.probe.tolist():
            if not np.array_equal(store.neighbors(v, from_part=0), graph.out_neighbors(v)):
                outcome.fail_round(f"store.neighbors({v}) differs from the graph")
                break
        _audit_replicas(store, outcome)
        outcome.exact = {"modelled_us_per_unit": modelled_us / outcome.units}
        outcome.counters = {
            "shard_edges": shard_edges,
            "cached": [len(s.neighbor_cache) for s in store.servers],
            "modelled_us": modelled_us,
        }
        outcome.layer_counts = {
            "ledger.edge_ingested": ingested,
            "storage.cache.hit_rate": 0.0,
        }
        return outcome


class SampleStore:
    name = "sample_store"
    unit = "seed"
    scale = 2.0
    why = (
        "Table 4 store-backed sampling, the path the columnar read PR attacks: "
        "sampling.neighborhood + storage.cluster + runtime dominate, nn/ops are absent"
    )
    size = "scale 2 (10.4k vertices / 80k edges): 24 x pipeline.sample(512), hops [10, 5], neg 5"
    batches = 24
    batch_size = 512
    hop_nums = (10, 5)
    neg_num = 5

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.graph = make_dataset(DATASET, scale=self.scale, seed=seed)
        src, dst, _ = self.graph.edge_array()
        self.edge_keys = np.unique(src * self.graph.n_vertices + dst)

    def build(self, rec) -> dict:
        graph = self.graph
        store = make_store(
            graph,
            N_WORKERS,
            cache_policy=ImportanceCachePolicy(),
            cache_budget_fraction=CACHE_FRACTION,
            seed=self.seed,
        )
        runtime = RpcRuntime(store)
        store.attach_runtime(runtime)
        provider = StoreProvider(store, from_part=0)
        pipeline = SamplingPipeline(
            traverse=VertexTraverseSampler(graph, vertex_type="user"),
            neighborhood=UniformNeighborSampler(provider),
            negative=DegreeBiasedNegativeSampler(graph),
            hop_nums=list(self.hop_nums),
            neg_num=self.neg_num,
            metrics=runtime.metrics,
        )
        if rec is not None:
            _wrap_store(rec, store, runtime)
            rec.wrap(pipeline, "sample", "sampling.pipeline", "pipeline.sample")
            rec.wrap(pipeline.traverse, "sample", "sampling.traverse", "traverse.sample")
            rec.wrap(
                pipeline.neighborhood, "sample", "sampling.neighborhood", "neighborhood.sample"
            )
            rec.wrap(pipeline.negative, "sample", "sampling.negative", "negative.sample")
            rec.wrap(provider, "prefetch", "sampling.neighborhood", "provider.prefetch")
        return {
            "store": store,
            "runtime": runtime,
            "pipeline": pipeline,
            "rng": np.random.default_rng(self.seed),
        }

    def run(self, ctx: dict) -> list:
        pipeline, rng = ctx["pipeline"], ctx["rng"]
        return [pipeline.sample(self.batch_size, rng) for _ in range(self.batches)]

    def _is_edge(self, keys: np.ndarray) -> np.ndarray:
        slot = np.searchsorted(self.edge_keys, keys)
        slot[slot == self.edge_keys.size] = 0
        return self.edge_keys[slot] == keys

    def _bad_seeds(self, batch) -> int:
        """Seeds with a child that is neither a neighbor nor the parent (pad)."""
        n = self.graph.n_vertices
        layers = batch.context.layers
        sizes = [self.batch_size]
        for fanout in self.hop_nums:
            sizes.append(sizes[-1] * fanout)
        if [int(layer.size) for layer in layers] != sizes:
            return self.batch_size
        bad = np.zeros(self.batch_size, dtype=bool)
        for k, fanout in enumerate(self.hop_nums):
            parents = np.repeat(layers[k], fanout)
            children = layers[k + 1]
            ok = (children == parents) | self._is_edge(parents * n + children)
            bad |= ~ok.reshape(self.batch_size, -1).all(axis=1)
        return int(bad.sum())

    def check(self, ctx: dict, out: list) -> Outcome:
        store, runtime = ctx["store"], ctx["runtime"]
        outcome = Outcome(units=self.batches * self.batch_size)
        ledger = store.ledger
        outcome.exact = {"modelled_us_per_unit": ledger.modelled_micros() / outcome.units}
        outcome.layer_counts = {
            **_ledger_counts(ledger),
            **_runtime_counts(runtime),
            "storage.cache.hit_rate": float(store.cache_hit_rate()),
        }
        bad = sum(self._bad_seeds(batch) for batch in out)
        if bad:
            outcome.failed = bad
            outcome.problems.append(f"{bad} seeds have a child outside the parent's adjacency")
        completed = int(runtime.metrics.counter("rpc.completed").value)
        if completed != ledger.count(EV_REMOTE_RPC):
            outcome.fail_round(
                f"fault-free rpc.completed={completed} != ledger remote_rpc="
                f"{ledger.count(EV_REMOTE_RPC)}"
            )
        outcome.counters = {
            "layer_counts": outcome.layer_counts,
            "modelled_us": ledger.modelled_micros(),
            "checksum": int(sum(int(b.context.layers[-1].sum()) for b in out)),
        }
        return outcome


class TrainGnn:
    name = "train_gnn"
    unit = "step"
    scale = 2.0
    why = (
        "compute half of flow 2: nn autograd, ops aggregate/combine and sampling.blocks "
        "dominate and storage/runtime are bypassed, so a read-path PR must leave it unmoved"
    )
    size = "scale 2: GraphSAGE(dim 64, kmax 2, fanout 8).fit, 15 block steps of 512 edges"
    steps = 15
    dim = 64

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.graph = make_dataset(DATASET, scale=self.scale, seed=seed)

    def build(self, rec) -> dict:
        profiler = StageProfiler() if rec is not None else None
        model = GraphSAGE(
            dim=self.dim,
            kmax=2,
            fanout=8,
            epochs=1,
            batch_size=512,
            max_steps_per_epoch=self.steps,
            minibatch_blocks=True,
            seed=self.seed,
            profiler=profiler,
        )
        return {"rec": rec, "model": model, "profiler": profiler}

    def run(self, ctx: dict):
        with _span(ctx["rec"], "model.fit", "train"):
            return ctx["model"].fit(self.graph)

    def check(self, ctx: dict, model) -> Outcome:
        outcome = Outcome(units=self.steps)
        loss = float(model.loss_history[-1])
        emb = model.embeddings()
        if not np.isfinite(loss):
            outcome.fail_round(f"loss is {loss}")
        if emb.shape != (self.graph.n_vertices, self.dim) or not np.isfinite(emb).all():
            outcome.fail_round(f"embeddings {emb.shape} are not finite (n, {self.dim})")
        elif not np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9):
            outcome.fail_round("embedding rows are not unit length")
        stats = getattr(model, "block_stats", {})
        rows = int(stats.get("total_rows", 0))
        # The repo's one modelled compute price: the serving engine charges
        # every context row compute_us_per_row; a training step is charged
        # the same for every row of its block.
        modelled_us = rows * ServingConfig().compute_us_per_row
        outcome.exact = {
            "modelled_us_per_unit": modelled_us / outcome.units,
            "final_loss": loss,
        }
        outcome.layer_counts = {
            "train.block_input_rows": int(stats.get("input_rows", 0)),
            "train.block_total_rows": rows,
        }
        if ctx["profiler"] is not None:
            outcome.stage_s = {
                stage: us / 1e6 for stage, us in ctx["profiler"].stage_totals().items()
            }
        outcome.counters = {"loss": loss, "block_stats": dict(stats)}
        return outcome


class ServeMixed:
    name = "serve_mixed"
    unit = "request"
    scale = 2.0
    why = (
        "flow 3, the only one with admission, the embedding LRU and batch-of-one store "
        "reads: a batching win that taxes small reads shows here"
    )
    size = (
        "scale 2: open loop 0.25 s virtual per phase, 10% fresh, Zipf 1.1; rounds repeat "
        "r8000 (~2k requests); one sweep r2000..r32000 (~25k requests)"
    )
    phase_us = 250_000.0
    round_rate = 8_000
    sweep_rates = (2_000, 8_000, 16_000, 20_000, 24_000, 32_000)
    latency_rate = 16_000
    overload_rate = 32_000

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.graph = make_dataset(DATASET, scale=self.scale, seed=seed)
        self.users = self.graph.vertices_of_type("user")

    def _arrivals(self, rate: int) -> OpenLoopWorkload:
        return OpenLoopWorkload(
            self.users,
            duration_us=self.phase_us,
            rate=constant_rate(float(rate)),
            fresh_fraction=0.1,
            zipf_exponent=1.1,
            seed=self.seed,
        )

    def build(self, rec, rate: "int | None" = None) -> dict:
        rate = rate or self.round_rate
        store = make_store(
            self.graph,
            N_WORKERS,
            cache_policy=ImportanceCachePolicy(),
            cache_budget_fraction=CACHE_FRACTION,
            seed=self.seed,
        )
        runtime = RpcRuntime(store)
        store.attach_runtime(runtime)
        engine = ServingEngine(
            store, ServingConfig(embed_cache_capacity=512), seed=self.seed
        )
        workload = self._arrivals(rate)
        if rec is not None:
            _wrap_store(rec, store, runtime)
            rec.wrap(engine, "run", "serving.engine", "engine.run")
            rec.wrap(engine.sampler, "sample", "sampling.neighborhood", "engine.sampler.sample")
            rec.wrap(
                getattr(engine.sampler, "provider", None),
                "prefetch",
                "sampling.neighborhood",
                "provider.prefetch",
            )
            for attr in ("offer", "take", "next_request"):
                rec.wrap(engine.admission, attr, "serving.admission", f"admission.{attr}")
            rec.wrap(workload, "initial_arrivals", "serving.loadgen", "workload.initial_arrivals")
        # The schedule is a pure function of the seed: a twin generator
        # says how many requests the open loop sends, whatever is answered.
        sent = len(self._arrivals(rate).initial_arrivals())
        return {"store": store, "runtime": runtime, "engine": engine,
                "workload": workload, "sent": sent}

    def run(self, ctx: dict) -> list:
        return ctx["engine"].run(ctx["workload"])

    @staticmethod
    def _tally(records: list) -> dict:
        tally = {OUTCOME_OK: 0, OUTCOME_LATE: 0, OUTCOME_SHED: 0, OUTCOME_DEADLINE: 0}
        for rec in records:
            tally[rec.outcome] += 1
        return tally

    def check(self, ctx: dict, records: list) -> Outcome:
        store, engine = ctx["store"], ctx["engine"]
        outcome = Outcome(units=ctx["sent"])
        tally = self._tally(records)
        # Shed, expired and late requests all miss their deadline.
        outcome.failed = len(records) - tally[OUTCOME_OK]
        if outcome.failed:
            outcome.problems.append(f"{outcome.failed} requests shed, expired or late: {tally}")
        if len(records) != ctx["sent"]:
            outcome.fail_round(f"{len(records)} records for {ctx['sent']} requests sent")
        slo = build_slo_report(records, duration_us=self.phase_us).to_dict()
        hits = engine.metrics.counter("serving.embed_cache_hits").value
        misses = engine.metrics.counter("serving.embed_cache_misses").value
        outcome.layer_counts = {
            **_ledger_counts(store.ledger),
            **_runtime_counts(ctx["runtime"]),
            "storage.cache.hit_rate": float(store.cache_hit_rate()),
            "serving.embed_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "serving.admission.shed": int(sum(engine.admission.shed.values())),
            "serving.admission.expired": int(sum(engine.admission.expired.values())),
            "serving.late": tally[OUTCOME_LATE],
        }
        outcome.counters = {"slo": json.dumps(slo, sort_keys=True), "tally": tally}
        return outcome

    def _phase(self, rate: int) -> tuple:
        ctx = self.build(None, rate)
        records = self.run(ctx)
        return records, self._tally(records), ctx["sent"]

    def exact_metrics(self, sweep: bool) -> dict:
        """Run-once phases on the virtual clock, a fresh engine for each.

        Phases share nothing, so ``r16000`` alone (all the untraced pass
        needs for ``modelled_us_per_unit``) reads the same as inside the
        full sweep. Open loop: latency runs from each request's due time
        (``arrival_us``) and the generator is never late, because arrivals
        are scheduled on the virtual clock, not issued by a wall-clock
        thread.
        """
        records, _, _ = latency_phase = self._phase(self.latency_rate)
        answered = [r for r in records if r.outcome in (OUTCOME_OK, OUTCOME_LATE)]
        # Service time only: with the queue wait included the mean moves by
        # a fifth between seeds this close to saturation, and the wait is
        # what the latency guards below already measure.
        exact = {"modelled_us_per_unit": sum(r.service_us for r in answered) / len(answered)}
        if not sweep:
            return exact
        phases = {
            rate: latency_phase if rate == self.latency_rate else self._phase(rate)
            for rate in self.sweep_rates
        }
        max_rate = 0
        for rate in self.sweep_rates:
            _, tally, sent = phases[rate]
            if tally[OUTCOME_OK] < 0.99 * sent:
                break
            max_rate = rate
        slo = build_slo_report(records, duration_us=self.phase_us)
        cached, fresh = slo.class_report(CLASS_CACHED), slo.class_report(CLASS_FRESH)
        _, overload_tally, overload_sent = phases[self.overload_rate]
        return {
            **exact,
            "cached_p50_us": cached.p50_us,
            "cached_p99_us": cached.p99_us,
            "fresh_p50_us": fresh.p50_us,
            "fresh_p95_us": fresh.p95_us,
            "goodput_frac": overload_tally[OUTCOME_OK] / overload_sent,
            "max_rate_rps": float(max_rate),
            "samples": {
                "cached": cached.completed,
                "fresh": fresh.completed,
                "sent": {f"r{rate}": phases[rate][2] for rate in self.sweep_rates},
                "ok": {f"r{rate}": phases[rate][1][OUTCOME_OK] for rate in self.sweep_rates},
            },
        }


class StoreRw:
    name = "store_rw"
    unit = "op"
    scale = 2.0
    why = (
        "writes beside reads on the bare store API: invalidation, LRU cache fill and "
        "retry under 5% drops run nowhere else, so a read-contract change that slows "
        "updates shows only here"
    )
    size = "scale 2: 150 steps of 2048 Zipf(1.1) id reads + 128 add/remove events, LRU 0.1"
    steps = 150
    reads_per_step = 2048
    events_per_step = 128
    probe_size = 512

    def prepare(self, seed: int) -> None:
        self.seed = seed
        graph = self.graph = make_dataset(DATASET, scale=self.scale, seed=seed)
        n = graph.n_vertices
        rng = np.random.default_rng(seed)
        hot_first = rng.permutation(n)
        cdf = _zipf_cdf(n, 1.1)

        def zipf(size: int) -> np.ndarray:
            return hot_first[np.searchsorted(cdf, rng.random(size), side="right")]

        self.reads = [zipf(self.reads_per_step) for _ in range(self.steps)]
        # The oracle replays every event on plain lists while generating
        # them, so each "remove" names an arc that exists at that moment
        # and every event is expected to apply.
        oracle: "dict[int, list[int]]" = {}

        def row(v: int) -> "list[int]":
            if v not in oracle:
                oracle[v] = graph.out_neighbors(v).tolist()
            return oracle[v]

        self.events = []
        for step in range(self.steps):
            sources = zipf(self.events_per_step).tolist()
            batch = []
            for j, src in enumerate(sources):
                if j % 2 == 0 or not row(src):
                    dst = int(rng.integers(n))
                    row(src).append(dst)
                    batch.append(EdgeEvent(0, src, dst, "add"))
                else:
                    dst = row(src)[int(rng.integers(len(row(src))))]
                    row(src).remove(dst)
                    batch.append(EdgeEvent(0, src, dst, "remove"))
            self.events.append(batch)
        self.oracle = oracle
        touched = np.array(sorted(oracle), dtype=np.int64)
        self.probe = rng.choice(touched, size=min(self.probe_size, touched.size), replace=False)

    def build(self, rec) -> dict:
        store = make_store(
            self.graph,
            N_WORKERS,
            cache_policy=LRUCachePolicy(),
            cache_budget_fraction=CACHE_FRACTION,
            seed=self.seed,
        )
        runtime = RpcRuntime(store, faults=FaultPlan(drop_rate=0.05, seed=self.seed))
        store.attach_runtime(runtime)
        _wrap_store(rec, store, runtime)
        return {"store": store, "runtime": runtime}

    def run(self, ctx: dict) -> int:
        store = ctx["store"]
        applied = 0
        for step in range(self.steps):
            store.get_neighbors_batch(self.reads[step], from_part=step % N_WORKERS)
            applied += store.apply_edge_events(self.events[step])
        return applied

    def check(self, ctx: dict, applied: int) -> Outcome:
        store, runtime = ctx["store"], ctx["runtime"]
        outcome = Outcome(units=self.steps * (self.reads_per_step + self.events_per_step))
        ledger = store.ledger
        outcome.exact = {"modelled_us_per_unit": ledger.modelled_micros() / outcome.units}
        outcome.layer_counts = {
            **_ledger_counts(ledger),
            **_runtime_counts(runtime),
            "storage.cache.hit_rate": float(store.cache_hit_rate()),
        }
        outcome.counters = {
            "layer_counts": outcome.layer_counts,
            "modelled_us": ledger.modelled_micros(),
            "applied": applied,
        }
        expected = self.steps * self.events_per_step
        if applied != expected:
            outcome.fail_round(f"{applied} events applied, expected {expected}")
        # Read through a non-owner, so a stale cached row would be seen.
        for v in self.probe.tolist():
            reader = (store.owner(v) + 1) % N_WORKERS
            if store.neighbors(v, from_part=reader).tolist() != self.oracle[v]:
                outcome.fail_round(f"stale read of vertex {v} after the event stream")
                break
        _audit_replicas(store, outcome)
        return outcome


WORKLOADS = {cls.name: cls for cls in (BuildStore, SampleStore, TrainGnn, ServeMixed, StoreRw)}
