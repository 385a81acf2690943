"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``dataset``         generate a named synthetic dataset and save it as ``.npz``
``train``           fit a model on a dataset and save the embeddings
``evaluate``        link-prediction evaluation of saved embeddings
``info``            print a dataset's summary statistics
``report``          one fully instrumented sampled run -> one report: ledger,
                    trace + critical path, metrics, hot keys, time series
``fault-matrix``    availability sweep {drop rate x failed workers x cache}
``sampling-bench``  A/B the batched vs reference frontier-sampling kernels
``serve-bench``     online serving tier under seeded load -> SLO report
``bench-compare``   regression-gate fresh smoke benchmarks vs baselines
``placement-bench`` adaptive placement vs static partition under shifting skew

The CLI covers the adopt-and-script path: generate once, train many models
against the same artifact, compare evaluations — without writing Python.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.data import make_dataset, train_test_split_edges
from repro.errors import DatasetError, ReproError, SamplingError
from repro.graph.io import load_ahg, save_ahg
from repro.tasks import evaluate_link_prediction

#: Models reachable from the CLI (name -> factory taking dim/epochs/seed).
def _model_factories():
    from repro.algorithms import (
        GATNE,
        AutoGNN,
        DeepWalk,
        GraphSAGE,
        HierarchicalGNN,
        LINE,
        SIGN,
        MixtureGNN,
        NetMF,
        Node2Vec,
    )

    def _kv_kwargs(a):
        """Embedding-backend knobs of the KV-capable models."""
        return {
            "backend": getattr(a, "backend", "dense"),
            "kv_workers": getattr(a, "kv_workers", 4),
            "kv_staleness": getattr(a, "kv_staleness", 0),
        }

    return {
        "deepwalk": lambda a: DeepWalk(
            dim=a.dim, epochs=a.epochs, seed=a.seed, **_kv_kwargs(a)
        ),
        "node2vec": lambda a: Node2Vec(
            dim=a.dim, epochs=a.epochs, seed=a.seed, **_kv_kwargs(a)
        ),
        "line": lambda a: LINE(dim=a.dim, seed=a.seed, **_kv_kwargs(a)),
        "netmf": lambda a: NetMF(dim=a.dim),
        "graphsage": lambda a: GraphSAGE(
            dim=a.dim,
            epochs=a.epochs,
            seed=a.seed,
            minibatch_blocks=getattr(a, "minibatch_blocks", False),
        ),
        "sign": lambda a: SIGN(dim=a.dim, epochs=a.epochs, seed=a.seed),
        "gatne": lambda a: GATNE(dim=a.dim, epochs=a.epochs, seed=a.seed),
        "mixture-gnn": lambda a: MixtureGNN(dim=a.dim, epochs=a.epochs, seed=a.seed),
        "hierarchical-gnn": lambda a: HierarchicalGNN(dim=a.dim, seed=a.seed),
        "auto": lambda a: AutoGNN(seed=a.seed),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AliGraph reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ds = sub.add_parser("dataset", help="generate and save a synthetic dataset")
    p_ds.add_argument("name", help="dataset name, e.g. taobao-small-sim")
    p_ds.add_argument("output", help="output .npz path")
    p_ds.add_argument("--scale", type=float, default=1.0)
    p_ds.add_argument("--seed", type=int, default=0)

    p_info = sub.add_parser("info", help="print a saved dataset's statistics")
    p_info.add_argument("path", help=".npz dataset path")

    p_tr = sub.add_parser("train", help="fit a model, save embeddings")
    p_tr.add_argument("model", help="model name (see --list via error message)")
    p_tr.add_argument("dataset", help=".npz dataset path")
    p_tr.add_argument("output", help="output .npz embeddings path")
    p_tr.add_argument("--dim", type=int, default=64)
    p_tr.add_argument("--epochs", type=int, default=2)
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument(
        "--holdout",
        type=float,
        default=0.0,
        help="hide this edge fraction before training (for later evaluate)",
    )
    p_tr.add_argument(
        "--minibatch-blocks", action="store_true",
        help="train graphsage on per-step k-hop computation blocks "
        "(forward/backward cost scales with the batch, not the graph)",
    )
    p_tr.add_argument(
        "--backend", choices=["dense", "kv"], default="dense",
        help="embedding backend for deepwalk/node2vec/line: in-process "
        "dense tables or the parameter-server KV store (default: dense)",
    )
    p_tr.add_argument(
        "--kv-workers", type=int, default=4,
        help="embedding servers of the kv backend (default: 4)",
    )
    p_tr.add_argument(
        "--kv-staleness", type=int, default=0,
        help="bounded-staleness window of kv pulls, in push rounds "
        "(default: 0 = exact reads)",
    )

    def _add_workload_args(p, drop_rate: float) -> None:
        """Shared knobs of the sampled-workload subcommands."""
        p.add_argument("--workers", type=int, default=4)
        p.add_argument("--scale", type=float, default=0.2)
        p.add_argument("--steps", type=int, default=5)
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--drop-rate", type=float, default=drop_rate)
        p.add_argument("--timeout-rate", type=float, default=0.05)
        p.add_argument("--slow-workers", type=int, default=1,
                       help="number of 3x-slower servers")
        p.add_argument("--seed", type=int, default=0)

    p_rp = sub.add_parser(
        "report",
        help="run the sampled workload once with tracer, access recorder "
        "and time-series sampler all on; print the one run report",
    )
    _add_workload_args(p_rp, drop_rate=0.1)
    p_rp.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write trace.json (Chrome trace + metric counter tracks, "
        "Perfetto), metrics.prom (Prometheus text) and series.csv here",
    )
    p_rp.add_argument(
        "--json", action="store_true",
        help="print the report as the machine-readable result contract "
        "(ExperimentReport.to_payload) instead of the rendered text",
    )

    p_bc = sub.add_parser(
        "bench-compare",
        help="re-run the gated benchmarks and compare against committed "
        "baselines; exit 1 on regression",
    )
    p_bc.add_argument(
        "--smoke", action="store_true", default=True,
        help="run benchmarks in --smoke mode (default: on)",
    )
    p_bc.add_argument(
        "--bench-dir", default=None,
        help="benchmark scripts directory (default: <repo>/benchmarks)",
    )
    p_bc.add_argument(
        "--baseline-dir", default=None,
        help="committed baseline payloads "
        "(default: <bench-dir>/results/smoke)",
    )
    p_bc.add_argument(
        "--out-dir", default=None,
        help="scratch directory for fresh results (default: a temp dir)",
    )
    p_bc.add_argument(
        "--only", nargs="+", default=None, metavar="ID",
        help="restrict the suite to these experiment ids",
    )
    p_bc.add_argument(
        "--inject-latency-pct", type=float, default=0.0,
        help="self-test: inflate fresh higher-is-worse metrics by this "
        "percentage so the gate must trip",
    )
    p_bc.add_argument(
        "--json", action="store_true",
        help="print the comparison as JSON instead of the rendered report",
    )

    p_sb = sub.add_parser(
        "sampling-bench",
        help="time the sampled workload on the batched or reference kernels",
    )
    _add_workload_args(p_sb, drop_rate=0.0)
    p_sb.add_argument(
        "--backend", choices=["batched", "reference"], default="batched",
        help="frontier-sampling kernel backend to run (default: batched)",
    )

    p_sv = sub.add_parser(
        "serve-bench",
        help="drive the online serving tier under seeded load, print the "
        "SLO report",
    )
    p_sv.add_argument("--workers", type=int, default=4)
    p_sv.add_argument("--scale", type=float, default=0.2)
    p_sv.add_argument("--seed", type=int, default=7)
    p_sv.add_argument(
        "--loop", choices=["open", "closed"], default="open",
        help="arrival process: open (Poisson) or closed (client population)",
    )
    p_sv.add_argument(
        "--duration-ms", type=float, default=1000.0,
        help="open-loop workload duration in simulated milliseconds",
    )
    p_sv.add_argument("--base-rps", type=float, default=300.0)
    p_sv.add_argument("--peak-rps", type=float, default=1200.0)
    p_sv.add_argument(
        "--burst-mult", type=float, default=3.0,
        help="flash-burst rate multiplier of the diurnal shape",
    )
    p_sv.add_argument("--clients", type=int, default=32,
                      help="closed-loop client population")
    p_sv.add_argument("--requests-per-client", type=int, default=20)
    p_sv.add_argument("--think-us", type=float, default=5000.0)
    p_sv.add_argument("--zipf", type=float, default=1.1,
                      help="hot-key skew exponent (0 = uniform users)")
    p_sv.add_argument("--fresh-fraction", type=float, default=0.1,
                      help="fraction of requests demanding fresh inference")
    p_sv.add_argument(
        "--policy", choices=["importance", "lru", "none"],
        default="importance", help="neighbor-cache policy of the store",
    )
    p_sv.add_argument(
        "--embed-cache", type=int, default=512,
        help="per-user embedding cache entries (0 = recompute everything)",
    )
    p_sv.add_argument(
        "--metrics", action="store_true",
        help="also print the runtime metrics table (p50/p95/p99 columns)",
    )

    p_pb = sub.add_parser(
        "placement-bench",
        help="adaptive placement (replica promotion + incremental "
        "migration) vs the static partition under shifting Zipf skew",
    )
    p_pb.add_argument("--workers", type=int, default=4)
    p_pb.add_argument("--scale", type=float, default=0.2)
    p_pb.add_argument("--seed", type=int, default=7)
    p_pb.add_argument(
        "--phases", type=int, default=3,
        help="hot-set rotations: each phase draws a fresh rank->vertex "
        "permutation (default: 3)",
    )
    p_pb.add_argument(
        "--requests", type=int, default=4000,
        help="point-read requests per phase (default: 4000)",
    )
    p_pb.add_argument(
        "--zipf", type=float, default=2.5,
        help="Zipf skew exponent of the per-phase read draw (default: 2.5)",
    )
    p_pb.add_argument(
        "--affinity", type=float, default=0.85,
        help="probability a request is issued by its lead vertex's home "
        "worker (default: 0.85)",
    )
    p_pb.add_argument(
        "--epoch-us", type=float, default=800.0,
        help="controller decision-epoch length in simulated microseconds",
    )
    p_pb.add_argument(
        "--json", action="store_true",
        help="print the machine-readable payload (the benchmarks/_common.py "
        "record contract) instead of the rendered table",
    )

    p_fm = sub.add_parser(
        "fault-matrix",
        help="sweep read availability over {drop rate x failed workers x cache}",
    )
    p_fm.add_argument("--workers", type=int, default=4)
    p_fm.add_argument("--scale", type=float, default=0.2)
    p_fm.add_argument(
        "--drop-rates", type=float, nargs="+", default=[0.0, 0.2],
        metavar="RATE",
    )
    p_fm.add_argument(
        "--failed-workers", type=int, nargs="+", default=[0, 1],
        metavar="N", help="numbers of fail-stopped workers to sweep",
    )
    p_fm.add_argument(
        "--policies", nargs="+", default=["none", "lru", "importance"],
        metavar="POLICY", help="cache policies to sweep (none/lru/importance)",
    )
    p_fm.add_argument("--cache-fraction", type=float, default=0.25)
    p_fm.add_argument("--batches", type=int, default=2)
    p_fm.add_argument("--batch-size", type=int, default=64)
    p_fm.add_argument("--seed", type=int, default=7)

    p_ev = sub.add_parser("evaluate", help="link-prediction metrics of embeddings")
    p_ev.add_argument("embeddings", help=".npz embeddings path (from train)")
    p_ev.add_argument("dataset", help=".npz dataset path")
    p_ev.add_argument("--holdout", type=float, default=0.2)
    p_ev.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_dataset(args: argparse.Namespace) -> int:
    graph = make_dataset(args.name, scale=args.scale, seed=args.seed)
    save_ahg(graph, args.output)
    print(f"wrote {args.output}: {graph.describe()}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = load_ahg(args.path)
    for key, value in graph.describe().items():
        print(f"{key}: {value}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    factories = _model_factories()
    if args.model not in factories:
        print(
            f"unknown model {args.model!r}; available: {', '.join(sorted(factories))}",
            file=sys.stderr,
        )
        return 2
    graph = load_ahg(args.dataset)
    if args.holdout > 0:
        split = train_test_split_edges(graph, args.holdout, seed=args.seed)
        train_graph = split.train_graph
    else:
        train_graph = graph
    model = factories[args.model](args)
    model.fit(train_graph)
    embeddings = model.embeddings()
    np.savez_compressed(
        args.output,
        embeddings=embeddings,
        model=np.array([args.model]),
        holdout=np.array([args.holdout]),
        seed=np.array([args.seed]),
    )
    print(
        f"wrote {args.output}: {embeddings.shape[0]} x {embeddings.shape[1]} "
        f"embeddings from {args.model}"
    )
    store = getattr(model, "kv_store", None)
    if store is not None:
        rpcs = store.runtime.metrics.counter("rpc.requests").value
        print(
            f"kv backend: {store.n_workers} embedding servers, "
            f"{rpcs} batched RPCs, modelled "
            f"{store.ledger.modelled_millis():.1f} ms of traffic"
        )
    return 0


def _build_sampled_workload(
    args: argparse.Namespace,
    tracer: "object | None" = None,
    backend: str = "batched",
):
    """Stand up the shared demo workload without driving any batches.

    The common substrate of ``report`` and ``sampling-bench``: a 2-hop
    (10x5) GraphSAGE-style sampling stack over ``taobao-small-sim`` with
    the importance cache and seeded fault injection. Returns
    ``(graph, store, runtime, pipeline)``.
    """
    if args.steps < 1:
        raise SamplingError(f"--steps must be >= 1, got {args.steps}")
    from repro.data import make_dataset as _make
    from repro.runtime import FaultPlan, RpcRuntime
    from repro.sampling import (
        DegreeBiasedNegativeSampler,
        SamplingPipeline,
        StoreProvider,
        UniformNeighborSampler,
        VertexTraverseSampler,
    )
    from repro.storage import ImportanceCachePolicy
    from repro.storage.cluster import make_store

    graph = _make("taobao-small-sim", scale=args.scale, seed=args.seed)
    store = make_store(
        graph,
        args.workers,
        cache_policy=ImportanceCachePolicy(),
        cache_budget_fraction=0.1,
        seed=args.seed,
    )
    slow = frozenset(range(1, min(1 + args.slow_workers, args.workers)))
    faults = None
    if args.drop_rate > 0 or args.timeout_rate > 0 or slow:
        faults = FaultPlan(
            drop_rate=args.drop_rate,
            timeout_rate=args.timeout_rate,
            slow_parts=slow,
            slow_factor=3.0,
            seed=args.seed,
        )
    runtime = RpcRuntime(store, faults=faults, tracer=tracer)
    store.attach_runtime(runtime)
    pipeline = SamplingPipeline(
        traverse=VertexTraverseSampler(graph, vertex_type="user"),
        neighborhood=UniformNeighborSampler(
            StoreProvider(store, from_part=0),
            backend=backend,
        ),
        negative=DegreeBiasedNegativeSampler(graph),
        hop_nums=[10, 5],
        neg_num=5,
        metrics=runtime.metrics,
        tracer=tracer,
    )
    return graph, store, runtime, pipeline


_REPORT_TICK_US = 500.0  # sampler tick of ``repro report``, simulated us
_REPORT_TOP_K = 10  # hot vertices it lists


def _run_sampled_workload(args: argparse.Namespace, instrumented: bool = False):
    """Build the demo workload and drive ``args.steps`` batches through it.

    ``instrumented`` turns every read-path instrument on for that one run:
    the tracer goes to the runtime's constructor, the access recorder and
    the time-series sampler are assigned onto it.
    """
    from repro.obs import AccessRecorder, TimeSeriesSampler
    from repro.runtime import Tracer
    from repro.utils.rng import make_rng

    tracer = Tracer(seed=args.seed) if instrumented else None
    graph, store, runtime, pipeline = _build_sampled_workload(args, tracer)
    if instrumented:
        runtime.recorder = AccessRecorder()
        runtime.timeseries = TimeSeriesSampler(
            runtime.metrics, runtime.clock, tick_us=_REPORT_TICK_US
        )
    rng = make_rng(args.seed)
    for _ in range(args.steps):
        pipeline.sample(args.batch_size, rng)
    if instrumented:
        runtime.timeseries.sample_now()
    return graph, store, runtime, pipeline


_REPORT_LEGEND = """\
clocks: every number above is a count or simulated microseconds; nothing is
wall-clock. The virtual clock advances on RPC service time and retry waits
only; rpc.* histograms and the trace are read off it. The cost ledger is a
separate account (event count x cost-model price: local and cached reads
included, waits and overlap not), so the two totals differ by design. The
pipeline.*_us stage histograms share the clock-bound registry, so the
clock-free traverse / negative stages read 0."""


def _cmd_report(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.bench import ExperimentReport
    from repro.obs import (
        analyze,
        cache_efficacy,
        mine_workload,
        render_analysis,
        render_workload_report,
    )
    from repro.runtime import chrome_trace, prometheus_text
    from repro.utils.tables import format_table

    graph, store, runtime, _ = _run_sampled_workload(args, instrumented=True)
    tracer, sampler = runtime.tracer, runtime.timeseries
    trace_payload = chrome_trace(tracer)
    trace_payload["traceEvents"].extend(sampler.chrome_counter_events())
    cp = analyze(tracer)
    mined = mine_workload(runtime.recorder, top_k=_REPORT_TOP_K)
    efficacy = cache_efficacy(runtime.recorder, store.cost_model)
    workload = {"vertices": graph.n_vertices}
    for key in ("workers", "steps", "batch_size", "drop_rate", "timeout_rate",
                "slow_workers", "seed"):
        workload[key] = getattr(args, key)
    clock = {
        "virtual_clock_us": round(runtime.clock.now_us, 3),
        "ledger_modelled_us": round(store.ledger.modelled_micros(), 3),
    }
    volume = {
        "events": len(trace_payload["traceEvents"]),
        "traces": len(tracer.traces()),
        "spans": len(tracer.spans),
        "dropped_spans": tracer.dropped,
        "ledger_rows": len(tracer.ledger_rows),
    }
    series = {
        "tick_us": sampler.tick_us,
        "snapshots": sampler.n_samples,
        "series": len(sampler.series),
    }

    wrote = None
    if args.out:
        side_files = {
            "trace.json": json.dumps(trace_payload, indent=1) + "\n",
            "metrics.prom": prometheus_text(runtime.metrics),
            "series.csv": sampler.to_csv(),
        }
        os.makedirs(args.out, exist_ok=True)
        for name, text in side_files.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8") as f:
                f.write(text)
        wrote = (
            f"wrote {', '.join(side_files)} to {args.out} "
            "(open trace.json in https://ui.perfetto.dev)"
        )

    if args.json:
        report = ExperimentReport(
            "cli_report", "instrumented sampled workload (repro report)"
        )
        report.add("workload", workload)
        report.add("clock", clock)
        report.add(
            "ledger", {ev: int(n) for ev, n in sorted(store.ledger.counts.items())}
        )
        report.add("trace volume", volume)
        report.add("trace latency", dict(cp["latency_us"]))
        report.add("critical-path segments", dict(cp["segments_total"]))
        for name, kind, count, *stats in runtime.metrics.summary_rows():
            measured = {"type": kind, "count": count}
            if kind == "histogram":
                measured.update(zip(("mean", "p50", "p95", "p99"), stats))
            report.add(name, measured)
        reads = ("total_reads", "unique_vertices", "local_share")
        report.add("reads", {key: mined[key] for key in reads})
        report.add("routes", dict(mined["routes"]))
        if mined["zipf"]:
            report.add("zipf", dict(mined["zipf"]))
        report.add("cache observed", dict(efficacy["observed"]))
        for row in efficacy["oracle"]:
            report.add(f"cache oracle k={row['capacity']}", dict(row))
        report.add("time series", series)
        print(json.dumps(report.to_payload(), indent=1))
        return 0

    sections = [
        format_table(
            ["quantity", "value"],
            [[k.replace("_", " "), v] for k, v in {**workload, **clock}.items()],
            title="report: sampled workload, every instrument on",
        ),
        "cost ledger\n" + store.ledger.summary(),
        f"trace: {volume['events']} events, {volume['traces']} traces, "
        f"{volume['spans']} spans ({volume['dropped_spans']} dropped past "
        f"max_spans), {volume['ledger_rows']} ledger rows correlated\n"
        + tracer.render_tree(),
        render_analysis(cp),
        runtime.metrics.render(),
        render_workload_report(mined, efficacy),
        f"time series: {series['snapshots']} snapshots of {series['series']} "
        f"series ({series['tick_us']:g}us tick, plus the end-of-run flush)",
        _REPORT_LEGEND,
    ]
    print("\n\n".join(sections + ([wrote] if wrote else [])))
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    import json
    import os
    import tempfile

    from repro.obs import compare_suite, render_compare

    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    bench_dir = args.bench_dir or os.path.join(repo_root, "benchmarks")
    baseline_dir = args.baseline_dir or os.path.join(
        bench_dir, "results", "smoke"
    )
    out_dir = args.out_dir or tempfile.mkdtemp(prefix="repro-bench-compare-")
    report = compare_suite(
        bench_dir=bench_dir,
        baseline_dir=baseline_dir,
        out_dir=out_dir,
        smoke=args.smoke,
        inject_latency_pct=args.inject_latency_pct,
        only=args.only,
    )
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(render_compare(report))
    return 0 if report["ok"] else 1


def _cmd_sampling_bench(args: argparse.Namespace) -> int:
    import time

    from repro.utils.rng import make_rng
    from repro.utils.tables import format_table

    graph, store, runtime, pipeline = _build_sampled_workload(
        args, backend=args.backend
    )
    rng = make_rng(args.seed)
    pipeline.sample(args.batch_size, rng)  # warm-up batch, priced like any other
    warmup_ms = store.ledger.modelled_millis()
    rows = 0
    t0 = time.perf_counter()
    for _ in range(args.steps):
        batch = pipeline.sample(args.batch_size, rng)
        rows += int(sum(layer.size for layer in batch.context.layers))
    wall_s = time.perf_counter() - t0
    print(
        format_table(
            ["quantity", "value"],
            [
                ["graph", graph.describe()["n_vertices"]],
                ["backend", args.backend],
                ["timed steps", args.steps],
                ["seeds per step", args.batch_size],
                ["context rows", rows],
                ["wall time (ms)", round(wall_s * 1e3, 3)],
                ["context rows / s", f"{rows / max(wall_s, 1e-9):,.0f}"],
                ["warm-up ledger (ms)", round(warmup_ms, 3)],
                [
                    "steady-state ledger (ms)",
                    round(store.ledger.modelled_millis() - warmup_ms, 3),
                ],
            ],
            title=f"sampling-bench: {args.backend} kernels",
        )
    )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.data import make_dataset as _make
    from repro.serving import (
        ClosedLoopWorkload,
        OpenLoopWorkload,
        ServingConfig,
        ServingEngine,
        build_slo_report,
        diurnal_rate,
    )
    from repro.storage import ImportanceCachePolicy, LRUCachePolicy
    from repro.storage.cluster import make_store

    policies = {
        "importance": lambda: ImportanceCachePolicy(),
        "lru": lambda: LRUCachePolicy(),
        "none": lambda: None,
    }
    policy = policies[args.policy]()
    graph = _make("taobao-small-sim", scale=args.scale, seed=args.seed)
    store = make_store(
        graph,
        args.workers,
        cache_policy=policy,
        cache_budget_fraction=0.1 if policy is not None else 0.0,
        seed=args.seed,
    )
    engine = ServingEngine(
        store,
        config=ServingConfig(embed_cache_capacity=args.embed_cache),
        seed=args.seed,
    )
    users = graph.vertices_of_type("user")
    if args.loop == "open":
        workload = OpenLoopWorkload(
            users,
            duration_us=args.duration_ms * 1e3,
            rate=diurnal_rate(
                args.base_rps, args.peak_rps, burst_multiplier=args.burst_mult
            ),
            fresh_fraction=args.fresh_fraction,
            zipf_exponent=args.zipf,
            seed=args.seed,
        )
        shape = (
            f"open loop, diurnal {args.base_rps:g}-{args.peak_rps:g} rps "
            f"(burst x{args.burst_mult:g})"
        )
    else:
        workload = ClosedLoopWorkload(
            users,
            n_clients=args.clients,
            requests_per_client=args.requests_per_client,
            think_us=args.think_us,
            fresh_fraction=args.fresh_fraction,
            zipf_exponent=args.zipf,
            seed=args.seed,
        )
        shape = (
            f"closed loop, {args.clients} clients x "
            f"{args.requests_per_client} requests, think {args.think_us:g} us"
        )
    records = engine.run(workload)
    report = build_slo_report(records)
    print(
        report.render(
            title=f"serve-bench: {shape}, zipf {args.zipf:g}, "
            f"{args.policy} neighbor cache, embed cache {args.embed_cache}"
        )
    )
    if args.metrics:
        print()
        print(engine.metrics.render())
    return 0


def _cmd_placement_bench(args: argparse.Namespace) -> int:
    from repro.bench.placement import PlacementWorkload, run_placement_comparison
    from repro.data import make_dataset as _make
    from repro.storage.placement import PlacementConfig
    from repro.utils.tables import format_table

    workload = PlacementWorkload(
        n_workers=args.workers,
        n_phases=args.phases,
        requests_per_phase=args.requests,
        reads_per_request=1,
        zipf_exponent=args.zipf,
        issuer_affinity=args.affinity,
        seed=args.seed,
    )
    placement = PlacementConfig(
        epoch_us=args.epoch_us,
        promote_per_epoch=192,
        demote_per_epoch=256,
        migrate_per_epoch=32,
        migrate_dominance=1.5,
        min_decision_weight=0.3,
    )
    graph = _make("taobao-small-sim", scale=args.scale, seed=0)
    result = run_placement_comparison(graph, workload, placement)
    static, adaptive = result["static"], result["adaptive"]
    if args.json:
        import json

        from repro.bench import ExperimentReport

        report = ExperimentReport(
            "cli_placement",
            "adaptive placement vs static partition (repro placement-bench)",
        )
        report.add("workload", dict(result["workload"]))
        report.add("static partition + importance cache", dict(static))
        report.add("adaptive placement (controller on)", dict(adaptive))
        headline = ("remote_rpc_reduction", "remote_read_reduction", "p99_improvement")
        report.add("headline", {key: result[key] for key in headline})
        print(json.dumps(report.to_payload(), indent=1))
        return 0
    print(
        format_table(
            ["quantity", "static", "adaptive"],
            [
                ["remote RPCs", static["remote_rpcs"], adaptive["remote_rpcs"]],
                ["remote reads", static["remote_reads"], adaptive["remote_reads"]],
                ["local share", static["local_share"], adaptive["local_share"]],
                ["p50 us", static["p50_us"], adaptive["p50_us"]],
                ["p95 us", static["p95_us"], adaptive["p95_us"]],
                ["p99 us", static["p99_us"], adaptive["p99_us"]],
                [
                    "request total (ms)",
                    round(static["request_us"] / 1e3, 3),
                    round(adaptive["request_us"] / 1e3, 3),
                ],
            ],
            title=f"placement-bench: {args.phases} phases x {args.requests} "
            f"Zipf({args.zipf:g}) point reads, hot set rotated per phase",
        )
    )
    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["decision epochs", adaptive["epochs"]],
                ["replicas promoted", adaptive["promoted"]],
                ["replicas demoted", adaptive["demoted"]],
                ["vertices migrated", adaptive["migrated"]],
                ["migration RPCs", adaptive["migration_rpcs"]],
                ["items migrated", adaptive["migrate_items"]],
                [
                    "max items / epoch",
                    f"{adaptive['max_epoch_items']} "
                    f"(budget {adaptive['epoch_item_budget']})",
                ],
                ["migrations aborted", adaptive["migrate_aborted"]],
                ["controller time (ms)", round(adaptive["placement_us"] / 1e3, 3)],
            ],
            title="adaptation (priced on the same virtual clock)",
        )
    )
    print(
        f"\nheadline: {result['remote_rpc_reduction']}x fewer remote RPCs, "
        f"p99 {static['p99_us']:g} -> {adaptive['p99_us']:g} us "
        f"({result['p99_improvement']}x)"
    )
    return 0


def _cmd_fault_matrix(args: argparse.Namespace) -> int:
    from repro.bench.fault_matrix import run_fault_matrix
    from repro.data import make_dataset as _make
    from repro.utils.tables import format_table

    graph = _make("taobao-small-sim", scale=args.scale, seed=0)
    try:
        rows = run_fault_matrix(
            graph,
            drop_rates=tuple(args.drop_rates),
            failed_workers=tuple(args.failed_workers),
            policies=tuple(args.policies),
            n_workers=args.workers,
            cache_fraction=args.cache_fraction,
            n_batches=args.batches,
            batch_size=args.batch_size,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        format_table(
            [
                "cell", "reads", "avail", "failover", "suspect",
                "degraded", "retries", "p95 us",
            ],
            [
                [
                    row.cell.label,
                    row.reads_total,
                    f"{row.availability:.4f}",
                    row.failover_reads,
                    row.suspect_routes,
                    row.degraded_reads,
                    row.retries,
                    f"{row.p95_latency_us:.0f}",
                ]
                for row in rows
            ],
            title="fault matrix: 2-hop GraphSAGE workload availability",
        )
    )
    worst = min(rows, key=lambda r: r.availability)
    print(f"\nworst cell: {worst.cell.label} at {worst.availability:.2%}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    graph = load_ahg(args.dataset)
    with np.load(args.embeddings) as data:
        embeddings = data["embeddings"]
    if embeddings.shape[0] != graph.n_vertices:
        raise DatasetError(
            f"embedding rows ({embeddings.shape[0]}) != graph vertices "
            f"({graph.n_vertices})"
        )
    split = train_test_split_edges(graph, args.holdout, seed=args.seed)
    result = evaluate_link_prediction(embeddings, split)
    print(
        f"ROC-AUC={result.roc_auc:.2f}%  PR-AUC={result.pr_auc:.2f}%  "
        f"F1={result.f1:.2f}%"
    )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "dataset": _cmd_dataset,
        "info": _cmd_info,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "report": _cmd_report,
        "fault-matrix": _cmd_fault_matrix,
        "sampling-bench": _cmd_sampling_bench,
        "serve-bench": _cmd_serve_bench,
        "bench-compare": _cmd_bench_compare,
        "placement-bench": _cmd_placement_bench,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
