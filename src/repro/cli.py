"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``dataset``         generate a named synthetic dataset and save it as ``.npz``
``train``           fit a model on a dataset and save the embeddings
``evaluate``        link-prediction evaluation of saved embeddings
``info``            print a dataset's summary statistics
``report``          one fully instrumented sampled run -> one report: ledger,
                    trace + critical path, metrics, hot keys, time series
``bench``           list the declared experiments, or run some by id
``bench-compare``   regression-gate the gated experiments vs committed results

The CLI covers the adopt-and-script path: generate once, train many models
against the same artifact, compare evaluations — without writing Python.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.data import make_dataset, train_test_split_edges
from repro.errors import (
    CheckFailedError,
    DatasetError,
    ReproError,
    RuntimeConfigError,
    SamplingError,
    TrainingError,
)
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
    p_tr.add_argument(
        "--epochs", type=int, default=2,
        help="training epochs of deepwalk, node2vec, graphsage, sign, gatne "
        "and mixture-gnn (line, hierarchical-gnn, netmf and auto run a "
        "fixed schedule and do not read it; default: 2)",
    )
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

    p_rp = sub.add_parser(
        "report",
        help="run the sampled workload once with tracer, access recorder "
        "and time-series sampler all on; print the one run report",
    )
    p_rp.add_argument("--workers", type=int, default=4)
    p_rp.add_argument("--scale", type=float, default=0.2)
    p_rp.add_argument("--steps", type=int, default=5)
    p_rp.add_argument("--batch-size", type=int, default=64)
    p_rp.add_argument("--drop-rate", type=float, default=0.1)
    p_rp.add_argument("--timeout-rate", type=float, default=0.05)
    p_rp.add_argument("--slow-workers", type=int, default=1,
                      help="number of 3x-slower servers")
    p_rp.add_argument("--seed", type=int, default=0)
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

    def _add_bench_args(p, out_default: str) -> None:
        """What ``bench`` and ``bench-compare`` share."""
        p.add_argument(
            "--smoke", action="store_true",
            help="CI-sized workloads, results under results/smoke/ "
            "(without it: full size, results/)",
        )
        p.add_argument(
            "--bench-dir", default=None,
            help="directory of the bench_*.py declarations "
            "(default: <repo>/benchmarks)",
        )
        p.add_argument(
            "--out-dir", default=None,
            help=f"where fresh results are written (default: {out_default})",
        )
        p.add_argument(
            "--json", action="store_true",
            help="print JSON instead of the rendered tables",
        )

    p_b = sub.add_parser(
        "bench",
        help="run declared experiments by id (no id: list them), write "
        "their results, check their claims; exit 1 on a failed check",
    )
    p_b.add_argument("ids", nargs="*", metavar="ID", help="experiment ids")
    _add_bench_args(p_b, "<bench-dir>/results, with --smoke results/smoke")

    p_bc = sub.add_parser(
        "bench-compare",
        help="re-run the gated experiments and compare against their "
        "committed results; exit 1 when any gated value differs",
    )
    _add_bench_args(p_bc, "a temp dir")
    p_bc.add_argument(
        "--baseline-dir", default=None,
        help="committed results to compare against (default: "
        "<bench-dir>/results, with --smoke results/smoke)",
    )
    p_bc.add_argument(
        "--only", nargs="+", default=None, metavar="ID",
        help="restrict the gate to these experiment ids",
    )

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
    for flag, value, ok, want in (
        ("--dim", args.dim, args.dim >= 1, ">= 1"),
        ("--epochs", args.epochs, args.epochs >= 1, ">= 1"),
        ("--seed", args.seed, args.seed >= 0, ">= 0"),
        ("--holdout", args.holdout, 0 <= args.holdout < 1, "in [0, 1)"),
        ("--kv-workers", args.kv_workers, args.kv_workers >= 1, ">= 1"),
    ):
        if not ok:
            raise TrainingError(f"{flag} must be {want}, got {value}")
    # A flag the chosen model would silently ignore is an error, not a no-op.
    kv_models = ("deepwalk", "node2vec", "line")
    for flag, is_set, models in (
        ("--backend kv", args.backend == "kv", kv_models),
        ("--kv-workers", args.kv_workers != 4, kv_models),
        ("--minibatch-blocks", args.minibatch_blocks, ("graphsage",)),
    ):
        if is_set and args.model not in models:
            raise TrainingError(
                f"{flag} applies to {'/'.join(models)} only, not {args.model}"
            )
        if is_set and flag.startswith("--kv-") and args.backend != "kv":
            raise TrainingError(f"{flag} applies to --backend kv only")
    # Built before the dataset is read: a model's own argument checks (LINE's
    # even dim) fail as cheaply as the ones above.
    model = factories[args.model](args)
    graph = load_ahg(args.dataset)
    if args.holdout > 0:
        split = train_test_split_edges(graph, args.holdout, seed=args.seed)
        train_graph = split.train_graph
    else:
        train_graph = graph
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
    args: argparse.Namespace, tracer: "object | None" = None
):
    """Stand up the demo workload of ``report`` without driving any batches.

    A 2-hop (10x5) GraphSAGE-style sampling stack over
    ``taobao-small-sim`` with the importance cache and seeded fault
    injection. Returns ``(graph, store, runtime, pipeline)``.
    """
    if args.steps < 1:
        raise SamplingError(f"--steps must be >= 1, got {args.steps}")
    if not 0 <= args.slow_workers < args.workers:
        raise RuntimeConfigError(
            f"--slow-workers must be in [0, {args.workers - 1}] (worker 0 "
            f"issues the reads), got {args.slow_workers}"
        )
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
    slow = frozenset(range(1, 1 + args.slow_workers))
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
        neighborhood=UniformNeighborSampler(StoreProvider(store, from_part=0)),
        negative=DegreeBiasedNegativeSampler(graph),
        hop_nums=[10, 5],
        neg_num=5,
        metrics=runtime.metrics,
        tracer=tracer,
    )
    return graph, store, runtime, pipeline


_REPORT_TICK_US = 500.0  # sampler tick of ``repro report``, simulated us
_REPORT_TOP_K = 10  # hot vertices it lists
_REPORT_SLOWEST = 5  # slowest traces it lists


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
        runtime.recorder = AccessRecorder(graph.n_vertices, len(store.servers))
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
only; rpc.* histograms and every span of the trace (the pipeline.* stage
times included) are read off it. The cost ledger is a separate account
(event count x cost-model price: local and cached reads included, waits and
overlap not), so the two totals differ by design."""


def _render_records(report) -> str:
    """A report as plain tables: consecutive records with one key set share
    a table; the notes follow as they are."""
    import itertools

    from repro.utils.tables import format_table

    blocks = [f"[{report.experiment_id}] {report.title}"]
    for keys, group in itertools.groupby(report.records, key=lambda r: tuple(r.measured)):
        rows = [[r.label, *r.measured.values()] for r in group]
        blocks.append(format_table(["label", *keys], rows))
    return "\n\n".join(blocks + report.notes)


def _cmd_report(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.bench import ExperimentReport
    from repro.obs import analyze, cache_efficacy, mine_workload
    from repro.runtime import chrome_trace, prometheus_text

    graph, store, runtime, _ = _run_sampled_workload(args, instrumented=True)
    tracer, sampler, ledger = runtime.tracer, runtime.timeseries, store.ledger
    trace_payload = chrome_trace(tracer)
    trace_payload["traceEvents"].extend(sampler.chrome_counter_events())
    cp = analyze(tracer)
    mined = mine_workload(runtime.recorder, top_k=_REPORT_TOP_K)
    efficacy = cache_efficacy(runtime.recorder, store.cost_model)

    report = ExperimentReport(
        "cli_report", "instrumented sampled workload (repro report)"
    )
    workload = {"vertices": graph.n_vertices}
    for key in ("workers", "steps", "batch_size", "drop_rate", "timeout_rate",
                "slow_workers", "seed"):
        workload[key] = getattr(args, key)
    report.add("workload", workload)
    report.add("clock", {
        "virtual_clock_us": round(runtime.clock.now_us, 3),
        "ledger_modelled_us": round(ledger.modelled_micros(), 3),
    })
    report.add("ledger", {ev: int(n) for ev, n in sorted(ledger.counts.items())})
    price = ledger.costs.get
    for ev, n in sorted(ledger.counts.items(), key=lambda kv: (-price(kv[0], 0.0) * kv[1], kv[0])):
        report.add(f"ledger {ev}", {
            "count": int(n),
            "us_per_event": price(ev, 0.0),
            "modelled_us": round(price(ev, 0.0) * n, 3),
        })
    report.add("ledger total", {"count": int(sum(ledger.counts.values()))})
    report.add("trace volume", {
        "events": len(trace_payload["traceEvents"]),
        "traces": len(tracer.traces()),
        "spans": len(tracer.spans),
        "dropped_spans": tracer.dropped,
        "ledger_rows": len(tracer.ledger_rows),
    })
    first = tracer.trace_spans(tracer.traces()[0]) if tracer.spans else []
    depth: "dict[str, int]" = {}
    for sp in first:  # spans open parent-first, so open order is the tree's
        depth[sp.span_id] = depth.get(sp.parent_id, -1) + 1
        report.add("  " * depth[sp.span_id] + sp.name, {
            "start_us": round(sp.start_us, 3),
            "duration_us": round(sp.duration_us, 3),
            "ledger_events": sum(ev[1].startswith("ledger:") for ev in sp.events),
            "attrs": " ".join(f"{k}={v}" for k, v in sp.attrs.items()),
        })
    report.add("trace latency", dict(cp["latency_us"]))
    report.add("critical-path segments", dict(cp["segments_total"]))
    report.add("critical-path tail segments", dict(cp["segments_tail"]))
    report.add("critical-path tail", {
        key: cp[key] for key in ("tail_pct", "tail_threshold_us", "n_tail")
    })
    slowest = sorted(cp["traces"], key=lambda t: (-t["latency_us"], t["trace_id"]))
    for t in slowest[:_REPORT_SLOWEST]:
        report.add(f"slow trace {t['trace_id']}", {
            "root": t["root"], "latency_us": t["latency_us"], **t["segments"],
        })
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
    for row in mined["hot_vertices"]:
        report.add(f"hot vertex {row['vertex']}", dict(row))
    for part, row in zip(mined["parts"], mined["traffic_matrix"]):
        report.add(f"traffic from part {part}", {
            f"to part {owner}": n for owner, n in zip(mined["parts"], row)
        })
    cross = ("cross_part_reads", "unique_cross_part_vertices", "uncached_us")
    report.add("cache cross-partition", {key: efficacy[key] for key in cross})
    report.add("cache observed", dict(efficacy["observed"]))
    for row in efficacy["oracle"]:
        report.add(f"cache oracle k={row['capacity']}", dict(row))
    report.add("time series", {
        "tick_us": sampler.tick_us,
        "snapshots": sampler.n_samples,
        "series": len(sampler.series),
    })
    report.note(_REPORT_LEGEND)

    wrote = []
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
        wrote.append(
            f"wrote {', '.join(side_files)} to {args.out} "
            "(open trace.json in https://ui.perfetto.dev)"
        )
    if args.json:
        print(json.dumps(report.to_payload(), indent=1))
    else:
        print("\n\n".join([_render_records(report), *wrote]))
    return 0


def _declared_experiments(args: argparse.Namespace):
    """``(bench_dir, experiments)`` of a ``bench`` / ``bench-compare`` call."""
    import os

    from repro.bench import load_experiments

    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    bench_dir = args.bench_dir or os.path.join(repo_root, "benchmarks")
    return bench_dir, load_experiments(bench_dir)


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.bench import results_dir, run_experiment, select_experiments

    bench_dir, experiments = _declared_experiments(args)
    if not args.ids:
        print("\n".join(e.id for e in experiments))
        return 0
    out_dir = args.out_dir or results_dir(bench_dir, args.smoke)
    status = 0
    for experiment in select_experiments(experiments, args.ids):
        try:
            report = run_experiment(experiment, args.smoke, out_dir)
        except CheckFailedError as exc:  # report the check, run the next id
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        if args.json:
            print(json.dumps(report.to_payload(), indent=1))
        else:
            report.print()
    return status


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.bench import (
        compare_suite,
        render_compare,
        results_dir,
        select_experiments,
    )

    bench_dir, experiments = _declared_experiments(args)
    gated = [e for e in experiments if e.exact]
    report = compare_suite(
        select_experiments(gated, args.only) if args.only else gated,
        baseline_dir=args.baseline_dir or results_dir(bench_dir, args.smoke),
        out_dir=args.out_dir or tempfile.mkdtemp(prefix="repro-bench-compare-"),
        smoke=args.smoke,
    )
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        print(render_compare(report))
    return 0 if report["ok"] else 1


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
        "bench": _cmd_bench,
        "bench-compare": _cmd_bench_compare,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
