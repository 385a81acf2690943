"""The public package surface: everything advertised imports and exists."""

import importlib

import pytest


def test_top_level_import():
    import repro

    assert repro.__version__
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None or name == "__version__"


@pytest.mark.parametrize(
    "module,names",
    [
        (
            "repro.algorithms",
            ["GATNE", "GraphSAGE", "AutoGNN", "EvolvingGNN", "BayesianGNN",
             "MixtureGNN", "HierarchicalGNN", "HEP", "AHEP", "DeepWalk",
             "Node2Vec", "LINE", "NetMF", "Metapath2Vec", "ANRL", "PMNE",
             "MVE", "MNE", "TNE", "DANE", "DAE", "BetaVAE"],
        ),
        (
            "repro.storage",
            ["DistributedGraphStore", "GraphServer", "CostModel",
             "ImportanceCachePolicy", "RandomCachePolicy", "LRUCachePolicy",
             "plan_importance_cache", "importance_scores", "build_distributed"],
        ),
        (
            "repro.sampling",
            ["VertexTraverseSampler", "EdgeTraverseSampler",
             "UniformNeighborSampler", "WeightedNeighborSampler",
             "DegreeBiasedNegativeSampler", "SamplingPipeline", "random_walks", "node2vec_walks",
             "metapath_walks"],
        ),
        (
            "repro.ops",
            ["MeanAggregator", "MaxPoolAggregator", "ConcatCombiner",
             "MaterializationCache", "MinibatchExecutor"],
        ),
        (
            "repro.tasks",
            ["roc_auc", "pr_auc", "f1_score", "hit_recall_at_k",
             "evaluate_link_prediction", "evaluate_recommendation",
             "evaluate_node_classification", "subgraph_embedding"],
        ),
        (
            "repro.data",
            ["make_dataset", "taobao_graph", "amazon_graph", "dynamic_taobao",
             "knowledge_graph", "train_test_split_edges", "powerlaw_graph"],
        ),
        (
            "repro.nn",
            ["Tensor", "Dense", "Embedding", "GRUCell", "Adam",
             "bce_with_logits", "skipgram_negative_loss"],
        ),
        (
            "repro.graph",
            ["Graph", "AttributedHeterogeneousGraph", "DynamicGraph", "EdgeEvent"],
        ),
        (
            "repro.runtime",
            ["RpcRuntime", "Request", "Response", "VirtualClock",
             "FaultPlan", "RetryPolicy", "HealthTracker", "MetricsRegistry",
             "Tracer", "NULL_TRACER", "StageProfiler", "chrome_trace",
             "prometheus_text"],
        ),
        (
            "repro.obs",
            ["AccessRecorder", "TimeSeriesSampler",
             "analyze", "mine_workload", "cache_efficacy", "fit_zipf"],
        ),
        (
            "repro.bench",
            ["Experiment", "ExperimentRecord", "ExperimentReport",
             "load_experiments", "run_experiment", "compare_suite"],
        ),
    ],
)
def test_advertised_names_exist(module, names):
    mod = importlib.import_module(module)
    for name in names:
        assert hasattr(mod, name), f"{module}.{name} missing"


@pytest.mark.parametrize(
    "module",
    ["repro.runtime", "repro.obs", "repro.serving", "repro.bench", "repro.sampling"],
)
def test_all_lists_only_names_that_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_instruments_ride_the_runtime_not_constructor_arguments():
    import inspect

    from repro.algorithms.framework import GNNFramework
    from repro.runtime import RpcRuntime
    from repro.serving import ServingEngine

    engine_args = set(inspect.signature(ServingEngine.__init__).parameters)
    assert not engine_args & {"tracer", "recorder", "timeseries"}
    assert "timeseries" not in inspect.signature(GNNFramework.__init__).parameters
    # execute() owns the event loop: nothing to submit to or drain.
    assert not {"submit", "drain", "inflight"} & set(vars(RpcRuntime))


def test_request_planner_is_one_runtime_method():
    """A read's remote arm becomes wire requests in ``RpcRuntime.plan`` alone:
    no batch-planner class, no second minting call, no per-server inbox and
    none of the knobs, errors and fields only those carried."""
    import dataclasses
    import inspect

    import repro.errors
    import repro.runtime
    from repro.runtime import Response, RpcRuntime

    assert not {"Inbox", "Batch", "RequestBatcher"} & set(vars(repro.runtime))
    with pytest.raises(ImportError):
        importlib.import_module("repro.runtime.batching")
    assert not hasattr(RpcRuntime, "make_request")
    assert not {"inbox_capacity", "max_batch_size"} & set(
        inspect.signature(RpcRuntime).parameters
    )
    assert not hasattr(repro.errors, "InboxOverflowError")
    assert "latency_us" not in {f.name for f in dataclasses.fields(Response)}


def test_a_read_has_one_classification():
    """Failover, suspect routes and degraded reads are arms of the one read
    classification: no per-vertex replica lookup, failover or fallback on
    the store, and the probe decision is taken for a batch at once."""
    from repro.runtime.health import HealthTracker
    from repro.storage.cluster import DistributedGraphStore

    retired = {"_replica_peek", "_read_unavailable", "_failover_read", "_route_around"}
    assert not retired & set(vars(DistributedGraphStore))
    assert not hasattr(HealthTracker, "should_probe")


def test_each_run_event_has_one_record():
    """A stage time is a tracer span, the ledger<->trace table a view of span
    events and a served request its ``ServeRecord``: no span timer, no clock
    bound into the metrics registry, no second copy of either record, and no
    ``nullcontext`` stand-in for an absent profiler."""
    import ast
    import inspect
    import pathlib

    import repro.algorithms
    import repro.runtime
    from repro.obs import AccessRecorder
    from repro.runtime import MetricsRegistry, StageProfiler, Tracer
    from repro.runtime.metrics import Gauge

    assert not hasattr(repro.runtime, "SpanTimer")
    assert not {"timer", "bind_clock"} & set(vars(MetricsRegistry))
    assert not {"add", "inc", "dec"} & set(vars(Gauge))
    assert list(inspect.signature(StageProfiler).parameters) == ["tracer"]
    assert not hasattr(AccessRecorder, "record_request")
    assert isinstance(inspect.getattr_static(Tracer, "ledger_rows"), property)
    shims = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pathlib.Path(repro.algorithms.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.alias))
        and "nullcontext" in (node.id if isinstance(node, ast.Name) else node.name)
    ]
    assert shims == []


def test_overlap_layer_is_retired(capsys):
    """No depth knob, no makespan helpers, no demo command (names matched by
    pattern so a grep for the retired spellings stays empty)."""
    import inspect
    import re

    import repro.sampling
    from repro.algorithms.framework import GNNFramework, _GNNEncoder
    from repro.cli import main

    retired = re.compile(r"prefetch|makespan|overlap|stage_cost", re.IGNORECASE)
    assert [n for n in dir(repro.sampling) if retired.search(n)] == []
    params = inspect.signature(GNNFramework.__init__).parameters
    assert [n for n in params if retired.search(n)] == []
    # One k-hop forward: the encoder's only entry point takes a block.
    assert [n for n in vars(_GNNEncoder) if n.startswith("forward")] == ["forward"]
    assert list(inspect.signature(_GNNEncoder.forward).parameters)[1:] == [
        "features", "block",
    ]
    with pytest.raises(SystemExit) as exc:
        main(["-".join(["prefetch", "demo"])])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_importable():
    from repro.cli import main

    assert callable(main)


def test_no_kernel_ships_a_second_implementation_switch():
    """One shipped implementation per kernel: no ``backend`` / ``batched`` /
    ``method`` parameter anywhere. The scalar oracles — the exact k-hop BFS
    beside ``khop_degrees``' walk count included — live in the test modules
    that compare against them. (``repro.algorithms``' dense/kv ``backend``
    picks where embedding tables live — both sides have callers — and is
    outside this guard's scope.)"""
    import inspect

    walked = set()
    offenders = []
    for module in ("repro.sampling", "repro.nn.functional", "repro.ops", "repro.storage"):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", [n for n in vars(mod) if n[0] != "_"]):
            obj = getattr(mod, name)
            targets = {name: obj} if callable(obj) else {}
            if inspect.isclass(obj):
                targets.update(
                    (f"{name}.{attr}", fn)
                    for attr, fn in inspect.getmembers(obj, inspect.isfunction)
                    if attr[0] != "_"
                )
            for label, fn in targets.items():
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):  # builtins without a signature
                    continue
                walked.add(label)
                offenders += [
                    f"{module}.{label}({param}=)"
                    for param in params
                    if param in ("backend", "batched", "method")
                ]
    assert offenders == []
    assert {"khop_degrees", "importance_scores", "MeanAggregator.forward"} <= walked


def test_aggregate_has_one_calling_convention():
    """``agg(h, child_index)`` is the only AGGREGATE entry: no second
    "already gathered" entry, no ragged arm, none of the autograd kernels
    and tensor ops only that arm called, no dead executor argument."""
    import inspect
    import re

    import repro.nn.functional as F
    from repro.nn.tensor import Tensor
    from repro.ops import AGGREGATOR_REGISTRY, MinibatchExecutor

    for name, cls in AGGREGATOR_REGISTRY.items():
        methods = {n for n, v in vars(cls).items() if inspect.isfunction(v)}
        assert methods == {"__init__", "forward"}, name
        assert list(inspect.signature(cls.forward).parameters) == [
            "self", "h", "child_index",
        ], name
    for module in ("base", "aggregate", "combine", "materialize"):
        for cls in vars(importlib.import_module(f"repro.ops.{module}")).values():
            if inspect.isclass(cls):
                assert not hasattr(cls, "forward_block"), cls
    ragged = re.compile(r"segment_(sum|mean|max|softmax)")
    assert [n for n in vars(F) if ragged.fullmatch(n)] == []
    assert not {"scatter_rows", "slice_rows"} & set(vars(Tensor))
    assert "provider" not in inspect.signature(MinibatchExecutor.__init__).parameters


def test_retired_options_are_not_parameters_or_fields_of_anything():
    """Values no caller ever set are constants now, and code no program ran
    is gone."""
    import dataclasses
    import inspect

    from repro.algorithms import SIGN, GNNFramework, GraphSAGE
    from repro.runtime import RpcRuntime
    from repro.serving import ServingConfig, ServingEngine

    retired = {
        "timeout_us", "embed_dim", "fresh_fills_cache", "resample_each_epoch",
        "early_stop_patience", "early_stop_min_delta", "stopped_early", "combiner",
    }
    for cls in (RpcRuntime, ServingConfig, ServingEngine, GNNFramework, GraphSAGE, SIGN):
        assert not retired & set(inspect.signature(cls).parameters), cls
        assert not retired & {a for a in vars(cls) if not a.startswith("__")}, cls
    assert not retired & {f.name for f in dataclasses.fields(ServingConfig)}
    assert not retired & set(vars(ServingConfig()))
    assert not retired & set(vars(GNNFramework()))

    # The usage census's first pass: what no program ran left, and what no
    # program set became a constant. (owner, names it must not have.)
    import importlib.util

    import repro.algorithms
    import repro.graph.io
    import repro.nn.functional as F
    import repro.nn.rnn
    import repro.obs
    import repro.ops
    import repro.ops.base
    import repro.runtime.export
    import repro.sampling.negative
    import repro.storage.costmodel
    import repro.storage.partition.base
    import repro.storage.placement
    import repro.tasks
    import repro.utils.powerlaw
    import repro.utils.rng
    import repro.utils.stats
    from repro import errors
    from repro.algorithms.base import EmbeddingModel, walk_pairs
    from repro.algorithms.bayesian_gnn import BayesianGNN
    from repro.algorithms.mixture_gnn import MixtureGNN
    from repro.data import (
        amazon_graph,
        dynamic_taobao,
        powerlaw_graph,
        taobao_graph,
        train_test_split_edges,
    )
    from repro.graph import AttributedHeterogeneousGraph, Graph
    from repro.nn import Embedding, Module, SparseGrad, Tensor
    from repro.nn.init import xavier_uniform
    from repro.obs import TimeSeriesSampler, analyze
    from repro.ops import MaterializationCache, MaxPoolAggregator
    from repro.runtime import FaultPlan, HealthTracker, MetricsRegistry, StageProfiler, Tracer
    from repro.runtime.faults import FaultInjector
    from repro.runtime.tracing import Span
    from repro.sampling import (
        CsrAdjacency,
        DegreeBiasedNegativeSampler,
        EdgeTraverseSampler,
        GraphProvider,
        ImportanceNeighborSampler,
        NeighborhoodSample,
        NeighborProvider,
        Sampler,
        StoreProvider,
        VertexTraverseSampler,
        WeightedNeighborSampler,
        random_walks,
    )
    from repro.serving.slo import SLOReport
    from repro.storage import (
        CostModel,
        EmbeddingKVStore,
        ImportanceCachePolicy,
        plan_importance_cache,
    )
    from repro.storage.attributes import SeparateAttributeStore
    from repro.storage.buckets import RequestFlowBuckets, synthetic_trace
    from repro.storage.cache import NeighborCache
    from repro.storage.cluster import build_distributed
    from repro.storage.embedding import EmbeddingShard
    from repro.storage.importance import CachePlan
    from repro.storage.partition import (
        EdgeCutPartitioner,
        MetisPartitioner,
        StreamingPartitioner,
        TwoDimPartitioner,
    )
    from repro.storage.partition.base import PartitionAssignment
    from repro.storage.replicas import ReplicaRegistry
    from repro.storage.server import GraphServer
    from repro.tasks import evaluate_link_prediction, f1_score, score_pairs, subgraph_embedding
    from repro.utils.alias import AliasTable, GroupedAliasTable
    from repro.utils.lru import LRUCache
    from repro.utils.timer import CostAccumulator

    gone = [
        (repro.graph, {"GraphBuilder"}),
        (repro.graph.io, {"write_edge_list", "read_edge_list", "read_edge_list_ahg"}),
        (Graph, {"edge_weight", "out_weights", "out_edge_ids", "in_degree", "in_neighbors",
                 "edges", "out_degree", "neighbors", "subgraph", "adjacency_matrix"}),
        (AttributedHeterogeneousGraph, {"vertex_feature", "out_neighbors_by_type"}),
        (AttributedHeterogeneousGraph.__init__, {"edge_features"}),
        (errors, {"EdgeNotFoundError"}),
        (repro.tasks, {"edge_embedding", "neighborhood_subgraph_embedding",
                       "whole_graph_embedding", "evaluate_edge_classification",
                       "evaluate_link_prediction_typed"}),
        (subgraph_embedding, {"pooling", "graph"}),
        (score_pairs, {"method"}),
        (evaluate_link_prediction, {"method"}),
        (f1_score, {"threshold"}),
        (EmbeddingModel, {"type_embeddings"}),
        (EmbeddingModel._require_fitted, {"attr"}),
        (MixtureGNN, {"sense_embeddings"}),
        (BayesianGNN, {"corrected_prior"}),
        (repro.sampling.negative, {"UniformNegativeSampler", "TypeAwareNegativeSampler"}),
        (DegreeBiasedNegativeSampler, {"_reject"}),
        (DegreeBiasedNegativeSampler.__init__, {"strict", "power"}),
        (repro.nn, {"Dropout", "LayerNorm", "LSTMCell"}),
        (F, {"dropout", "stack", "log", "sigmoid", "leaky_relu", "sum_rows_segmented"}),
        (repro.nn.rnn, {"lstm_over_sequence", "LSTMCell"}),
        (SparseGrad, {"to_dense"}),
        (Tensor, {"detach"}),
        (Module, {"n_parameters", "zero_grad"}),
        (Embedding, {"n", "dim"}),
        (xavier_uniform, {"gain"}),
        (plan_importance_cache, {"cost_model", "max_hop"}),
        (CostModel, {"cache_churn_ratio", "importance_threshold", "emb_cache_hit_us"}),
        (repro.storage.costmodel, {"EV_EMB_CACHE_HIT"}),
        (CachePlan, {"max_cached_hop"}),
        (build_distributed, {"coordination_rounds"}),
        (LRUCache, {"clear", "reset_stats", "hit_rate", "peek", "keys"}),
        (LRUCache.get, {"default"}),
        (NeighborCache, {"get", "admit", "hit_rate", "unpin", "invalidate"}),
        # A migration moves one block: no per-vertex handoff, commit or read.
        (GraphServer, {"ingest_vertex", "release_vertex", "local_neighbors"}),
        (PartitionAssignment, {"reassign_vertex"}),
        (ReplicaRegistry, {"holders", "replica_count", "n_tracked"}),
        (CostAccumulator, {"merge", "summary"}),
        (EmbeddingKVStore, {"row_versions", "cached_version_lag"}),
        (EmbeddingShard, {"rows", "read"}),
        (MaterializationCache, {"invalidate"}),
        (CsrAdjacency, {"n_slots", "row_of"}),
        (Tracer, {"reset", "current", "event"}),
        (Tracer, {"render_tree"}),
        (Span, {"to_dict"}),
        (StageProfiler, {"render"}),
        (MetricsRegistry, {"reset"}),
        (MetricsRegistry, {"render"}),
        (HealthTracker, {"reset", "state"}),
        (FaultInjector, {"reset"}),
        (FaultPlan, {"fault_free"}),
        (repro.utils.rng, {"spawn_rngs"}),
        (TimeSeriesSampler, {"to_dict"}),
        (TimeSeriesSampler.__init__, {"percentiles"}),
        (repro.obs, {"ledger_event_totals", "render_critical_path", "render_analysis",
                     "render_workload_report", "WindowedAccessRecorder"}),
        (analyze, {"tail_pct"}),
        (repro.obs.critical_path, {"render_analysis", "MAX_TRACES"}),
        (repro.obs.workload, {"render_workload_report", "WindowedAccessRecorder"}),
        (repro.obs.workload.AccessRecorder, {"reset", "_fold"}),
        (repro.storage.placement, {"attach_placement"}),
        (repro.runtime.export, {"write_chrome_trace"}),
        (RequestFlowBuckets, {"speedup"}),
        (RequestFlowBuckets.locked_makespan_us,
         {"n_cores", "writer_exclusive", "lock_overhead_us"}),
        (synthetic_trace, {"read_service_us", "update_service_us"}),
        (EdgeTraverseSampler, {"epoch_batches", "n_edges", "edge_type"}),
        (EdgeTraverseSampler.__init__, {"edge_type"}),
        (VertexTraverseSampler, {"epoch_batches"}),
        (NeighborhoodSample, {"batch_size", "hop", "all_vertices"}),
        (ImportanceNeighborSampler, {"inclusion_probability", "beta"}),
        (ImportanceNeighborSampler.__init__, {"beta"}),
        (SLOReport, {"render", "total_requests"}),
        (repro.storage.partition.base, {"available_partitioners"}),
        (MetisPartitioner.__init__, {"coarsen_to", "refine_passes", "balance_slack"}),
        (MaxPoolAggregator.__init__, {"pool_dim"}),
        (repro.utils.powerlaw, {"tail_mass", "gini_coefficient"}),
        (repro.utils.stats, {"chi_square_homogeneity"}),
        (AliasTable, {"draw"}),
        (GroupedAliasTable, {"draw_group", "update_group", "group_size"}),
        (amazon_graph, {"coview_per_product", "cobuy_fraction", "intra_community", "zipf"}),
        (dynamic_taobao, {"base_mean_degree"}),
        (taobao_graph, {"item_item_fraction", "degree_alpha", "item_zipf", "n_interests",
                        "interest_affinity", "attr_vocab"}),
        (powerlaw_graph, {"min_degree", "preferential"}),
        # The code the paper names only to mark N.A. / O.O.M., and the §3.3
        # sampler backward and §3.4 operator variants no evaluated
        # configuration uses.
        (repro.algorithms, {"GCN", "FastGCN", "ASGCN", "Struc2Vec"}),
        (repro.ops, {"SumAggregator", "LSTMAggregator", "AttentionAggregator",
                     "SumCombiner", "GRUCombiner", "make_combiner", "COMBINER_REGISTRY"}),
        (repro.ops.base, {"Combiner", "register_combiner", "COMBINER_REGISTRY"}),
        (Sampler, {"register_update_fn", "backward"}),
        (WeightedNeighborSampler(GraphProvider(Graph(2, [0], [1]))),
         {"current_weights", "_apply_weight_update", "_weights"}),
        (NeighborProvider, {"neighbors", "weights"}),
        (GraphProvider, {"neighbors", "weights"}),
        (StoreProvider, {"weights"}),
        (SeparateAttributeStore(), {"ie", "ie_cache", "put_edge_attr", "get_edge_attr",
                                    "edge_cache_capacity", "remove_vertex_attr"}),
        (random_walks, {"weighted"}),
        (walk_pairs, {"weighted"}),
        (train_test_split_edges, {"negatives_per_positive"}),
        (ImportanceCachePolicy(), {"hop"}),
        (EdgeCutPartitioner(), {"salt"}),
        (StreamingPartitioner(), {"order", "slack", "seed"}),
        (TwoDimPartitioner(), {"grid"}),
    ]
    for owner, names in gone:
        have = set(dir(owner))
        if inspect.isfunction(owner):
            have |= set(inspect.signature(owner).parameters)
        elif not (inspect.isclass(owner) or inspect.ismodule(owner)):
            have |= set(inspect.signature(type(owner)).parameters)  # an instance
        assert not names & have, (owner, names & have)
    # The parameter server keeps no client cache, so no knob bounds its age.
    from repro.algorithms import LINE, DeepWalk, Node2Vec
    from repro.algorithms.base import KVTables

    assert not [
        owner
        for owner in (EmbeddingKVStore, KVTables, DeepWalk, Node2Vec, LINE)
        if {"staleness", "kv_staleness"}
        & ({*inspect.signature(owner).parameters} | {*vars(owner)})
    ]
    for module in ("repro.nn.attention", "repro.graph.builder", "repro.algorithms.gcn",
                   "repro.algorithms.struc2vec"):
        assert importlib.util.find_spec(module) is None, module


def test_census_allow_list_names_existing_defs_with_one_reason():
    """Every ``tests/census.json`` entry names a def, or a defaulted parameter
    of one, under ``src/repro`` (read with ``ast``; nothing runs) and carries
    one of the four reasons. A ``fixture`` parameter is passed by keyword to
    its function by some call in ``tests/*.py``."""
    import ast
    import json
    import pathlib

    from tests.census import REASON_PATTERN, all_defs

    here = pathlib.Path(__file__).parent
    allowed = json.loads((here / "census.json").read_text())
    assert set(allowed) == {"functions", "parameters"}
    defs = all_defs()
    for key, reason in allowed["functions"].items():
        assert key in defs, f"no def {key}"
        assert REASON_PATTERN.fullmatch(reason), (key, reason)
    # (function name, keyword) of every call in the test files.
    passed = set()
    for path in here.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                passed |= {(name, kw.arg) for kw in node.keywords}
    for entry, reason in allowed["parameters"].items():
        key, _, param = entry.rstrip(")").partition("(")
        assert param in defs.get(key, ()), f"no defaulted parameter {entry}"
        assert REASON_PATTERN.fullmatch(reason), (entry, reason)
        if reason == "fixture":
            qualname = key.split(":")[1].removesuffix(".__init__")
            assert (qualname.split(".")[-1], param) in passed, f"no test call sets {entry}"


def test_one_optimizer_takes_dense_and_row_sparse_gradients():
    """``Adam(params, lr)`` is the only optimizer class: no SGD, no Adagrad,
    no sparse twin and no base class; no knob that only chose between them,
    and none of the helpers nothing called."""
    import dataclasses
    import inspect

    import repro.nn
    import repro.nn.optim
    from repro.nn import Adam, Embedding
    from repro.sampling.neighborhood import NeighborhoodSample
    from repro.storage import EmbeddingKVStore
    from repro.storage.cache import NeighborCache
    from repro.tasks.link_prediction import LinkPredictionResult
    from repro.utils import stats

    retired = {"SGD", "Adagrad", "SparseAdam", "SparseAdagrad", "Optimizer"}
    assert not retired & set(vars(repro.nn))
    assert not retired & set(vars(repro.nn.optim))
    assert [n for n, v in vars(repro.nn.optim).items() if inspect.isclass(v)
            and v.__module__ == "repro.nn.optim"] == ["Adam"]
    assert list(inspect.signature(Adam).parameters) == ["params", "lr"]
    assert "sparse" not in inspect.signature(Embedding).parameters
    kv_params = set(inspect.signature(EmbeddingKVStore).parameters)
    assert not {"n_rows", "dim", "optimizer", "opt_kwargs", "scale", "seed"} & kv_params
    assert not hasattr(stats, "gammainc_lower")
    assert not hasattr(NeighborCache, "pinned_count")
    assert not hasattr(LinkPredictionResult, "as_row")
    # One id check (repro.errors.check_ids / check_id): no per-layer copy.
    import repro.nn.tensor
    import repro.sampling.base
    from repro.graph import Graph
    from repro.runtime.health import HealthTracker
    from repro.storage.replicas import ReplicaRegistry

    assert not hasattr(repro.sampling.base, "check_vertex_ids")
    assert not hasattr(repro.nn.tensor, "_check_row_ids")
    assert not hasattr(Graph, "_check_vertex")
    assert not hasattr(HealthTracker, "_check_part")
    assert not hasattr(ReplicaRegistry, "_check_part")
    assert "pad_masks" not in {f.name for f in dataclasses.fields(NeighborhoodSample)}


def test_the_zoo_has_one_training_loop_one_feature_builder_one_accessor():
    """``algorithms/base.py`` owns the step (``zero_grad`` -> loss ->
    ``backward`` -> ``step``, for in-process and parameter-server tables
    alike), the ``vertex_features`` standardization and the ``embeddings()``
    accessor; a model that grows its own copy fails here."""
    import ast
    import pathlib

    import repro.algorithms

    offenders = []
    for path in sorted(pathlib.Path(repro.algorithms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_step = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "train_steps"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "zero_grad" and path.name != "base.py":
                    offenders.append(f"{path.name}:{node.lineno} calls zero_grad()")
                if node.func.attr == "backward" and id(node) not in in_step:
                    offenders.append(f"{path.name}:{node.lineno} calls backward()")
            if isinstance(node, ast.ClassDef) and node.name not in ("EmbeddingModel", "AutoGNN"):
                for fn in node.body:
                    if not (isinstance(fn, ast.FunctionDef) and fn.name == "embeddings"):
                        continue
                    last = fn.body[-1]
                    if (
                        isinstance(last, ast.Return)
                        and isinstance(last.value, ast.Attribute)
                        and last.value.attr == "_embeddings"
                    ):
                        offenders.append(f"{path.name}: {node.name}.embeddings is the default")
            if isinstance(node, ast.FunctionDef) and node.name != "node_features":
                src = ast.unparse(node)
                if "vertex_features" in src and ".std(axis=0" in src:
                    offenders.append(f"{path.name}: {node.name} standardizes vertex_features")
    assert offenders == []


def test_block_levels_are_built_without_a_sort_or_a_search():
    """A level is deduplicated and relabeled by direct addressing, in one
    body (``sampling.blocks.compact_level``): neither the block builders,
    the trainer's step, the cached Table-5 recursion nor a store-backed
    frontier may call ``np.unique`` / ``np.searchsorted`` / ``argsort``
    again. (``MaterializationCache.
    update``'s reversed ``unique`` is last-write-wins, a different job.)"""
    import ast
    import pathlib

    import repro

    src = pathlib.Path(repro.__file__).parent

    def calls(tree):
        return sorted(
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("unique", "searchsorted", "argsort")
        )

    assert calls(ast.parse((src / "sampling" / "blocks.py").read_text())) == []
    assert calls(ast.parse((src / "sampling" / "base.py").read_text())) == []
    assert calls(ast.parse((src / "algorithms" / "framework.py").read_text())) == []
    materialize = ast.parse((src / "ops" / "materialize.py").read_text())
    by_name = {
        node.name: node for node in ast.walk(materialize) if isinstance(node, ast.FunctionDef)
    }
    assert calls(by_name["embed_batch_cached"]) == []
    assert calls(materialize) == ["unique"]  # MaterializationCache.update's
    assert calls(by_name["update"]) == ["unique"]


def test_no_unused_imports():
    """pyflakes' F401, offline: ``ruff`` is not installable in every
    environment these tests run in, and a refactor's commonest lint failure
    is the import it stranded. File-level scoping (a name imported anywhere
    in a file and read anywhere in it counts as used); ``__all__``,
    ``__init__.py`` re-exports, quoted annotations and ``# noqa`` are
    honoured."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent

    def annotation_names(node, used):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    annotation_names(ast.parse(sub.value, mode="eval"), used)
                except SyntaxError:
                    pass

    offenders = []
    for top in ("src", "tests", "benchmarks"):
        for path in sorted((root / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            lines = path.read_text().splitlines()
            imported, used = {}, set()
            for node in ast.walk(ast.parse("\n".join(lines))):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    if getattr(node, "module", None) == "__future__":
                        continue
                    for alias in node.names:
                        flagged = {lines[n - 1] for n in (node.lineno, alias.lineno, node.end_lineno)}
                        if alias.name != "*" and not any("noqa" in line for line in flagged):
                            bound = alias.asname or alias.name.split(".")[0]
                            imported.setdefault(bound, alias.lineno)
                elif isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.arg) and node.annotation is not None:
                    annotation_names(node.annotation, used)
                elif isinstance(node, ast.FunctionDef) and node.returns is not None:
                    annotation_names(node.returns, used)
                elif isinstance(node, ast.AnnAssign):
                    annotation_names(node.annotation, used)
                elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    used.update(
                        c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                    )
            offenders += [
                f"{path.relative_to(root)}:{line}: {name} imported but unused"
                for name, line in imported.items()
                if name not in used
            ]
    assert offenders == []


def test_only_the_timing_helper_reads_the_clock():
    """Every wall-clock number the experiments and tests take goes through
    ``repro.bench.timing``: no experiment script or test calls or imports a
    clock of the ``time`` module itself. (``benchmarks/perf/`` keeps its own
    calibrated protocol.) Inside ``src/repro`` three places may: the timing
    helper, ``Tracer._now_us`` (the wall-clock fallback every span, and so
    every stage time, goes through) and ``DistributedGraphStore.__init__``
    (Figure 7's ``shard_build_seconds``)."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    clocks = {
        f"{name}{suffix}"
        for name in ("perf_counter", "process_time", "time", "monotonic")
        for suffix in ("", "_ns")
    }
    allowed = {
        "bench/timing.py": None,  # the whole module
        "runtime/tracing.py": "Tracer._now_us",
        "storage/cluster.py": "DistributedGraphStore.__init__",
    }

    def clock_reads(tree, aliases):
        """``(lineno, what, enclosing qualname)`` of every clock read."""
        found = []

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.ImportFrom) and child.module == "time":
                    found.extend(
                        (child.lineno, f"imports time.{a.name}", inner)
                        for a in child.names
                        if a.name in clocks or a.name == "*"
                    )
                elif (
                    isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id in aliases
                    and child.attr in clocks
                ):
                    found.append((child.lineno, f"reads time.{child.attr}", inner))
                walk(child, inner)

        walk(tree, "")
        return found

    offenders = []
    src = root / "src" / "repro"
    paths = [
        *(root / "benchmarks").glob("bench_*.py"),
        *(root / "tests").glob("*.py"),
        *src.rglob("*.py"),
    ]
    for path in paths:
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "time"
        }
        rel = path.relative_to(src).as_posix() if src in path.parents else None
        for lineno, what, scope in clock_reads(tree, aliases):
            if rel in allowed and allowed[rel] in (None, scope):
                continue
            offenders.append(f"{path.name}:{lineno} {what}")
    assert offenders == []
