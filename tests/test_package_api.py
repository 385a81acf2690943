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
             "MVE", "MNE", "Struc2Vec", "GCN", "FastGCN", "ASGCN", "TNE",
             "DANE", "DAE", "BetaVAE"],
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
             "DegreeBiasedNegativeSampler", "TypeAwareNegativeSampler",
             "SamplingPipeline", "random_walks", "node2vec_walks",
             "metapath_walks"],
        ),
        (
            "repro.ops",
            ["MeanAggregator", "MaxPoolAggregator", "LSTMAggregator",
             "AttentionAggregator", "ConcatCombiner", "GRUCombiner",
             "MaterializationCache", "MinibatchExecutor"],
        ),
        (
            "repro.tasks",
            ["roc_auc", "pr_auc", "f1_score", "hit_recall_at_k",
             "evaluate_link_prediction", "evaluate_link_prediction_typed",
             "evaluate_recommendation", "evaluate_edge_classification",
             "evaluate_node_classification", "edge_embedding",
             "subgraph_embedding"],
        ),
        (
            "repro.data",
            ["make_dataset", "taobao_graph", "amazon_graph", "dynamic_taobao",
             "knowledge_graph", "train_test_split_edges", "powerlaw_graph"],
        ),
        (
            "repro.nn",
            ["Tensor", "Dense", "Embedding", "GRUCell", "LSTMCell", "Adam",
             "SGD", "bce_with_logits", "skipgram_negative_loss"],
        ),
        (
            "repro.graph",
            ["Graph", "AttributedHeterogeneousGraph", "GraphBuilder",
             "DynamicGraph", "EdgeEvent"],
        ),
        (
            "repro.runtime",
            ["RpcRuntime", "Request", "Response", "VirtualClock", "Inbox",
             "FaultPlan", "RetryPolicy", "HealthTracker", "MetricsRegistry",
             "Tracer", "NULL_TRACER", "StageProfiler", "chrome_trace",
             "prometheus_text", "write_chrome_trace"],
        ),
        (
            "repro.obs",
            ["AccessRecorder", "WindowedAccessRecorder", "TimeSeriesSampler",
             "analyze", "mine_workload", "cache_efficacy", "fit_zipf",
             "render_workload_report"],
        ),
        (
            "repro.bench",
            ["Experiment", "ExperimentRecord", "ExperimentReport", "MetricRule",
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
    """One shipped implementation per kernel: no ``backend`` / ``batched``
    parameter, and no ``method`` outside the two functions that define the
    paper's exact k-hop count beside its walk-count approximation. The
    scalar oracles live in the test modules that compare against them.
    (``repro.algorithms``' dense/kv ``backend`` picks where embedding tables
    live — both sides have callers — and is outside this guard's scope.)"""
    import inspect

    exact_definition = {"khop_degrees", "importance_scores"}
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
                offenders += [
                    f"{module}.{label}({param}=)"
                    for param in params
                    if param in ("backend", "batched")
                    or (param == "method" and label not in exact_definition)
                ]
    assert offenders == []


def test_retired_options_are_not_parameters_or_fields_of_anything():
    """Four values no caller ever set are constants now."""
    import dataclasses
    import inspect

    from repro.algorithms import SIGN, GNNFramework, GraphSAGE
    from repro.runtime import RpcRuntime
    from repro.serving import ServingConfig, ServingEngine

    retired = {"timeout_us", "embed_dim", "fresh_fills_cache", "resample_each_epoch"}
    for cls in (RpcRuntime, ServingConfig, ServingEngine, GNNFramework, GraphSAGE, SIGN):
        assert not retired & set(inspect.signature(cls).parameters), cls
        assert not retired & {a for a in vars(cls) if not a.startswith("__")}, cls
    assert not retired & {f.name for f in dataclasses.fields(ServingConfig)}
    assert not retired & set(vars(ServingConfig()))
    assert not retired & set(vars(GNNFramework()))


def test_the_zoo_has_one_training_loop_one_feature_builder_one_accessor():
    """``algorithms/base.py`` owns the step (``zero_grad`` -> loss ->
    ``backward`` -> ``step``), the ``vertex_features`` standardization and the
    ``embeddings()`` accessor; a model that grows its own copy fails here."""
    import ast
    import pathlib

    import repro.algorithms

    offenders = []
    for path in sorted(pathlib.Path(repro.algorithms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "zero_grad" and path.name != "base.py":
                    offenders.append(f"{path.name}:{node.lineno} calls zero_grad()")
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
