"""Integration tests: full pipelines across all layers."""

import numpy as np

from repro.algorithms import GATNE, DeepWalk, GraphSAGE
from repro.data import make_dataset, powerlaw_graph, train_test_split_edges
from repro.ops import (
    ConcatCombiner,
    MaterializationCache,
    MinibatchExecutor,
    make_aggregator,
)
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    SamplingPipeline,
    StoreProvider,
    UniformNeighborSampler,
    VertexTraverseSampler,
)
from repro.storage import ImportanceCachePolicy
from repro.storage.cluster import build_distributed, make_store
from repro.tasks import evaluate_link_prediction
from repro.utils.rng import make_rng


def test_distributed_sampling_pipeline_end_to_end():
    """Dataset -> partitioned store -> Figure 5 pipeline -> training batch."""
    graph = make_dataset("taobao-small-sim", scale=0.1, seed=0)
    store, report = build_distributed(graph, 4)
    assert report.total_seconds > 0
    store.set_cache_policy(ImportanceCachePolicy(), budget=graph.n_vertices // 10)
    rng = make_rng(0)
    pipeline = SamplingPipeline(
        traverse=VertexTraverseSampler(graph, vertex_type="user"),
        neighborhood=UniformNeighborSampler(StoreProvider(store, from_part=0)),
        negative=DegreeBiasedNegativeSampler(graph),
        hop_nums=[4, 4],
        neg_num=5,
    )
    batch = pipeline.sample(32, rng)
    assert batch.batch_size == 32
    assert batch.context.layers[2].size == 32 * 16
    # The store routed (and priced) every adjacency read.
    assert store.ledger.modelled_millis() > 0


def test_executor_over_distributed_store():
    """Operator layer runs against the distributed store transparently."""
    graph = powerlaw_graph(1000, seed=1)
    store = make_store(graph, 2, seed=0)
    rng = make_rng(2)
    features = rng.normal(size=(graph.n_vertices, 8))
    ex = MinibatchExecutor(
        features,
        UniformNeighborSampler(StoreProvider(store, from_part=0)),
        [make_aggregator("mean", 8, 8, rng)],
        [ConcatCombiner(8, 8, 8, rng)],
        [4],
    )
    cache = MaterializationCache(1, graph.n_vertices)
    out = ex.embed_batch_cached(np.arange(16), rng, cache)
    assert out.shape == (16, 8)
    assert np.isfinite(out).all()


def test_full_evaluation_pipeline_graphsage_vs_deepwalk():
    """The complete quality loop on the Amazon substrate."""
    graph = make_dataset("amazon-sim", scale=0.2, seed=2)
    split = train_test_split_edges(graph, 0.2, seed=0)
    sage = GraphSAGE(dim=24, epochs=3, max_steps_per_epoch=15, seed=0)
    deepwalk = DeepWalk(dim=24, epochs=1, walks_per_vertex=2, seed=0)
    res_sage = evaluate_link_prediction(
        sage.fit(split.train_graph).embeddings(), split
    )
    res_dw = evaluate_link_prediction(
        deepwalk.fit(split.train_graph).embeddings(), split
    )
    assert res_sage.roc_auc > 60.0
    assert res_dw.roc_auc > 60.0


def test_gatne_beats_deepwalk_on_multiplex():
    """The Table 8 headline at test scale: GATNE > DeepWalk on amazon-sim."""
    graph = make_dataset("amazon-sim", scale=0.3, seed=3)
    split = train_test_split_edges(graph, 0.2, seed=0)
    gatne = GATNE(dim=24, epochs=3, walks_per_vertex=3, seed=0)
    deepwalk = DeepWalk(dim=24, epochs=2, walks_per_vertex=2, seed=0)
    auc_gatne = evaluate_link_prediction(
        gatne.fit(split.train_graph).embeddings(), split
    ).roc_auc
    auc_dw = evaluate_link_prediction(
        deepwalk.fit(split.train_graph).embeddings(), split
    ).roc_auc
    # At this reduced test scale GATNE must at least be competitive; the
    # Table 8 bench asserts the full-scale win.
    assert auc_gatne > auc_dw - 2.0


def test_io_roundtrip_preserves_evaluation(tmp_path):
    """Persisting and reloading an AHG must not change downstream results."""
    from repro.graph.io import load_ahg, save_ahg

    graph = make_dataset("amazon-sim", scale=0.15, seed=4)
    path = str(tmp_path / "amazon.npz")
    save_ahg(graph, path)
    reloaded = load_ahg(path)
    s1 = train_test_split_edges(graph, 0.2, seed=1)
    s2 = train_test_split_edges(reloaded, 0.2, seed=1)
    np.testing.assert_array_equal(s1.test_pos, s2.test_pos)
    e1 = DeepWalk(dim=16, epochs=1, seed=0).fit(s1.train_graph).embeddings()
    e2 = DeepWalk(dim=16, epochs=1, seed=0).fit(s2.train_graph).embeddings()
    np.testing.assert_allclose(e1, e2)
