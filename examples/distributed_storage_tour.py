"""A tour of the AliGraph storage + sampling system layers.

Walks through what the paper's §3 builds: partition a Taobao-like graph
across simulated workers, install the importance-based neighbor cache,
route sampled traversals through the distributed store, and read the exact
cost accounting that the system experiments (Figures 7-9, Table 4) rest on.

Run:  python examples/distributed_storage_tour.py
"""

import numpy as np

from repro.data import make_dataset
from repro.sampling import (
    DegreeBiasedNegativeSampler,
    SamplingPipeline,
    StoreProvider,
    UniformNeighborSampler,
    VertexTraverseSampler,
)
from repro.storage import ImportanceCachePolicy, RandomCachePolicy
from repro.storage.cluster import build_distributed
from repro.storage.importance import importance_scores, plan_importance_cache
from repro.storage.partition import MetisPartitioner, get_partitioner
from repro.utils.rng import make_rng


def main() -> None:
    graph = make_dataset("taobao-small-sim", scale=0.4, seed=1)
    print(f"graph: {graph.describe()}\n")

    # --- Partitioning: compare two of the four built-in strategies. ----- #
    for name in ("edge_cut", "metis"):
        partitioner = get_partitioner(name) if name != "metis" else MetisPartitioner(seed=0)
        assignment = partitioner.partition(graph, 4)
        print(
            f"partitioner {name:9s}: edge cut "
            f"{assignment.edge_cut_fraction():.3f}, balance "
            f"{assignment.balance():.3f}"
        )

    # --- Importance-based caching (Eq. 1 / Algorithm 2). ---------------- #
    scores = importance_scores(graph, k=2)
    plan = plan_importance_cache(graph, max_hop=2, thresholds=0.2)
    print(
        f"\nImp^(2) >= 0.2 selects {plan.cache_fraction(graph.n_vertices):.1%} "
        f"of vertices (median importance {np.median(scores):.3f})"
    )

    # --- The distributed store with exact access accounting. ------------ #
    store, build = build_distributed(graph, n_workers=4)
    print(
        f"\ndistributed build: {build.total_seconds * 1000:.1f} ms modelled "
        f"({build.n_workers} workers, critical path "
        f"{max(build.per_worker_edges)} edges = "
        f"{build.ingest_seconds * 1000:.2f} ms modelled; slowest shard took "
        f"{build.critical_path_seconds * 1000:.2f} ms wall-clock)"
    )
    store.set_cache_policy(
        ImportanceCachePolicy(), budget=int(0.2 * graph.n_vertices)
    )

    # --- The Figure 5 sampling stage against the store. ------------------ #
    rng = make_rng(0)
    pipeline = SamplingPipeline(
        traverse=VertexTraverseSampler(graph, vertex_type="user"),
        neighborhood=UniformNeighborSampler(StoreProvider(store, from_part=0)),
        negative=DegreeBiasedNegativeSampler(graph),
        hop_nums=[4, 4],
        neg_num=5,
    )
    batch = pipeline.sample(batch_size=256, rng=rng)
    print(
        f"\nsampled batch: {batch.batch_size} seeds, context layers "
        f"{[layer.size for layer in batch.context.layers]}, negatives "
        f"{batch.negatives.shape}"
    )
    print("access ledger:", dict(store.ledger.counts))
    print(f"modelled traversal cost: {store.ledger.modelled_millis():.2f} ms")
    print(f"neighbor-cache hit rate: {store.cache_hit_rate():.1%}")

    # --- Swap the cache policy and watch the cost move (Figure 9). ------ #
    store.set_cache_policy(RandomCachePolicy(), budget=int(0.2 * graph.n_vertices))
    store.reset_ledger()
    pipeline.sample(batch_size=256, rng=make_rng(0))
    print(
        f"\nsame workload under a random cache: "
        f"{store.ledger.modelled_millis():.2f} ms "
        f"(hit rate {store.cache_hit_rate():.1%})"
    )


if __name__ == "__main__":
    main()
