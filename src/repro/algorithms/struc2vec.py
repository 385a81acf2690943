"""Struc2Vec (Ribeiro et al., KDD 2017) — structural-identity embeddings.

Vertices with similar *roles* (degree profiles of their neighborhoods)
embed close regardless of proximity. This compact implementation builds the
k-hop degree-sequence signature of every vertex, forms a similarity-weighted
auxiliary graph over structural neighbors, and runs skip-gram on walks in
that auxiliary graph — the essential struc2vec pipeline with the multilayer
context graph collapsed to its strongest layer.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EmbeddingModel, skipgram_embeddings, walk_pairs
from repro.graph.graph import Graph
from repro.utils.rng import make_rng


def _structural_signature(graph: Graph, hops: int) -> np.ndarray:
    """Per-vertex signature: sorted quantiles of the h-hop degree sequence."""
    degrees = graph.out_degrees().astype(np.float64)
    quantiles = np.linspace(0.0, 1.0, 5)
    signatures = []
    for v in range(graph.n_vertices):
        frontier = {v}
        seen = {v}
        rows = [np.quantile([degrees[v]], quantiles)]
        for _ in range(hops):
            nxt: set[int] = set()
            for u in frontier:
                nxt.update(int(w) for w in graph.out_neighbors(u))
            frontier = nxt - seen
            seen |= nxt
            if frontier:
                rows.append(np.quantile(degrees[list(frontier)], quantiles))
            else:
                rows.append(np.zeros_like(quantiles))
        signatures.append(np.concatenate(rows))
    return np.asarray(signatures)


class Struc2Vec(EmbeddingModel):
    """Structural-role embeddings via an auxiliary similarity graph."""

    name = "struc2vec"

    def __init__(
        self,
        dim: int = 64,
        hops: int = 2,
        knn: int = 10,
        walks_per_vertex: int = 4,
        walk_length: int = 10,
        window: int = 3,
        epochs: int = 2,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.hops = hops
        self.knn = knn
        self.walks_per_vertex = walks_per_vertex
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    def fit(self, graph: Graph) -> "Struc2Vec":
        rng = make_rng(self.seed)
        sig = _structural_signature(graph, self.hops)
        sig = (sig - sig.mean(axis=0)) / (sig.std(axis=0) + 1e-9)
        n = graph.n_vertices
        k = min(self.knn, n - 1)
        # kNN in signature space defines the structural context graph.
        src_list, dst_list, w_list = [], [], []
        for v in range(n):
            dist = np.linalg.norm(sig - sig[v], axis=1)
            dist[v] = np.inf
            nearest = np.argpartition(dist, k)[:k]
            for u in nearest:
                src_list.append(v)
                dst_list.append(int(u))
                w_list.append(float(np.exp(-dist[u])))
        aux = Graph(
            n,
            np.asarray(src_list, dtype=np.int64),
            np.asarray(dst_list, dtype=np.int64),
            weights=np.maximum(np.asarray(w_list), 1e-9),
            directed=True,
        )
        pairs = walk_pairs(
            aux, rng, self.walks_per_vertex, self.walk_length, self.window, weighted=True
        )
        self._embeddings, _ = skipgram_embeddings(pairs, aux, self.dim, rng, self.epochs)
        return self
