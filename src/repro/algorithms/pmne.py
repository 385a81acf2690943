"""PMNE (Liu et al., ICDM 2017): principled multilayer network embedding.

Three approaches to embed a multiplex (multi-edge-type) network, all
node2vec-based, matching the paper's PMNE-n / PMNE-r / PMNE-c competitors:

* ``network`` (PMNE-n) — *network aggregation*: merge all layers into one
  graph, then node2vec;
* ``results`` (PMNE-r) — *results aggregation*: node2vec per layer,
  concatenate the per-layer embeddings;
* ``layer_coanalysis`` (PMNE-c) — *layer co-analysis*: walks may hop across
  layers at each step (union-neighborhood walks), then one skip-gram.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EmbeddingModel, unit_rows
from repro.algorithms.node2vec import Node2Vec
from repro.errors import TrainingError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.graph.graph import Graph


class PMNE(EmbeddingModel):
    """Multiplex embeddings with a selectable aggregation variant."""

    name = "pmne"

    def __init__(
        self,
        variant: str = "network",
        dim: int = 64,
        p: float = 0.5,
        q: float = 2.0,
        seed: int = 0,
        **node2vec_kwargs: object,
    ) -> None:
        if variant not in ("network", "results", "layer_coanalysis"):
            raise TrainingError(f"unknown PMNE variant {variant!r}")
        self.variant = variant
        self.dim = dim
        self.p = p
        self.q = q
        self.seed = seed
        self.node2vec_kwargs = node2vec_kwargs
        self._embeddings: np.ndarray | None = None

    def _merged(self, graph: AttributedHeterogeneousGraph) -> Graph:
        src, dst, w = graph.edge_array()
        return Graph(graph.n_vertices, src, dst, weights=w, directed=graph.directed)

    def fit(self, graph: AttributedHeterogeneousGraph) -> "PMNE":
        if not isinstance(graph, AttributedHeterogeneousGraph):
            raise TrainingError("PMNE needs a multiplex (AHG) input")
        if self.variant == "network":
            model = Node2Vec(
                dim=self.dim, p=self.p, q=self.q, seed=self.seed, **self.node2vec_kwargs
            )
            self._embeddings = model.fit(self._merged(graph)).embeddings()
            return self
        if self.variant == "results":
            layers = graph.edge_type_names
            per_layer_dim = max(4, self.dim // max(len(layers), 1))
            parts = []
            for i, etype in enumerate(layers):
                layer_graph = graph.edge_type_subgraph(etype)
                if layer_graph.n_edges == 0:
                    parts.append(np.zeros((graph.n_vertices, per_layer_dim)))
                    continue
                model = Node2Vec(
                    dim=per_layer_dim,
                    p=self.p,
                    q=self.q,
                    seed=self.seed + i,
                    **self.node2vec_kwargs,
                )
                parts.append(model.fit(layer_graph).embeddings())
            self._embeddings = unit_rows(np.concatenate(parts, axis=1))
            return self
        self._embeddings = self._fit_coanalysis(graph)
        return self

    def _fit_coanalysis(self, graph: AttributedHeterogeneousGraph) -> np.ndarray:
        """Cross-layer walks: stay in the current layer with probability
        ``window_stay``, otherwise jump to a random layer where the vertex
        has edges, then step within the chosen layer."""
        from repro.algorithms.base import skipgram_embeddings
        from repro.sampling.randomwalk import walk_context_pairs
        from repro.utils.rng import make_rng

        rng = make_rng(self.seed)
        stay_prob = 0.7
        layers = [graph.edge_type_subgraph(t) for t in graph.edge_type_names]
        layers = [g for g in layers if g.n_edges > 0]
        if not layers:
            raise TrainingError("co-analysis needs at least one non-empty layer")
        walk_length = int(self.node2vec_kwargs.get("walk_length", 10))
        walks_per_vertex = int(self.node2vec_kwargs.get("walks_per_vertex", 4))
        window = int(self.node2vec_kwargs.get("window", 3))
        walks = []
        starts = np.tile(graph.vertices(), walks_per_vertex)
        rng.shuffle(starts)
        for start in starts:
            current = int(start)
            layer = int(rng.integers(len(layers)))
            walk = [current]
            for _ in range(walk_length):
                if rng.random() > stay_prob:
                    options = [
                        i
                        for i, g in enumerate(layers)
                        if g.out_neighbors(current).size > 0
                    ]
                    if options:
                        layer = int(rng.choice(options))
                nbrs = layers[layer].out_neighbors(current)
                if nbrs.size == 0:
                    merged_nbrs = graph.out_neighbors(current)
                    if merged_nbrs.size == 0:
                        break
                    current = int(merged_nbrs[rng.integers(merged_nbrs.size)])
                else:
                    current = int(nbrs[rng.integers(nbrs.size)])
                walk.append(current)
            walks.append(np.asarray(walk, dtype=np.int64))
        pairs = walk_context_pairs(walks, window)
        epochs = int(self.node2vec_kwargs.get("epochs", 2))
        return skipgram_embeddings(pairs, graph, self.dim, rng, epochs)[0]
