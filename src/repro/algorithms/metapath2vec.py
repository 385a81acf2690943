"""Metapath2Vec (Dong et al., KDD 2017).

Heterogeneous skip-gram over metapath-constrained random walks: the walk
alternates vertex types along a user-specified pattern (e.g. user-item-user)
so the context of a vertex is type-meaningful.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EmbeddingModel, skipgram_embeddings
from repro.errors import TrainingError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.sampling.randomwalk import metapath_walks, walk_context_pairs
from repro.utils.rng import make_rng


class Metapath2Vec(EmbeddingModel):
    """Metapath-constrained skip-gram embeddings (needs an AHG)."""

    name = "metapath2vec"

    def __init__(
        self,
        metapath: "list[str] | None" = None,
        dim: int = 64,
        walks_per_vertex: int = 4,
        walk_length: int = 10,
        window: int = 3,
        epochs: int = 2,
        neg_num: int = 5,
        lr: float = 0.025,
        seed: int = 0,
    ) -> None:
        self.metapath = metapath
        self.dim = dim
        self.walks_per_vertex = walks_per_vertex
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.neg_num = neg_num
        self.lr = lr
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    def _default_metapath(self, graph: AttributedHeterogeneousGraph) -> "list[str]":
        names = graph.vertex_type_names
        if len(names) >= 2:
            return [names[0], names[1]]
        # Single vertex type: the metapath degenerates to that type.
        return [names[0], names[0]]

    def fit(self, graph: AttributedHeterogeneousGraph) -> "Metapath2Vec":
        if not isinstance(graph, AttributedHeterogeneousGraph):
            raise TrainingError("Metapath2Vec needs an AHG")
        rng = make_rng(self.seed)
        metapath = self.metapath or self._default_metapath(graph)
        starts_pool = graph.vertices_of_type(metapath[0])
        if starts_pool.size == 0:
            raise TrainingError(f"no vertices of type {metapath[0]!r}")
        starts = np.tile(starts_pool, self.walks_per_vertex)
        rng.shuffle(starts)
        walks = metapath_walks(graph, starts, metapath, self.walk_length, rng)
        pairs = walk_context_pairs([w for w in walks if w.size > 1], self.window)
        if pairs[0].size == 0:
            raise TrainingError("metapath walks produced no context pairs")
        self._embeddings, _ = skipgram_embeddings(
            pairs, graph, self.dim, rng, self.epochs, self.neg_num, self.lr
        )
        return self
