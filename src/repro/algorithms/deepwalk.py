"""DeepWalk (Perozzi et al., KDD 2014).

Uniform truncated random walks generate a corpus; skip-gram with negative
sampling learns the embeddings. Purely structural — the baseline the paper's
Table 1 marks as handling none of heterogeneity/attributes/dynamics.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import TableStoreModel, skipgram_embeddings
from repro.graph.graph import Graph
from repro.sampling.randomwalk import random_walks, walk_context_pairs
from repro.utils.rng import make_rng


class DeepWalk(TableStoreModel):
    """Random-walk skip-gram embeddings.

    The center and context tables live where ``backend`` says (see
    :class:`~repro.algorithms.base.TableStoreModel`): in process, or on a
    parameter server of ``kv_workers`` simulated servers. Both stores run the
    same pairs, loss and step.
    """

    name = "deepwalk"

    def __init__(
        self,
        dim: int = 64,
        walks_per_vertex: int = 4,
        walk_length: int = 10,
        window: int = 3,
        epochs: int = 2,
        neg_num: int = 5,
        lr: float = 0.025,
        seed: int = 0,
        backend: str = "dense",
        kv_workers: int = 4,
    ) -> None:
        self.dim = dim
        self.walks_per_vertex = walks_per_vertex
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.neg_num = neg_num
        self.lr = lr
        self.seed = seed
        self._place_tables(backend, kv_workers)
        self._embeddings: np.ndarray | None = None
        self.final_loss = float("inf")

    def _walks(self, graph: Graph, rng: np.random.Generator):
        starts = np.tile(graph.vertices(), self.walks_per_vertex)
        rng.shuffle(starts)
        return random_walks(graph, starts, self.walk_length, rng)

    def fit(self, graph: Graph) -> "DeepWalk":
        rng = make_rng(self.seed)
        pairs = walk_context_pairs(self._walks(graph, rng), self.window)
        self._embeddings, self.final_loss = skipgram_embeddings(
            pairs, graph, self.dim, rng, self.epochs, self.neg_num, self.lr,
            place=self._table_store,
        )
        return self
