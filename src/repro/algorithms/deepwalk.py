"""DeepWalk (Perozzi et al., KDD 2014).

Uniform truncated random walks generate a corpus; skip-gram with negative
sampling learns the embeddings. Purely structural — the baseline the paper's
Table 1 marks as handling none of heterogeneity/attributes/dynamics.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    EmbeddingModel,
    embedding_backend,
    skipgram_embeddings,
    train_skipgram_kv,
    unit_rows,
)
from repro.graph.graph import Graph
from repro.nn.init import embedding_init
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.sampling.randomwalk import random_walks, walk_context_pairs
from repro.utils.rng import make_rng


class DeepWalk(EmbeddingModel):
    """Random-walk skip-gram embeddings.

    ``backend="dense"`` (the default) trains in process with dense tables;
    ``backend="kv"`` trains the same pairs against a partitioned
    :class:`~repro.storage.embedding.EmbeddingKVStore` over ``kv_workers``
    simulated servers — batched deduplicated pulls, row-sparse pushes,
    server-side sparse-Adam updates — leaving the fitted store on
    :attr:`kv_store` for inspection (ledger, metrics, RPC counts).
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
        kv_staleness: int = 0,
    ) -> None:
        self.dim = dim
        self.walks_per_vertex = walks_per_vertex
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.neg_num = neg_num
        self.lr = lr
        self.seed = seed
        self.backend = embedding_backend(backend)
        self.kv_workers = kv_workers
        self.kv_staleness = kv_staleness
        #: The distributed store a ``backend="kv"`` fit trained against.
        self.kv_store = None
        self._embeddings: np.ndarray | None = None
        self.final_loss = float("inf")

    def _walks(self, graph: Graph, rng: np.random.Generator):
        starts = np.tile(graph.vertices(), self.walks_per_vertex)
        rng.shuffle(starts)
        return random_walks(graph, starts, self.walk_length, rng)

    def fit(self, graph: Graph) -> "DeepWalk":
        rng = make_rng(self.seed)
        pairs = walk_context_pairs(self._walks(graph, rng), self.window)
        if self.backend == "kv":
            return self._fit_kv(graph, rng, pairs)
        self._embeddings, self.final_loss = skipgram_embeddings(
            pairs, graph, self.dim, rng, self.epochs, self.neg_num, self.lr
        )
        return self

    def _fit_kv(
        self,
        graph: Graph,
        rng: np.random.Generator,
        pairs: tuple[np.ndarray, np.ndarray],
    ) -> "DeepWalk":
        """Train against parameter-server tables on a simulated cluster.

        Tables are initialized by the same ``embedding_init`` draws, in the
        same order, as the dense path's :class:`Embedding` layers, so the
        two backends start from identical values.
        """
        from repro.storage.cluster import make_store
        from repro.storage.embedding import EmbeddingKVStore

        n = graph.n_vertices
        store = make_store(graph, self.kv_workers, seed=self.seed)

        def table(role: str) -> EmbeddingKVStore:
            return EmbeddingKVStore(
                store, n, self.dim, name=f"{self.name}.{role}",
                optimizer="adam", lr=self.lr,
                staleness=self.kv_staleness,
                init=embedding_init((n, self.dim), rng),
            )

        center, context = table("center"), table("context")
        self.final_loss = train_skipgram_kv(
            pairs,
            kv_center=center,
            kv_context=context,
            negative_sampler=DegreeBiasedNegativeSampler(graph),
            rng=rng,
            epochs=self.epochs,
            neg_num=self.neg_num,
        )
        self.kv_store = store
        self._embeddings = unit_rows(center.materialize())
        return self
