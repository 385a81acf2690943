"""LINE (Tang et al., WWW 2015).

Preserves first-order proximity (directly connected vertices embed close)
and second-order proximity (vertices with similar neighborhoods embed
close), each trained by edge sampling with negative sampling; the final
embedding concatenates the two halves.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.algorithms.base import (
    EmbeddingModel,
    edge_batches,
    embedding_backend,
    train_steps,
    unit_rows,
)
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn.init import embedding_init
from repro.nn.layers import Embedding
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng


class LINE(EmbeddingModel):
    """First + second order proximity embeddings.

    ``backend="kv"`` trains the three tables (first-order, second-order,
    second-order context) as partitioned
    :class:`~repro.storage.embedding.EmbeddingKVStore` tables over
    ``kv_workers`` simulated servers: each step pulls every table's
    deduplicated id union once and pushes row-sparse gradients back, the
    servers applying sparse-Adam in place. The fitted store stays on
    :attr:`kv_store`. The default stays the dense in-process path.
    """

    name = "line"

    def __init__(
        self,
        dim: int = 64,
        steps: int = 300,
        batch_size: int = 1024,
        neg_num: int = 5,
        lr: float = 0.02,
        seed: int = 0,
        backend: str = "dense",
        kv_workers: int = 4,
        kv_staleness: int = 0,
    ) -> None:
        if dim % 2:
            raise TrainingError("LINE splits dim across two orders; use an even dim")
        self.dim = dim
        self.steps = steps
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.lr = lr
        self.seed = seed
        self.backend = embedding_backend(backend)
        self.kv_workers = kv_workers
        self.kv_staleness = kv_staleness
        #: The distributed store a ``backend="kv"`` fit trained against.
        self.kv_store = None
        self._embeddings: np.ndarray | None = None

    def fit(self, graph: Graph) -> "LINE":
        rng = make_rng(self.seed)
        half = self.dim // 2
        n = graph.n_vertices
        batches = edge_batches(
            graph, rng, self.steps, self.batch_size, self.neg_num, weighted=True
        )
        if self.backend == "kv":
            return self._fit_kv(graph, rng, half, n, batches)
        first = Embedding(n, half, rng)
        second = Embedding(n, half, rng)
        second_ctx = Embedding(n, half, rng)
        optimizer = Adam(
            first.parameters() + second.parameters() + second_ctx.parameters(),
            lr=self.lr,
        )

        def loss_fn(src: np.ndarray, dst: np.ndarray, neg_ids: np.ndarray) -> Tensor:
            # 1st order: symmetric affinity between endpoint embeddings.
            loss1 = skipgram_negative_loss(first(src), first(dst), first(neg_ids))
            # 2nd order: source embedding vs context-role destination.
            loss2 = skipgram_negative_loss(
                second(src), second_ctx(dst), second_ctx(neg_ids)
            )
            return loss1 + loss2

        train_steps(batches, loss_fn, optimizer)
        self._embeddings = unit_rows(
            np.concatenate([first.table.numpy(), second.table.numpy()], axis=1)
        )
        return self

    def _fit_kv(
        self, graph: Graph, rng: np.random.Generator, half: int, n: int, batches: Iterator
    ) -> "LINE":
        """The dense path's ``batches`` against parameter-server tables."""
        from repro.storage.cluster import make_store
        from repro.storage.embedding import EmbeddingKVStore

        store = make_store(graph, self.kv_workers, seed=self.seed)

        def table(name: str) -> EmbeddingKVStore:
            return EmbeddingKVStore(
                store, n, half, name=f"line.{name}",
                optimizer="adam", lr=self.lr,
                staleness=self.kv_staleness,
                init=embedding_init((n, half), rng),
            )

        first, second, second_ctx = table("first"), table("second"), table("ctx")
        for src, dst, neg_ids in batches:
            mb_first = first.minibatch(src, dst, neg_ids)
            mb_second = second.minibatch(src)
            mb_ctx = second_ctx.minibatch(dst, neg_ids)
            loss1 = skipgram_negative_loss(
                mb_first.lookup(src), mb_first.lookup(dst),
                mb_first.lookup(neg_ids),
            )
            loss2 = skipgram_negative_loss(
                mb_second.lookup(src), mb_ctx.lookup(dst),
                mb_ctx.lookup(neg_ids),
            )
            (loss1 + loss2).backward()
            mb_first.push()
            mb_second.push()
            mb_ctx.push()
        self.kv_store = store
        self._embeddings = unit_rows(
            np.concatenate([first.materialize(), second.materialize()], axis=1)
        )
        return self
