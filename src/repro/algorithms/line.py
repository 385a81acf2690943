"""LINE (Tang et al., WWW 2015).

Preserves first-order proximity (directly connected vertices embed close)
and second-order proximity (vertices with similar neighborhoods embed
close), each trained by edge sampling with negative sampling; the final
embedding concatenates the two halves.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    TableStoreModel,
    edge_batches,
    train_steps,
    unit_rows,
)
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn.loss import skipgram_negative_loss
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng


class LINE(TableStoreModel):
    """First + second order proximity embeddings.

    The three tables — first-order, second-order, second-order context —
    live where ``backend`` says (see
    :class:`~repro.algorithms.base.TableStoreModel`): in process, or on a
    parameter server of ``kv_workers`` simulated servers. Both stores run the
    same batches, loss and step.
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
        self._place_tables(backend, kv_workers, kv_staleness)
        self._embeddings: np.ndarray | None = None

    def fit(self, graph: Graph) -> "LINE":
        rng = make_rng(self.seed)
        half = self.dim // 2
        batches = edge_batches(
            graph, rng, self.steps, self.batch_size, self.neg_num, weighted=True
        )
        tables = self._table_store(
            graph, rng, self.lr,
            (("first", half, (0, 1, 2)), ("second", half, (0,)), ("ctx", half, (1, 2))),
        )
        first, second, second_ctx = tables.lookups

        def loss_fn(src: np.ndarray, dst: np.ndarray, neg_ids: np.ndarray) -> Tensor:
            # 1st order: symmetric affinity between endpoint embeddings.
            loss1 = skipgram_negative_loss(first(src), first(dst), first(neg_ids))
            # 2nd order: source embedding vs context-role destination.
            loss2 = skipgram_negative_loss(
                second(src), second_ctx(dst), second_ctx(neg_ids)
            )
            return loss1 + loss2

        train_steps(tables.pulled(batches), loss_fn, tables.optimizer)
        self._embeddings = unit_rows(
            np.concatenate([tables.rows(0), tables.rows(1)], axis=1)
        )
        return self
