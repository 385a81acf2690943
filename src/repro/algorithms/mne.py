"""MNE (Zhang et al., IJCAI 2018): scalable multiplex network embedding.

One *common* embedding ``b_v`` shared by all edge types plus a low-dimensional
per-type additional embedding ``u_v^r`` lifted by a per-type transformation
``X^r``: the type-r view of a vertex is ``b_v + w * X^r^T u_v^r``. All parts
are learned jointly with skip-gram over per-layer walks — the direct
ancestor of GATNE's embedding decomposition.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EmbeddingModel, pair_batches, train_steps, unit_rows, walk_pairs
from repro.errors import TrainingError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.nn.init import xavier_uniform
from repro.nn.layers import Embedding
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.utils.rng import make_rng


class MNE(EmbeddingModel):
    """Common + per-edge-type additional embeddings."""

    name = "mne"

    def __init__(
        self,
        dim: int = 64,
        extra_dim: int = 8,
        mix_weight: float = 0.5,
        walks_per_vertex: int = 3,
        walk_length: int = 8,
        window: int = 3,
        epochs: int = 2,
        batch_size: int = 1024,
        neg_num: int = 5,
        lr: float = 0.02,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.extra_dim = extra_dim
        self.mix_weight = mix_weight
        self.walks_per_vertex = walks_per_vertex
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.lr = lr
        self.seed = seed
        self._embeddings: np.ndarray | None = None
        self._type_embeddings: dict[str, np.ndarray] = {}

    def fit(self, graph: AttributedHeterogeneousGraph) -> "MNE":
        if not isinstance(graph, AttributedHeterogeneousGraph):
            raise TrainingError("MNE needs a multiplex (AHG) input")
        rng = make_rng(self.seed)
        n = graph.n_vertices
        layers = [
            (t, graph.edge_type_subgraph(t)) for t in graph.edge_type_names
        ]
        layers = [(t, g) for t, g in layers if g.n_edges > 0]
        if not layers:
            raise TrainingError("no non-empty layers")

        common = Embedding(n, self.dim, rng)
        context = Embedding(n, self.dim, rng)
        extras = {t: Embedding(n, self.extra_dim, rng) for t, _ in layers}
        lifts = {
            t: Tensor(
                xavier_uniform((self.extra_dim, self.dim), rng),
                requires_grad=True,
                name=f"X_{t}",
            )
            for t, _ in layers
        }
        params = common.parameters() + context.parameters()
        for t, _ in layers:
            params += extras[t].parameters() + [lifts[t]]
        optimizer = Adam(params, lr=self.lr)
        neg_sampler = DegreeBiasedNegativeSampler(graph)

        def loss_fn(c_ids: np.ndarray, u_ids: np.ndarray, negs: np.ndarray) -> Tensor:
            # The type-t view of the centers (t: the layer being walked).
            center = common(c_ids) + (extras[t](c_ids) @ lifts[t]) * self.mix_weight
            return skipgram_negative_loss(center, context(u_ids), context(negs))

        for _ in range(self.epochs):
            for t, g in layers:
                pairs = walk_pairs(g, rng, self.walks_per_vertex, self.walk_length, self.window)
                if pairs[0].size == 0:
                    continue
                batches = pair_batches(
                    pairs, neg_sampler, rng, self.batch_size, self.neg_num
                )
                train_steps(batches, loss_fn, optimizer)

        self._type_embeddings = {
            t: unit_rows(
                common.table.numpy()
                + self.mix_weight * (extras[t].table.numpy() @ lifts[t].numpy())
            )
            for t, _ in layers
        }
        # Overall embedding: mean of the per-type views.
        self._embeddings = unit_rows(
            np.mean(np.stack(list(self._type_embeddings.values())), axis=0)
        )
        return self
