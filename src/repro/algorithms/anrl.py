"""ANRL (Zhang et al., IJCAI 2018).

Attributed network representation learning: a neighbor-enhancement
autoencoder models attribute information (encode ``x_v``, decode the
*aggregated neighbor attributes* — the neighbor-enhancement target) while a
skip-gram branch on the encoder output captures structure. The encoder
bottleneck is the embedding.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    EmbeddingModel,
    node_features,
    pair_batches,
    train_steps,
    unit_rows,
    walk_pairs,
)
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn.layers import Dense, Sequential
from repro.nn.loss import mse, skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.utils.rng import make_rng


class ANRL(EmbeddingModel):
    """Neighbor-enhancement autoencoder + skip-gram embeddings."""

    name = "anrl"

    def __init__(
        self,
        dim: int = 64,
        hidden: int = 64,
        walks_per_vertex: int = 3,
        walk_length: int = 8,
        window: int = 3,
        epochs: int = 2,
        batch_size: int = 512,
        neg_num: int = 5,
        recon_weight: float = 1.0,
        lr: float = 0.01,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.hidden = hidden
        self.walks_per_vertex = walks_per_vertex
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.recon_weight = recon_weight
        self.lr = lr
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    def fit(self, graph: Graph) -> "ANRL":
        if getattr(graph, "vertex_features", None) is None:
            raise TrainingError("ANRL needs vertex attributes")
        rng = make_rng(self.seed)
        x = node_features(graph, rng, 0)
        # Neighbor-enhancement target: mean attribute vector of neighbors.
        target = np.zeros_like(x)
        for v in range(graph.n_vertices):
            nbrs = graph.out_neighbors(v)
            target[v] = x[nbrs].mean(axis=0) if nbrs.size else x[v]

        f_dim = x.shape[1]
        encoder = Sequential(
            Dense(f_dim, self.hidden, rng, "relu"), Dense(self.hidden, self.dim, rng)
        )
        decoder = Sequential(
            Dense(self.dim, self.hidden, rng, "relu"), Dense(self.hidden, f_dim, rng)
        )
        from repro.nn.layers import Embedding

        context = Embedding(graph.n_vertices, self.dim, rng)
        params = encoder.parameters() + decoder.parameters() + context.parameters()
        optimizer = Adam(params, lr=self.lr)

        pairs = walk_pairs(graph, rng, self.walks_per_vertex, self.walk_length, self.window)
        neg_sampler = DegreeBiasedNegativeSampler(graph)

        def loss_fn(c_ids: np.ndarray, u_ids: np.ndarray, neg_ids: np.ndarray) -> Tensor:
            z = encoder(Tensor(x[c_ids]))
            sg = skipgram_negative_loss(z, context(u_ids), context(neg_ids))
            recon = mse(decoder(z), target[c_ids])
            return sg + recon * self.recon_weight

        for _ in range(self.epochs):
            batches = pair_batches(
                pairs, neg_sampler, rng, self.batch_size, self.neg_num
            )
            train_steps(batches, loss_fn, optimizer)
        self._embeddings = unit_rows(encoder(Tensor(x)).numpy())
        return self
