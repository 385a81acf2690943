"""Mixture GNN (paper §4.2): multi-sense skip-gram for multi-mode graphs.

Extends the skip-gram objective to *polysemous* vertices: each vertex owns
``K`` sense embeddings and a sense distribution ``P``. The exact likelihood
(Eq. 6) ``log Pr_{P,theta}(Nb(v)|v)`` is intractable with negative sampling,
so — as the paper does — we maximize the Jensen lower bound::

    log sum_k pi_k p(u | s_{v,k})  >=  sum_k pi_k log p(u | s_{v,k})

each term of which is a standard SGNS objective, so "the training process
can be easily implemented by slightly modifying the sampling process in
existing work such as DeepWalk". Sense priors are per-vertex trainable
softmax logits.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EmbeddingModel, pair_batches, train_steps, unit_rows, walk_pairs
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn import functional as F
from repro.nn.layers import Embedding
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.utils.rng import make_rng


class MixtureGNN(EmbeddingModel):
    """Multi-sense (mixture) skip-gram embeddings."""

    name = "mixture-gnn"

    def __init__(
        self,
        dim: int = 64,
        n_senses: int = 3,
        walks_per_vertex: int = 4,
        walk_length: int = 10,
        window: int = 3,
        epochs: int = 2,
        batch_size: int = 1024,
        neg_num: int = 5,
        lr: float = 0.02,
        seed: int = 0,
    ) -> None:
        if n_senses < 1:
            raise TrainingError(f"need at least one sense, got {n_senses}")
        self.dim = dim
        self.n_senses = n_senses
        self.walks_per_vertex = walks_per_vertex
        self.walk_length = walk_length
        self.window = window
        self.epochs = epochs
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.lr = lr
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    def fit(self, graph: Graph) -> "MixtureGNN":
        rng = make_rng(self.seed)
        n = graph.n_vertices
        senses = [Embedding(n, self.dim, rng) for _ in range(self.n_senses)]
        context = Embedding(n, self.dim, rng)
        prior_logits = Tensor(
            np.zeros((n, self.n_senses)), requires_grad=True, name="sense_prior"
        )
        params = context.parameters() + [prior_logits]
        for s in senses:
            params += s.parameters()
        optimizer = Adam(params, lr=self.lr)

        pairs = walk_pairs(graph, rng, self.walks_per_vertex, self.walk_length, self.window)
        if pairs[0].size == 0:
            raise TrainingError("no walk context pairs — graph too sparse")
        neg_sampler = DegreeBiasedNegativeSampler(graph)

        def loss_fn(c_ids: np.ndarray, u_ids: np.ndarray, negs: np.ndarray) -> Tensor:
            b = c_ids.size
            pi = F.softmax(prior_logits.gather_rows(c_ids), axis=-1)  # (b, K)
            ctx = context(u_ids)
            neg = context(negs)
            tiled_idx = np.repeat(np.arange(b), self.neg_num)
            total = None
            for k, sense in enumerate(senses):
                z = sense(c_ids)  # (b, d)
                pos_score = (z * ctx).sum(axis=1)
                neg_score = (z.gather_rows(tiled_idx) * neg).sum(axis=1)
                # Per-pair SGNS log-likelihood under sense k.
                ll = F.log_sigmoid(pos_score) + F.log_sigmoid(
                    -neg_score
                ).reshape(b, self.neg_num).sum(axis=1)
                onehot = np.zeros((1, self.n_senses))
                onehot[0, k] = 1.0
                pi_k = (pi * onehot).sum(axis=1)  # (b,)
                weighted = pi_k * ll
                total = weighted if total is None else total + weighted
            return -total.mean()

        for _ in range(self.epochs):
            batches = pair_batches(
                pairs, neg_sampler, rng, self.batch_size, self.neg_num
            )
            train_steps(batches, loss_fn, optimizer)

        # Final embedding: prior-weighted mixture of the sense vectors.
        pi = F.softmax(Tensor(prior_logits.data), axis=-1).numpy()  # (n, K)
        stacked = np.stack([s.table.numpy() for s in senses], axis=2)  # (n,d,K)
        self._embeddings = unit_rows(np.einsum("ndk,nk->nd", stacked, pi))
        self._sense_tables = [s.table.numpy() for s in senses]
        self._sense_priors = pi
        self._context_table = context.table.numpy()
        self._mixture_table = np.einsum("ndk,nk->nd", stacked, pi)
        return self

    def sense_embeddings(self) -> "list[np.ndarray]":
        """The K per-sense embedding tables."""
        self._require_fitted()
        return self._sense_tables

    def context_embeddings(self) -> np.ndarray:
        """The (un-normalized) context-role table.

        ``mixture_embeddings() @ context_embeddings().T`` is the model's
        actual likelihood score for "context follows center" — the right
        scorer for recommendation, where candidate items play the context
        role of the trained objective.
        """
        self._require_fitted()
        return self._context_table

    def mixture_embeddings(self) -> np.ndarray:
        """The prior-weighted sense mixture, without row normalization."""
        self._require_fitted()
        return self._mixture_table
