"""Hierarchical GNN (paper §4.2): layered coarsening in the DiffPool family.

Per layer ``l``: a single-layer GNN embeds ``Z^(l) = GNN(A^(l), X^(l))``; a
pooling GNN + softmax yields the assignment matrix ``S^(l)``; then::

    A^(l+1) = S^(l)T A^(l) S^(l)        X^(l+1) = S^(l)T Z^(l)

The hierarchy lets the model see cluster-level structure that flat GNNs
miss. Vertex embeddings concatenate the flat ``Z^(0)`` with the coarse
features broadcast back down (``S^(0) X^(1)``, etc.), and training uses the
same unsupervised link objective as the rest of the zoo. Dense matrices —
guarded by a size check — since assignments are inherently dense.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.algorithms.base import (
    EmbeddingModel,
    edge_batches,
    node_features,
    train_steps,
    unit_rows,
)
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn import functional as F
from repro.nn.layers import Dense
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng


def normalized_adjacency(graph: Graph) -> sp.csr_matrix:
    """``D^-1/2 (A + A^T + I) D^-1/2`` (symmetrized, renormalization trick)."""
    n = graph.n_vertices
    indptr, indices, weights = graph.csr_arrays()
    a = sp.csr_matrix((weights, indices, indptr), shape=(n, n))
    a = a + a.T + sp.identity(n, format="csr")
    degree = np.asarray(a.sum(axis=1)).ravel()
    d_inv_sqrt = sp.diags(1.0 / np.sqrt(np.maximum(degree, 1e-12)))
    return (d_inv_sqrt @ a @ d_inv_sqrt).tocsr()


class HierarchicalGNN(EmbeddingModel):
    """Two-level DiffPool-style hierarchical embeddings."""

    name = "hierarchical-gnn"

    def __init__(
        self,
        dim: int = 64,
        n_clusters: int = 64,
        steps: int = 120,
        batch_size: int = 512,
        neg_num: int = 5,
        lr: float = 0.01,
        link_aux_weight: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.n_clusters = n_clusters
        self.steps = steps
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.lr = lr
        self.link_aux_weight = link_aux_weight
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    def fit(self, graph: Graph) -> "HierarchicalGNN":
        if graph.n_vertices > 8000:
            raise TrainingError(
                "hierarchical GNN uses dense assignment matrices; "
                "limited to 8000 vertices here"
            )
        rng = make_rng(self.seed)
        x = node_features(graph, rng, 15)
        a_hat = normalized_adjacency(graph)
        half = self.dim // 2
        embed0 = Dense(x.shape[1], half, rng, "relu")
        pool0 = Dense(x.shape[1], self.n_clusters, rng)
        embed1 = Dense(half, half, rng, "relu")
        params = embed0.parameters() + pool0.parameters() + embed1.parameters()
        optimizer = Adam(params, lr=self.lr)
        xt = Tensor(x)

        def forward() -> Tensor:
            # Level 0: flat embedding + assignment.
            z0 = F.sparse_matmul(a_hat, embed0(xt))  # (n, half)
            s0 = F.softmax(F.sparse_matmul(a_hat, pool0(xt)), axis=-1)  # (n, C)
            # Coarsen: X1 = S0^T Z0 ; A1 = S0^T A S0 (dense, C x C).
            x1 = s0.T @ z0  # (C, half)
            a1 = s0.T @ F.sparse_matmul(a_hat, s0)  # (C, C), normalized-ish
            # Level 1 GNN on the coarse graph.
            z1 = a1 @ embed1(x1)  # (C, half)
            # Broadcast coarse features back: (n, half).
            up = s0 @ z1
            return F.l2_normalize(F.concat([z0, up], axis=-1))

        def loss_fn(src: np.ndarray, dst: np.ndarray, neg_ids: np.ndarray) -> Tensor:
            h = forward()
            return skipgram_negative_loss(
                h.gather_rows(src), h.gather_rows(dst), h.gather_rows(neg_ids)
            )

        batches = edge_batches(graph, rng, self.steps, self.batch_size, self.neg_num)
        train_steps(batches, loss_fn, optimizer)
        self._embeddings = unit_rows(forward().numpy())
        return self
