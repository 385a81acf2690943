"""The GCN family: GCN, FastGCN, AS-GCN.

* :class:`GCN` (Kipf & Welling, ICLR 2017) — full-batch propagation through
  the renormalized adjacency ``Â = D^-1/2 (A + I) D^-1/2``;
* :class:`FastGCN` (Chen et al., ICLR 2018) — each layer's propagation is a
  Monte-Carlo estimate over vertices importance-sampled with
  ``q(u) ∝ deg(u)^2`` (the paper's variance-minimizing proposal), columns
  rescaled by ``1/(s q(u))`` to stay unbiased;
* :class:`ASGCN` (Huang et al., 2018) — adaptive layer-wise sampling: the
  proposal additionally depends on the current feature magnitudes, a
  faithful scalar simplification of the learned sampler.

All three are trained with the unsupervised link objective so their
embeddings drop into the same link-prediction evaluation as everything else.
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


class GCN(EmbeddingModel):
    """Two-layer full-batch GCN with unsupervised link training."""

    name = "gcn"

    def __init__(
        self,
        dim: int = 64,
        hidden: int = 64,
        steps: int = 120,
        batch_size: int = 512,
        neg_num: int = 5,
        lr: float = 0.01,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.hidden = hidden
        self.steps = steps
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.lr = lr
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    def _propagate(
        self, a_hat: sp.csr_matrix, x: Tensor, rng: np.random.Generator
    ) -> Tensor:
        """One forward pass; subclasses swap the propagation estimator."""
        h = F.relu(F.sparse_matmul(a_hat, x @ self._w0.weight + self._w0.bias))
        return F.sparse_matmul(a_hat, h @ self._w1.weight + self._w1.bias)

    def fit(self, graph: Graph) -> "GCN":
        rng = make_rng(self.seed)
        x = node_features(graph, rng, 15)
        a_hat = normalized_adjacency(graph)
        self._w0 = Dense(x.shape[1], self.hidden, rng)
        self._w1 = Dense(self.hidden, self.dim, rng)
        params = self._w0.parameters() + self._w1.parameters()
        optimizer = Adam(params, lr=self.lr)
        xt = Tensor(x)

        def loss_fn(src: np.ndarray, dst: np.ndarray, neg_ids: np.ndarray) -> Tensor:
            h = F.l2_normalize(self._propagate(a_hat, xt, rng))
            return skipgram_negative_loss(
                h.gather_rows(src), h.gather_rows(dst), h.gather_rows(neg_ids)
            )

        batches = edge_batches(graph, rng, self.steps, self.batch_size, self.neg_num)
        train_steps(batches, loss_fn, optimizer)
        h = F.l2_normalize(self._propagate(a_hat, xt, rng))
        self._embeddings = unit_rows(h.numpy())
        return self


class FastGCN(GCN):
    """GCN with degree^2 importance-sampled layer propagation."""

    name = "fastgcn"

    def __init__(self, sample_size: int = 256, **kwargs: object) -> None:
        super().__init__(**kwargs)
        self.sample_size = sample_size

    def _proposal(self, graph_degrees: np.ndarray, x: Tensor) -> np.ndarray:
        q = graph_degrees.astype(np.float64) ** 2 + 1e-9
        return q / q.sum()

    def fit(self, graph: Graph) -> "FastGCN":
        self._degrees = graph.out_degrees() + 1
        return super().fit(graph)

    def _propagate(
        self, a_hat: sp.csr_matrix, x: Tensor, rng: np.random.Generator
    ) -> Tensor:
        n = a_hat.shape[0]
        s = min(self.sample_size, n)
        # Layer 1: sample support S, estimate Â X ≈ Â[:, S] X[S] / (s q_S).
        q = self._proposal(self._degrees, x)
        support = rng.choice(n, size=s, replace=False, p=q)
        scale = 1.0 / (s * q[support])
        a_sub = a_hat[:, support].multiply(scale[None, :]).tocsr()
        h = F.relu(
            F.sparse_matmul(a_sub, x.gather_rows(support) @ self._w0.weight)
            + self._w0.bias
        )
        support2 = rng.choice(n, size=s, replace=False, p=q)
        scale2 = 1.0 / (s * q[support2])
        a_sub2 = a_hat[:, support2].multiply(scale2[None, :]).tocsr()
        return (
            F.sparse_matmul(a_sub2, h.gather_rows(support2) @ self._w1.weight)
            + self._w1.bias
        )


class ASGCN(FastGCN):
    """FastGCN with an adaptive, feature-aware sampling proposal."""

    name = "asgcn"

    def _proposal(self, graph_degrees: np.ndarray, x: Tensor) -> np.ndarray:
        # Adaptive: combine structural importance with current feature
        # magnitude (the self-dependent component of AS-GCN's sampler).
        feat_norm = np.linalg.norm(x.data, axis=1) + 1e-9
        q = (graph_degrees.astype(np.float64) ** 2) * feat_norm
        q += 1e-9
        return q / q.sum()
