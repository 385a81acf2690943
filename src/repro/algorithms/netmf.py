"""NetMF (Qiu et al., WSDM 2018).

Closed-form network embedding: factorize the (truncated) DeepWalk matrix

    M = log max(1, vol(G)/(b*T) * (sum_{r=1..T} P^r) D^{-1})

with a rank-d SVD. Unifies DeepWalk/LINE as matrix factorization; used here
as the spectral member of the homogeneous baseline family.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.algorithms.base import EmbeddingModel, svd_embed, unit_rows
from repro.errors import TrainingError
from repro.graph.graph import Graph


class NetMF(EmbeddingModel):
    """DeepWalk-matrix factorization embeddings (small/medium graphs)."""

    name = "netmf"

    def __init__(self, dim: int = 64, window: int = 3, negatives: float = 1.0) -> None:
        if window < 1:
            raise TrainingError(f"window must be positive, got {window}")
        self.dim = dim
        self.window = window
        self.negatives = negatives
        self._embeddings: np.ndarray | None = None

    def fit(self, graph: Graph) -> "NetMF":
        n = graph.n_vertices
        if n > 30_000:
            raise TrainingError("NetMF's dense step is limited to 30k vertices here")
        indptr, indices, weights = graph.csr_arrays()
        a = sp.csr_matrix((weights, indices, indptr), shape=(n, n))
        if graph.directed:
            a = a + a.T  # symmetrize: NetMF is defined on undirected graphs
        degree = np.asarray(a.sum(axis=1)).ravel()
        degree = np.maximum(degree, 1e-12)
        vol = degree.sum()
        d_inv = sp.diags(1.0 / degree)
        p = d_inv @ a  # random-walk transition matrix
        # Sum of the first T powers (dense — guarded by the size check).
        p_dense = p.toarray()
        power = np.eye(n)
        acc = np.zeros((n, n))
        for _ in range(self.window):
            power = power @ p_dense
            acc += power
        m = (vol / (self.negatives * self.window)) * (acc @ np.diag(1.0 / degree))
        m = np.log(np.maximum(m, 1.0))
        self._embeddings = unit_rows(svd_embed(sp.csr_matrix(m), self.dim))
        return self
