"""Vertex importance and the caching plan of Algorithm 2 (paper §3.2).

The k-th importance of vertex ``v`` is::

    Imp^(k)(v) = D_i^(k)(v) / D_o^(k)(v)                      (Eq. 1)

where ``D_i^(k)``/``D_o^(k)`` count k-hop in/out-neighbors. A vertex whose
out-neighborhood is cached on every partition it appears in saves its many
in-neighbors a remote hop; the denominator prices the replication. Theorems
1–2 show both quantities (and the ratio) stay power-law when degrees are
power-law, so only a tiny vertex fraction clears any threshold — that is the
entire economic argument for this cache, and :func:`plan_importance_cache`
implements Algorithm 2 (lines 5–9) on top of it.

k-hop counts are k-hop *walk* counts via sparse matrix-vector products —
vectorized, O(k·m), and exactly the quantity whose power-law tail Theorem
1's proof manipulates. (The distinct-neighbor count by per-vertex BFS,
O(n·d^k), is the oracle in ``tests/test_storage_importance.py`` that checks
the two agree in ranking.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import StorageError
from repro.graph.graph import Graph

#: How deep Algorithm 2 caches: the 1..2-hop out-neighborhoods, the depth of
#: the paper's two-hop GNNs.
MAX_HOP = 2


def _out_csr_matrix(graph: Graph) -> sp.csr_matrix:
    indptr, indices, _ = graph.csr_arrays()
    data = np.ones(indices.size, dtype=np.float64)
    return sp.csr_matrix(
        (data, indices, indptr), shape=(graph.n_vertices, graph.n_vertices)
    )


def khop_degrees(graph: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(D_i^(k), D_o^(k))`` for every vertex.

    Cumulative walk counts over 1..k hops (Algorithm 2 caches the union of
    1..k-hop out-neighborhoods, so this counts the within-k neighborhood,
    with walk multiplicity). For undirected graphs the two vectors coincide
    by symmetry.
    """
    if k < 1:
        raise StorageError(f"hop count k must be >= 1, got {k}")
    a = _out_csr_matrix(graph)
    ones = np.ones(graph.n_vertices, dtype=np.float64)
    d_in, d_out = np.zeros_like(ones), np.zeros_like(ones)
    # In-walks go through the transpose *view* (a CSC matrix over the same
    # arrays): no transposed copy is built. Counts are integers, exact in
    # float64, so the summation order cannot move a bit.
    for walks, matrix in ((d_out, a), (d_in, a.T)):
        step = ones
        for _ in range(k):
            step = matrix @ step
            walks += step
    return d_in, d_out


def importance_scores(graph: Graph, k: int) -> np.ndarray:
    """Imp^(k)(v) = D_i^(k)(v) / D_o^(k)(v) per vertex (Eq. 1).

    Vertices with zero k-hop out-neighborhood get importance 0 — they have
    nothing to cache, so they must never clear a positive threshold.
    """
    d_in, d_out = khop_degrees(graph, k)
    scores = np.zeros(graph.n_vertices, dtype=np.float64)
    nonzero = d_out > 0
    scores[nonzero] = d_in[nonzero] / d_out[nonzero]
    return scores


@dataclass
class CachePlan:
    """Output of Algorithm 2: which vertices to cache at which depth.

    ``cached_by_hop[k]`` holds the vertex ids whose 1..k-hop out-neighborhoods
    are replicated on every partition where the vertex occurs.
    """

    max_hop: int
    thresholds: list[float]
    cached_by_hop: dict[int, np.ndarray] = field(default_factory=dict)

    def all_cached_vertices(self) -> np.ndarray:
        """Union of cached vertices across hops."""
        if not self.cached_by_hop:
            return np.zeros(0, dtype=np.int64)
        return np.unique(np.concatenate(list(self.cached_by_hop.values())))

    def cache_fraction(self, n_vertices: int) -> float:
        """Fraction of the vertex set selected for caching."""
        if n_vertices <= 0:
            return 0.0
        return self.all_cached_vertices().size / n_vertices

def plan_importance_cache(graph: Graph, thresholds: "list[float] | float") -> CachePlan:
    """Algorithm 2 lines 5–9: select vertices with Imp^(k) >= tau_k for
    ``k = 1 ..`` :data:`MAX_HOP`.

    ``thresholds`` is the caller's tau: one value reused for every hop or a
    list with one tau_k per hop (the paper uses 0.2; Figure 8 sweeps it).
    """
    if isinstance(thresholds, (int, float)):
        taus = [float(thresholds)] * MAX_HOP
    else:
        taus = [float(t) for t in thresholds]
    if len(taus) != MAX_HOP:
        raise StorageError(
            f"need one threshold per hop: got {len(taus)} for max_hop={MAX_HOP}"
        )
    plan = CachePlan(max_hop=MAX_HOP, thresholds=taus)
    for k in range(1, MAX_HOP + 1):
        scores = importance_scores(graph, k)
        plan.cached_by_hop[k] = np.flatnonzero(scores >= taus[k - 1]).astype(np.int64)
    return plan
