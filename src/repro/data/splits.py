"""Link-prediction train/test splits.

Following the paper's evaluation protocol ("we randomly extract a portion of
the data as the training data and reserve the remaining part as test data"),
:func:`train_test_split_edges` hides a fraction of edges from the training
graph and pairs each held-out positive with one sampled negative. For AHGs the
split is stratified by edge type (metrics are "averaged among different
types of edges") and the vertex/edge type structure is preserved in the
training graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DatasetError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.graph.graph import Graph
from repro.utils.rng import make_rng


@dataclass
class LinkSplit:
    """A link-prediction evaluation split.

    ``test_pos``/``test_neg`` are ``(k, 2)`` arrays of vertex pairs;
    ``test_types`` carries the edge-type code of each positive (and its
    matched negative) for per-type metric averaging. ``train_graph`` has the
    held-out edges removed.
    """

    train_graph: Graph
    test_pos: np.ndarray
    test_neg: np.ndarray
    test_types: np.ndarray

    @property
    def n_test(self) -> int:
        """Number of held-out positives."""
        return int(self.test_pos.shape[0])


def _rebuild(graph: Graph, keep: np.ndarray) -> Graph:
    src, dst, w = graph.edge_array()
    if isinstance(graph, AttributedHeterogeneousGraph):
        return AttributedHeterogeneousGraph(
            n_vertices=graph.n_vertices,
            src=src[keep],
            dst=dst[keep],
            vertex_types=graph.vertex_types,
            edge_types=graph.edge_types[keep],
            vertex_type_names=graph.vertex_type_names,
            edge_type_names=graph.edge_type_names,
            weights=w[keep],
            directed=graph.directed,
            vertex_features=graph.vertex_features,
        )
    return Graph(graph.n_vertices, src[keep], dst[keep], weights=w[keep], directed=graph.directed)


def train_test_split_edges(
    graph: Graph,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> LinkSplit:
    """Hide ``test_fraction`` of edges and sample one matched negative each.

    A negative corrupts the destination of its positive with a uniformly
    random vertex that is not a current neighbor of the source (rejection
    with a bounded retry, as in standard LP protocols).
    """
    if not 0.0 < test_fraction < 1.0:
        raise DatasetError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = make_rng(seed)
    m = graph.n_edges
    if m < 5:
        raise DatasetError("graph too small to split")
    n_test = max(1, int(round(test_fraction * m)))
    test_idx = rng.choice(m, size=n_test, replace=False)
    keep = np.ones(m, dtype=bool)
    keep[test_idx] = False

    src, dst, _ = graph.edge_array()
    test_pos = np.stack([src[test_idx], dst[test_idx]], axis=1)
    if isinstance(graph, AttributedHeterogeneousGraph):
        test_types = graph.edge_types[test_idx]
    else:
        test_types = np.zeros(n_test, dtype=np.int64)

    neighbor_sets = [
        set(int(u) for u in graph.out_neighbors(v)) for v in range(graph.n_vertices)
    ]
    negs = np.empty((n_test, 2), dtype=np.int64)
    for row, u in enumerate(test_pos[:, 0].tolist()):
        candidate = int(rng.integers(graph.n_vertices))
        tries = 0
        while (candidate in neighbor_sets[u] or candidate == u) and tries < 20:
            candidate = int(rng.integers(graph.n_vertices))
            tries += 1
        negs[row] = (u, candidate)

    return LinkSplit(
        train_graph=_rebuild(graph, keep),
        test_pos=test_pos,
        test_neg=negs,
        test_types=test_types,
    )
