"""Subgraph-level embeddings (paper §7, future work #1).

The paper's embeddings are vertex-level; its stated future work extends to
"subgraph-level embeddings". A vertex set is embedded by mean pooling over
its members — permutation-invariant, and the pooling the examples use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def subgraph_embedding(vertex_embeddings: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Pool a vertex set into one vector: the mean of its members' rows."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        raise ReproError("cannot embed an empty subgraph")
    return vertex_embeddings[vertices].mean(axis=0)
