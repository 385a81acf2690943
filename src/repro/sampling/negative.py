"""NEGATIVE sampling: contrastive negatives for training (paper §3.3).

Negative sampling "accelerates the convergence of the training process"; the
paper notes negatives usually come from the local graph server and the
algorithm is free in how it draws them. Here they follow unigram^0.75
(word2vec's noise distribution, the default of DeepWalk-family objectives),
drawn from an alias table over a vertex pool.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graph.graph import Graph
from repro.sampling.base import Sampler, check_batch_size, check_vertex_ids
from repro.utils.alias import AliasTable


class DegreeBiasedNegativeSampler(Sampler):
    """Unigram^0.75 negatives (word2vec's noise distribution)."""

    name = "negative_degree"

    def __init__(self, graph: Graph, vertices: np.ndarray | None = None) -> None:
        pool = np.array(vertices, dtype=np.int64) if vertices is not None else graph.vertices()
        if pool.size == 0:
            raise SamplingError("negative sampler has an empty vertex pool")
        self.pool = pool
        self.n_vertices = graph.n_vertices
        degrees = graph.out_degrees()[pool].astype(np.float64)
        self._alias = AliasTable(np.power(degrees + 1.0, 0.75))

    def sample(
        self,
        anchors: np.ndarray,
        neg_num: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``(len(anchors), neg_num)`` negatives, one row per anchor.

        A draw may hit an anchor's true neighbor (or the anchor itself); at
        real graph scale such collisions are vanishingly rare, which is why
        negative sampling is cheap (Table 4).
        """
        anchors = check_vertex_ids(anchors, self.n_vertices)
        check_batch_size(neg_num)
        size = anchors.size * neg_num
        return self.pool[self._alias.draw_batch(rng, size)].reshape(anchors.size, neg_num)
