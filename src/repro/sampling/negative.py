"""NEGATIVE samplers: contrastive negatives for training (paper §3.3).

Negative sampling "accelerates the convergence of the training process"; the
paper notes negatives usually come from the local graph server and the
algorithm is free in how it draws them. Three standard strategies:

* :class:`UniformNegativeSampler` — uniform over the vertex pool;
* :class:`DegreeBiasedNegativeSampler` — unigram^0.75 (word2vec's noise
  distribution, the default of DeepWalk-family objectives) via an alias
  table;
* :class:`TypeAwareNegativeSampler` — draws negatives of the same vertex
  type as the corrupted endpoint (required on AHGs so a corrupted user-item
  edge stays user-item).

All support excluding the true positives of each anchor ("strict" mode) by
rejection, bounded by ``max_retries``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.graph.graph import Graph
from repro.sampling.base import Sampler, check_batch_size
from repro.utils.alias import AliasTable


class _PoolNegativeSampler(Sampler):
    """Common machinery: a vertex pool + optional true-edge rejection.

    Strict-mode rejection runs as rounds of masked vectorized redraws — all
    still-colliding slots across the whole batch redraw together, with
    membership tested against sorted ``(row, vertex)`` keys. Each slot gets
    up to ``max_retries`` redraws and keeps a stubborn collision rather
    than looping forever.
    """

    def __init__(self, graph: Graph, pool: np.ndarray, strict: bool = False) -> None:
        super().__init__()
        if pool.size == 0:
            raise SamplingError("negative sampler has an empty vertex pool")
        self.graph = graph
        self.pool = pool.astype(np.int64)
        self.strict = strict
        self.max_retries = 10

    def _draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample(
        self,
        anchors: np.ndarray,
        neg_num: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """``(len(anchors), neg_num)`` negatives, one row per anchor.

        In strict mode a draw colliding with an anchor's true neighbor (or
        the anchor itself) is redrawn up to ``max_retries`` times; a stubborn
        collision is kept rather than looping forever — at real graph scale
        collisions are vanishingly rare, which is why negative sampling is
        cheap (Table 4).
        """
        anchors = np.asarray(anchors, dtype=np.int64)
        check_batch_size(neg_num)
        out = self._draw(anchors.size * neg_num, rng).reshape(anchors.size, neg_num)
        if not self.strict:
            return out
        return self._reject(anchors, out, rng)

    def _reject(
        self, anchors: np.ndarray, out: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Strict rejection: rounds of masked redraws.

        Forbidden (row, vertex) pairs are encoded as ``row * n + vertex``
        keys; per-row neighbor lists are gathered off the graph's CSR, and
        since rows ascend the concatenation of sorted CSR segments is
        already globally sorted — membership is one ``searchsorted`` per
        round over the whole batch.
        """
        m, neg_num = out.shape
        n = self.graph.n_vertices
        indptr, indices, _ = self.graph.csr_arrays()
        deg = indptr[anchors + 1] - indptr[anchors]
        offsets = np.concatenate([[0], np.cumsum(deg)])
        pos = np.arange(offsets[-1], dtype=np.int64) - np.repeat(offsets[:-1], deg)
        row_of = np.repeat(np.arange(m, dtype=np.int64), deg)
        forbidden = np.concatenate(
            [
                row_of * n + indices[np.repeat(indptr[anchors], deg) + pos],
                np.arange(m, dtype=np.int64) * n + anchors,  # the anchor itself
            ]
        )
        forbidden.sort()
        row_key = np.arange(m, dtype=np.int64)[:, None] * n
        for _ in range(self.max_retries):
            keys = (row_key + out).ravel()
            loc = np.searchsorted(forbidden, keys)
            hit = loc < forbidden.size
            hit[hit] = forbidden[loc[hit]] == keys[hit]
            bad = np.flatnonzero(hit)
            if bad.size == 0:
                break
            out.ravel()[bad] = self._draw(bad.size, rng)
        return out


class UniformNegativeSampler(_PoolNegativeSampler):
    """Uniform negatives over the vertex pool."""

    name = "negative_uniform"

    def __init__(
        self,
        graph: Graph,
        vertices: np.ndarray | None = None,
        strict: bool = False,
    ) -> None:
        pool = (
            np.asarray(vertices, dtype=np.int64)
            if vertices is not None
            else graph.vertices()
        )
        super().__init__(graph, pool, strict=strict)

    def _draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.pool[rng.integers(self.pool.size, size=size)]


class DegreeBiasedNegativeSampler(_PoolNegativeSampler):
    """Unigram^power negatives (word2vec noise distribution, power=0.75)."""

    name = "negative_degree"

    def __init__(
        self,
        graph: Graph,
        power: float = 0.75,
        vertices: np.ndarray | None = None,
        strict: bool = False,
    ) -> None:
        pool = (
            np.asarray(vertices, dtype=np.int64)
            if vertices is not None
            else graph.vertices()
        )
        super().__init__(graph, pool, strict=strict)
        if power < 0:
            raise SamplingError(f"power must be non-negative, got {power}")
        degrees = graph.out_degrees()[self.pool].astype(np.float64)
        self._alias = AliasTable(np.power(degrees + 1.0, power))

    def _draw(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.pool[self._alias.draw_batch(rng, size)]


class TypeAwareNegativeSampler(Sampler):
    """Per-vertex-type negatives on an AHG.

    ``sample`` draws negatives of the *requested type*, so a corrupted
    (user, item) edge gets item negatives. Internally keeps one
    degree-biased sampler per vertex type.
    """

    name = "negative_typed"

    def __init__(
        self, graph: AttributedHeterogeneousGraph, power: float = 0.75
    ) -> None:
        super().__init__()
        if not isinstance(graph, AttributedHeterogeneousGraph):
            raise SamplingError("type-aware negatives need an AHG")
        self.graph = graph
        self._per_type: dict[str, DegreeBiasedNegativeSampler] = {}
        for name in graph.vertex_type_names:
            pool = graph.vertices_of_type(name)
            if pool.size:
                self._per_type[name] = DegreeBiasedNegativeSampler(
                    graph, power=power, vertices=pool
                )

    def sample(
        self,
        anchors: np.ndarray,
        neg_num: int,
        rng: np.random.Generator,
        vertex_type: str | None = None,
    ) -> np.ndarray:
        """Negatives of ``vertex_type`` (default: the type of each anchor)."""
        anchors = np.asarray(anchors, dtype=np.int64)
        check_batch_size(neg_num)
        if vertex_type is not None:
            sampler = self._sampler_for(vertex_type)
            return sampler.sample(anchors, neg_num, rng)
        out = np.empty((anchors.size, neg_num), dtype=np.int64)
        anchor_types = self.graph.vertex_types[anchors]
        for code in np.unique(anchor_types):
            rows = np.flatnonzero(anchor_types == code)
            tname = self.graph.vertex_type_names[int(code)]
            out[rows] = self._sampler_for(tname).sample(anchors[rows], neg_num, rng)
        return out

    def _sampler_for(self, vertex_type: str) -> DegreeBiasedNegativeSampler:
        try:
            return self._per_type[vertex_type]
        except KeyError:
            raise SamplingError(
                f"no vertices of type {vertex_type!r} to draw negatives from"
            ) from None
