"""Shared model interface and the one training loop.

A model is parameters plus a ``loss_fn(*batch) -> Tensor``; the rest of
training is here, once: two batch sources — :func:`pair_batches` (a shuffled
epoch of walk-derived ``(centers, contexts, negatives)``) and
:func:`edge_batches` (``steps`` × ``(src, dst, negatives)`` from TRAVERSE +
NEGATIVE) — and one step driver, :func:`train_steps` (``zero_grad`` →
``loss_fn`` → ``backward`` → ``optimizer.step``).

The sources are generators and the driver pulls batch *k+1* only after step
*k*: a ``loss_fn`` may draw from the same ``rng`` (FastGCN's support sets,
AHEP's importance redraws), and that interleaving is what a seed reproduces.
The KV trainers keep their own pull → loss → push step over the same sources.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn.layers import Embedding
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import Tensor
from repro.runtime.tracing import NULL_PROFILER, StageProfiler
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.sampling.randomwalk import random_walks, walk_context_pairs
from repro.sampling.traverse import EdgeTraverseSampler
from repro.utils.rng import make_rng


class EmbeddingModel:
    """Interface all embedding algorithms implement."""

    name = "abstract"

    def fit(self, graph: Graph) -> "EmbeddingModel":
        """Train on ``graph``; returns self for chaining."""
        raise NotImplementedError

    def embeddings(self) -> np.ndarray:
        """The ``(n, d)`` embedding matrix of the fitted graph."""
        self._require_fitted()
        return self._embeddings

    def type_embeddings(self, edge_type: str) -> np.ndarray:
        """The edge-type-specific view ``h_{v,c}`` a multiplex model (GATNE,
        MNE, MVE) keeps beside the overall embedding."""
        self._require_fitted()
        try:
            return getattr(self, "_type_embeddings", {})[edge_type]
        except KeyError:
            raise TrainingError(f"no embeddings for edge type {edge_type!r}") from None

    def _require_fitted(self, attr: str = "_embeddings") -> None:
        if getattr(self, attr, None) is None:
            raise TrainingError(f"{type(self).__name__} is not fitted yet")


def node_features(graph: Graph, rng: np.random.Generator, n_random: int) -> np.ndarray:
    """Model inputs ``x_v``: standardized ``vertex_features`` (discrete codes
    become usable signals), else ``log1p(degree)`` + ``n_random`` normal columns."""
    feats = getattr(graph, "vertex_features", None)
    if feats is not None:
        x = np.asarray(feats, dtype=np.float64)
        return (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-9)
    deg = np.log1p(graph.out_degrees()).reshape(-1, 1)
    return np.concatenate([deg, rng.normal(size=(graph.n_vertices, n_random))], axis=1)


def steps_per_epoch(graph: Graph, batch_size: int, max_steps: int) -> int:
    """One pass over the edges in ``batch_size`` draws, capped at ``max_steps``."""
    return min(max_steps, max(1, graph.n_edges // batch_size))


def walk_pairs(
    graph: Graph,
    rng: np.random.Generator,
    walks_per_vertex: int,
    walk_length: int,
    window: int,
    weighted: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Skip-gram ``(centers, contexts)`` from ``walks_per_vertex`` shuffled
    random walks per vertex."""
    starts = np.tile(graph.vertices(), walks_per_vertex)
    rng.shuffle(starts)
    walks = random_walks(graph, starts, walk_length, rng, weighted=weighted)
    return walk_context_pairs(walks, window)


def pair_batches(
    pairs: tuple[np.ndarray, np.ndarray],
    negative_sampler: DegreeBiasedNegativeSampler,
    rng: np.random.Generator,
    batch_size: int,
    neg_num: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One shuffled epoch of ``(centers, contexts, negatives)`` batches, each
    batch's negatives drawn when it is pulled."""
    centers, contexts = pairs
    if centers.size != contexts.size or centers.size == 0:
        raise TrainingError("need equal, non-empty center/context arrays")
    perm = rng.permutation(centers.size)
    for lo in range(0, centers.size, batch_size):
        idx = perm[lo : lo + batch_size]
        c_ids = centers[idx]
        neg_ids = negative_sampler.sample(c_ids, neg_num, rng).reshape(-1)
        yield c_ids, contexts[idx], neg_ids


def edge_batches(
    graph: Graph,
    rng: np.random.Generator,
    steps: int,
    batch_size: int,
    neg_num: int,
    weighted: bool = False,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``steps`` × ``(src, dst, negatives)``: edges drawn uniformly (by edge
    weight when ``weighted`` — LINE), degree-biased negatives around ``src``.
    The samplers are built now; each batch is drawn when it is pulled."""
    edges = EdgeTraverseSampler(graph, weighted=weighted)
    negs = DegreeBiasedNegativeSampler(graph)
    return (
        (src, dst, negs.sample(src, neg_num, rng).reshape(-1))
        for src, dst in (edges.sample(batch_size, rng) for _ in range(steps))
    )


def train_steps(
    batches: Iterable[tuple],
    loss_fn: Callable[..., Tensor],
    optimizer: Optimizer,
    steps: "int | None" = None,
    profiler: "StageProfiler | None" = None,
) -> list[float]:
    """The one training step — pull a batch, ``zero_grad``, ``loss_fn(*batch)``,
    ``backward``, ``optimizer.step`` — over ``steps`` batches of the source
    (all of it when None); returns the step losses.

    A :class:`~repro.runtime.tracing.StageProfiler` gets one ``step()`` per
    step, the pull under ``sample`` and the last two calls under ``backward``
    / ``optimizer``; pass ``steps`` with it, or the pull that finds the
    source empty counts as a step.
    """
    if profiler is None:
        profiler = NULL_PROFILER
    step, stage = profiler.step, profiler.stage
    batches = iter(batches)
    losses = []
    for _ in repeat(None) if steps is None else range(steps):
        with step():
            with stage("sample"):
                batch = next(batches, None)
            if batch is None:
                break
            optimizer.zero_grad()
            loss = loss_fn(*batch)
            with stage("backward"):
                loss.backward()
            with stage("optimizer"):
                optimizer.step()
        losses.append(loss.item())
    return losses


def train_skipgram(
    pairs: tuple[np.ndarray, np.ndarray],
    center_fn: Callable[[np.ndarray], Tensor],
    context_fn: Callable[[np.ndarray], Tensor],
    optimizer: Optimizer,
    negative_sampler: DegreeBiasedNegativeSampler,
    rng: np.random.Generator,
    epochs: int = 2,
    batch_size: int = 1024,
    neg_num: int = 5,
) -> float:
    """SGNS training shared across the walk-based models.

    ``center_fn(ids)``/``context_fn(ids)`` map id arrays to embedding
    tensors — models compose arbitrary structure inside them. Returns the
    final epoch's mean batch loss (for convergence assertions in tests).
    """

    def loss_fn(c_ids: np.ndarray, u_ids: np.ndarray, neg_ids: np.ndarray) -> Tensor:
        return skipgram_negative_loss(
            center_fn(c_ids), context_fn(u_ids), context_fn(neg_ids)
        )

    last_loss = float("inf")
    for _ in range(epochs):
        batches = pair_batches(pairs, negative_sampler, rng, batch_size, neg_num)
        last_loss = float(np.mean(train_steps(batches, loss_fn, optimizer)))
    return last_loss


def skipgram_embeddings(
    pairs: tuple[np.ndarray, np.ndarray],
    graph: Graph,
    dim: int,
    rng: np.random.Generator,
    epochs: int,
    neg_num: int = 5,
    lr: float = 0.025,
) -> tuple[np.ndarray, float]:
    """Plain SGNS over ``pairs`` with degree-biased negatives from ``graph``:
    the unit-row center table and the final epoch's mean loss."""
    center = Embedding(graph.n_vertices, dim, rng)
    context = Embedding(graph.n_vertices, dim, rng)
    optimizer = Adam(center.parameters() + context.parameters(), lr=lr)
    sampler = DegreeBiasedNegativeSampler(graph)
    loss = train_skipgram(
        pairs, center, context, optimizer, sampler, rng, epochs=epochs, neg_num=neg_num
    )
    return unit_rows(center.table.numpy()), loss


def embedding_backend(backend: str) -> str:
    """``backend`` if it names where the embedding tables live: ``dense`` (in
    process) or ``kv`` (an :class:`~repro.storage.embedding.EmbeddingKVStore`)."""
    if backend not in ("dense", "kv"):
        raise TrainingError(f"unknown embedding backend {backend!r} (dense or kv)")
    return backend


def train_skipgram_kv(
    pairs: tuple[np.ndarray, np.ndarray],
    kv_center: "object",
    kv_context: "object",
    negative_sampler: DegreeBiasedNegativeSampler,
    rng: np.random.Generator,
    epochs: int = 2,
    batch_size: int = 1024,
    neg_num: int = 5,
    from_part: int = 0,
) -> float:
    """SGNS against :class:`~repro.storage.embedding.EmbeddingKVStore` tables:
    :func:`train_skipgram`'s batches at the same seed.

    Each step pulls the deduplicated union of the ids a table needs **once**
    (one coalesced request per remote shard), runs the loss over the pulled
    block, and pushes the coalesced row gradients back — the server applies
    the sparse optimizer update, so untouched rows are never written.
    """
    last_loss = float("inf")
    for _ in range(epochs):
        losses = []
        for c_ids, u_ids, neg_ids in pair_batches(
            pairs, negative_sampler, rng, batch_size, neg_num
        ):
            mb_center = kv_center.minibatch(c_ids, from_part=from_part)
            mb_context = kv_context.minibatch(u_ids, neg_ids, from_part=from_part)
            loss = skipgram_negative_loss(
                mb_center.lookup(c_ids),
                mb_context.lookup(u_ids),
                mb_context.lookup(neg_ids),
            )
            loss.backward()
            mb_center.push()
            mb_context.push()
            losses.append(loss.item())
        last_loss = float(np.mean(losses))
    return last_loss


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize rows (final embedding post-processing)."""
    norm = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norm, 1e-12)


def svd_embed(a: sp.spmatrix, dim: int) -> np.ndarray:
    """Rank-``dim`` spectral embedding ``U * sqrt(S)`` of a sparse matrix."""
    k = min(dim, a.shape[0] - 2)
    if k < 1:
        raise TrainingError("graph too small for spectral embedding")
    # ARPACK draws its start vector from the global RNG unless handed one:
    # a fixed one keeps same graph -> same embedding.
    v0 = make_rng(0).standard_normal(min(a.shape))
    u, s, _ = svds(a.astype(np.float64), k=k, v0=v0)
    emb = u * np.sqrt(np.maximum(s, 0.0))
    if k < dim:
        emb = np.pad(emb, ((0, 0), (0, dim - k)))
    return emb
