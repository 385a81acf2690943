"""Shared model interface and the skip-gram training engine.

Half the algorithm zoo (DeepWalk, Node2Vec, Metapath2Vec, PMNE, MVE, MNE,
GATNE, Mixture GNN, ...) trains some variant of skip-gram with negative
sampling over walk-derived (center, context) pairs. :func:`train_skipgram`
is the shared vectorized trainer; models customize how the center embedding
is *composed* (plain table, multiplex mixture, attribute-augmented, ...) by
passing an embedding function.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam, Optimizer
from repro.nn.tensor import Tensor
from repro.sampling.negative import DegreeBiasedNegativeSampler
from repro.utils.rng import make_rng


class EmbeddingModel:
    """Interface all embedding algorithms implement."""

    name = "abstract"

    def fit(self, graph: Graph) -> "EmbeddingModel":
        """Train on ``graph``; returns self for chaining."""
        raise NotImplementedError

    def embeddings(self) -> np.ndarray:
        """The ``(n, d)`` embedding matrix of the fitted graph."""
        raise NotImplementedError

    def _require_fitted(self, attr: str = "_embeddings") -> None:
        if getattr(self, attr, None) is None:
            raise TrainingError(f"{type(self).__name__} is not fitted yet")


def _skipgram_epochs(
    pairs: tuple[np.ndarray, np.ndarray],
    step: Callable[[np.ndarray, np.ndarray, np.ndarray], float],
    negative_sampler: DegreeBiasedNegativeSampler,
    rng: np.random.Generator,
    epochs: int,
    batch_size: int,
    neg_num: int,
) -> float:
    """The one SGNS epoch/batch loop: shuffle, batch, draw negatives, ``step``.

    ``step(c_ids, u_ids, neg_ids)`` fetches the rows, runs the loss, applies
    the update and returns the batch loss. Everything that consumes ``rng``
    happens here, so every caller sees the same batches at the same seed.
    Returns the final epoch's mean batch loss.
    """
    centers, contexts = pairs
    if centers.size != contexts.size or centers.size == 0:
        raise TrainingError("need equal, non-empty center/context arrays")
    last_loss = float("inf")
    for _ in range(epochs):
        perm = rng.permutation(centers.size)
        losses = []
        for lo in range(0, centers.size, batch_size):
            idx = perm[lo : lo + batch_size]
            c_ids = centers[idx]
            neg_ids = negative_sampler.sample(c_ids, neg_num, rng).reshape(-1)
            losses.append(step(c_ids, contexts[idx], neg_ids))
        last_loss = float(np.mean(losses))
    return last_loss


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
    """SGNS training loop shared across the walk-based models.

    ``center_fn(ids)``/``context_fn(ids)`` map id arrays to embedding
    tensors — models compose arbitrary structure inside them. Returns the
    final mean batch loss (for convergence assertions in tests).
    """

    def step(c_ids: np.ndarray, u_ids: np.ndarray, neg_ids: np.ndarray) -> float:
        optimizer.zero_grad()
        loss = skipgram_negative_loss(
            center_fn(c_ids), context_fn(u_ids), context_fn(neg_ids)
        )
        loss.backward()
        optimizer.step()
        return loss.item()

    return _skipgram_epochs(
        pairs, step, negative_sampler, rng, epochs, batch_size, neg_num
    )


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
    """SGNS against parameter-server embedding tables.

    The same loop as :func:`train_skipgram` — same batches at the same seed
    — but embeddings live in
    :class:`~repro.storage.embedding.EmbeddingKVStore` tables. Each step
    pulls the deduplicated union of the ids a table needs **once** (one
    coalesced request per remote shard), runs the loss over the pulled
    block, and pushes the coalesced row gradients back — the server applies
    the sparse optimizer update, so untouched rows are never written.
    """

    def step(c_ids: np.ndarray, u_ids: np.ndarray, neg_ids: np.ndarray) -> float:
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
        return loss.item()

    return _skipgram_epochs(
        pairs, step, negative_sampler, rng, epochs, batch_size, neg_num
    )


def default_optimizer(params: "list[Tensor]", lr: float = 0.025) -> Optimizer:
    """The optimizer the walk-based models default to."""
    return Adam(params, lr=lr)


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


def make_fit_rng(seed: "int | np.random.Generator | None") -> np.random.Generator:
    """Normalize a model's seed argument at fit time."""
    return make_rng(seed)
