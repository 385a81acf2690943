"""Shared model interface and the one training loop.

A model is parameters plus a ``loss_fn(*batch) -> Tensor``; the rest of
training is here, once: two batch sources — :func:`pair_batches` (a shuffled
epoch of walk-derived ``(centers, contexts, negatives)``) and
:func:`edge_batches` (``steps`` × ``(src, dst, negatives)`` from TRAVERSE +
NEGATIVE) — and one step driver, :func:`train_steps` (``zero_grad`` →
``loss_fn`` → ``backward`` → ``optimizer.step``).

The sources are generators and the driver pulls batch *k+1* only after step
*k*: a ``loss_fn`` may draw from the same ``rng`` (AHEP's importance
redraws), and that interleaving is what a seed reproduces.

A model whose tables may live on the parameter server (DeepWalk, node2vec,
LINE) gets them from a *table store* and runs the same driver: the store
pulls a step's rows as the batch is drawn (:meth:`KVTables.pulled`; a no-op
for :class:`DenseTables`), the loss reads them through the store's
``lookups``, and its ``optimizer.step()`` is Adam's step or the pushes.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from numbers import Integral
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import svds

from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn.init import embedding_init
from repro.nn.layers import Embedding
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import DTYPE, Tensor
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

    def _require_fitted(self) -> None:
        if getattr(self, "_embeddings", None) is None:
            raise TrainingError(f"{type(self).__name__} is not fitted yet")


def node_features(graph: Graph, rng: np.random.Generator, n_random: int) -> np.ndarray:
    """Model inputs ``x_v`` in the tape's dtype: standardized
    ``vertex_features`` (discrete codes become usable signals), else
    ``log1p(degree)`` + ``n_random`` normal columns.

    The standardisation runs in float64 and is cast once: done in float32
    it is off by up to 1.2e-3 (about 4900 ulps) on Taobao-sim's 52k-vertex
    features, against one rounding here."""
    feats = getattr(graph, "vertex_features", None)
    if feats is not None:
        x = np.asarray(feats, dtype=np.float64)
        x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-9)
    else:
        deg = np.log1p(graph.out_degrees()).reshape(-1, 1)
        x = np.concatenate([deg, rng.normal(size=(graph.n_vertices, n_random))], axis=1)
    return x.astype(DTYPE)


def steps_per_epoch(graph: Graph, batch_size: int, max_steps: int) -> int:
    """One pass over the edges in ``batch_size`` draws, capped at ``max_steps``."""
    return min(max_steps, max(1, graph.n_edges // batch_size))


def walk_pairs(
    graph: Graph,
    rng: np.random.Generator,
    walks_per_vertex: int,
    walk_length: int,
    window: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Skip-gram ``(centers, contexts)`` from ``walks_per_vertex`` shuffled
    random walks per vertex."""
    starts = np.tile(graph.vertices(), walks_per_vertex)
    rng.shuffle(starts)
    walks = random_walks(graph, starts, walk_length, rng)
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
    optimizer: Adam,
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


#: A table store's tables: ``(role, dim, reads)`` each, ``reads`` the
#: positions in a batch of the id arrays the loss looks the table up with.
TableSpec = Sequence[tuple[str, int, tuple[int, ...]]]


class DenseTables:
    """The in-process table store: one :class:`Embedding` per table and one
    :class:`Adam` over all of them. Batches pass :meth:`pulled` untouched and
    a lookup is the layer's forward."""

    def __init__(
        self, graph: Graph, rng: np.random.Generator, lr: float, spec: TableSpec
    ) -> None:
        self.lookups = [Embedding(graph.n_vertices, dim, rng) for _, dim, _ in spec]
        self.optimizer = Adam([p for t in self.lookups for p in t.parameters()], lr=lr)

    def pulled(self, batches: Iterable[tuple]) -> Iterable[tuple]:
        return batches

    def rows(self, table: int) -> np.ndarray:
        """Table ``table``'s ``(n, dim)`` values."""
        return self.lookups[table].table.numpy()


class KVTables:
    """The parameter-server table store: one
    :class:`~repro.storage.embedding.EmbeddingKVStore` per table on ``store``.

    As each batch is drawn, :meth:`pulled` pulls every table's rows once —
    the deduplicated union of the id arrays it ``reads``, in table order —
    and a lookup reads the pulled block. ``optimizer.step()`` pushes each
    table's coalesced row gradients back, in table order; the servers apply
    Adam's row-sparse step, so untouched rows are never written.
    """

    def __init__(
        self,
        store: "object",
        rng: np.random.Generator,
        lr: float,
        spec: TableSpec,
    ) -> None:
        from repro.storage.embedding import EmbeddingKVStore

        n = store.graph.n_vertices
        self.kv_tables = [
            EmbeddingKVStore(store, embedding_init((n, dim), rng), name=name, lr=lr)
            for name, dim, _ in spec
        ]
        self._reads = [reads for _, _, reads in spec]
        self.lookups = [partial(self._lookup, t) for t in range(len(spec))]
        self.optimizer = self
        self._pulled = []

    def pulled(self, batches: Iterable[tuple]) -> Iterator[tuple]:
        for batch in batches:
            self._pulled = [
                table.minibatch(*(batch[i] for i in reads))
                for table, reads in zip(self.kv_tables, self._reads)
            ]
            yield batch

    def _lookup(self, table: int, ids: np.ndarray) -> Tensor:
        return self._pulled[table].lookup(ids)

    def zero_grad(self) -> None:
        """Nothing to clear: each step looks up a freshly pulled block."""

    def step(self) -> None:
        for minibatch in self._pulled:
            minibatch.push()

    def rows(self, table: int) -> np.ndarray:
        """Table ``table``'s ``(n, dim)`` values, gathered from its shards."""
        return self.kv_tables[table].materialize()


class TableStoreModel(EmbeddingModel):
    """A model whose embedding tables live where ``backend`` says: ``dense``
    keeps them in process (:class:`DenseTables`), ``kv`` on a parameter
    server of ``kv_workers`` simulated servers (:class:`KVTables`). A ``kv``
    fit leaves its store on :attr:`kv_store` (ledger, metrics, RPC counts)."""

    def _place_tables(self, backend: str, kv_workers: int) -> None:
        if backend not in ("dense", "kv"):
            raise TrainingError(f"unknown embedding backend {backend!r} (dense or kv)")
        if not isinstance(kv_workers, Integral) or kv_workers < 1:
            raise TrainingError(f"kv_workers must be an integer >= 1, got {kv_workers!r}")
        self.backend = backend
        self.kv_workers = kv_workers
        #: The distributed store a ``backend="kv"`` fit trained against.
        self.kv_store = None

    def _table_store(
        self, graph: Graph, rng: np.random.Generator, lr: float, spec: TableSpec
    ) -> "DenseTables | KVTables":
        """The tables of ``spec`` in the store ``backend`` names; a ``kv``
        table is named ``<model name>.<role>``. Both stores draw the initial
        rows from ``rng`` in table order, so they start from identical values."""
        if self.backend == "dense":
            return DenseTables(graph, rng, lr, spec)
        from repro.storage.cluster import make_store

        self.kv_store = make_store(graph, self.kv_workers, seed=self.seed)
        named = [(f"{self.name}.{role}", dim, reads) for role, dim, reads in spec]
        return KVTables(self.kv_store, rng, lr, named)


def train_skipgram(
    pairs: tuple[np.ndarray, np.ndarray],
    tables: "DenseTables | KVTables",
    negative_sampler: DegreeBiasedNegativeSampler,
    rng: np.random.Generator,
    epochs: int = 2,
    batch_size: int = 1024,
    neg_num: int = 5,
) -> float:
    """SGNS over a center and a context table of either store.

    Returns the final epoch's mean batch loss (for convergence assertions in
    tests).
    """
    center, context = tables.lookups

    def loss_fn(c_ids: np.ndarray, u_ids: np.ndarray, neg_ids: np.ndarray) -> Tensor:
        return skipgram_negative_loss(center(c_ids), context(u_ids), context(neg_ids))

    last_loss = float("inf")
    for _ in range(epochs):
        batches = pair_batches(pairs, negative_sampler, rng, batch_size, neg_num)
        losses = train_steps(tables.pulled(batches), loss_fn, tables.optimizer)
        last_loss = float(np.mean(losses))
    return last_loss


def skipgram_embeddings(
    pairs: tuple[np.ndarray, np.ndarray],
    graph: Graph,
    dim: int,
    rng: np.random.Generator,
    epochs: int,
    neg_num: int = 5,
    lr: float = 0.025,
    place: Callable[..., "DenseTables | KVTables"] = DenseTables,
) -> tuple[np.ndarray, float]:
    """Plain SGNS over ``pairs`` with degree-biased negatives from ``graph``:
    the unit-row center table and the final epoch's mean loss.

    ``place(graph, rng, lr, spec)`` builds the table store; the center
    table reads a batch's centers, the context table its contexts and
    negatives.
    """
    tables = place(graph, rng, lr, (("center", dim, (0,)), ("context", dim, (1, 2))))
    sampler = DegreeBiasedNegativeSampler(graph)
    loss = train_skipgram(pairs, tables, sampler, rng, epochs=epochs, neg_num=neg_num)
    return unit_rows(tables.rows(0)), loss


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """L2-normalize rows (final embedding post-processing), in float64: a row
    normalised in float32 is a unit vector only to about 1e-7, not 1e-9."""
    matrix = np.asarray(matrix, dtype=np.float64)
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
