"""SIGN: precomputed neighborhood aggregates + MLP head (Frasca et al. 2020).

The opposite trade to per-step sampling: instead of drawing a k-hop block
every minibatch, SIGN runs ``r`` rounds of row-normalized sparse
matrix-multiplication **offline** — ``Z_r = (D^-1 A)^r X`` over the
:class:`~repro.sampling.kernels.CsrAdjacency`, computed once with the
ragged :func:`~repro.nn.functional.segment_mean_np` kernel — and trains a
plain MLP on the concatenated ``[X, Z_1, ..., Z_r]`` operator features.
Per training step the model touches only ``batch`` rows of a dense
matrix: no sampling, no gather-heavy message passing, at the price of a
fixed (non-learned, non-sampled) neighborhood aggregation.

Fits the AliGraph plugin story as the degenerate SAMPLE = "all neighbors,
averaged offline" configuration: a useful third point for the
full-graph vs minibatch-block cost comparison in
``benchmarks/bench_gnn_minibatch.py``.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import (
    EmbeddingModel,
    edge_batches,
    node_features,
    steps_per_epoch,
    train_steps,
    unit_rows,
)
from repro.errors import TrainingError
from repro.graph.graph import Graph
from repro.nn import functional as F
from repro.nn.layers import Dense
from repro.nn.loss import skipgram_negative_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.runtime.tracing import NULL_PROFILER, StageProfiler
from repro.sampling.kernels import CsrAdjacency
from repro.utils.rng import make_rng


def propagate_sign(features: np.ndarray, csr: CsrAdjacency, hops: int) -> np.ndarray:
    """Offline SIGN operator features ``[X, AX, ..., A^r X]`` (row concat).

    ``A`` is the row-normalized adjacency ``D^-1 A``; one hop is a single
    ragged segment-mean over the CSR — ``mean(X[indices], indptr)`` — so
    zero-degree rows propagate zeros. Returns ``(n, (hops+1)*d)``.
    """
    if hops < 1:
        raise TrainingError(f"SIGN hops must be >= 1, got {hops}")
    operators = [features]
    cur = features
    for _ in range(hops):
        cur = F.segment_mean_np(cur[csr.indices], csr.indptr)
        operators.append(cur)
    return np.concatenate(operators, axis=1)


class SIGN(EmbeddingModel):
    """Scalable Inception-like GNN: offline SpMM operators + MLP head.

    Parameters mirror :class:`~repro.algorithms.framework.GNNFramework`
    where they overlap; ``hops`` plays the role of ``kmax`` (rounds of
    offline propagation). The unsupervised objective and negative sampler
    are identical to the framework's, so link-prediction quality is
    directly comparable.
    """

    name = "sign"

    def __init__(
        self,
        dim: int = 64,
        hops: int = 2,
        hidden_dim: int | None = None,
        epochs: int = 5,
        batch_size: int = 512,
        neg_num: int = 5,
        lr: float = 0.01,
        max_steps_per_epoch: int = 40,
        seed: int = 0,
        profiler: "StageProfiler | None" = None,
    ) -> None:
        if hops < 1:
            raise TrainingError(f"hops must be >= 1, got {hops}")
        self.dim = dim
        self.hops = hops
        self.hidden_dim = hidden_dim or dim
        self.epochs = epochs
        self.batch_size = batch_size
        self.neg_num = neg_num
        self.lr = lr
        self.max_steps_per_epoch = max_steps_per_epoch
        self.seed = seed
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._embeddings: np.ndarray | None = None
        self.loss_history: list[float] = []

    def _head(self, z: Tensor) -> Tensor:
        return F.l2_normalize(self._out(F.relu(self._hidden(z))))

    def fit(self, graph: Graph) -> "SIGN":
        rng = make_rng(self.seed)
        stage = self.profiler.stage
        # Offline phase: the whole SAMPLE/AGGREGATE pipeline collapses into
        # r ragged segment-means, paid once (bucketed as "sample" — it is
        # the neighborhood-collection cost of this model).
        with stage("sample"):
            features = node_features(
                graph, make_rng(self.seed), min(self.dim, 16)
            )
            csr = CsrAdjacency.from_graph(graph)
            z_all = Tensor(propagate_sign(features, csr, self.hops))
        self._hidden = Dense(z_all.shape[1], self.hidden_dim, rng)
        self._out = Dense(self.hidden_dim, self.dim, rng)
        optimizer = Adam(self._hidden.parameters() + self._out.parameters(), lr=self.lr)

        def loss_fn(src: np.ndarray, dst: np.ndarray, negs: np.ndarray) -> Tensor:
            with stage("sample"):
                batch_ids = np.concatenate([src, dst, negs])
                seeds = np.unique(batch_ids)
                pos = np.searchsorted(seeds, batch_ids)
            with stage("materialize"):
                z = z_all.gather_rows(seeds)
            with stage("combine"):
                h = self._head(z)
            b = src.size
            return skipgram_negative_loss(
                h.gather_rows(pos[:b]),
                h.gather_rows(pos[b : 2 * b]),
                h.gather_rows(pos[2 * b :]),
            )

        steps = steps_per_epoch(graph, self.batch_size, self.max_steps_per_epoch)
        batches = edge_batches(
            graph, rng, steps * self.epochs, self.batch_size, self.neg_num
        )
        self.loss_history = [
            float(np.mean(train_steps(batches, loss_fn, optimizer, steps, self.profiler)))
            for _ in range(self.epochs)
        ]

        self._embeddings = unit_rows(self._head(z_all).numpy())
        return self
