"""Bayesian GNN (paper §4.2): knowledge-graph-corrected embeddings.

Mimics cognition: a *prior* embedding ``h_v`` learned from the knowledge
graph alone, then a task-specific correction ``z_v ≈ f(h_v + delta_v)``
(Eq. 7) where ``delta_v ~ N(0, s_v^2)`` and ``f`` is a shared non-linear
projection. Exact per-entity ``delta_v`` is infeasible, so — as in the paper
— the generative model is fit at second order: for entity pairs
``(v1, v2)``, ``z_{v1} - z_{v2}`` is Gaussian around
``f_phi(h_{v1}+delta_{v1}) - f_phi(h_{v2}+delta_{v2})``. We fit ``phi`` and
the posterior means ``mu_v`` of the corrections by maximizing that pairwise
likelihood against the behaviour-graph embeddings, then output both
corrected views: ``h_v + mu_v`` (corrected KG embedding) and
``f_phi(h_v + mu_v)`` (corrected task embedding).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EmbeddingModel, train_steps
from repro.algorithms.deepwalk import DeepWalk
from repro.errors import TrainingError
from repro.graph.ahg import AttributedHeterogeneousGraph
from repro.nn.layers import Dense
from repro.nn.loss import mse
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng


class BayesianGNN(EmbeddingModel):
    """KG-prior + Gaussian correction over task embeddings.

    ``fit_correction`` takes (1) task embeddings of the entities (e.g.
    GraphSAGE on the behaviour graph) and (2) the knowledge graph; it learns
    ``f_phi`` and the posterior corrections and exposes the corrected
    task-specific embeddings.
    """

    name = "bayesian-gnn"

    def __init__(
        self,
        dim: int = 64,
        prior_walk_epochs: int = 2,
        steps: int = 200,
        batch_pairs: int = 512,
        prior_strength: float = 0.1,
        lr: float = 0.02,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.prior_walk_epochs = prior_walk_epochs
        self.steps = steps
        self.batch_pairs = batch_pairs
        self.prior_strength = prior_strength
        self.lr = lr
        self.seed = seed
        self._embeddings: np.ndarray | None = None

    def fit_correction(
        self,
        task_embeddings: np.ndarray,
        kg: AttributedHeterogeneousGraph,
        entity_ids: np.ndarray,
    ) -> "BayesianGNN":
        """Learn the correction aligning KG priors with task embeddings.

        ``entity_ids[i]`` is the KG vertex id of task entity ``i`` (rows of
        ``task_embeddings``).
        """
        task_embeddings = np.asarray(task_embeddings, dtype=np.float64)
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        if task_embeddings.shape[0] != entity_ids.size:
            raise TrainingError("one KG entity id per task embedding row")
        rng = make_rng(self.seed)

        # Prior embeddings h_v from the KG alone.
        prior_model = DeepWalk(dim=self.dim, epochs=self.prior_walk_epochs, seed=self.seed)
        kg_emb = prior_model.fit(kg).embeddings()
        h = kg_emb[entity_ids]  # (n_entities, dim)
        n = h.shape[0]
        task_dim = task_embeddings.shape[1]

        # s_v: correction scale from the coefficients of h_v (paper: s_v is
        # determined by the coefficients of h_v) — larger-norm priors get
        # tighter corrections.
        s = 1.0 / (np.linalg.norm(h, axis=1) + 1.0)

        f = Dense(self.dim, task_dim, rng, activation="tanh")
        delta = Tensor(np.zeros_like(h), requires_grad=True, name="delta")
        params = f.parameters() + [delta]
        optimizer = Adam(params, lr=self.lr)
        ht = Tensor(h)

        def loss_fn(v1: np.ndarray, v2: np.ndarray) -> Tensor:
            corrected = ht + delta
            z1 = f(corrected.gather_rows(v1))
            z2 = f(corrected.gather_rows(v2))
            target = task_embeddings[v1] - task_embeddings[v2]
            pair_nll = mse(z1 - z2, target)
            # Gaussian prior on delta: ||delta_v||^2 / (2 s_v^2).
            prior = ((delta * delta) * (1.0 / (2 * s**2)).reshape(-1, 1)).mean()
            return pair_nll + prior * self.prior_strength

        # Entity pairs, drawn one batch per step.
        pair_ids = (
            (
                rng.integers(0, n, size=self.batch_pairs),
                rng.integers(0, n, size=self.batch_pairs),
            )
            for _ in range(self.steps)
        )
        train_steps(pair_ids, loss_fn, optimizer)

        mu = delta.numpy()
        # f_phi(h_v + mu_v): the corrected task-specific embedding (paper's
        # output). Pairwise-difference training leaves a global shift free,
        # so center it before use.
        z = f(Tensor(h + mu)).numpy()
        self._embeddings = z - z.mean(axis=0, keepdims=True)
        return self

    def fit(self, graph: AttributedHeterogeneousGraph) -> "BayesianGNN":
        raise TrainingError(
            "BayesianGNN is a correction model: call fit_correction(task_"
            "embeddings, kg, entity_ids)"
        )
