"""Autoencoder recommendation baselines for Table 9: DAE and β-VAE.

Both operate on users' binary item-interaction rows:

* :class:`DAE` (Vincent et al., ICML 2008) — denoising autoencoder: corrupt
  the interaction row, reconstruct it; the bottleneck is the user embedding
  and the decoder weights act as item embeddings;
* :class:`BetaVAE` (the multinomial/collaborative VAE of Liang et al. 2018,
  with the β* KL weight) — variational encoder with the β-weighted KL.

Both expose ``user_embeddings``/``item_embeddings`` for the shared
hit-recall evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import train_steps
from repro.errors import TrainingError
from repro.nn import functional as F
from repro.nn.layers import Dense
from repro.nn.loss import bce_with_logits, gaussian_kl
from repro.nn.optim import Adam
from repro.nn.tensor import DTYPE, Tensor
from repro.utils.rng import make_rng


class _InteractionModel:
    """Shared scaffolding over the (n_users, n_items) interaction matrix.

    The user and item vectors train on the float32 tape and are handed out
    in float64, as every model's embeddings are."""

    def __init__(
        self,
        dim: int = 64,
        hidden: int = 128,
        epochs: int = 30,
        batch_size: int = 128,
        lr: float = 1e-3,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self._user_emb: np.ndarray | None = None
        self._item_emb: np.ndarray | None = None

    def user_embeddings(self) -> np.ndarray:
        """Per-user bottleneck vectors (rows align with interaction rows)."""
        if self._user_emb is None:
            raise TrainingError(f"{type(self).__name__} is not fitted yet")
        return self._user_emb

    def item_embeddings(self) -> np.ndarray:
        """Per-item decoder columns, usable as item vectors for scoring."""
        if self._item_emb is None:
            raise TrainingError(f"{type(self).__name__} is not fitted yet")
        return self._item_emb

    @staticmethod
    def interactions_from(
        user_items: "dict[int, set[int]]", n_users: int, n_items: int
    ) -> np.ndarray:
        """Binary matrix from per-user item sets."""
        x = np.zeros((n_users, n_items), dtype=np.float64)
        for u, items in user_items.items():
            for i in items:
                x[u, i] = 1.0
        return x


class DAE(_InteractionModel):
    """Denoising autoencoder over interaction rows."""

    name = "dae"

    def __init__(self, corruption: float = 0.3, **kwargs: object) -> None:
        super().__init__(**kwargs)
        if not 0.0 <= corruption < 1.0:
            raise TrainingError("corruption must be in [0, 1)")
        self.corruption = corruption

    def fit(self, interactions: np.ndarray) -> "DAE":
        rng = make_rng(self.seed)
        x = np.asarray(interactions, dtype=DTYPE)
        n_users, n_items = x.shape
        enc1 = Dense(n_items, self.hidden, rng, "tanh")
        enc2 = Dense(self.hidden, self.dim, rng)
        dec = Dense(self.dim, n_items, rng)
        params = enc1.parameters() + enc2.parameters() + dec.parameters()
        optimizer = Adam(params, lr=self.lr)

        def loss_fn(rows: np.ndarray) -> Tensor:
            noisy = rows * (rng.random(rows.shape) >= self.corruption)
            return bce_with_logits(dec(enc2(enc1(Tensor(noisy)))), rows)

        for _ in range(self.epochs):
            perm = rng.permutation(n_users)
            batches = (
                (x[perm[lo : lo + self.batch_size]],)
                for lo in range(0, n_users, self.batch_size)
            )
            train_steps(batches, loss_fn, optimizer)
        self._user_emb = enc2(enc1(Tensor(x))).numpy().astype(np.float64)
        self._item_emb = dec.weight.numpy().T.astype(np.float64)  # (n_items, dim)
        return self


class BetaVAE(_InteractionModel):
    """β-weighted variational autoencoder over interaction rows."""

    name = "beta-vae"

    def __init__(self, beta: float = 0.2, **kwargs: object) -> None:
        super().__init__(**kwargs)
        if beta < 0:
            raise TrainingError("beta must be non-negative")
        self.beta = beta

    def fit(self, interactions: np.ndarray) -> "BetaVAE":
        rng = make_rng(self.seed)
        x = np.asarray(interactions, dtype=DTYPE)
        n_users, n_items = x.shape
        enc = Dense(n_items, self.hidden, rng, "tanh")
        mu_layer = Dense(self.hidden, self.dim, rng)
        lv_layer = Dense(self.hidden, self.dim, rng)
        dec = Dense(self.dim, n_items, rng)
        params = (
            enc.parameters()
            + mu_layer.parameters()
            + lv_layer.parameters()
            + dec.parameters()
        )
        optimizer = Adam(params, lr=self.lr)

        def loss_fn(rows: np.ndarray) -> Tensor:
            hidden = enc(Tensor(rows))
            mu = mu_layer(hidden)
            logvar = lv_layer(hidden)
            eps = rng.standard_normal(mu.shape)
            z = mu + F.exp(logvar * 0.5) * Tensor(eps)
            return bce_with_logits(dec(z), rows) + gaussian_kl(mu, logvar) * self.beta

        for _ in range(self.epochs):
            perm = rng.permutation(n_users)
            batches = (
                (x[perm[lo : lo + self.batch_size]],)
                for lo in range(0, n_users, self.batch_size)
            )
            train_steps(batches, loss_fn, optimizer)
        self._user_emb = mu_layer(enc(Tensor(x))).numpy().astype(np.float64)
        self._item_emb = dec.weight.numpy().T.astype(np.float64)
        return self
