"""Evolving GNN (paper §4.2): embeddings for dynamic graphs.

The model learns vertex representations over a snapshot sequence
G(1), ..., G(T) in an *interleaved* manner: per-snapshot GraphSAGE
embeddings capture structure, while a VAE + RNN head consumes each vertex's
*dynamics trajectory* — its in/out-degree levels and deltas across
snapshots — and is trained to predict the next snapshot's changes ("we
apply a method to predict the normal and burst information on the graph
G(t+1) by using Variational Autoencoder and RNN"). Normal evolution
produces small, structure-consistent deltas; burst links produce anomalous
jumps, so the dynamics state separates them.

The final vertex representation concatenates the last snapshot's structural
embedding, the RNN dynamics state, the VAE posterior mean and the latest
raw change features (levels + deltas). It is deliberately *not*
row-normalized: dynamics magnitude is the burst signal.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import EmbeddingModel, train_steps, unit_rows
from repro.algorithms.graphsage import GraphSAGE
from repro.errors import TrainingError
from repro.graph.dynamic import DynamicGraph
from repro.nn import functional as F
from repro.nn.layers import Dense
from repro.nn.loss import gaussian_kl, mse
from repro.nn.optim import Adam
from repro.nn.rnn import GRUCell
from repro.nn.tensor import Tensor
from repro.utils.rng import make_rng


def _dynamics_features(dynamic: DynamicGraph) -> "list[np.ndarray]":
    """Per-snapshot (n, 4) change features: degree levels and deltas."""
    feats = []
    prev_in = prev_out = None
    for snap in dynamic.snapshots:
        in_deg = np.log1p(snap.in_degrees().astype(np.float64))
        out_deg = np.log1p(snap.out_degrees().astype(np.float64))
        d_in = in_deg - prev_in if prev_in is not None else np.zeros_like(in_deg)
        d_out = out_deg - prev_out if prev_out is not None else np.zeros_like(out_deg)
        x = np.stack([in_deg, out_deg, d_in, d_out], axis=1)
        feats.append(x)
        prev_in, prev_out = in_deg, out_deg
    # Standardize feature-wise over all snapshots.
    stacked = np.concatenate(feats, axis=0)
    mu = stacked.mean(axis=0, keepdims=True)
    sd = stacked.std(axis=0, keepdims=True) + 1e-9
    return [(x - mu) / sd for x in feats]


class EvolvingGNN(EmbeddingModel):
    """GraphSAGE-per-snapshot + VAE/RNN dynamics head."""

    name = "evolving-gnn"

    def __init__(
        self,
        dim: int = 48,
        dynamics_dim: int = 16,
        sage_epochs: int = 3,
        head_epochs: int = 60,
        lr: float = 0.01,
        kl_weight: float = 0.05,
        seed: int = 0,
    ) -> None:
        self.dim = dim
        self.dynamics_dim = dynamics_dim
        self.sage_epochs = sage_epochs
        self.head_epochs = head_epochs
        self.lr = lr
        self.kl_weight = kl_weight
        self.seed = seed
        self._embeddings: np.ndarray | None = None
        self.snapshot_embeddings: list[np.ndarray] = []

    def fit(self, dynamic: DynamicGraph) -> "EvolvingGNN":
        if not isinstance(dynamic, DynamicGraph):
            raise TrainingError("EvolvingGNN consumes a DynamicGraph")
        rng = make_rng(self.seed)
        n = dynamic.n_vertices

        # Per-snapshot structural embeddings (the GraphSAGE integration).
        self.snapshot_embeddings = []
        for t, snap in enumerate(dynamic.snapshots):
            if snap.n_edges == 0:
                self.snapshot_embeddings.append(np.zeros((n, self.dim)))
                continue
            sage = GraphSAGE(
                dim=self.dim,
                epochs=self.sage_epochs,
                max_steps_per_epoch=15,
                seed=self.seed + t,
            )
            self.snapshot_embeddings.append(sage.fit(snap).embeddings())

        # Dynamics branch: RNN over change-feature trajectories; VAE trained
        # to predict the *next* snapshot's change features.
        dyn_feats = _dynamics_features(dynamic)
        f_dim = dyn_feats[0].shape[1]
        gru = GRUCell(f_dim, self.dynamics_dim, rng)
        enc_mu = Dense(self.dynamics_dim, self.dynamics_dim, rng)
        enc_lv = Dense(self.dynamics_dim, self.dynamics_dim, rng)
        dec = Dense(self.dynamics_dim, f_dim, rng)
        params = (
            gru.parameters()
            + enc_mu.parameters()
            + enc_lv.parameters()
            + dec.parameters()
        )
        optimizer = Adam(params, lr=self.lr)

        def loss_fn() -> Tensor:
            h = gru.init_state(n)
            loss = None
            for t in range(len(dyn_feats) - 1):
                h = gru(Tensor(dyn_feats[t]), h)
                mu = enc_mu(h)
                logvar = enc_lv(h)
                eps = rng.standard_normal(mu.shape)
                z = mu + F.exp(logvar * 0.5) * Tensor(eps)  # reparameterization
                recon = mse(dec(z), dyn_feats[t + 1])
                kl = gaussian_kl(mu, logvar)
                term = recon + kl * self.kl_weight
                loss = term if loss is None else loss + term
            assert loss is not None
            return loss

        # Full-batch training: every step sees all trajectories, so the
        # batches carry nothing.
        train_steps([()] * self.head_epochs, loss_fn, optimizer)

        # Final state after consuming the whole trajectory.
        h = gru.init_state(n)
        for t in range(len(dyn_feats)):
            h = gru(Tensor(dyn_feats[t]), h)
        mu = enc_mu(h).numpy()
        self._embeddings = np.concatenate(
            [
                unit_rows(self.snapshot_embeddings[-1]),
                h.numpy(),
                mu,
                dyn_feats[-1],  # latest raw change features
            ],
            axis=1,
        )
        return self
