"""Loss functions.

Covers every objective the algorithm layer trains with: logistic link loss,
multi-class cross-entropy, skip-gram with negative sampling (Eq. 4's
approximation, shared by DeepWalk/Node2Vec/GATNE/Mixture GNN), squared
error for the autoencoder baselines and the Gaussian KL for VAEs
(Mixture GNN's β-VAE competitor and the Evolving/Bayesian GNN machinery).
"""

from __future__ import annotations

import numpy as np

from repro.errors import OperatorError
from repro.nn import functional as F
from repro.nn.tensor import DTYPE, Tensor


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on raw logits (numerically stable)."""
    targets = np.asarray(targets, dtype=DTYPE)
    if targets.shape != logits.shape:
        raise OperatorError(
            f"target shape {targets.shape} != logits shape {logits.shape}"
        )
    # BCE(x, y) = softplus(x) - x*y = -[y*logsig(x) + (1-y)*logsig(-x)]
    pos = F.log_sigmoid(logits)
    neg = F.log_sigmoid(-logits)
    per_elem = -(pos * targets + neg * (1.0 - targets))
    return per_elem.mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean categorical cross-entropy of ``(n, k)`` logits vs int labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise OperatorError("cross_entropy expects (n, k) logits and (n,) labels")
    logp = F.log_softmax(logits, axis=-1)
    n = labels.size
    rows = np.arange(n)

    def backward(g: np.ndarray) -> "list[tuple[Tensor, np.ndarray]]":
        full = np.zeros_like(logp.data)
        full[rows, labels] = g
        return [(logp, full)]

    # Direct (row, label) indexing: O(n) forward instead of a dense (n, k)
    # one-hot product, with the same scatter backward.
    picked = Tensor(logp.data[rows, labels], _parents=(logp,), _backward=backward)
    return -picked.sum() * (1.0 / n)


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    target = np.asarray(target, dtype=DTYPE)
    diff = pred - Tensor(target)
    return (diff * diff).mean()


def skipgram_negative_loss(
    center: Tensor, context: Tensor, negatives: Tensor
) -> Tensor:
    """Skip-gram with negative sampling.

    ``center``/``context`` are ``(b, d)``; ``negatives`` is ``(b, k, d)``
    flattened to ``(b*k, d)`` by the caller or provided as ``(b*k, d)`` with
    ``k`` inferred. Loss::

        -log σ(c·u) - Σ_k log σ(-c·n_k)
    """
    if center.shape != context.shape:
        raise OperatorError("center and context must have matching shapes")
    b, d = center.shape
    if negatives.ndim != 2 or negatives.shape[1] != d or negatives.shape[0] % b:
        raise OperatorError(
            f"negatives shape {negatives.shape} incompatible with centers {center.shape}"
        )
    k = negatives.shape[0] // b
    pos_score = (center * context).sum(axis=1)  # (b,)
    pos_loss = -F.log_sigmoid(pos_score).sum()
    # Tile centers against their negatives.
    tiled = center.gather_rows(np.repeat(np.arange(b), k))  # (b*k, d)
    neg_score = (tiled * negatives).sum(axis=1)  # (b*k,)
    neg_loss = -F.log_sigmoid(-neg_score).sum()
    return (pos_loss + neg_loss) * (1.0 / b)


def gaussian_kl(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL( N(mu, exp(logvar)) || N(0, 1) ), mean over the batch."""
    if mu.shape != logvar.shape:
        raise OperatorError("mu and logvar must have matching shapes")
    term = (mu * mu) + F.exp(logvar) - logvar - 1.0
    return term.sum() * (0.5 / mu.shape[0])
