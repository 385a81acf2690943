"""Minimal reverse-mode autograd NN engine on numpy.

The paper trains its models on TensorFlow atop the AliGraph runtime; this
package is the from-scratch substitute: a :class:`Tensor` with reverse-mode
autodiff whose tape records only what reaches a trainable leaf (and nothing
under :func:`no_grad`), the layers the in-house models need (dense,
embedding, GRU), losses (BCE, CE, skip-gram with
negative sampling, VAE ELBO) and one optimizer (Adam, taking dense or
row-sparse gradients). Everything is float64 numpy — small-graph scale,
gradient-checkable, deterministic.
"""

from repro.nn import functional
from repro.nn.init import he_uniform, xavier_uniform
from repro.nn.layers import Dense, Embedding, Module, Sequential
from repro.nn.loss import (
    bce_with_logits,
    cross_entropy,
    gaussian_kl,
    mse,
    skipgram_negative_loss,
)
from repro.nn.optim import Adam
from repro.nn.rnn import GRUCell
from repro.nn.tensor import SparseGrad, Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "Module",
    "Dense",
    "Embedding",
    "Sequential",
    "GRUCell",
    "Adam",
    "SparseGrad",
    "xavier_uniform",
    "he_uniform",
    "bce_with_logits",
    "cross_entropy",
    "mse",
    "skipgram_negative_loss",
    "gaussian_kl",
]
