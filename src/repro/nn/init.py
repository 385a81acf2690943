"""Weight initialization schemes."""

from __future__ import annotations

import numpy as np


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform init for tanh/sigmoid/linear layers."""
    fan_in = shape[0] if len(shape) >= 1 else 1
    fan_out = shape[1] if len(shape) >= 2 else shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform init for ReLU layers."""
    fan_in = shape[0] if len(shape) >= 1 else 1
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def embedding_init(
    shape: tuple[int, ...], rng: np.random.Generator, scale: float | None = None
) -> np.ndarray:
    """Small-uniform init for embedding tables (word2vec convention)."""
    if scale is None:
        scale = 0.5 / shape[-1]
    return rng.uniform(-scale, scale, size=shape)
