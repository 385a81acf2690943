"""Power-law distribution tools.

The caching design of AliGraph rests on two theorems: if the in/out degree
distributions are power laws then (1) k-hop neighborhood sizes and (2) the
importance metric Imp^(k) are power laws too, so only a tiny vertex fraction
is worth caching. This module samples power-law degree sequences for the
synthetic Taobao substrate and fits a sample's exponent by maximum likelihood
(the check that a generated graph is heavy-tailed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a discrete power-law MLE fit ``p(x) ~ x^{-alpha}``."""

    alpha: float
    xmin: float
    n_tail: int

    def __post_init__(self) -> None:
        if self.alpha <= 1.0:
            raise ValueError(f"power-law exponent must exceed 1, got {self.alpha}")


def fit_power_law(values: np.ndarray, xmin: float = 1.0) -> PowerLawFit:
    """Fit a power-law tail exponent by the discrete Hill/MLE estimator.

    ``alpha = 1 + n / sum(ln(x_i / (xmin - 0.5)))`` over the tail
    ``x_i >= xmin`` (Clauset et al.'s discrete approximation). Values below
    ``xmin`` are ignored; zero values never enter the tail.
    """
    values = np.asarray(values, dtype=np.float64)
    tail = values[values >= xmin]
    if tail.size < 10:
        raise ValueError(
            f"need at least 10 tail samples >= xmin={xmin} to fit, got {tail.size}"
        )
    alpha = 1.0 + tail.size / np.sum(np.log(tail / (xmin - 0.5)))
    return PowerLawFit(alpha=float(alpha), xmin=xmin, n_tail=int(tail.size))


def sample_power_law_degrees(
    n: int,
    alpha: float,
    min_degree: int,
    max_degree: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``n`` integer degrees from a truncated discrete power law.

    Uses inverse-transform sampling on the continuous Pareto CDF, then floors
    to integers — the standard construction for synthetic scale-free degree
    sequences.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    if not 1 <= min_degree <= max_degree:
        raise ValueError(
            f"need 1 <= min_degree <= max_degree, got {min_degree}, {max_degree}"
        )
    u = rng.random(n)
    lo = float(min_degree)
    hi = float(max_degree) + 1.0
    exp = 1.0 - alpha
    # Inverse CDF of the truncated Pareto on [lo, hi).
    samples = (lo**exp + u * (hi**exp - lo**exp)) ** (1.0 / exp)
    return np.minimum(np.floor(samples).astype(np.int64), max_degree)
