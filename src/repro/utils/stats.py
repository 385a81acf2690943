"""Small self-contained statistics helpers for sampler equivalence checks.

The sampling kernels are validated *distributionally* against the scalar
oracles in ``tests/test_sampling_kernels.py`` (the two consume RNG streams
differently, so bit-equality is only required of the uniform and
deterministic samplers). The tests need chi-square p-values for that; to keep the repo dependency-
free these are computed here from scratch via the regularized incomplete
gamma function (series + continued-fraction forms, Numerical Recipes style)
rather than pulling in scipy.

The module also hosts the seeded :class:`ZipfSampler` — the hot-key skew
generator behind the serving tier's load shapes (and a reusable building
block for hub-weighted workloads elsewhere): rank-``r`` of a population of
``n`` keys is drawn with probability proportional to ``r ** -exponent``,
the canonical model of "a few users dominate the traffic".
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ReproError

_MAX_ITER = 500
_EPS = 3.0e-14


def _lower_gamma_series(s: float, x: float) -> float:
    """P(s, x) by series expansion — converges fast for x < s + 1."""
    term = 1.0 / s
    total = term
    a = s
    for _ in range(_MAX_ITER):
        a += 1.0
        term *= x / a
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _upper_gamma_cf(s: float, x: float) -> float:
    """Q(s, x) by Lentz continued fraction — converges fast for x >= s + 1."""
    tiny = 1.0e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def gammainc_lower(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x), for s > 0, x >= 0."""
    if s <= 0:
        raise ReproError(f"gamma shape must be positive, got {s}")
    if x < 0:
        raise ReproError(f"gamma argument must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _lower_gamma_series(s, x)
    return 1.0 - _upper_gamma_cf(s, x)


def chi2_sf(stat: float, df: int) -> float:
    """Chi-square survival function P(X >= stat) with ``df`` degrees."""
    if df < 1:
        raise ReproError(f"chi-square df must be positive, got {df}")
    if stat <= 0.0:
        return 1.0
    if stat < df + 1.0:
        return 1.0 - _lower_gamma_series(df / 2.0, stat / 2.0)
    return _upper_gamma_cf(df / 2.0, stat / 2.0)


def chi_square_gof(counts: np.ndarray, probs: np.ndarray) -> "tuple[float, float]":
    """Goodness-of-fit of observed ``counts`` against expected ``probs``.

    Returns ``(statistic, p_value)``. Zero-probability cells must hold zero
    counts (p-value 0.0 otherwise); cells are not pooled, so callers should
    draw enough samples for expected counts of a few per cell.
    """
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if counts.shape != probs.shape or counts.ndim != 1:
        raise ReproError("counts and probs must be aligned 1-D vectors")
    total = counts.sum()
    if total <= 0:
        raise ReproError("chi-square needs at least one observation")
    zero = probs <= 0
    if np.any(counts[zero] > 0):
        return math.inf, 0.0
    live = ~zero
    expected = probs[live] / probs[live].sum() * total
    stat = float(np.sum((counts[live] - expected) ** 2 / expected))
    df = int(live.sum()) - 1
    if df < 1:
        return stat, 1.0
    return stat, chi2_sf(stat, df)


def zipf_probs(n: int, exponent: float = 1.1) -> np.ndarray:
    """Normalized Zipf probabilities over ranks ``1..n``.

    ``probs[r] ∝ (r + 1) ** -exponent`` (0-indexed), so index 0 is the
    hottest key. ``exponent`` may be any non-negative value; 0 degrades to
    the uniform distribution, which makes "skew off" a parameter choice
    rather than a separate code path.
    """
    if n < 1:
        raise ReproError(f"zipf population must be >= 1, got {n}")
    if exponent < 0:
        raise ReproError(f"zipf exponent must be >= 0, got {exponent}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    probs = ranks ** -float(exponent)
    return probs / probs.sum()


class ZipfSampler:
    """Seeded hot-key sampler: rank-skewed draws from a fixed population.

    ``population`` is an id array whose *order defines hotness* (index 0 is
    rank 1, the hottest). Draws are vectorized — inverse-CDF via
    ``np.searchsorted`` on the precomputed cumulative distribution — and
    consume the caller's RNG stream, so two same-seed runs replay the same
    key sequence bit for bit.
    """

    def __init__(
        self, population: "np.ndarray | int", exponent: float = 1.1
    ) -> None:
        if isinstance(population, (int, np.integer)):
            population = np.arange(int(population), dtype=np.int64)
        self.population = np.asarray(population).reshape(-1)
        self.exponent = float(exponent)
        self.probs = zipf_probs(self.population.size, exponent)
        self._cdf = np.cumsum(self.probs)
        # Guard the last bin against floating-point undershoot so a draw of
        # u -> 1.0 can never index past the population.
        self._cdf[-1] = 1.0

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` keys (with replacement) from the population."""
        if size < 0:
            raise ReproError(f"sample size must be >= 0, got {size}")
        idx = np.searchsorted(self._cdf, rng.random(size), side="right")
        return self.population[idx]


def chi_square_homogeneity(
    counts_a: np.ndarray, counts_b: np.ndarray
) -> "tuple[float, float]":
    """Two-sample test: were ``counts_a`` and ``counts_b`` drawn alike?

    Standard 2×k contingency chi-square; cells empty in both samples are
    dropped. Returns ``(statistic, p_value)``.
    """
    counts_a = np.asarray(counts_a, dtype=np.float64)
    counts_b = np.asarray(counts_b, dtype=np.float64)
    if counts_a.shape != counts_b.shape or counts_a.ndim != 1:
        raise ReproError("count vectors must be aligned and 1-D")
    live = (counts_a + counts_b) > 0
    a, b = counts_a[live], counts_b[live]
    na, nb = a.sum(), b.sum()
    if na <= 0 or nb <= 0:
        raise ReproError("both samples need at least one observation")
    pooled = (a + b) / (na + nb)
    stat = float(
        np.sum((a - na * pooled) ** 2 / (na * pooled))
        + np.sum((b - nb * pooled) ** 2 / (nb * pooled))
    )
    df = int(live.sum()) - 1
    if df < 1:
        return stat, 1.0
    return stat, chi2_sf(stat, df)
