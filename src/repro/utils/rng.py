"""Deterministic random number generation helpers.

Every stochastic component in the library takes either a seed or a
:class:`numpy.random.Generator`; :func:`make_rng` normalizes the two so that
experiments are reproducible end to end.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | np.random.Generator | None"


def make_rng(seed: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an int (seeded generator), an existing generator (returned
    as-is) or ``None`` (fresh OS-entropy generator). Library code should call
    this exactly once at its entry point and pass the generator downward.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
