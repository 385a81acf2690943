"""Named dataset registry.

Fixes the generator parameters behind the dataset names the benchmarks use.
``taobao-large-sim`` has ~6x the edges of ``taobao-small-sim``, matching the
paper's storage-size ratio between Taobao-small and Taobao-large (Table 3).
``scale`` multiplies vertex counts for cheap/large variants of any dataset.
"""

from __future__ import annotations

from math import inf
from numbers import Integral, Real
from typing import Callable

from repro.data.amazon import amazon_graph
from repro.data.synthetic import taobao_graph
from repro.errors import DatasetError


def _taobao_small(scale: float, seed: int):
    return taobao_graph(
        n_users=int(4000 * scale),
        n_items=int(1200 * scale),
        mean_user_degree=8.0,
        seed=seed,
    )


def _taobao_large(scale: float, seed: int):
    # ~3.3x the users and ~1.8x the per-user activity of small: ~6x edges,
    # mirroring Table 3's small/large storage ratio.
    return taobao_graph(
        n_users=int(13000 * scale),
        n_items=int(1400 * scale),
        mean_user_degree=17.5,
        seed=seed,
    )


def _amazon(scale: float, seed: int):
    return amazon_graph(n_products=int(2000 * scale), seed=seed)


DATASETS: dict[str, Callable[[float, int], object]] = {
    "taobao-small-sim": _taobao_small,
    "taobao-large-sim": _taobao_large,
    "amazon-sim": _amazon,
}


def make_dataset(name: str, scale: float = 1.0, seed: int = 0):
    """Instantiate a named dataset at ``scale`` (a finite positive real)
    with ``seed`` (a non-negative integer); ``DatasetError`` otherwise."""
    if isinstance(scale, bool) or not isinstance(scale, Real) or not 0 < scale < inf:
        raise DatasetError(f"scale must be a finite positive number, got {scale!r}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise DatasetError(f"seed must be a non-negative integer, got {seed!r}")
    try:
        factory = DATASETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASETS))
        raise DatasetError(f"unknown dataset {name!r} (known: {known})") from None
    return factory(scale, seed)
