"""Alias method for O(1) sampling from discrete distributions.

The sampling layer draws weighted neighbors and degree-biased negatives many
millions of times per epoch, so constant-time draws matter. Two table shapes:

* :class:`AliasTable` — one distribution (one adjacency list, one noise
  distribution);
* :class:`GroupedAliasTable` — many distributions packed into one flat
  ``prob``/``alias`` array pair spanning all groups (all adjacency lists of a
  CSR snapshot), so a whole *frontier* of weighted draws is one vectorized
  kernel call instead of one table lookup per vertex.

Both are built by the same vectorized Vose construction
(:func:`build_alias_arrays`): instead of the classic per-element Python
small/large stacks, groups are processed in lock-step rounds — every active
group resolves exactly one slot per round, so the build costs
``O(maxdeg)`` vectorized numpy passes rather than ``O(nnz)`` interpreted
steps. Once a single group is left active (a one-distribution table, or one
hub row outliving the rest) a round resolves one slot for a dozen
one-element numpy calls, so that group's walk is finished on Python floats
instead — the same IEEE operations in the same order. Draw distributions
are identical to the stack-based construction (the alias pairing may
differ; the implied probabilities do not).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.utils.rng import bounded_integers


def build_alias_arrays(
    weights: np.ndarray, indptr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized grouped Vose construction.

    ``weights`` is a flat non-negative array; ``indptr`` (size ``G+1``)
    delimits ``G`` consecutive groups, each an independent distribution
    (empty groups allowed, all-zero non-empty groups rejected). Returns flat
    ``(prob, alias)`` arrays aligned with ``weights``: a draw for group ``g``
    picks a uniform slot ``i`` in ``[indptr[g], indptr[g+1])`` and keeps it
    with probability ``prob[i]``, else takes ``alias[i]``.

    The construction sorts each group's scaled weights ascending and walks
    two pointers per group — ``lo`` at the smallest original value, ``hi``
    at the largest with a running residual.  Per round, every active group
    either (a) pairs its smallest slot with the residual holder when the
    residual is still >= 1, or (b) closes the residual holder against the
    next-largest slot when the residual dropped below 1.  Each round
    resolves one slot per active group, and every group op is a masked
    numpy gather/scatter, so rounds are vectorized across the whole CSR.
    """
    weights = np.asarray(weights, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    if weights.ndim != 1:
        raise SamplingError("alias weights must be a 1-D vector")
    if indptr.ndim != 1 or indptr.size < 2:
        raise SamplingError("alias group indptr needs at least two offsets")
    if indptr[0] != 0 or indptr[-1] != weights.size or np.any(np.diff(indptr) < 0):
        raise SamplingError("alias group indptr must be monotone over the weights")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise SamplingError("alias table weights must be finite and non-negative")

    n = weights.size
    sizes = np.diff(indptr)
    cumw = np.concatenate([[0.0], np.cumsum(weights)])
    sums = cumw[indptr[1:]] - cumw[indptr[:-1]]
    if np.any((sums <= 0) & (sizes > 0)):
        raise SamplingError("alias table weights must not all be zero")

    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    if n == 0:
        return prob, alias

    # Scale each group so its weights sum to its size (mean 1.0).
    scale = np.ones_like(sums)
    nonempty = sizes > 0
    scale[nonempty] = sizes[nonempty] / sums[nonempty]
    gids = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    scaled = weights * scale[gids]

    # Within-group ascending sort of the scaled weights (stable, so equal
    # weights keep CSR order).
    order = np.lexsort((scaled, gids))
    lo = indptr[:-1].copy()
    hi = indptr[1:] - 1
    res = np.zeros(sizes.size, dtype=np.float64)
    res[nonempty] = scaled[order[hi[nonempty]]]

    active = np.flatnonzero(hi > lo)
    while active.size > 1:
        case_b = res[active] < 1.0
        a = active[~case_b]
        if a.size:
            # Smallest remaining slot keeps its own mass; the deficit is
            # donated by the current residual holder.
            small = order[lo[a]]
            prob[small] = np.minimum(scaled[small], 1.0)
            alias[small] = order[hi[a]]
            res[a] -= 1.0 - prob[small]
            lo[a] += 1
        b = active[case_b]
        if b.size:
            # The residual holder itself fell below 1: close it against the
            # next-largest slot, which inherits the deficit.
            head = order[hi[b]]
            prob[head] = np.maximum(res[b], 0.0)
            alias[head] = order[hi[b] - 1]
            hi[b] -= 1
            res[b] = scaled[order[hi[b]]] - (1.0 - prob[head])
        active = active[lo[active] < hi[active]]
    if active.size:
        g = int(active[0])
        _finish_group(prob, alias, scaled, order[lo[g] : hi[g] + 1], float(res[g]))
    # The last remaining slot of each group holds residual ~1.0 up to
    # floating point; prob=1, alias=self was pre-filled.
    return prob, alias


def _finish_group(
    prob: np.ndarray,
    alias: np.ndarray,
    scaled: np.ndarray,
    slots: np.ndarray,
    res: float,
) -> None:
    """Finish one group's two-pointer walk on Python floats.

    ``slots`` are the group's unresolved slot ids in ascending scaled
    weight and ``res`` the residual its largest holds. Mirrors one lane of
    the vectorized rounds in :func:`build_alias_arrays` operation for
    operation (``x if x <= 1.0 else 1.0`` is ``np.minimum(x, 1.0)``), so
    ``prob`` / ``alias`` come out bit-equal; only this slice is converted.
    """
    ids = slots.tolist()
    mass = scaled[slots].tolist()
    p = [1.0] * len(ids)
    a = list(ids)
    i, j = 0, len(ids) - 1
    while i < j:
        if res >= 1.0:
            p[i] = mass[i] if mass[i] <= 1.0 else 1.0
            a[i] = ids[j]
            res -= 1.0 - p[i]
            i += 1
        else:
            p[j] = res if res >= 0.0 else 0.0
            a[j] = ids[j - 1]
            res = mass[j - 1] - (1.0 - p[j])
            j -= 1
    prob[slots] = p
    alias[slots] = a


class AliasTable:
    """Precomputed alias table over ``weights`` (need not be normalized).

    Draws return integer indices in ``[0, len(weights))`` distributed
    proportionally to the weights.
    """

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1 or weights.size == 0:
            raise SamplingError("alias table needs a non-empty 1-D weight vector")
        self._prob, self._alias = build_alias_arrays(
            weights, np.array([0, weights.size], dtype=np.int64)
        )
        self._n = weights.size

    def __len__(self) -> int:
        return self._n

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` indices as a vectorized batch."""
        if size < 0:
            raise SamplingError(f"batch size must be non-negative, got {size}")
        idx = rng.integers(self._n, size=size)
        keep = rng.random(size) < self._prob[idx]
        return np.where(keep, idx, self._alias[idx]).astype(np.int64)


class GroupedAliasTable:
    """One flat alias table spanning many packed distributions.

    Built over a flat ``weights`` array delimited by ``indptr`` — exactly the
    layout of a CSR adjacency snapshot, where group ``g`` is vertex ``g``'s
    neighbor list. A frontier of weighted neighbor draws then costs one
    vectorized kernel call (:meth:`draw_for_groups`) instead of a Python
    loop over per-vertex :class:`AliasTable` lookups.
    """

    def __init__(self, weights: np.ndarray, indptr: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=np.float64)
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._prob, self._alias = build_alias_arrays(self._weights, self._indptr)
        self._sizes = np.diff(self._indptr)

    @property
    def n_groups(self) -> int:
        """Number of packed distributions."""
        return int(self._sizes.size)

    def __len__(self) -> int:
        """Total slots across all groups."""
        return int(self._weights.size)

    def probabilities(self) -> np.ndarray:
        """The implied per-slot draw probabilities (sums to 1 per group).

        Reconstructed from the ``prob``/``alias`` arrays — the distribution
        the table actually samples, used by the equivalence tests.
        """
        n = self._weights.size
        out = self._prob.copy()
        np.add.at(out, self._alias, 1.0 - self._prob)
        sizes = self._sizes[np.repeat(np.arange(self.n_groups), self._sizes)]
        return out / np.maximum(sizes, 1) if n else out

    def draw_for_groups(
        self, groups: np.ndarray, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``(len(groups), count)`` flat slot indices, one row per group.

        Every listed group must be non-empty (callers pad empty adjacency
        rows before dispatching here). Returned indices point into the flat
        ``weights`` array — for a CSR snapshot, directly into ``indices``.
        """
        if count < 0:
            raise SamplingError(f"draw count must be non-negative, got {count}")
        groups = np.asarray(groups, dtype=np.int64)
        sizes = self._sizes[groups]
        if np.any(sizes == 0):
            empty = int(groups[np.argmax(sizes == 0)])
            raise SamplingError(f"cannot draw from empty alias group {empty}")
        slot = bounded_integers(rng, sizes, count)
        flat = self._indptr[groups][:, None] + slot
        keep = rng.random((groups.size, count)) < self._prob[flat]
        return np.where(keep, flat, self._alias[flat])
