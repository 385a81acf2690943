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


def choice_cdf(weights: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice(n, p=weights / weights.sum())`` searches.

    ``cdf.searchsorted(rng.random(k), side="right")`` draws the same ``k``
    indices, from the same stream, as ``k`` such ``choice`` calls: build one
    per pool, then draw a whole batch from it.
    """
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


#: Draws below which :func:`bounded_integers` hands the call to
#: ``rng.integers``: under that, the array path's fixed cost (three trips
#: through ``bit_generator.state``, a ``random_raw`` call and about a dozen
#: array operations) outweighs numpy's per-element loop (DESIGN §8).
FEW_DRAWS = 700

_LOW32 = 0xFFFFFFFF


def bounded_integers(
    rng: np.random.Generator, high: np.ndarray, count: "int | None" = None
) -> np.ndarray:
    """``rng.integers(0, high)`` at array speed, bit for bit.

    ``high`` is a 1-D int64 array of exclusive bounds, each at least 1.
    Without ``count`` this returns ``rng.integers(0, high)``; with it,
    ``rng.integers(0, high[:, None], size=(high.size, count))``, ``count``
    draws per bound. Either way the values *and* the generator's state
    afterwards are exactly the ones that call leaves.

    numpy draws an array of bounds one element at a time. A bound ``h > 1``
    takes one 32-bit half of the PCG64 stream (a buffered high half first,
    then the low and the high half of each fresh word), multiplies it by
    ``h`` and keeps the product's high word, redrawing while the low word
    is below ``2**32 % h`` (Lemire's method); a bound of 1 returns 0 and
    draws nothing. This runs the same arithmetic over whole arrays: one
    ``random_raw`` call, one multiply, and each rejection resolved where it
    happens, every later element then reading the stream one half later.
    Below :data:`FEW_DRAWS` draws, for a bit generator other than PCG64,
    and for a bound of 2**31 or more (the int64 product could overflow) it
    calls ``rng.integers`` itself.
    """
    high = np.asarray(high, dtype=np.int64)
    shape = high.shape if count is None else (high.size, count)
    draws = high.size if count is None else high.size * count
    bit_generator = rng.bit_generator
    if draws >= FEW_DRAWS and isinstance(bit_generator, np.random.PCG64):
        least, top = (high.min(), high.max()) if high.size else (1, 1)
        if least >= 1 and top < 1 << 31:  # else numpy raises, or int64 could overflow
            cols = 1 if count is None else count
            return _lemire(bit_generator, high, cols, least > 1, top).reshape(shape)
    return rng.integers(0, high if count is None else high[:, None], size=shape)


def _lemire(
    bit_generator: np.random.PCG64, high: np.ndarray, cols: int, all_draw: bool, top: int
) -> np.ndarray:
    """``(high.size, cols)`` draws below ``high`` (each in ``[1, 2**31)``,
    ``top`` the largest), row by row, exactly as numpy's bounded loop makes
    them; ``all_draw`` says no bound is 1."""
    rows = None if all_draw else np.flatnonzero(high > 1)
    bounds = np.repeat(high if rows is None else high[rows], cols)  # one per draw
    need = bounds.size
    if not need:
        return np.zeros((high.size, cols), dtype=np.int64)
    state = bit_generator.state
    buffered = state["has_uint32"]
    stream = _halves(bit_generator, (need - buffered + 1) // 2)
    if buffered:
        stream = np.concatenate((np.array([state["uinteger"]], dtype=np.uint32), stream))
    product = stream[:need] * bounds
    drawn = product >> 32
    used = need
    # The rejection threshold 2**32 % h is below h: only a low word below
    # the largest bound can reject, which is rare and then checked exactly.
    low = product & _LOW32
    if low.min() < top:
        maybe = np.flatnonzero(low < bounds)
        rejected = maybe[low[maybe] < (1 << 32) % bounds[maybe]]
        if rejected.size:
            # The rejecting element and every later one read the stream one
            # half later, and each further rejection shifts the rest again;
            # words are drawn only as they are needed.
            threshold = (1 << 32) % bounds
            at = int(rejected[0])
            used = at + 1
            while True:
                short = used + need - at - stream.size
                if short > 0:
                    stream = np.concatenate((stream, _halves(bit_generator, (short + 1) // 2)))
                product = stream[used : used + need - at] * bounds[at:]
                bad = np.flatnonzero((product & _LOW32) < threshold[at:])
                ok = int(bad[0]) if bad.size else need - at
                drawn[at : at + ok] = product[:ok] >> 32
                at += ok
                used += ok
                if at == need:
                    break
                used += 1  # element ``at`` rejected that half
    fresh = used - buffered
    state = bit_generator.state
    state["has_uint32"] = fresh & 1
    if fresh:  # numpy leaves the last word's high half behind, used or not
        state["uinteger"] = int(stream[-1])
    bit_generator.state = state
    if rows is None:
        return drawn.reshape(high.size, cols)
    out = np.zeros((high.size, cols), dtype=np.int64)
    out[rows] = drawn.reshape(rows.size, cols)
    return out


def _halves(bit_generator: np.random.PCG64, words: int) -> np.ndarray:
    """``words`` fresh PCG64 outputs as the 32-bit halves numpy's bounded
    draws consume: each word's low half, then its high half."""
    return bit_generator.random_raw(words).astype("<u8", copy=False).view("<u4")

