"""AliasTable: O(1) weighted sampling correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SamplingError
from repro.utils.alias import AliasTable, build_alias_arrays
from repro.utils.rng import make_rng


def test_single_element_always_drawn():
    table = AliasTable(np.array([3.0]))
    rng = make_rng(0)
    assert (table.draw_batch(rng, 20) == 0).all()


def test_batch_matches_weights():
    weights = np.array([1.0, 2.0, 7.0])
    table = AliasTable(weights)
    rng = make_rng(1)
    draws = table.draw_batch(rng, 60_000)
    freq = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(freq, weights / weights.sum(), atol=0.01)


def test_zero_weight_entries_never_drawn():
    table = AliasTable(np.array([0.0, 1.0, 0.0, 1.0]))
    rng = make_rng(3)
    draws = table.draw_batch(rng, 5000)
    assert set(np.unique(draws)) <= {1, 3}


def test_uniform_weights():
    table = AliasTable(np.ones(10))
    rng = make_rng(4)
    draws = table.draw_batch(rng, 50_000)
    freq = np.bincount(draws, minlength=10) / draws.size
    np.testing.assert_allclose(freq, 0.1, atol=0.01)


def test_len():
    assert len(AliasTable(np.ones(7))) == 7


def test_rejects_empty():
    with pytest.raises(SamplingError):
        AliasTable(np.array([]))


def test_rejects_negative():
    with pytest.raises(SamplingError):
        AliasTable(np.array([1.0, -1.0]))


def test_rejects_all_zero():
    with pytest.raises(SamplingError):
        AliasTable(np.zeros(3))


def test_rejects_nan():
    with pytest.raises(SamplingError):
        AliasTable(np.array([1.0, np.nan]))


def test_rejects_2d():
    with pytest.raises(SamplingError):
        AliasTable(np.ones((2, 2)))


def test_rejects_negative_batch():
    table = AliasTable(np.ones(3))
    with pytest.raises(SamplingError):
        table.draw_batch(make_rng(0), -1)


def test_zero_batch_is_empty():
    table = AliasTable(np.ones(3))
    assert table.draw_batch(make_rng(0), 0).size == 0


# ---------------------------------------------------------------------- #
# Oracle: the all-vectorized Vose walk (one slot per active group per round)
# ---------------------------------------------------------------------- #
def vectorized_alias_arrays(weights, indptr):
    """``build_alias_arrays`` as it was before the last active group's walk
    moved onto Python floats: every round, including a single group's, is
    masked numpy gathers/scatters. Input validation is not repeated."""
    weights = np.asarray(weights, dtype=np.float64)
    indptr = np.asarray(indptr, dtype=np.int64)
    n = weights.size
    sizes = np.diff(indptr)
    cumw = np.concatenate([[0.0], np.cumsum(weights)])
    sums = cumw[indptr[1:]] - cumw[indptr[:-1]]
    prob = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    if n == 0:
        return prob, alias
    scale = np.ones_like(sums)
    nonempty = sizes > 0
    scale[nonempty] = sizes[nonempty] / sums[nonempty]
    gids = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    scaled = weights * scale[gids]
    order = np.lexsort((scaled, gids))
    lo = indptr[:-1].copy()
    hi = indptr[1:] - 1
    res = np.zeros(sizes.size, dtype=np.float64)
    res[nonempty] = scaled[order[hi[nonempty]]]
    active = np.flatnonzero(hi > lo)
    while active.size:
        case_b = res[active] < 1.0
        a = active[~case_b]
        if a.size:
            small = order[lo[a]]
            prob[small] = np.minimum(scaled[small], 1.0)
            alias[small] = order[hi[a]]
            res[a] -= 1.0 - prob[small]
            lo[a] += 1
        b = active[case_b]
        if b.size:
            head = order[hi[b]]
            prob[head] = np.maximum(res[b], 0.0)
            alias[head] = order[hi[b] - 1]
            hi[b] -= 1
            res[b] = scaled[order[hi[b]]] - (1.0 - prob[head])
        active = active[lo[active] < hi[active]]
    return prob, alias


def _assert_matches_oracle(weights, indptr):
    prob, alias = build_alias_arrays(weights, indptr)
    ref_prob, ref_alias = vectorized_alias_arrays(weights, indptr)
    assert prob.tobytes() == ref_prob.tobytes()
    np.testing.assert_array_equal(alias, ref_alias)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_build_bit_equal_to_vectorized_oracle(data):
    """Random weights x random group layouts (empty groups, singletons, one
    group outliving the rest, zeros and ties inside a group)."""
    sizes = data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=6))
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    pool = st.sampled_from([0.0, 1.0, 1.0, 0.5, 3.0]) | st.floats(1e-6, 1e6)
    weights = np.array(
        data.draw(st.lists(pool, min_size=int(indptr[-1]), max_size=int(indptr[-1]))),
        dtype=np.float64,
    )
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        if hi > lo and weights[lo:hi].sum() <= 0:
            weights[lo] = 1.0  # all-zero non-empty groups are rejected
    _assert_matches_oracle(weights, indptr)


def test_single_big_group_bit_equal_to_vectorized_oracle():
    """The degree-biased negative sampler's shape: one group, heavy tail."""
    weights = make_rng(5).pareto(1.2, size=3000) ** 0.75
    _assert_matches_oracle(weights, np.array([0, weights.size]))
    # ... and as the hub row of a CSR whose other rows retire early.
    sizes = np.array([3, 0, 2500, 1, 7, 489])
    _assert_matches_oracle(weights, np.concatenate([[0], np.cumsum(sizes)]))
