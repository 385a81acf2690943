"""NEGATIVE sampling: shapes, pool restriction, degree bias."""

import numpy as np
import pytest

from repro.errors import SamplingError
from repro.sampling import DegreeBiasedNegativeSampler
from repro.utils.rng import make_rng


def test_shape(tiny_graph, rng):
    sampler = DegreeBiasedNegativeSampler(tiny_graph)
    out = sampler.sample(np.array([0, 1]), 4, rng)
    assert out.shape == (2, 4)


def test_uniform_covers_pool(tiny_graph):
    sampler = DegreeBiasedNegativeSampler(tiny_graph)
    rng = make_rng(0)
    out = sampler.sample(np.zeros(2000, dtype=np.int64), 1, rng)
    assert set(np.unique(out)) == set(range(6))


def test_restricted_pool(tiny_graph, rng):
    sampler = DegreeBiasedNegativeSampler(tiny_graph, vertices=np.array([3, 4]))
    out = sampler.sample(np.array([0]), 50, rng)
    assert set(np.unique(out)) <= {3, 4}


def test_degree_bias(small_powerlaw):
    """Unigram^0.75: hubs are drawn more often than a uniform pick would."""
    sampler = DegreeBiasedNegativeSampler(small_powerlaw)
    rng = make_rng(1)
    out = sampler.sample(np.zeros(5000, dtype=np.int64), 2, rng).reshape(-1)
    degrees = small_powerlaw.out_degrees()
    assert degrees[out].mean() > degrees.mean() * 1.3


def test_non_strict_allows_collisions(tiny_graph):
    sampler = DegreeBiasedNegativeSampler(tiny_graph)
    rng = make_rng(4)
    out = sampler.sample(np.array([0] * 500), 2, rng)
    forbidden = set(tiny_graph.out_neighbors(0).tolist())
    assert any(int(v) in forbidden for v in out.reshape(-1))


def test_neg_num_validation(tiny_graph, rng):
    sampler = DegreeBiasedNegativeSampler(tiny_graph)
    with pytest.raises(SamplingError):
        sampler.sample(np.array([0]), 0, rng)
