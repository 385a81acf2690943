"""Power-law utilities: sampling, fitting, and the skewness measures the
theorem tests use (``tests.conftest``)."""

import numpy as np
import pytest

from repro.utils.powerlaw import PowerLawFit, fit_power_law, sample_power_law_degrees
from repro.utils.rng import make_rng
from tests.conftest import gini_coefficient, tail_mass


def test_sample_within_bounds():
    rng = make_rng(0)
    deg = sample_power_law_degrees(5000, 2.5, 2, 100, rng)
    assert deg.min() >= 2
    assert deg.max() <= 100
    assert deg.dtype == np.int64


def test_sample_is_heavy_tailed():
    rng = make_rng(1)
    deg = sample_power_law_degrees(20_000, 2.1, 1, 2000, rng)
    # Top 10% of vertices should carry well over a third of total degree.
    assert tail_mass(deg.astype(float), 0.1) > 0.35


def test_fit_recovers_exponent_roughly():
    rng = make_rng(2)
    deg = sample_power_law_degrees(50_000, 2.5, 1, 100_000, rng)
    fit = fit_power_law(deg, xmin=5.0)
    assert 2.1 < fit.alpha < 2.9


def test_fit_requires_tail_samples():
    with pytest.raises(ValueError):
        fit_power_law(np.array([1.0, 2.0, 3.0]), xmin=10.0)


def test_fit_rejects_bad_alpha_dataclass():
    with pytest.raises(ValueError):
        PowerLawFit(alpha=0.9, xmin=1.0, n_tail=100)


def test_sample_validations():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        sample_power_law_degrees(-1, 2.5, 1, 10, rng)
    with pytest.raises(ValueError):
        sample_power_law_degrees(10, 0.9, 1, 10, rng)
    with pytest.raises(ValueError):
        sample_power_law_degrees(10, 2.5, 5, 4, rng)


def test_tail_mass_uniform_sample():
    values = np.ones(100)
    assert abs(tail_mass(values, 0.1) - 0.1) < 1e-9


def test_tail_mass_validation():
    with pytest.raises(ValueError):
        tail_mass(np.ones(10), 0.0)


def test_tail_mass_zero_total():
    assert tail_mass(np.zeros(10), 0.5) == 0.0


def test_gini_uniform_is_zero():
    assert abs(gini_coefficient(np.ones(100))) < 1e-9


def test_gini_concentrated_is_high():
    values = np.zeros(100)
    values[0] = 100.0
    assert gini_coefficient(values) > 0.9


def test_gini_rejects_negative():
    with pytest.raises(ValueError):
        gini_coefficient(np.array([-1.0, 1.0]))


def test_gini_empty_is_zero():
    assert gini_coefficient(np.array([])) == 0.0
