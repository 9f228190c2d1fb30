"""Tests for repro.stats.estimators: the §2.1 formulas."""

from __future__ import annotations

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ConfigurationError
from repro.stats.estimators import (
    CONFIDENCE_FACTOR,
    CONFIDENCE_LEVEL,
    computational_cost,
    confidence_factor,
    estimates_from_moments,
    required_sample_volume,
)


def make_estimates(values):
    """Estimates for a 1x1 problem from a list of realizations."""
    values = np.asarray(values, dtype=np.float64)
    return estimates_from_moments(
        np.array([[values.sum()]]), np.array([[np.sum(values ** 2)]]),
        values.size)


class TestFormulas:
    def test_sample_mean_formula_1(self):
        estimates = make_estimates([1.0, 2.0, 3.0, 4.0])
        assert estimates.mean[0, 0] == pytest.approx(2.5)

    def test_sample_variance(self):
        # sigma**2 = xi - mean**2 with xi the second-moment mean.
        values = [1.0, 2.0, 3.0, 4.0]
        estimates = make_estimates(values)
        expected = np.mean(np.square(values)) - 2.5 ** 2
        assert estimates.variance[0, 0] == pytest.approx(expected)

    def test_absolute_error_three_sigma(self):
        values = [0.0, 1.0] * 50
        estimates = make_estimates(values)
        sigma = math.sqrt(0.25)
        assert estimates.abs_error[0, 0] == pytest.approx(
            3.0 * sigma / math.sqrt(100))

    def test_relative_error_percent(self):
        values = [0.0, 1.0] * 50
        estimates = make_estimates(values)
        assert estimates.rel_error[0, 0] == pytest.approx(
            estimates.abs_error[0, 0] / 0.5 * 100.0)

    def test_zero_mean_relative_error_is_inf(self):
        estimates = make_estimates([-1.0, 1.0])
        assert np.isinf(estimates.rel_error[0, 0])

    def test_constant_zero_sample_relative_error_is_zero(self):
        estimates = make_estimates([0.0, 0.0, 0.0])
        assert estimates.rel_error[0, 0] == 0.0
        assert estimates.variance[0, 0] == 0.0

    def test_variance_clipped_at_zero(self):
        # A constant sample can produce a tiny negative difference in
        # floating point; the variance must never be negative.
        value = 0.1234567890123456
        estimates = make_estimates([value] * 1000)
        assert estimates.variance[0, 0] >= 0.0

    def test_mean_time(self):
        estimates = estimates_from_moments(
            np.array([[10.0]]), np.array([[60.0]]), 5, total_time=2.5)
        assert estimates.mean_time == pytest.approx(0.5)


class TestEstimatesContainer:
    def test_matrix_shape_and_bounds(self):
        sum1 = np.array([[2.0, 4.0], [6.0, 0.0]])
        sum2 = np.array([[4.0, 16.0], [36.0, 2.0]])
        estimates = estimates_from_moments(sum1, sum2, 2)
        assert estimates.shape == (2, 2)
        assert estimates.abs_error_max == estimates.abs_error.max()
        assert estimates.variance_max == estimates.variance.max()
        assert np.isinf(estimates.rel_error_max)

    def test_confidence_interval_formula_3(self):
        values = [0.0, 1.0] * 200
        estimates = make_estimates(values)
        lower, upper = estimates.confidence_interval()
        half = CONFIDENCE_FACTOR * math.sqrt(
            estimates.variance[0, 0] / estimates.volume)
        # gamma(0.997) is 2.9677; the paper rounds it to 3.
        assert (upper - lower)[0, 0] == pytest.approx(
            2 * confidence_factor(CONFIDENCE_LEVEL)
            * math.sqrt(estimates.variance[0, 0] / estimates.volume))
        assert (upper - lower)[0, 0] == pytest.approx(2 * half, rel=0.02)

    def test_str(self):
        estimates = make_estimates([1.0, 2.0])
        text = str(estimates)
        assert "L=2" in text

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            estimates_from_moments(np.zeros((2, 2)), np.zeros((2, 3)), 5)

    def test_zero_volume_rejected(self):
        with pytest.raises(ConfigurationError):
            estimates_from_moments(np.zeros((1, 1)), np.zeros((1, 1)), 0)


def eager_errors(mean, variance, volume):
    """The error matrices as ``estimates_from_moments`` once stored them."""
    abs_error = CONFIDENCE_FACTOR * np.sqrt(variance / volume)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_error = np.where(
            mean != 0.0,
            np.abs(abs_error / mean) * 100.0,
            np.where(abs_error == 0.0, 0.0, np.inf))
    return abs_error, rel_error


def assert_errors_are_eager(estimates):
    expected = [matrix.tobytes() for matrix in eager_errors(
        estimates.mean, estimates.variance, estimates.volume)]
    assert [estimates.abs_error.tobytes(),
            estimates.rel_error.tobytes()] == expected
    assert [matrix.tobytes() for matrix in estimates.errors()] == expected


_SHAPE = (3, 2)
#: Sums with zeros of both signs (zero means), and sums of squares up
#: to an overflowed ``inf``.
_sum1 = hnp.arrays(np.float64, _SHAPE, elements=st.one_of(
    st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 1.0, -3.0])))
_sum2 = hnp.arrays(np.float64, _SHAPE, elements=st.one_of(
    st.floats(0.0, 1e300), st.sampled_from([0.0, 1.0, 9.0, np.inf])))
_volume = st.one_of(st.sampled_from([1, 2, 2 ** 53 - 1]),
                    st.integers(1, 2 ** 53 - 1))


class TestErrorsWhenRead:
    """``abs_error`` and ``rel_error`` are computed when read, from the
    stored means and variances: the bits the eager formula stored."""

    @settings(max_examples=200, deadline=None)
    @given(_sum1, _sum2, _volume, _sum2)
    # Zero means: rho = inf beside a nonzero variance, rho = 0 beside
    # a zero one; a constant sample (zero variance) at L = 1 and L = 2;
    # overflowed sums of squares; the largest exact L.
    @example(np.array([[0.0, -0.0], [0.0, 1.0], [3.0, -3.0]]),
             np.array([[4.0, 0.0], [0.0, 1.0], [9.0, 9.0]]), 1,
             np.zeros(_SHAPE))
    @example(np.full(_SHAPE, 6.0), np.full(_SHAPE, 18.0), 2,
             np.full(_SHAPE, np.inf))
    @example(np.full(_SHAPE, 1e300), np.full(_SHAPE, np.inf), 2 ** 53 - 1,
             np.full(_SHAPE, 1e-300))
    def test_errors_match_the_eager_formula(self, sum1, sum2, volume,
                                            other_variance):
        # Huge sums overflow ``mean ** 2`` and ``eps / mean`` to inf, as
        # they did when the errors were stored.
        with np.errstate(over="ignore", invalid="ignore"):
            self.check(sum1, sum2, volume, other_variance)

    def test_an_overflowed_sample_warns_nothing(self):
        # mean ** 2 overflows, inf - inf is NaN and eps / mean overflows:
        # no numpy warning, and the bits the warning-raising code gave.
        sum1 = np.array([[1e200, -1e200, 1e160, 3.0, 1e-300]])
        sum2 = np.array([[np.inf, 1e300, 1e308, 9.0, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimates = estimates_from_moments(sum1, sum2, 3)
            abs_error, rel_error = estimates.errors()
            str(estimates)
        assert [matrix.tobytes().hex() for matrix in (
            estimates.mean, estimates.variance, abs_error, rel_error)] == [
            "238374cacbde5b69238374cacbde5be9045195dc1a590e61"
            "000000000000f03fcc99f603d5928c01",
            "000000000000f8ff00000000000000000000000000000000"
            "0000000000000040d09c0060fbda1f7e",
            "000000000000f8ff00000000000000000000000000000000"
            "2e2109148e980340b096502e358d135f",
            "000000000000f87f00000000000000000000000000000000"
            "d8434eff5d9e6e40000000000000f07f"]

    def check(self, sum1, sum2, volume, other_variance):
        estimates = estimates_from_moments(sum1, sum2, volume)
        assert_errors_are_eager(estimates)
        copy = pickle.loads(pickle.dumps(estimates))
        assert_errors_are_eager(copy)
        assert copy.abs_error.tobytes() == estimates.abs_error.tobytes()
        replaced = dataclasses.replace(estimates, variance=other_variance)
        assert_errors_are_eager(replaced)
        assert replaced.abs_error.tobytes() == eager_errors(
            estimates.mean, other_variance, volume)[0].tobytes()


class TestConfidenceFactor:
    def test_paper_value_0997_is_about_3(self):
        # "According to Tables of a standard normal distribution,
        # gamma(lambda) = 3 for lambda = 0.997".
        assert confidence_factor(0.997) == pytest.approx(3.0, abs=0.04)

    def test_095_is_about_196(self):
        assert confidence_factor(0.95) == pytest.approx(1.96, abs=0.01)

    def test_monotone_in_level(self):
        assert confidence_factor(0.99) > confidence_factor(0.9)

    def test_invalid_level(self):
        with pytest.raises(ConfigurationError):
            confidence_factor(1.0)
        with pytest.raises(ConfigurationError):
            confidence_factor(0.0)


class TestCostAndVolume:
    def test_cost_definition(self):
        # C(zeta) = tau * Var(zeta), §2.2.
        assert computational_cost(7.7, 2.0) == pytest.approx(15.4)

    def test_cost_validation(self):
        with pytest.raises(ConfigurationError):
            computational_cost(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            computational_cost(1.0, -1.0)

    def test_required_volume_inverts_error_formula(self):
        variance = 4.0
        target = 0.01
        volume = required_sample_volume(variance, target)
        achieved = CONFIDENCE_FACTOR * math.sqrt(variance / volume)
        assert achieved <= target
        # And one fewer realization would miss the target.
        almost = CONFIDENCE_FACTOR * math.sqrt(variance / (volume - 1))
        assert almost > target

    def test_required_volume_proportional_to_variance(self):
        # §2.2: "the sample volume L needed ... is proportional to the
        # variance Var zeta".
        v1 = required_sample_volume(1.0, 0.01)
        v4 = required_sample_volume(4.0, 0.01)
        assert v4 == pytest.approx(4 * v1, rel=0.001)

    def test_required_volume_zero_variance(self):
        assert required_sample_volume(0.0, 0.01) == 1

    def test_required_volume_validation(self):
        with pytest.raises(ConfigurationError):
            required_sample_volume(-1.0, 0.1)
        with pytest.raises(ConfigurationError):
            required_sample_volume(1.0, 0.0)


class TestStatisticalSoundness:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_mean_variance_match_numpy(self, seed):
        generator = np.random.default_rng(seed)
        values = generator.normal(size=200)
        estimates = make_estimates(values)
        assert estimates.mean[0, 0] == pytest.approx(values.mean())
        assert estimates.variance[0, 0] == pytest.approx(
            values.var(), rel=1e-9, abs=1e-12)
