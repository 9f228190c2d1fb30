"""Tests for the statistical test battery (repro.rng.testing).

Strategy: every test must (a) pass on a healthy sample from the
reference generator, (b) reject a sample crafted to violate exactly the
property it checks, and (c) validate its inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.rng.testing import (
    BatteryReport,
    autocorrelation_test,
    chi_square_uniformity,
    gap_test,
    interstream_collision_check,
    interstream_correlation_test,
    ks_uniformity,
    permutation_test,
    realization_aligned_draws,
    run_battery,
    runs_above_below_test,
    runs_up_down_test,
    serial_pairs_test,
)
from repro.rng.vectorized import VectorLcg128


@pytest.fixture
def biased_sample(uniform_sample):
    """Uniforms squashed toward zero: fails marginal-distribution tests."""
    return uniform_sample ** 2


@pytest.fixture
def correlated_sample(uniform_sample):
    """A strongly autocorrelated sequence (moving average of uniforms)."""
    return np.convolve(uniform_sample, np.ones(8) / 8.0, mode="valid")


class TestChiSquare:
    def test_passes_good_sample(self, uniform_sample):
        assert chi_square_uniformity(uniform_sample).passed

    def test_rejects_biased_sample(self, biased_sample):
        assert not chi_square_uniformity(biased_sample).passed

    def test_details(self, uniform_sample):
        result = chi_square_uniformity(uniform_sample, bins=32)
        assert result.details["dof"] == 31
        assert result.sample_size == uniform_sample.size

    def test_too_few_bins(self, uniform_sample):
        with pytest.raises(ConfigurationError):
            chi_square_uniformity(uniform_sample, bins=1)

    def test_small_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            chi_square_uniformity(np.full(10, 0.5), bins=64)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ConfigurationError):
            chi_square_uniformity(np.array([0.5] * 1000 + [1.5]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            chi_square_uniformity(np.array([]))


class TestKolmogorovSmirnov:
    def test_passes_good_sample(self, uniform_sample):
        assert ks_uniformity(uniform_sample).passed

    def test_rejects_biased_sample(self, biased_sample):
        assert not ks_uniformity(biased_sample).passed

    def test_statistic_is_max_deviation(self):
        # A sample concentrated at 0.9 has D ~ 0.9.
        result = ks_uniformity(np.full(1000, 0.9))
        assert result.statistic == pytest.approx(0.9, abs=0.01)


class TestSerialPairs:
    def test_passes_good_sample(self, uniform_sample):
        assert serial_pairs_test(uniform_sample).passed

    def test_rejects_pairwise_dependence(self, uniform_sample):
        # Duplicate each draw: pairs (x, x) live on the diagonal.
        doubled = np.repeat(uniform_sample[:20_000], 2)
        assert not serial_pairs_test(doubled).passed

    def test_grid_validation(self, uniform_sample):
        with pytest.raises(ConfigurationError):
            serial_pairs_test(uniform_sample, grid=1)

    def test_small_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            serial_pairs_test(np.full(100, 0.5), grid=8)


class TestRuns:
    def test_above_below_passes_good_sample(self, uniform_sample):
        assert runs_above_below_test(uniform_sample).passed

    def test_above_below_rejects_alternation(self):
        values = np.tile([0.2, 0.8], 5000)
        assert not runs_above_below_test(values).passed

    def test_above_below_rejects_blocks(self):
        values = np.concatenate([np.full(5000, 0.2), np.full(5000, 0.8)])
        assert not runs_above_below_test(values).passed

    def test_above_below_degenerate_sample(self):
        result = runs_above_below_test(np.full(100, 0.9))
        assert not result.passed
        assert result.p_value == 0.0

    def test_up_down_passes_good_sample(self, uniform_sample):
        assert runs_up_down_test(uniform_sample).passed

    def test_up_down_rejects_monotone_sections(self, uniform_sample):
        sorted_blocks = np.sort(
            uniform_sample[:10_000].reshape(100, 100), axis=1).ravel()
        assert not runs_up_down_test(sorted_blocks).passed

    def test_minimum_size(self):
        with pytest.raises(ConfigurationError):
            runs_above_below_test(np.full(5, 0.5))
        with pytest.raises(ConfigurationError):
            runs_up_down_test(np.full(5, 0.5))


class TestGap:
    def test_passes_good_sample(self, uniform_sample):
        assert gap_test(uniform_sample).passed

    def test_rejects_periodic_marker_hits(self):
        # Marker interval hit exactly every 4th draw: gaps are constant.
        values = np.tile([0.25, 0.75, 0.8, 0.9], 10_000)
        assert not gap_test(values, low=0.0, high=0.5).passed

    def test_interval_validation(self, uniform_sample):
        with pytest.raises(ConfigurationError):
            gap_test(uniform_sample, low=0.5, high=0.5)
        with pytest.raises(ConfigurationError):
            gap_test(uniform_sample, low=-0.1, high=0.5)

    def test_adaptive_max_gap(self, uniform_sample):
        result = gap_test(uniform_sample[:5000])
        assert result.details["max_gap"] >= 1

    def test_explicit_max_gap_too_large(self):
        with pytest.raises(ConfigurationError):
            gap_test(np.tile([0.25, 0.75], 100), max_gap=40)


class TestAutocorrelation:
    def test_passes_good_sample(self, uniform_sample):
        assert autocorrelation_test(uniform_sample, lag=1).passed
        assert autocorrelation_test(uniform_sample, lag=13).passed

    def test_rejects_moving_average(self, correlated_sample):
        assert not autocorrelation_test(correlated_sample, lag=1).passed

    def test_constant_sample_rejected_with_p_zero(self):
        result = autocorrelation_test(np.full(1000, 0.5))
        assert result.p_value == 0.0

    def test_lag_validation(self, uniform_sample):
        with pytest.raises(ConfigurationError):
            autocorrelation_test(uniform_sample, lag=0)
        with pytest.raises(ConfigurationError):
            autocorrelation_test(np.full(10, 0.5), lag=5)


class TestPermutation:
    def test_passes_good_sample(self, uniform_sample):
        assert permutation_test(uniform_sample).passed

    def test_rejects_sawtooth(self):
        # Strictly increasing inside every tuple: one ordering only.
        values = np.tile([0.1, 0.5, 0.9], 5000)
        values = values + np.random.default_rng(0).uniform(
            0, 1e-6, values.size)
        assert not permutation_test(values, tuple_size=3).passed

    def test_tuple_size_validation(self, uniform_sample):
        with pytest.raises(ConfigurationError):
            permutation_test(uniform_sample, tuple_size=1)
        with pytest.raises(ConfigurationError):
            permutation_test(uniform_sample, tuple_size=7)

    def test_small_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            permutation_test(np.full(20, 0.5), tuple_size=4)


class TestInterstream:
    def test_consecutive_pairs_pass_and_aligned_pairs_rotate(self, tree):
        # The default hierarchy as it is: rank 1's realization r is rank
        # 0's rotated by one constant, for every r.  A consecutive
        # (serial) pairing of the same streams cannot see it.
        consecutive = (VectorLcg128(tree.rng(0, p, 0)).uniforms(20_000)
                       for p in (0, 1))
        assert interstream_correlation_test(*consecutive).passed
        a, b = realization_aligned_draws(tree, (0, 0), (0, 1), 4000)
        _, c = realization_aligned_draws(tree, (0, 0), (1, 0), 4000)
        rotation = np.mod(b - a, 1.0)
        assert np.all(rotation == rotation[0])
        assert rotation[0] == pytest.approx(0.3134300, abs=1e-7)
        aligned = interstream_correlation_test(a, b)
        assert aligned.details["r"] == pytest.approx(-0.28, abs=0.01)
        assert not aligned.passed
        across = interstream_correlation_test(a, c)
        assert across.details["r"] == pytest.approx(0.49, abs=0.01)
        assert not across.passed

    def test_identical_streams_rejected(self, uniform_sample):
        result = interstream_correlation_test(uniform_sample,
                                              uniform_sample)
        assert not result.passed

    def test_shape_validation(self, uniform_sample):
        with pytest.raises(ConfigurationError):
            interstream_correlation_test(uniform_sample,
                                         uniform_sample[:-1])

    def test_collision_check_passes_within_budget(self, tree):
        result = interstream_collision_check(
            tree, experiment=0, processors=512,
            draws_per_processor=10 ** 12)
        assert result.passed
        assert result.details["arithmetic_ok"]

    def test_collision_check_fails_beyond_budget(self, tree):
        result = interstream_collision_check(
            tree, experiment=0, processors=2,
            draws_per_processor=tree.leaps.processor_leap + 1)
        assert not result.passed

    def test_collision_check_capacity_guard(self, tree):
        with pytest.raises(ConfigurationError):
            interstream_collision_check(
                tree, experiment=0, processors=2 ** 18,
                draws_per_processor=10)


class TestBattery:
    def test_reference_generator_passes(self, uniform_sample):
        report = run_battery(uniform_sample, "rnd128")
        assert isinstance(report, BatteryReport)
        assert report.all_passed, report.render()

    def test_bad_generator_fails_most_tests(self, biased_sample):
        report = run_battery(biased_sample, "biased")
        assert report.n_failed >= 3

    def test_subset_selection(self, uniform_sample):
        report = run_battery(uniform_sample, tests=["chi_square", "ks"])
        assert len(report.results) == 2

    def test_unknown_test_rejected(self, uniform_sample):
        with pytest.raises(ConfigurationError):
            run_battery(uniform_sample, tests=["nope"])

    def test_render_contains_summary(self, uniform_sample):
        report = run_battery(uniform_sample, "demo",
                             tests=["chi_square"])
        rendered = report.render()
        assert "demo" in rendered
        assert "1/1 tests passed" in rendered
        assert str(report) == rendered

    def test_result_str_marks_failures(self, biased_sample):
        result = chi_square_uniformity(biased_sample)
        assert "FAIL" in str(result)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ConfigurationError):
            run_battery(np.full((10, 10), 0.5))
