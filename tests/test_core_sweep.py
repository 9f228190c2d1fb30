"""Tests for parameter_sweep."""

from __future__ import annotations

import math

import pytest

from repro import parmonc
from repro.apps.transport import SlabProblem, make_realization
from repro.core import parameter_sweep
from repro.exceptions import ConfigurationError, RealizationError


def power_factory(exponent):
    return lambda rng: rng.random() ** exponent


class TestParameterSweep:
    def test_point_per_value_with_distinct_seqnums(self):
        sweep = parameter_sweep(power_factory, [1, 2, 3], maxsv=100)
        assert len(sweep) == 3
        assert [point.seqnum for point in sweep] == [0, 1, 2]
        assert sweep.values() == [1, 2, 3]

    def test_means_track_exact_values(self):
        # E U**k = 1/(k+1).
        sweep = parameter_sweep(power_factory, [1, 2, 4], maxsv=4000,
                                processors=2)
        for point, exponent in zip(sweep, (1, 2, 4)):
            exact = 1.0 / (exponent + 1)
            assert abs(point.mean - exact) \
                <= 3 * point.abs_error + 1e-9

    def test_points_use_independent_experiments(self):
        # Same factory value twice: the two points must differ (they
        # consumed different experiment subsequences).
        sweep = parameter_sweep(power_factory, [2, 2], maxsv=500)
        assert sweep.points[0].mean != sweep.points[1].mean

    def test_seqnum_start_offsets(self):
        sweep = parameter_sweep(power_factory, [1, 2], maxsv=50,
                                seqnum_start=10)
        assert [point.seqnum for point in sweep] == [10, 11]

    def test_reproducible(self):
        first = parameter_sweep(power_factory, [1, 3], maxsv=200)
        second = parameter_sweep(power_factory, [1, 3], maxsv=200)
        assert first.means() == second.means()

    def test_matrix_problems(self):
        def factory(depth):
            return make_realization(SlabProblem(depth=depth,
                                                absorption=1.0))

        sweep = parameter_sweep(factory, [0.5, 1.0, 2.0], maxsv=3000,
                                ncol=3, processors=2)
        transmissions = [point.result.estimates.mean[0, 0]
                         for point in sweep]
        # Transmission decays with depth, tracking exp(-depth).
        assert transmissions[0] > transmissions[1] > transmissions[2]
        assert transmissions[2] == pytest.approx(math.exp(-2.0),
                                                 abs=0.05)

    def test_table_rendering(self):
        sweep = parameter_sweep(power_factory, [1, 2], maxsv=100)
        table = sweep.table(value_label="exponent")
        assert "exponent" in table
        assert len(table.splitlines()) == 3

    @pytest.mark.parametrize("backend", ["sequential", "simcluster"])
    def test_points_match_solo_runs_byte_for_byte(self, backend):
        # One jobs=[...] batch over a shared backend; every point is the
        # solo run of its own experiments subsequence.
        sweep = parameter_sweep(power_factory, [1, 2, 3], maxsv=60,
                                seqnum_start=4, processors=3,
                                perpass=0.0, peraver=0.0, backend=backend)
        for offset, point in enumerate(sweep):
            solo = parmonc(power_factory(point.value), maxsv=60,
                           seqnum=4 + offset, processors=3, perpass=0.0,
                           peraver=0.0, backend=backend, use_files=False)
            assert point.result.total_volume == solo.total_volume == 60
            for field in ("mean", "variance", "abs_error"):
                assert (getattr(point.result.estimates, field).tobytes()
                        == getattr(solo.estimates, field).tobytes())

    def test_a_failing_point_raises(self):
        def factory(value):
            def routine(rng):
                if value == 2:
                    raise ValueError("point two")
                return rng.random()
            return routine

        with pytest.raises(RealizationError, match="point two"):
            parameter_sweep(factory, [1, 2, 3], maxsv=10)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            parameter_sweep(power_factory, [], maxsv=10)
        with pytest.raises(ConfigurationError):
            parameter_sweep(power_factory, [1], maxsv=10, seqnum=5)
        with pytest.raises(ConfigurationError):
            parameter_sweep(power_factory, [1], maxsv=10, res=1)
