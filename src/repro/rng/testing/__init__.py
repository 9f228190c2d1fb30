"""Statistical test battery for base random number generators.

The paper states that the PARMONC generator "was verified on parallel
processors using rigorous statistical testing" but prints no table; this
package reconstructs that verification.  Every test is a pure function
from a sample of uniforms (and parameters) to a :class:`TestResult`
carrying the statistic, the p-value and a pass/fail verdict, so tests
compose into the :func:`run_battery` report used by the RNG-quality
benchmark.
"""

from __future__ import annotations

from repro.rng.testing.result import TestResult, SignificanceError
from repro.rng.testing.birthday import (
    birthday_spacings_test,
    collision_test,
    maximum_of_t_test,
)
from repro.rng.testing.frequency import chi_square_uniformity, ks_uniformity
from repro.rng.testing.serial import serial_pairs_test
from repro.rng.testing.runs import runs_above_below_test, runs_up_down_test
from repro.rng.testing.gap import gap_test
from repro.rng.testing.autocorrelation import autocorrelation_test
from repro.rng.testing.permutation import permutation_test
from repro.rng.testing.interstream import (
    interstream_correlation_test,
    interstream_collision_check,
    realization_aligned_draws,
)
from repro.rng.testing.twolevel import (
    two_level_substream_test,
    two_level_test,
)
from repro.rng.testing.battery import BatteryReport, run_battery, STANDARD_TESTS

__all__ = [
    "TestResult",
    "SignificanceError",
    "chi_square_uniformity",
    "ks_uniformity",
    "birthday_spacings_test",
    "collision_test",
    "maximum_of_t_test",
    "serial_pairs_test",
    "runs_above_below_test",
    "runs_up_down_test",
    "gap_test",
    "autocorrelation_test",
    "permutation_test",
    "interstream_correlation_test",
    "interstream_collision_check",
    "realization_aligned_draws",
    "two_level_test",
    "two_level_substream_test",
    "BatteryReport",
    "run_battery",
    "STANDARD_TESTS",
]
