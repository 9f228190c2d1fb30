"""The result files' vectorized ``% .15e`` / ``% .6e``: CPython's bytes.

``func.dat`` and ``func_ci.dat`` are rendered by numpy (long-double
scaling, table digits) whenever the entries and the platform allow it,
and by ``%`` otherwise.  These tests pin the awkward inputs of the fast
path against ``%`` itself, and need numpy and pytest only.
``test_runtime_files.py::TestRendererIdentity`` is the oracle over
every float64, fast path or not.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.runtime import files
from repro.runtime.files import (
    DataDirectory,
    render_ci_table,
    render_mean_matrix,
)
from repro.stats.estimators import Estimates


def python_rows(values, precision):
    template = f"% .{precision}e"
    return "".join(template % value
                   for value in np.ravel(values).tolist()).encode("ascii")


def assert_fast_and_exact(values, precision):
    rows = files._scientific(np.asarray(values, dtype=np.float64),
                             precision)
    assert rows is not None, "the fast path refused these entries"
    assert rows.shape[1] == precision + 7
    assert rows.tobytes() == python_rows(values, precision)


def reference_mean_matrix(estimates):
    return "".join(" ".join(f"{value: .15e}" for value in row) + "\n"
                   for row in estimates.mean)


def reference_ci_table(estimates):
    lines = ["# i j mean abs_error rel_error_percent variance\n"]
    nrow, ncol = estimates.shape
    for i in range(nrow):
        for j in range(ncol):
            lines.append(f"{i + 1} {j + 1} "
                         f"{estimates.mean[i, j]: .15e} "
                         f"{estimates.abs_error[i, j]: .15e} "
                         f"{estimates.rel_error[i, j]: .6e} "
                         f"{estimates.variance[i, j]: .15e}\n")
    return "".join(lines)


def assert_files_match(estimates):
    assert render_mean_matrix(estimates) == reference_mean_matrix(estimates)
    assert render_ci_table(estimates) == reference_ci_table(estimates)


def fig2_estimates():
    values = np.random.default_rng(5).standard_normal((4, 1000, 2))
    return Estimates(*(values * 10.0 ** np.arange(-6, 2, 2)
                       .reshape(4, 1, 1)), volume=9)


class TestPowerTable:
    def test_every_power_is_correctly_rounded(self):
        tables = files._format_tables()
        assert tables is not None, "long double narrower than 64 bits"
        exponents = range(files._POWER_LOW, files._POWER_HIGH)
        for n, power in zip(exponents, tables.powers):
            exact = Fraction(10) ** n
            binary = (exact.numerator.bit_length()
                      - exact.denominator.bit_length())
            if Fraction(2) ** binary > exact:
                binary -= 1
            scale = Fraction(2) ** (63 - binary)
            assert Fraction(*power.as_integer_ratio()) \
                == Fraction(round(exact * scale)) / scale, n


class TestFastPathBytes:
    def test_exact_ties_at_sixteen_digits(self):
        # D + 0.5 is exact below 2**52: a tie on the 17th digit.
        mantissas = np.random.default_rng(1).integers(
            10 ** 15, 2 ** 52, 2000).astype(np.float64)
        ties = mantissas + 0.5
        for values in (ties, -ties, np.nextafter(ties, 0),
                       np.nextafter(ties, np.inf)):
            assert_fast_and_exact(values, 15)

    def test_exact_ties_at_seven_digits(self):
        rng = np.random.default_rng(2)
        for m in range(14):
            mantissas = rng.integers(10 ** 6, 10 ** 7, 200)
            # (D + 0.5) * 10**m, exact while it has < 53 bits.
            ties = (2 * mantissas + 1) * 5.0 ** m * 2.0 ** (m - 1)
            for values in (ties, -ties, np.nextafter(ties, 0),
                           np.nextafter(ties, np.inf)):
                assert_fast_and_exact(values, 6)

    def test_decade_edges(self):
        # The double nearest 9.9999999999999995e-01 is 1.0; the powers
        # of ten and their neighbours sit on the edge the scaling has
        # to get right, from 1e-99 to the last two-digit exponent.
        powers = np.array([float(f"1e{k}") for k in range(-99, 100)])
        near = [powers]
        below, above = powers, powers
        for _ in range(8):
            below = np.nextafter(below, 0)
            above = np.nextafter(above, np.inf)
            near += [below[1:], above[:-1]]
        values = np.concatenate(near + [[9.9999999999999995e-01,
                                         9.999999999999999e99]])
        assert_fast_and_exact(values, 15)
        assert_fast_and_exact(values[values < 9.9e99], 6)

    def test_carries_into_the_next_decade(self):
        carries = [9.9999996e5, 9.99999951e-1, -9.9999999e-7,
                   9.9999999e98, 0.99999999999999994]
        assert python_rows(carries[:4], 6).count(b"1.000000e") == 4
        assert_fast_and_exact(carries, 6)
        assert_fast_and_exact(carries, 15)

    def test_near_ties_and_round_values(self):
        # Within _MARGIN of a tie but not on it: the long-double scaling
        # alone rounds each of the first entries the wrong way (found
        # among "<digits>5e<k>" strings with _MARGIN set to 0).
        round_values = [0.5, 1e15, 1e-5, 9.9e99, -9.9e99]
        assert_fast_and_exact([9.082745729398241e+96, 1.2176573547284155e+35,
                               3.8579917145287355e+89, 2.6328430005533225e-98,
                               8.442821576325583e+30] + round_values, 15)
        assert_fast_and_exact([5.6854335e-74, 6.9863425e+92, 1.3045265e+35,
                               4.9020015e-48] + round_values, 6)

    def test_signed_zeros_and_exponent_edges(self):
        values = [0.0, -0.0, 1e-99, -1e-99, 9.999999999999999e99,
                  -9.999999999999999e99, 1.0, -1.0]
        assert python_rows(values, 15)[:44] \
            == b" 0.000000000000000e+00-0.000000000000000e+00"
        assert_fast_and_exact(values, 15)
        assert_fast_and_exact(values[:4], 6)


class TestFallback:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e100,
                                       -1e200, 9.9e-100, 5e-324])
    def test_what_the_fast_path_cannot_take(self, value):
        matrix = np.array([[1.5, value]])
        assert files._scientific(matrix, 15) is None
        estimates = Estimates(matrix, matrix, matrix, matrix, volume=3)
        assert_files_match(estimates)

    def test_a_three_digit_exponent_after_rounding(self):
        # Two-digit at 16 digits, 1.000000e+100 at 7.
        matrix = np.array([[9.999999999999999e99, 2.0]])
        assert files._scientific(matrix, 15) is not None
        assert files._scientific(matrix, 6) is None
        assert_files_match(Estimates(matrix, matrix, matrix, matrix,
                                     volume=3))

    def test_narrow_long_double_writes_the_same_bytes(self, monkeypatch):
        estimates = fig2_estimates()
        fast = (render_mean_matrix(estimates), render_ci_table(estimates))
        monkeypatch.setattr(files, "_tables", False)
        assert files._scientific(estimates.mean, 15) is None
        assert (render_mean_matrix(estimates),
                render_ci_table(estimates)) == fast


class TestResultFiles:
    def test_fig2_shape(self, tmp_path):
        estimates = fig2_estimates()
        assert files._cells(estimates) is not None
        assert_files_match(estimates)
        data = DataDirectory(tmp_path)
        data.write_results(estimates, seqnum=0, processors=2, sessions=1)
        results = tmp_path / "parmonc_data" / "results"
        assert (results / "func.dat").read_text() \
            == reference_mean_matrix(estimates)
        assert (results / "func_ci.dat").read_text() \
            == reference_ci_table(estimates)

    @pytest.mark.parametrize("shape", [(1, 1), (9, 9), (10, 10), (12, 11),
                                       (101, 3), (3, 101), (1000, 1)])
    def test_index_widths(self, shape):
        values = np.random.default_rng(sum(shape)).standard_normal(
            (4,) + shape)
        assert_files_match(Estimates(*values, volume=2))


def test_finite_two_digit_exponent_matrices_take_the_fast_path():
    # Row k of each matrix: random mantissas times 10**(k - 99), so
    # the matrices span the whole range, 1e-99 to 9.9e99.
    rng = np.random.default_rng(17)
    exponents = np.arange(-99, 100).reshape(-1, 1)
    for ncol in (1, 7, 40):
        mantissas = rng.uniform(1.0, 10.0, (4, len(exponents), ncol))
        signs = rng.choice([-1.0, 1.0], mantissas.shape)
        estimates = Estimates(*signs * np.minimum(
            mantissas * 10.0 ** exponents, 9.9e99), volume=7)
        assert files._cells(estimates) is not None
        assert_files_match(estimates)
