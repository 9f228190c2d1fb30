"""Stochastic estimators of section 2.1.

Given ``L`` independent realizations of a random matrix ``[zeta_ij]``,
PARMONC reports

* the sample means ``mean_ij`` (formula (1)),
* the sample variances ``sigma2_ij = xi_ij - mean_ij**2`` where ``xi`` is
  the second-moment mean,
* the absolute errors ``eps_ij = 3 * sigma_ij / sqrt(L)`` (the half-width
  of the 0.997 confidence interval, formula (3) with gamma(0.997) = 3),
* the relative errors ``rho_ij = eps_ij / mean_ij * 100%``,

together with the upper bounds ``eps_max``, ``rho_max`` and
``sigma2_max`` over all matrix entries.  :class:`Estimates` stores the
means and variances; the two error matrices follow from them and ``L``
and are computed when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "CONFIDENCE_FACTOR",
    "CONFIDENCE_LEVEL",
    "confidence_factor",
    "Estimates",
    "estimates_from_moments",
    "computational_cost",
    "required_sample_volume",
]

#: The paper's default error multiplier: ``gamma(lambda) = 3``.
CONFIDENCE_FACTOR = 3.0

#: The confidence level corresponding to a factor of 3 under normality.
CONFIDENCE_LEVEL = 0.997


def confidence_factor(level: float) -> float:
    """Return ``gamma(level)``: the two-sided normal quantile for ``level``.

    ``confidence_factor(0.997)`` is approximately 3, the paper's choice.
    """
    if not 0.0 < level < 1.0:
        raise ConfigurationError(
            f"confidence level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf(0.5 + level / 2.0)


@dataclass(frozen=True)
class Estimates:
    """The means and variances a sample defines, and what follows from
    them: the error matrices and the upper bounds.

    Attributes:
        mean: Matrix of sample means ``[mean_ij]``.
        variance: Matrix of sample variances ``[sigma2_ij]``.
        volume: Total sample volume ``L``.
        mean_time: Mean computer time per realization in seconds
            (``tau_zeta``), 0.0 when timing was not collected.

    ``abs_error`` and ``rel_error`` are computed from ``mean``,
    ``variance`` and ``volume`` on every read, not stored: bind them
    once (or call :meth:`errors`) before a loop over their entries.
    """

    mean: np.ndarray
    variance: np.ndarray
    volume: int
    mean_time: float = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrow, ncol)`` of the realization matrix."""
        return self.mean.shape

    @property
    def abs_error(self) -> np.ndarray:
        """Matrix of absolute errors ``[eps_ij]``."""
        return CONFIDENCE_FACTOR * np.sqrt(self.variance / self.volume)

    @property
    def rel_error(self) -> np.ndarray:
        """Matrix of relative errors ``[rho_ij]`` in percent; entries
        with zero sample mean are reported as ``inf`` (0 when their
        absolute error is 0 too)."""
        return self.errors()[1]

    def errors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(abs_error, rel_error)`` from one derivation."""
        abs_error = self.abs_error
        mean = self.mean
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rel_error = np.where(
                mean != 0.0,
                np.abs(abs_error / mean) * 100.0,
                np.where(abs_error == 0.0, 0.0, np.inf))
        return abs_error, rel_error

    @property
    def abs_error_max(self) -> float:
        """``eps_max``: upper bound over the absolute-error matrix."""
        return float(np.max(self.abs_error))

    @property
    def rel_error_max(self) -> float:
        """``rho_max``: upper bound over the relative-error matrix."""
        return float(np.max(self.rel_error))

    @property
    def variance_max(self) -> float:
        """``sigma2_max``: upper bound over the variance matrix."""
        return float(np.max(self.variance))

    def confidence_interval(self, level: float = CONFIDENCE_LEVEL
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Return elementwise ``(lower, upper)`` confidence bounds.

        Implements formula (3): ``mean +- gamma(level) * sigma / sqrt(L)``.
        """
        half_width = (confidence_factor(level)
                      * np.sqrt(self.variance / self.volume))
        return self.mean - half_width, self.mean + half_width

    def __str__(self) -> str:
        abs_error, rel_error = self.errors()
        return (f"Estimates(shape={self.shape}, L={self.volume}, "
                f"eps_max={float(np.max(abs_error)):.6g}, "
                f"rho_max={float(np.max(rel_error)):.4g}%)")


def estimates_from_moments(sum1: np.ndarray, sum2: np.ndarray,
                           volume: int, total_time: float = 0.0) -> Estimates:
    """Build :class:`Estimates` from raw moment sums.

    Args:
        sum1: Elementwise sums of realizations, ``sum_i zeta_ij``.
        sum2: Elementwise sums of squares, ``sum_i zeta_ij**2``.
        volume: Sample volume ``L`` (must be positive).
        total_time: Total compute seconds spent on the ``L`` realizations.

    Variances are clipped at zero: rounding can push the difference
    ``xi - mean**2`` infinitesimally negative for (near-)deterministic
    entries.  Sums too large to square give an ``inf`` or NaN variance
    (and errors), without a numpy warning.
    """
    sum1 = np.asarray(sum1, dtype=np.float64)
    sum2 = np.asarray(sum2, dtype=np.float64)
    if sum1.shape != sum2.shape:
        raise ConfigurationError(
            f"moment matrices must share a shape, got {sum1.shape} "
            f"and {sum2.shape}")
    if volume <= 0:
        raise ConfigurationError(
            f"sample volume must be positive, got {volume}")
    mean = sum1 / volume
    second = sum2 / volume
    with np.errstate(over="ignore", invalid="ignore"):
        variance = np.maximum(second - mean ** 2, 0.0)
    return Estimates(
        mean=mean, variance=variance, volume=int(volume),
        mean_time=total_time / volume if volume else 0.0)


def computational_cost(mean_time: float, variance: float) -> float:
    """Return the estimator cost ``C(zeta) = tau_zeta * Var(zeta)`` (§2.2).

    The quantity the parallelization divides by ``M``: halving the cost
    means reaching a target error in half the computer time.
    """
    if mean_time < 0.0 or variance < 0.0:
        raise ConfigurationError(
            "mean_time and variance must be non-negative")
    return mean_time * variance


def required_sample_volume(variance: float, target_abs_error: float,
                           factor: float = CONFIDENCE_FACTOR) -> int:
    """Return the sample volume needed to reach a target absolute error.

    Inverts ``eps = factor * sqrt(variance / L)``; the proportionality of
    ``L`` to ``Var(zeta)`` is the paper's motivation for parallelizing.
    """
    if variance < 0.0:
        raise ConfigurationError(f"variance must be >= 0, got {variance}")
    if target_abs_error <= 0.0:
        raise ConfigurationError(
            f"target absolute error must be > 0, got {target_abs_error}")
    if variance == 0.0:
        return 1
    return max(1, math.ceil(factor ** 2 * variance / target_abs_error ** 2))
