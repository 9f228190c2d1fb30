"""Comparing estimators: is method A really better than method B?

Variance-reduction claims and cross-configuration comparisons need
more than eyeballing two numbers.  These helpers work directly on the
summary statistics PARMONC already computes (means, variances, sample
volumes per matrix entry), so two finished runs can be compared without
re-simulating.

The two tests need scipy (``t.sf``, ``f.cdf``); it is imported inside
them so that importing the package does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.stats.estimators import Estimates

__all__ = ["ComparisonResult", "compare_means", "compare_variances",
           "efficiency_gain"]


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of a two-estimator comparison.

    Attributes:
        statistic: The test statistic (Welch t, or the F ratio).
        p_value: Two-sided p-value.
        alpha: Significance level used for :attr:`significant`.
        detail: Human-readable one-liner.
    """

    statistic: float
    p_value: float
    alpha: float
    detail: str

    @property
    def significant(self) -> bool:
        """Whether the difference is significant at level ``alpha``."""
        return self.p_value < self.alpha

    def __str__(self) -> str:
        verdict = ("significant" if self.significant
                   else "not significant")
        return (f"{self.detail}  (stat={self.statistic:.4f}, "
                f"p={self.p_value:.4g}, {verdict} at "
                f"alpha={self.alpha})")


def _entry(estimates: Estimates, row: int, col: int
           ) -> tuple[float, float, int]:
    shape = estimates.shape
    if not (0 <= row < shape[0] and 0 <= col < shape[1]):
        raise ConfigurationError(
            f"entry ({row}, {col}) outside matrix shape {shape}")
    return (float(estimates.mean[row, col]),
            float(estimates.variance[row, col]), estimates.volume)


def compare_means(a: Estimates, b: Estimates, row: int = 0, col: int = 0,
                  alpha: float = 0.01) -> ComparisonResult:
    """Welch's test for equality of two estimated expectations.

    Both estimators must target the *same* quantity (e.g. a plain and a
    variance-reduced run of one problem); a significant result flags a
    bug — a bias introduced by one of the methods.
    """
    mean_a, var_a, n_a = _entry(a, row, col)
    mean_b, var_b, n_b = _entry(b, row, col)
    if n_a < 2 or n_b < 2:
        raise ConfigurationError(
            "comparison needs at least 2 realizations per estimator")
    se_sq = var_a / n_a + var_b / n_b
    if se_sq == 0.0:
        same = mean_a == mean_b
        return ComparisonResult(
            statistic=0.0 if same else math.inf,
            p_value=1.0 if same else 0.0, alpha=alpha,
            detail=f"means {mean_a:.6g} vs {mean_b:.6g} "
                   f"(both deterministic)")
    statistic = (mean_a - mean_b) / math.sqrt(se_sq)
    # Welch–Satterthwaite degrees of freedom.
    numerator = se_sq ** 2
    denominator = ((var_a / n_a) ** 2 / max(n_a - 1, 1)
                   + (var_b / n_b) ** 2 / max(n_b - 1, 1))
    df = numerator / denominator if denominator > 0 else n_a + n_b - 2
    from scipy.stats import t
    p_value = float(2.0 * t.sf(abs(statistic), df))
    return ComparisonResult(
        statistic=float(statistic), p_value=p_value, alpha=alpha,
        detail=f"means {mean_a:.6g} vs {mean_b:.6g}, "
               f"diff {mean_a - mean_b:.3g}")


def compare_variances(a: Estimates, b: Estimates, row: int = 0,
                      col: int = 0, alpha: float = 0.01
                      ) -> ComparisonResult:
    """F-test: is estimator ``a``'s per-realization variance smaller?

    One-sided alternative ``Var_a < Var_b`` — the claim a variance
    reduction method makes.  Assumes approximate normality of the
    realizations; for heavy-tailed workloads treat the p-value as
    indicative.
    """
    _, var_a, n_a = _entry(a, row, col)
    _, var_b, n_b = _entry(b, row, col)
    if var_b == 0.0:
        raise ConfigurationError(
            "comparator variance is zero; nothing can beat it")
    ratio = var_a / var_b
    from scipy.stats import f
    p_value = float(f.cdf(ratio, n_a - 1, n_b - 1))
    return ComparisonResult(
        statistic=float(ratio), p_value=p_value, alpha=alpha,
        detail=f"variance ratio a/b = {ratio:.4g}")


def efficiency_gain(a: Estimates, b: Estimates, row: int = 0,
                    col: int = 0, cost_a: float = 1.0,
                    cost_b: float = 1.0) -> float:
    """Relative efficiency of ``a`` over ``b`` in the paper's cost model.

    ``gain = (Var_b * cost_b) / (Var_a * cost_a)`` — how many times
    cheaper estimator ``a`` reaches a given error (C = tau * Var, §2.2).
    A gain of 60 means one processor running ``a`` matches sixty
    running ``b``.
    """
    if cost_a <= 0.0 or cost_b <= 0.0:
        raise ConfigurationError("costs must be positive")
    _, var_a, _ = _entry(a, row, col)
    _, var_b, _ = _entry(b, row, col)
    if var_a == 0.0:
        return math.inf
    return (var_b * cost_b) / (var_a * cost_a)
