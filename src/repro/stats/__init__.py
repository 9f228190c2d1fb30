"""Estimators, mergeable statistics and formula-(5) merging."""

from __future__ import annotations

from repro.stats.accumulator import (
    MOMENT_WORDS_PER_ENTRY,
    MomentAccumulator,
    MomentSnapshot,
)
from repro.stats.compare import (
    ComparisonResult,
    compare_means,
    compare_variances,
    efficiency_gain,
)
from repro.stats.covariance import CovarianceAccumulator
from repro.stats.estimators import (
    CONFIDENCE_FACTOR,
    CONFIDENCE_LEVEL,
    Estimates,
    computational_cost,
    confidence_factor,
    estimates_from_moments,
    required_sample_volume,
)
from repro.stats.merging import (
    combine_estimates,
    merge_snapshots,
)
from repro.stats.statistic import (
    DEFAULT_STATISTICS,
    Counter,
    Covariance,
    Extrema,
    Histogram,
    Statistic,
    StatisticSet,
    create_statistic,
    normalize_statistics,
    payload_map,
    register_statistic,
    statistic_class,
    statistic_from_payload,
    statistic_kinds,
    statistics_from_payload_map,
)

__all__ = [
    "MomentAccumulator",
    "MomentSnapshot",
    "MOMENT_WORDS_PER_ENTRY",
    "Estimates",
    "estimates_from_moments",
    "merge_snapshots",
    "combine_estimates",
    "computational_cost",
    "confidence_factor",
    "required_sample_volume",
    "CONFIDENCE_FACTOR",
    "CONFIDENCE_LEVEL",
    "ComparisonResult",
    "compare_means",
    "compare_variances",
    "efficiency_gain",
    "CovarianceAccumulator",
    "DEFAULT_STATISTICS",
    "Statistic",
    "StatisticSet",
    "Covariance",
    "Histogram",
    "Extrema",
    "Counter",
    "register_statistic",
    "statistic_class",
    "statistic_kinds",
    "statistic_from_payload",
    "statistics_from_payload_map",
    "payload_map",
    "create_statistic",
    "normalize_statistics",
]
