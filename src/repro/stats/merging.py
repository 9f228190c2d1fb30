"""Formula (5): merging per-processor sample summaries.

The collector receives snapshots ``(sum1_m, sum2_m, l_m)`` from the
``M`` processors (sample volumes may differ — slower processors simply
contribute less) and forms

    mean_ij = (1/L) * sum_m sum1_m[ij],   L = sum_m l_m,

and likewise for the second moments.  Because snapshots carry *sums*,
merging is exact and associative: merging two sessions of a resumed
simulation is the same arithmetic as merging two processors.

This module is the single source of truth for those pairwise folds —
the collector, ``manaver`` recovery and session resumption all merge
through it, for plain moment snapshots (:func:`merge_snapshots`) and
for the generalized :class:`~repro.stats.statistic.Statistic` payloads
(:func:`merge_statistics`, :func:`merge_statistic_maps`) alike.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError
from repro.stats.accumulator import MomentSnapshot
from repro.stats.estimators import Estimates, estimates_from_moments

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stats.statistic import Statistic

__all__ = ["merge_snapshots", "merge_statistics", "merge_statistic_maps",
           "combine_estimates"]


def merge_snapshots(snapshots: Iterable[MomentSnapshot]) -> MomentSnapshot:
    """Merge snapshots from processors and/or sessions into one.

    Args:
        snapshots: Any number of snapshots with identical shapes.

    Returns:
        A snapshot whose moments are the elementwise sums and whose
        volume is the total sample volume ``L``.

    Raises:
        ConfigurationError: If no snapshot is supplied or shapes differ.
    """
    merged_sum1: np.ndarray | None = None
    merged_sum2: np.ndarray | None = None
    volume = 0
    compute_time = 0.0
    count = 0
    for snapshot in snapshots:
        count += 1
        if merged_sum1 is None:
            # One fresh float64 copy each: the merge never aliases an input.
            merged_sum1 = np.array(snapshot.sum1, dtype=np.float64)
            merged_sum2 = np.array(snapshot.sum2, dtype=np.float64)
        else:
            if snapshot.shape != merged_sum1.shape:
                raise ConfigurationError(
                    f"cannot merge snapshots of shapes "
                    f"{merged_sum1.shape} and {snapshot.shape}")
            merged_sum1 += snapshot.sum1
            merged_sum2 += snapshot.sum2
        volume += snapshot.volume
        compute_time += snapshot.compute_time
    if count == 0 or merged_sum1 is None:
        raise ConfigurationError("merge_snapshots needs at least one snapshot")
    return MomentSnapshot(sum1=merged_sum1, sum2=merged_sum2,
                          volume=volume, compute_time=compute_time)


def merge_statistics(statistics: Iterable["Statistic"]) -> "Statistic":
    """Merge statistics of one kind into a fresh cumulative total.

    The inputs are never mutated: the first statistic is snapshotted
    and the rest are folded into the copy, strictly in iteration
    order — the generalized formula-(5) fold, so rank-ordered inputs
    give bit-identical totals on every backend.

    Raises:
        ConfigurationError: If no statistic is supplied, or kinds or
            shapes differ.
    """
    merged = None
    for statistic in statistics:
        if merged is None:
            merged = statistic.snapshot()
        else:
            merged.merge(statistic)
    if merged is None:
        raise ConfigurationError(
            "merge_statistics needs at least one statistic")
    return merged


def merge_statistic_maps(
        maps: Sequence[Mapping[str, "Statistic"]]
        ) -> dict[str, "Statistic"]:
    """Merge ``{kind: statistic}`` maps from processors or sessions.

    Kinds form the union of all maps — a statistic only some sources
    carry (a resumed run that dropped a kind, a partially-delivered
    subtotal) still survives with whatever sample it covers.  Within a
    kind the merge order is the order of ``maps``, so callers pass
    rank- or session-ordered sequences for reproducible totals.
    """
    merged: dict[str, "Statistic"] = {}
    for statistics in maps:
        for kind, statistic in statistics.items():
            if kind in merged:
                merged[kind].merge(statistic)
            else:
                merged[kind] = statistic.snapshot()
    return merged


def combine_estimates(snapshots: Sequence[MomentSnapshot]) -> Estimates:
    """Merge snapshots and convert straight to result matrices.

    Convenience wrapper equal to
    ``merge_snapshots(snapshots).estimates()`` with a clearer error when
    the merged volume is zero.
    """
    merged = merge_snapshots(snapshots)
    if merged.volume == 0:
        raise ConfigurationError(
            "merged snapshots contain zero realizations; nothing to "
            "estimate")
    return estimates_from_moments(merged.sum1, merged.sum2, merged.volume,
                                  merged.compute_time)
