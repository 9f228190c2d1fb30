"""Formula (5): merging per-processor sample summaries.

The collector receives snapshots ``(sum1_m, sum2_m, l_m)`` from the
``M`` processors (sample volumes may differ — slower processors simply
contribute less) and forms

    mean_ij = (1/L) * sum_m sum1_m[ij],   L = sum_m l_m,

and likewise for the second moments.  Because snapshots carry *sums*,
merging is exact and associative: merging two sessions of a resumed
simulation is the same arithmetic as merging two processors.

:func:`merge_snapshots` is the one fold: the collector, ``manaver``
recovery and session resumption all merge through it, and the extra
statistics riding inside each snapshot fold with the moments.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.stats.accumulator import MomentSnapshot
from repro.stats.estimators import Estimates, estimates_from_moments

__all__ = ["merge_snapshots", "combine_estimates"]


def merge_snapshots(snapshots: Iterable[MomentSnapshot]) -> MomentSnapshot:
    """Merge snapshots from processors and/or sessions into one.

    The extras fold in the same pass, strictly in iteration order: the
    first statistic of each kind is snapshotted and the later ones are
    merged into the copy.  Kinds form the union of every input's — a
    statistic only some sources carry (a resumed run that dropped a
    kind, a partially delivered subtotal) survives with whatever sample
    it covers.  Callers pass rank- or session-ordered inputs, so float
    sums come out bit-identical on every backend.  No input is mutated
    or aliased.

    Args:
        snapshots: Any number of snapshots with identical shapes.

    Returns:
        A snapshot whose moments are the elementwise sums, whose volume
        is the total sample volume ``L``, and whose extras are the
        merged statistics (None when no input carries any).

    Raises:
        ConfigurationError: If no snapshot is supplied, or shapes, or
            the kinds or binning of two statistics, differ.
    """
    merged_sum1: np.ndarray | None = None
    merged_sum2: np.ndarray | None = None
    volume = 0
    compute_time = 0.0
    extras = None
    for snapshot in snapshots:
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
        if snapshot.extras:
            if extras is None:
                extras = {}
            for kind, statistic in snapshot.extras.items():
                if kind in extras:
                    extras[kind].merge(statistic)
                else:
                    extras[kind] = statistic.snapshot()
    if merged_sum1 is None:
        raise ConfigurationError("merge_snapshots needs at least one snapshot")
    return MomentSnapshot(sum1=merged_sum1, sum2=merged_sum2,
                          volume=volume, compute_time=compute_time,
                          extras=extras)


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
