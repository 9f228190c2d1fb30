"""Cost of piggybacking extra statistics on the batched engine.

The generalized exchange (ISSUE 5) lets covariance, histogram and
extrema snapshots ride along on every data pass.  The promise: for a
small realization matrix the extra accumulation work is marginal —
under 10% of batched throughput for histogram+covariance — because the
batched fast path feeds each statistic whole ``(B, nrow, ncol)`` stacks
and the per-pass snapshot cost is amortized over ``perpass`` seconds'
worth of realizations.

The workload is a vectorized affine kernel on a 1x2 matrix (the
covariance state is 2x2, the histogram 2x66 — realistic "summarize a
small response vector" territory).  A 1000x2 covariance would build a
2000x2000 outer product per fold and is deliberately out of scope: the
nbytes model and ``docs/performance.md`` tell users to keep covariance
for small matrices.

Measuring the overhead as a ratio of two separately timed runs is
hopeless on a shared container — wall clock *and* process time swing
tens of percent with CPU steal and memory-bandwidth contention, far
above the effect being measured.  Instead the asserted figure is
measured **inside a single run**: the extra statistics' update and
snapshot calls are timed in situ, and the overhead is their share of
the rest of that same run, so numerator and denominator experience
identical machine conditions.  End-to-end throughput of separate runs
is still reported (with a deliberately loose cross-check ceiling) and
the JSON artifact records every figure.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.sequential import SequentialBackend
from repro.runtime.worker import batch_routine
from repro.stats.statistic import (
    Counter,
    Covariance,
    Extrema,
    Histogram,
    StatisticSet,
)

SMOKE = bool(os.environ.get("PARMONC_BENCH_SMOKE"))

MAXSV = 8_192 if SMOKE else 65_536
BATCH = 256 if SMOKE else 1_024
REPEATS = 2 if SMOKE else 5

# Ceiling for the in-situ histogram+covariance share of a batched run.
# The issue's target is <10%; smoke mode uses tiny batches where fixed
# per-batch costs weigh more, so it gets headroom.
OVERHEAD_CEILING = 0.25 if SMOKE else 0.10
# Loose cross-check on the ratio of separately timed end-to-end runs —
# only there to catch gross regressions, since run-to-run machine
# noise alone can exceed the real effect several times over.
END_TO_END_CEILING = 0.50

_EXTRA_CLASSES = (Histogram, Covariance, Extrema, Counter)


@batch_routine(BATCH)
def affine_pair(streams):
    """Vectorized (B, 1, 2) kernel from two base uniforms per stream."""
    uniforms = streams.uniforms(2)
    block = np.empty((uniforms.shape[0], 1, 2))
    block[:, 0, 0] = 0.5 + uniforms[:, 0]
    block[:, 0, 1] = uniforms[:, 1] * 2.0 - 1.0
    return block


def _config(statistics) -> RunConfig:
    return RunConfig(maxsv=MAXSV, nrow=1, ncol=2, perpass=0.0,
                     seqnum=1, statistics=statistics)


class _ExtrasTimer:
    """Times extra-statistic work in situ via patched hot methods.

    Wraps every extra statistic's ``_update`` and the set's
    ``extras_snapshot`` so their total time within one engine run can
    be compared against the rest of that same run.  The timer calls
    themselves land in the measured (numerator) side, biasing the
    ratio slightly upward — conservative for an upper-bound assert.
    """

    def __init__(self):
        self.seconds = 0.0
        self._originals = []

    def _wrap(self, function):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            result = function(*args, **kwargs)
            self.seconds += time.perf_counter() - started
            return result
        return timed

    def __enter__(self):
        for cls in _EXTRA_CLASSES:
            self._originals.append((cls, "_update", cls._update))
            cls._update = self._wrap(cls._update)
        self._originals.append(
            (StatisticSet, "extras_snapshot", StatisticSet.extras_snapshot))
        StatisticSet.extras_snapshot = self._wrap(
            StatisticSet.extras_snapshot)
        return self

    def __exit__(self, *exc):
        for cls, name, original in self._originals:
            setattr(cls, name, original)
        self._originals.clear()
        return False


def _measured_run(statistics):
    """One run: (result, wall seconds, in-situ extras seconds)."""
    with _ExtrasTimer() as timer:
        started = time.perf_counter()
        result = Engine(SequentialBackend(), _config(statistics),
                        use_files=False).run(affine_pair)
        wall = time.perf_counter() - started
    return result, wall, timer.seconds


def test_statistics_piggyback_overhead(reporter):
    reporter.line("Extra-statistic piggybacking on the batched engine")
    reporter.line(f"workload: affine 1x2, maxsv={MAXSV}, batch={BATCH}, "
                  f"perpass=0 (a pass per realization)")
    reporter.line("")

    configurations = (
        ("moments",),
        ("moments", "histogram", "covariance"),
        ("moments", "histogram", "covariance", "extrema", "counter"))
    results = [None] * len(configurations)
    walls = [None] * len(configurations)
    shares = [None] * len(configurations)
    for _ in range(REPEATS):
        for index, statistics in enumerate(configurations):
            result, wall, extras = _measured_run(statistics)
            share = extras / (wall - extras)
            results[index] = result
            if walls[index] is None or wall < walls[index]:
                walls[index] = wall
            if shares[index] is None or share < shares[index]:
                shares[index] = share
    (baseline, loaded, full) = results
    overhead = shares[1]
    full_overhead = shares[2]
    end_to_end = walls[1] / walls[0] - 1.0

    identical = np.array_equal(baseline.estimates.mean,
                               loaded.estimates.mean)

    for label, wall, extra in (
            ("moments only        ", walls[0], 0.0),
            ("+histogram+covariance", walls[1], overhead),
            ("+extrema+counter     ", walls[2], full_overhead)):
        reporter.line(f"{label}  {MAXSV / wall:9.0f} r/s   "
                      f"in-situ overhead {extra * 100:6.2f}%")
    reporter.line("")
    reporter.line(f"end-to-end wall ratio (noisy): "
                  f"{end_to_end * 100:+.2f}%")
    reporter.line(f"moment estimates bit-identical with extras riding "
                  f"along: {identical}")

    reporter.metric("maxsv", MAXSV)
    reporter.metric("batch", BATCH)
    reporter.metric("baseline_rps", MAXSV / walls[0])
    reporter.metric("hist_cov_rps", MAXSV / walls[1])
    reporter.metric("all_extras_rps", MAXSV / walls[2])
    reporter.metric("hist_cov_overhead", overhead)
    reporter.metric("all_extras_overhead", full_overhead)
    reporter.metric("end_to_end_ratio", end_to_end)
    reporter.metric("bit_identical", bool(identical))

    assert identical, "extras must not perturb the moment estimates"
    assert loaded.statistics["histogram"].volume == MAXSV
    assert loaded.statistics["covariance"].volume == MAXSV
    assert overhead < OVERHEAD_CEILING, (
        f"histogram+covariance cost {overhead * 100:.1f}% of batched "
        f"throughput (ceiling {OVERHEAD_CEILING * 100:.0f}%)")
    assert end_to_end < END_TO_END_CEILING, (
        f"end-to-end slowdown {end_to_end * 100:.1f}% exceeds the "
        f"gross-regression guard {END_TO_END_CEILING * 100:.0f}%")
