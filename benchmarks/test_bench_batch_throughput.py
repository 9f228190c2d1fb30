"""Scalar vs batched engine throughput on the paper's 1000x2 workload.

The paper's Fig. 2 performance test runs a cheap realization routine
under the strictest data-pass condition (``perpass=0``: a pass to the
collector after every realization) and asks what the library itself
costs.  This benchmark reproduces that condition on one processor and
compares the scalar inner loop against the batched fast path
(:func:`repro.runtime.worker.batch_routine`), asserting that both
produce bit-identical mean/error matrices.

Two workloads are measured:

* ``overhead`` — the routine returns a precomputed constant matrix
  (after consuming one base random number), so the measured time is
  pure engine overhead: stream placement, accumulation, data passes.
  This is the Fig. 2 condition, and where batching helps most.
* ``affine`` — the routine computes ``u * BASE + v * SLOPE`` from two
  base random numbers, writing a fresh 1000x2 matrix per realization.
  The kernel's memory traffic is paid by both paths, so the speedup is
  smaller; this workload is the non-trivial bit-identity check (the
  estimates depend on every drawn uniform).

Wall-clock on shared machines is noisy (CPU steal on this container
swings single-run throughput by ~30%), so each path is timed several
times and the best run is kept; the speedup floor asserted here is
deliberately below the typical measurement, which lands in the JSON
artifact for trend tracking.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.sequential import SequentialBackend
from repro.runtime.worker import batch_routine

SMOKE = bool(os.environ.get("PARMONC_BENCH_SMOKE"))

MAXSV = 2_048 if SMOKE else 16_384
BATCH = 128 if SMOKE else 512
REPEATS = 1 if SMOKE else 5

# Asserted floors: low enough to never flake on a noisy or slow
# machine, while the JSON artifact records the actual figure (typically
# 3.5-5.5x for the overhead workload on this container; the engine's
# target from ISSUE 2 is 5x, reached when the machine is quiet).
OVERHEAD_FLOOR = 1.0 if SMOKE else 2.5
AFFINE_FLOOR = 1.0

_BASE = np.linspace(0.5, 1.5, 2_000).reshape(1_000, 2)
_SLOPE = np.linspace(-0.25, 0.25, 2_000).reshape(1_000, 2)
_BASE_FLAT = np.ascontiguousarray(_BASE.ravel())
_SLOPE_FLAT = np.ascontiguousarray(_SLOPE.ravel())


def _config() -> RunConfig:
    return RunConfig(maxsv=MAXSV, nrow=1_000, ncol=2, perpass=0.0,
                     seqnum=1)


def _timed_run(routine):
    """Best wall time over REPEATS in-memory runs of ``routine``."""
    best = None
    result = None
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = Engine(SequentialBackend(), _config(),
                        use_files=False).run(routine)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _identical(a, b) -> bool:
    return (np.array_equal(a.estimates.mean, b.estimates.mean)
            and np.array_equal(a.estimates.abs_error,
                               b.estimates.abs_error))


def _report(reporter, label, scalar_time, batched_time, identical):
    scalar_rps = MAXSV / scalar_time
    batched_rps = MAXSV / batched_time
    speedup = scalar_time / batched_time
    reporter.line(f"{label}: scalar {scalar_rps:9.0f} r/s   "
                  f"batched {batched_rps:9.0f} r/s   "
                  f"speedup {speedup:4.2f}x   "
                  f"bit-identical={identical}")
    reporter.metric(f"{label}_scalar_rps", round(scalar_rps, 1))
    reporter.metric(f"{label}_batched_rps", round(batched_rps, 1))
    reporter.metric(f"{label}_speedup", round(speedup, 3))
    reporter.metric(f"{label}_bit_identical", bool(identical))
    return speedup


def test_overhead_workload_speedup(reporter):
    """Fig. 2 condition: constant realization, perpass=0, one worker."""

    def scalar(rng):
        rng.random()
        return _BASE

    block = np.broadcast_to(_BASE, (BATCH, 1_000, 2))

    @batch_routine(BATCH)
    def batched(streams):
        streams.uniforms(1)
        return block[:len(streams)]

    scalar_result, scalar_time = _timed_run(scalar)
    batched_result, batched_time = _timed_run(batched)
    identical = _identical(scalar_result, batched_result)

    reporter.line("overhead workload: cheap routine (constant 1000x2 "
                  "matrix), perpass=0 — pure engine cost")
    speedup = _report(reporter, "overhead", scalar_time, batched_time,
                      identical)
    reporter.metric("maxsv", MAXSV)
    reporter.metric("batch_size", BATCH)
    reporter.metric("repeats", REPEATS)
    reporter.metric("target_speedup", 5.0)
    reporter.metric("smoke", SMOKE)

    assert identical, "batched estimates diverged from scalar"
    assert scalar_result.total_volume == MAXSV
    assert batched_result.total_volume == MAXSV
    assert speedup >= OVERHEAD_FLOOR, (
        f"batched path only {speedup:.2f}x faster "
        f"(floor {OVERHEAD_FLOOR}x)")


def test_affine_workload_bit_identity(reporter):
    """Random 1000x2 matrices: estimates must match bit for bit."""

    def scalar(rng):
        return _BASE * rng.random() + _SLOPE * rng.random()

    out = np.empty((BATCH, 2_000))
    tmp = np.empty((BATCH, 2_000))

    @batch_routine(BATCH)
    def batched(streams):
        uniforms = streams.uniforms(2)
        width = len(streams)
        left = out[:width]
        right = tmp[:width]
        np.multiply(uniforms[:, 0:1], _BASE_FLAT, out=left)
        np.multiply(uniforms[:, 1:2], _SLOPE_FLAT, out=right)
        np.add(left, right, out=left)
        return left.reshape(width, 1_000, 2)

    scalar_result, scalar_time = _timed_run(scalar)
    batched_result, batched_time = _timed_run(batched)
    identical = _identical(scalar_result, batched_result)

    reporter.line("affine workload: u*BASE + v*SLOPE per realization — "
                  "kernel traffic paid by both paths")
    speedup = _report(reporter, "affine", scalar_time, batched_time,
                      identical)

    assert identical, "batched estimates diverged from scalar"
    assert speedup >= AFFINE_FLOOR, (
        f"batched path slower than scalar ({speedup:.2f}x)")
