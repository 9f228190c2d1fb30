"""The fixed calibration kernel that brackets every timed unit.

This VM's speed drifts by tens of percent, per vCPU, in plateaus that
last seconds to minutes — more than the bounds in ``BENCHMARK.json``
allow.  The kernel below is a fixed slice of the kind of work the
library does per realization (128-bit integer multiplies, small-array
numpy folds and copies, short-lived objects), so the time a slice
takes *right now*, divided by the reference time ``SLICE_REF_S``, says
how slow the machine is right now.  Every duration is divided by the
mean factor of the calibrations either side of it before any median
is taken.

A calibration pins itself to each CPU the measured work may run on in
turn, runs its share of ``SLICES`` slices there (at least 50 ms in
all) and keeps the median slice per CPU, so a hiccup inside one slice
does not bend the factor of the two units it brackets.

The kernel must never change with the library, so this module imports
numpy and the standard library only — never ``repro``.  Changing the
kernel or ``SLICE_REF_S`` invalidates every earlier result file.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Seconds one kernel slice took on the reference machine when the
#: benchmark was defined (median on an idle 2-vCPU box).
SLICE_REF_S = 0.0118

#: Kernel slices per calibration, shared out over the CPUs.
SLICES = 6

_MASK = (1 << 128) - 1
_MULTIPLIER = 5 ** 101 & _MASK
_MATRIX = np.linspace(0.5, 1.5, 2_000).reshape(1_000, 2)
_ROUNDS = 3_000


def kernel() -> float:
    """Run one fixed slice; the return value defeats elision."""
    state = 1
    sum1 = np.zeros_like(_MATRIX)
    sum2 = np.zeros_like(_MATRIX)
    kept = None
    for index in range(_ROUNDS):
        state = (state * _MULTIPLIER) & _MASK
        unit = (state >> 64) * 2.0 ** -64
        sum1 += _MATRIX
        sum2 += _MATRIX * _MATRIX
        kept = {"rank": index, "sent_at": unit,
                "snapshot": (sum1.copy(), sum2.copy())}
    return float(kept["snapshot"][0][0, 0]) + unit


def calibrate(cpus: tuple[int, ...]) -> tuple[float, float]:
    """Machine factors ``(wall, cpu)`` over ``cpus``, 1.0 = reference.

    The calling thread is pinned to each CPU in turn and restored to
    the whole set afterwards.
    """
    walls, cpu_times = [], []
    try:
        for target in cpus:
            os.sched_setaffinity(0, {target})
            wall_slices, cpu_slices = [], []
            for _ in range(max(SLICES // len(cpus), 1)):
                wall = time.perf_counter()
                cpu = time.process_time()
                kernel()
                wall_slices.append(time.perf_counter() - wall)
                cpu_slices.append(time.process_time() - cpu)
            walls.append(statistics.median(wall_slices))
            cpu_times.append(statistics.median(cpu_slices))
    finally:
        os.sched_setaffinity(0, set(cpus))
    return (statistics.mean(walls) / SLICE_REF_S,
            statistics.mean(cpu_times) / SLICE_REF_S)
