"""Independence checks between leaped substreams.

These are the tests specific to a *parallel* generator: formula (4)
converges to the expectation only when the per-processor subsequences
are mutually independent.  We check the cross-correlation of paired
streams and, separately, that the leap arithmetic keeps substreams
disjoint over the lengths we actually consume.

Two streams can be paired two ways.  The *consecutive* pairing takes
draws ``0 .. n-1`` of one realization on each stream, as a serial
test would.  The *realization-aligned* pairing
(:func:`realization_aligned_draws`) takes draw ``j`` of realizations
``0 .. n-1`` on each stream, as formula (4) combines them: rank ``p``'s
realization ``r`` beside rank ``q``'s.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from repro.exceptions import ConfigurationError
from repro.rng.testing.result import TestResult, check_significance

__all__ = ["interstream_correlation_test", "interstream_collision_check",
           "realization_aligned_draws"]


def realization_aligned_draws(tree, stream_a: tuple[int, int],
                              stream_b: tuple[int, int], realizations: int,
                              draw: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``draw`` of realizations ``0 .. realizations-1`` on two streams.

    Args:
        tree: A :class:`repro.rng.streams.StreamTree`.
        stream_a: ``(experiment, processor)`` of the first stream.
        stream_b: ``(experiment, processor)`` of the second.
        realizations: Realizations paired, one draw each.
        draw: The draw index ``j`` within every realization.

    Returns:
        Two 1-D samples of length ``realizations``; entry ``r`` of each
        is draw ``j`` of realization ``r`` on its stream.
    """
    if realizations < 1 or draw < 0:
        raise ConfigurationError(
            "realizations must be >= 1 and draw >= 0")
    samples = []
    for experiment, processor in (stream_a, stream_b):
        block = tree.experiment(experiment).processor(processor) \
            .realization_block(0, realizations)
        samples.append(block.uniforms(draw + 1)[:, draw])
    return samples[0], samples[1]


def interstream_correlation_test(stream_a, stream_b,
                                 alpha: float = 0.01) -> TestResult:
    """Test that two substream samples are uncorrelated.

    Under independence the sample cross-correlation of ``n`` paired
    draws is asymptotically ``N(0, 1/n)``.

    Args:
        stream_a: Uniform sample from one substream.
        stream_b: Uniform sample of the same length from another.
        alpha: Significance level.
    """
    a = np.asarray(stream_a, dtype=np.float64)
    b = np.asarray(stream_b, dtype=np.float64)
    check_significance(alpha)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ConfigurationError(
            f"need two 1-D samples of equal length, got shapes "
            f"{a.shape} and {b.shape}")
    if a.size < 30:
        raise ConfigurationError(
            "cross-correlation test needs at least 30 paired draws")
    a_centered = a - a.mean()
    b_centered = b - b.mean()
    denominator = math.sqrt(float(np.dot(a_centered, a_centered))
                            * float(np.dot(b_centered, b_centered)))
    if denominator == 0.0:
        return TestResult(
            name="inter-stream correlation", statistic=float("inf"),
            p_value=0.0, alpha=alpha, sample_size=a.size,
            details={"r": 1.0})
    r = float(np.dot(a_centered, b_centered) / denominator)
    z = r * math.sqrt(a.size)
    p_value = float(2.0 * stats.norm.sf(abs(z)))
    return TestResult(
        name="inter-stream correlation",
        statistic=float(z), p_value=p_value, alpha=alpha,
        sample_size=a.size, details={"r": r})


def interstream_collision_check(tree, experiment: int, processors: int,
                                draws_per_processor: int) -> TestResult:
    """Verify that processor substreams cannot overlap for a usage pattern.

    This is an arithmetic certificate, not a statistical test: processor
    ``p`` owns positions ``[p * n_p, (p+1) * n_p)`` of the experiment
    subsequence, so ``draws_per_processor <= n_p`` guarantees
    disjointness.  The result reports the utilization fraction; the check
    fails (p-value 0) only if a processor would leak into its neighbour's
    subsequence.

    Args:
        tree: A :class:`repro.rng.streams.StreamTree`.
        experiment: The experiment index under scrutiny.
        processors: Number of processor substreams in use.
        draws_per_processor: Base random numbers each processor consumes.
    """
    if processors < 1 or draws_per_processor < 0:
        raise ConfigurationError(
            "processors must be >= 1 and draws_per_processor >= 0")
    leaps = tree.leaps
    if processors > leaps.processor_capacity:
        raise ConfigurationError(
            f"{processors} processors exceed the hierarchy capacity "
            f"{leaps.processor_capacity}")
    capacity = leaps.processor_leap
    utilization = draws_per_processor / capacity
    disjoint = draws_per_processor <= capacity
    # Sanity-check the leap arithmetic itself on the first two streams:
    # jumping stream p by n_p must land exactly on stream p+1's head.
    head_0 = tree.rng(experiment, 0, 0)
    head_1 = tree.rng(experiment, 1, 0)
    arithmetic_ok = head_0.jumped(capacity).state == head_1.state
    passed = disjoint and arithmetic_ok
    return TestResult(
        name="inter-stream collision check",
        statistic=utilization,
        p_value=1.0 if passed else 0.0,
        alpha=0.5,
        sample_size=processors * draws_per_processor,
        details={"processor_leap": capacity,
                 "utilization": utilization,
                 "arithmetic_ok": arithmetic_ok,
                 "disjoint": disjoint})
