"""§2.2 RNG quality: rnd128 vs the insufficient r=40 baseline.

Two claims are regenerated:

1. "In case of a 'good' generator ... base random numbers produced on
   different processors must have good statistical properties" — the
   battery passes rnd128 and its substreams, and rejects bad
   generators.
2. "a period of a well known RNG with r = 40 and A = 5**17 is equal to
   2**38 ... not sufficient: the simulation of a single realization may
   demand a quantity of base random numbers comparable with the whole
   period" — demonstrated on a small-modulus analogue where wrapping is
   reachable: once a stream wraps, successive "independent" streams
   repeat the same numbers exactly.
"""

from __future__ import annotations

import numpy as np

from repro.rng.baseline import MiddleSquare, MinStd, SmallLcg, legacy40
from repro.rng.streams import StreamTree
from repro.rng.testing import (
    interstream_correlation_test,
    realization_aligned_draws,
    run_battery,
    two_level_substream_test,
)
from repro.rng.vectorized import VectorLcg128

SAMPLE = 120_000


def battery_scores():
    scores = {}
    scores["rnd128"] = run_battery(
        VectorLcg128(1).uniforms(SAMPLE), "rnd128")
    tree = StreamTree()
    scores["rnd128 proc-255 substream"] = run_battery(
        VectorLcg128(tree.rng(0, 255, 0)).uniforms(SAMPLE),
        "rnd128 substream")
    scores["legacy40 (r=40, A=5^17)"] = run_battery(
        legacy40().block(SAMPLE), "legacy40")
    scores["minstd"] = run_battery(MinStd(42).block(SAMPLE), "minstd")
    scores["middle-square"] = run_battery(
        np.clip(MiddleSquare().block(20_000), 1e-12, 1 - 1e-12),
        "middle-square")
    return scores


def test_battery_scoreboard(benchmark, reporter):
    scores = benchmark.pedantic(battery_scores, rounds=1, iterations=1)
    reporter.line(f"statistical battery, {SAMPLE} draws each, "
                  f"alpha = 0.01 per test")
    reporter.line(f"{'generator':<28s} passed/total")
    for name, report in scores.items():
        reporter.line(f"{name:<28s} {report.n_passed}/"
                      f"{len(report.results)}")
    assert scores["rnd128"].n_failed <= 1
    assert scores["rnd128 proc-255 substream"].n_failed <= 1
    assert scores["middle-square"].n_failed >= 5
    reporter.line("rnd128 and its substreams pass; degenerate generators "
                  "are rejected  [reproduced]")


def test_substream_independence(benchmark, reporter):
    """Cross-correlations between processor substreams are null."""
    def correlations():
        tree = StreamTree()
        base = VectorLcg128(tree.rng(0, 0, 0)).uniforms(50_000)
        return {
            f"proc 0 vs {p}": interstream_correlation_test(
                base, VectorLcg128(tree.rng(0, p, 0)).uniforms(50_000))
            for p in (1, 2, 17, 1000, 2 ** 17 - 1)}

    results = benchmark.pedantic(correlations, rounds=1, iterations=1)
    reporter.line("inter-substream correlation (50k paired draws)")
    for label, result in results.items():
        reporter.line(f"{label:<18s} r = {result.details['r']:+.5f}  "
                      f"p = {result.p_value:.3f}")
        assert result.passed, label
    reporter.line("processor substreams statistically independent  "
                  "[reproduced]")


def test_realization_aligned_pairing(benchmark, reporter):
    """The pairing the runtime consumes: draw j of realization r.

    A report, not a verdict: the default hierarchy's aligned draws are
    rotations of each other (ROADMAP item 14), and the line says so.
    """
    pairs = {"proc 0 vs 1": ((0, 0), (0, 1)),
             "proc 0 vs 17": ((0, 0), (0, 17)),
             "exp 0 vs 1": ((0, 0), (1, 0))}

    def correlations():
        tree = StreamTree()
        return {label: interstream_correlation_test(
                    *realization_aligned_draws(tree, *streams, 4000))
                for label, streams in pairs.items()}

    results = benchmark.pedantic(correlations, rounds=1, iterations=1)
    reporter.line("realization-aligned correlation (first draw of "
                  "4000 realizations)")
    for label, result in results.items():
        reporter.line(f"{label:<18s} r = {result.details['r']:+.5f}  "
                      f"p = {result.p_value:.3g}  "
                      f"{'pass' if result.passed else 'FAIL'}")
    verdict = ("independent" if all(r.passed for r in results.values())
               else "correlated: the default hierarchy fails this pairing")
    reporter.line(f"aligned draws {verdict}  [reported]")


def test_period_exhaustion_of_legacy_family(benchmark, reporter):
    """Wraparound makes 'independent' streams repeat each other exactly.

    Uses an r=24 member of the same multiplicative family (period
    2**22, walkable in seconds) so the failure mode of the r=40
    generator is demonstrated rather than asserted: leaping by more
    than the period aliases streams onto each other.
    """
    def demo():
        bits = 24
        period = 1 << (bits - 2)
        first = SmallLcg(bits, pow(5, 17, 1 << bits))
        # "Processor 1"'s stream leaps by the realization budget; with a
        # budget beyond the period it lands back inside processor 0's
        # stretch of the orbit.
        second = first.jumped(period + 12345)
        equal_after_wrap = first.jumped(12345).state == second.state
        # And the draws themselves repeat verbatim.
        overlap = np.array_equal(first.jumped(12345).block(1000),
                                 second.block(1000))
        # Consuming the whole period on one stream flags the wrap.
        walker = SmallLcg(bits, pow(5, 17, 1 << bits))
        walker.block(period)
        return equal_after_wrap, overlap, walker.wrapped, period

    equal_after_wrap, overlap, wrapped, period = benchmark.pedantic(
        demo, rounds=1, iterations=1)
    reporter.line("period exhaustion demo (r=24 member of the 5**17 "
                  "family, period 2**22)")
    reporter.line(f"stream leaped past the period aliases an existing "
                  f"stream: {equal_after_wrap}")
    reporter.line(f"its 1000 draws repeat the other stream verbatim: "
                  f"{overlap}")
    reporter.line(f"wrap detector fires after {period} draws: {wrapped}")
    assert equal_after_wrap and overlap and wrapped
    reporter.line("the r=40 generator (period 2**38 ~ 2.75e11) fails the "
                  "same way once a realization consumes the period; "
                  "rnd128's 2**126 period makes this unreachable "
                  "[reproduced]")


def test_two_level_parallel_certificate(benchmark, reporter):
    """Second-order uniformity across 64 processor substreams.

    The decisive parallel-quality check: first-level chi-square per
    substream, second-level KS on the p-values — sensitive to both
    global bias and inter-stream correlation.
    """
    result = benchmark.pedantic(
        lambda: two_level_substream_test(n_substreams=64,
                                         draws_per_stream=20_000),
        rounds=1, iterations=1)
    reporter.line("two-level certificate: chi-square per substream, "
                  "KS over the 64 p-values")
    reporter.line(f"KS distance = {result.statistic:.4f}, "
                  f"p = {result.p_value:.3f}, total draws = "
                  f"{result.sample_size}")
    assert result.passed
    reporter.line("substream p-values are uniform — no second-order "
                  "defects across processors  [reproduced]")


def test_rnd128_scale_headroom(benchmark, reporter):
    """The paper's scaling claim: 'practically infinite' processors."""
    def check():
        tree = StreamTree()
        leaps = tree.leaps
        # A 512-processor run consuming 10**12 numbers per processor
        # uses a 10**-17 fraction of each processor subsequence.
        utilization = 1e12 / leaps.processor_leap
        return utilization

    utilization = benchmark.pedantic(check, rounds=1, iterations=1)
    reporter.line(f"fraction of a processor subsequence consumed by a "
                  f"10**12-draw workload: {utilization:.2e}")
    assert utilization < 1e-15
    reporter.line("subsequence capacity leaves ~15 orders of magnitude "
                  "of headroom  [reproduced]")
