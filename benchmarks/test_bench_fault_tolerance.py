"""Fault-tolerance ablation: what perpass actually buys.

The paper motivates periodic data passes with error control and
"save-points" (§2.2).  This bench quantifies the save-point value: on a
cluster where nodes fail mid-run, the work lost to a failure is bounded
by the pass period — per-realization passing loses at most the
realization in flight, while hour-scale periods lose the whole window.
Combined with ``manaver``-style recovery of collector-side subtotals,
this is the library's end-to-end fault story.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, DurationModel
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.simcluster import SimclusterBackend

TAU = 7.7


def run_with_failures(perpass: float):
    """16 nodes, 4 of which die at staggered times mid-run."""
    config = RunConfig(maxsv=1600, processors=16, perpass=perpass,
                       peraver=3600.0)
    failures = {3: 200.5, 7: 350.5, 11: 500.5, 15: 650.5}
    spec = ClusterSpec(
        duration_model=DurationModel(mean=TAU, distribution="fixed"),
        failures=failures)
    backend = SimclusterBackend(spec, execute_realizations=False)
    result = Engine(backend, config, use_files=False).run(None).cluster
    return result, backend.engine.job_context(None).collector


def test_lost_work_bounded_by_pass_period(benchmark, reporter):
    def sweep():
        return {perpass: run_with_failures(perpass)
                for perpass in (0.0, 60.0, 600.0)}

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reporter.line("fault-tolerance ablation: 16 nodes, 4 staggered "
                  f"failures, tau = {TAU}s")
    reporter.line("perpass (s)        computed  delivered  lost  "
                  "bound (4*ceil(perpass/tau)+4)")
    for perpass, (result, collector) in rows.items():
        label = ("every realization" if perpass == 0.0
                 else f"{perpass:.0f}")
        bound = 4 * (int(perpass // TAU) + 1)
        reporter.line(f"{label:>17s}  {result.total_volume:9d}  "
                      f"{collector.total_volume:9d}  "
                      f"{result.lost_realizations:4d}  {bound:6d}")
        assert result.lost_realizations <= bound
    strict_loss = rows[0.0][0].lost_realizations
    lax_loss = rows[600.0][0].lost_realizations
    assert strict_loss <= 4
    assert lax_loss > strict_loss
    reporter.line("lost work is bounded by the pass period — the "
                  "save-point argument of §2.2, quantified  [extension]")


def test_estimates_survive_failures_unbiased(benchmark, reporter):
    def run():
        config = RunConfig(maxsv=2000, processors=8, perpass=0.0,
                           peraver=3600.0)
        spec = ClusterSpec(
            duration_model=DurationModel(mean=1.0),
            failures={5: 100.5, 6: 150.5})
        return Engine(SimclusterBackend(spec), config, use_files=False) \
            .run(lambda rng: rng.random()).estimates

    estimates = benchmark.pedantic(run, rounds=1, iterations=1)
    reporter.line("estimate quality after two node failures "
                  f"(L delivered = {estimates.volume})")
    reporter.line(f"mean = {estimates.mean[0, 0]:.5f} (exact 0.5), "
                  f"eps = {estimates.abs_error[0, 0]:.5f}")
    assert abs(estimates.mean[0, 0] - 0.5) \
        <= 3 * estimates.abs_error[0, 0]
    reporter.line("failures shrink the sample but never bias it: "
                  "every delivered realization is a complete, "
                  "stream-pure sample  [extension]")
