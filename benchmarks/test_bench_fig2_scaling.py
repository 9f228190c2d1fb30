"""Fig. 2 (a-d): T_comp(L) for M = 1 .. 512 under strictest exchange.

The paper's only evaluation figure.  Conditions reproduced exactly as
described in §4:

* mean computer time per realization tau = 7.7 s;
* every processor passes ~120 KB of subtotal moments to the 0-th
  processor after EVERY realization ("strictest conditions");
* T_comp is evaluated after the 0-th processor has received, averaged
  and saved the data.

Claim to reproduce: "for all the values of L the speedup of
parallelization is in direct proportion to the number of processors" —
i.e. each panel's curves are linear in L with slope proportional to
1/M.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.machine import DurationModel
from repro.cluster.simulation import ClusterSpec
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.messages import message_bytes
from repro.runtime.simcluster import SimclusterBackend

TAU = 7.7
#: The four panels of Fig. 2: processor sets and total sample volumes.
PANELS = {
    "a": ((1, 8), (200, 400, 600, 800, 1000)),
    "b": ((8, 16, 32), (1500, 3000, 4500, 6000, 7500)),
    "c": ((32, 64, 128), (5000, 10000, 15000, 20000, 25000)),
    "d": ((128, 256, 512), (15000, 30000, 45000, 60000, 75000)),
}


def paper_spec() -> ClusterSpec:
    """The §4 rig: fixed tau = 7.7 s, ~120 KB messages."""
    return ClusterSpec(
        duration_model=DurationModel(mean=TAU, distribution="fixed"),
        message_bytes=message_bytes(1000, 2),
        collector_service_time=200e-6)


def t_comp(processors: int, volume: int) -> float:
    """One Fig. 2 data point: virtual seconds to complete the sample."""
    result = Engine(
        SimclusterBackend(paper_spec(), execute_realizations=False),
        RunConfig(maxsv=volume, processors=processors, perpass=0.0,
                  peraver=600.0),
        use_files=False).run(None)
    return result.virtual_time


def run_panel(panel: str) -> dict[int, list[float]]:
    processor_sets, volumes = PANELS[panel]
    return {m: [t_comp(m, volume) for volume in volumes]
            for m in processor_sets}


@pytest.mark.parametrize("panel", list(PANELS))
def test_fig2_panel(panel, benchmark, reporter):
    processor_sets, volumes = PANELS[panel]
    series = benchmark.pedantic(run_panel, args=(panel,), rounds=1,
                                iterations=1)
    reporter.line(f"Fig. 2{panel}: T_comp(L) in virtual seconds "
                  f"(tau = {TAU}s, pass after every realization)")
    header = "       L " + "".join(f"  M={m:<10d}" for m in processor_sets)
    reporter.line(header)
    for column, volume in enumerate(volumes):
        row = f"{volume:8d} " + "".join(
            f"  {series[m][column]:<11.1f}" for m in processor_sets)
        reporter.line(row)
    # --- the paper's claims, quantified -------------------------------
    for m in processor_sets:
        values = np.asarray(series[m])
        # (1) Linearity in L: a least-squares line through the points
        # leaves < 2% relative residual.
        coefficients = np.polyfit(volumes, values, 1)
        fitted = np.polyval(coefficients, volumes)
        residual = np.max(np.abs(fitted - values) / values)
        assert residual < 0.02, (panel, m, residual)
        # (2) The slope tracks tau / M within quota granularity.
        assert coefficients[0] == pytest.approx(TAU / m, rel=0.05), \
            (panel, m)
    # (3) Speedup proportional to M within each panel.
    base_m = processor_sets[0]
    for m in processor_sets[1:]:
        speedup = np.mean(np.asarray(series[base_m])
                          / np.asarray(series[m]))
        assert speedup == pytest.approx(m / base_m, rel=0.06), (panel, m)
    reporter.line(f"panel {panel}: linear in L, slope ~ tau/M, speedup "
                  f"proportional to M  [reproduced]")
    reporter.line()


def test_fig2_speedup_summary(benchmark, reporter):
    """Full-range speedup table, M = 1 .. 512 at a fixed L."""
    volume = 15_360  # divisible by every M up to 512

    def sweep():
        return {m: t_comp(m, volume)
                for m in (1, 8, 16, 32, 64, 128, 256, 512)}

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reporter.line(f"Fig. 2 summary: speedup at L = {volume}")
    reporter.line("   M    T_comp (s)    speedup   efficiency")
    for m, value in times.items():
        speedup = times[1] / value
        reporter.line(f"{m:4d}  {value:12.1f}  {speedup:9.2f}   "
                      f"{speedup / m:9.3f}")
        assert speedup / m > 0.93, (m, speedup)
    reporter.line("speedup stays proportional to M up to 512 processors "
                  "despite per-realization exchange  [reproduced]")
