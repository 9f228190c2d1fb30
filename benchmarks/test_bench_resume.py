"""§3.2/§3.4 resume semantics: correctness and overhead.

Claims regenerated:

* a resumed simulation (res = 1) with automatic averaging produces the
  SAME estimator a single longer run over the same streams would — the
  chain-vs-monolithic check is exact, not statistical;
* manaver recovers a killed job's subtotals without losing a single
  realization;
* session overhead (save-point write + load) is milliseconds —
  "endless" simulations chopped into cluster jobs cost essentially
  nothing.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import MonteCarloRun, parmonc
from repro.cli.manaver import manual_average
from repro.rng.streams import StreamTree
from repro.runtime.bootstrap import start_session
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.worker import run_worker
from repro.stats.accumulator import MomentAccumulator


def realization(rng):
    return rng.random() ** 2


def test_chain_equals_monolithic(benchmark, reporter, tmp_path):
    """Three resumed sessions == hand-built union of the same streams."""
    def chain():
        run = MonteCarloRun(realization, workdir=tmp_path / "chain",
                            processors=2)
        run.run(maxsv=200)
        run.resume(maxsv=200)
        return run.resume(maxsv=200)

    final = benchmark.pedantic(chain, rounds=1, iterations=1)
    tree = StreamTree()
    reference = MomentAccumulator(1, 1)
    for seqnum in (0, 1, 2):
        for rank in (0, 1):
            for index in range(100):
                reference.add(realization(tree.rng(seqnum, rank, index)))
    expected = reference.estimates()
    reporter.line("three resumed sessions vs monolithic union of the "
                  "same realization streams")
    reporter.line(f"chained    : mean = {final.estimates.mean[0, 0]:.12f}"
                  f"  L = {final.total_volume}")
    reporter.line(f"monolithic : mean = {expected.mean[0, 0]:.12f}"
                  f"  L = {expected.volume}")
    assert final.total_volume == expected.volume == 600
    assert final.estimates.mean[0, 0] == pytest.approx(
        expected.mean[0, 0], rel=1e-12)
    assert final.estimates.variance[0, 0] == pytest.approx(
        expected.variance[0, 0], rel=1e-9)
    reporter.line("resume-with-averaging is exact (formula (5))  "
                  "[reproduced]")


def test_manaver_recovery_is_lossless(benchmark, reporter, tmp_path):
    def crash_and_recover():
        workdir = tmp_path / "crash"
        parmonc(realization, maxsv=90, processors=3, workdir=workdir)
        config = RunConfig(maxsv=90, processors=3, res=1, seqnum=1,
                           workdir=workdir, perpass=0.0)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        # Killed before any final lands (at perpass=0 a final repeats its
        # rank's last pass): the last final would commit the session.
        for rank in range(3):
            run_worker(realization, config, rank, 30,
                       send=lambda m: m.final or collector.receive(m, 0.0))
        assert len(list(data.savepoints_dir.glob("processor_*.bin"))) == 3
        assert not collector.committed
        summary = manual_average(workdir)
        resumed = parmonc(realization, maxsv=30, res=1, seqnum=2,
                          processors=3, workdir=workdir)
        return summary, resumed

    summary, resumed = benchmark.pedantic(crash_and_recover, rounds=1,
                                          iterations=1)
    reporter.line("kill-recover-resume accounting")
    reporter.line(f"session 1 (clean)     :  90 realizations")
    reporter.line(f"session 2 (killed)    :  90 realizations, recovered "
                  f"{summary['volume'] - 90} + base {90}")
    reporter.line(f"session 3 (resumed)   :  30 realizations")
    reporter.line(f"final total           : {resumed.total_volume}")
    assert summary["volume"] == 180
    assert resumed.total_volume == 210
    reporter.line("no realization lost across crash + manaver + resume  "
                  "[reproduced]")


def test_session_overhead(benchmark, reporter, tmp_path):
    """Save-point machinery costs milliseconds per session."""
    def measure():
        workdir = tmp_path / "overhead"
        run = MonteCarloRun(realization, workdir=workdir)
        run.run(maxsv=10)
        durations = []
        for _ in range(20):
            start = time.perf_counter()
            run.resume(maxsv=10)
            durations.append(time.perf_counter() - start)
        return float(np.median(durations))

    median = benchmark.pedantic(measure, rounds=1, iterations=1)
    reporter.line(f"median resumed-session wall time (10 realizations + "
                  f"full save-point cycle): {median * 1000:.1f} ms")
    assert median < 0.5
    reporter.line("resume overhead is negligible against cluster-job "
                  "granularity  [reproduced]")
