"""The PARMONC session lifecycle: run, crash, recover, resume.

Demonstrates the paper's §3.2/§3.4 operational story end to end:

1. a first session (res=0) simulates part of the sample;
2. a "killed job" leaves per-processor save-points behind with results
   files lagging — ``manaver`` recovers the full subtotals;
3. a resumed session (res=1, fresh seqnum) folds everything together by
   formula (5), and the merged estimate matches a single monolithic run
   of the same total volume exactly.

Run:  python examples/resume_workflow.py
"""

import os
import tempfile

import numpy as np

from repro import MonteCarloRun, parmonc
from repro.cli.manaver import manual_average
from repro.runtime.collector import Collector
from repro.runtime.bootstrap import start_session
from repro.runtime.config import RunConfig
from repro.runtime.worker import run_worker

# PARMONC_BENCH_SMOKE=1: the test suite's seconds-long smoke size.
FIRST, KILLED, RESUMED = (
    (600, 300, 300) if os.environ.get("PARMONC_BENCH_SMOKE")
    else (30_000, 12_000, 18_000))


def cubic(rng):
    """One realization of X**3 for X uniform: expectation 1/4."""
    return rng.random() ** 3


def main():
    with tempfile.TemporaryDirectory() as workdir:
        # --- session 1: a normal run ---------------------------------
        run = MonteCarloRun(cubic, workdir=workdir, processors=3)
        first = run.run(maxsv=FIRST)
        print(f"session 1: L={first.total_volume}, "
              f"mean={first.estimates.mean[0, 0]:.5f} (exact 0.25)")

        # --- a job that dies mid-flight ------------------------------
        # Simulate the crash by running workers manually and never
        # letting the session finalize: the collector has persisted
        # per-processor subtotals, but no final averaging happened.
        config = RunConfig(maxsv=KILLED, processors=3, res=1, seqnum=1,
                           workdir=workdir)
        data, state = start_session(config)
        collector = Collector(config, state.base,
                              data, sessions=state.session_index)
        for rank in range(config.processors):
            run_worker(cubic, config, rank, config.worker_quota(rank),
                       send=lambda m: collector.receive(m, 0.0))
        print(f"job killed after workers delivered "
              f"{collector.session_volume} realizations "
              f"(results not finalized)")

        # --- manaver: manual averaging after termination -------------
        summary = manual_average(workdir)
        print(f"manaver recovered {summary['volume']} realizations from "
              f"{summary['processors_recovered']} processor save-points")

        # --- session 3: resume and compare with a monolithic run -----
        third = run.resume(maxsv=RESUMED)
        print(f"session 3: total L={third.total_volume}, "
              f"mean={third.estimates.mean[0, 0]:.6f}")

        total = third.total_volume
        print(f"\nthree sessions accumulated {total} realizations; "
              f"final mean {third.estimates.mean[0, 0]:.6f} "
              f"+/- {third.estimates.abs_error[0, 0]:.6f} (exact 0.25)")
        assert abs(third.estimates.mean[0, 0] - 0.25) \
            < 3 * third.estimates.abs_error[0, 0] + 1e-9


if __name__ == "__main__":
    main()
