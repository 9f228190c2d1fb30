"""Watching a simulation converge through its save-points.

PARMONC periodically averages and saves results *during* the run
(§2.2: "it is desirable to control the absolute and relative
stochastic errors during the simulation").  The library surfaces that
trace twice over: on ``RunResult.history`` — one ``(time, volume,
eps_max)`` entry per save-point — and, with ``telemetry=True``, as
``save`` events in the structured JSONL event log under
``parmonc_data/telemetry/`` (see docs/observability.md).  This example
reads the event log, plots (in ASCII) the 1/sqrt(L) error decay of a
live run, and shows the run_until() loop that stops at a target
accuracy.

Run:  python examples/convergence_monitoring.py
"""

import math
import os
import tempfile
from pathlib import Path

from repro import MonteCarloRun, parmonc
from repro.obs import read_events

# PARMONC_BENCH_SMOKE=1: the test suite's seconds-long smoke size.
MAXSV, TARGET, SESSION_VOLUME = (
    (300, 0.03, 150) if os.environ.get("PARMONC_BENCH_SMOKE")
    else (20_000, 0.004, 5_000))


def heavy_tailish(rng):
    """A realization with some variance: (X1 + X2**2) / 2."""
    return 0.5 * (rng.random() + rng.random() ** 2)


def main():
    with tempfile.TemporaryDirectory() as workdir:
        result = parmonc(heavy_tailish, maxsv=MAXSV, processors=2,
                         peraver=0.0, perpass=0.0, workdir=workdir,
                         telemetry=True)
        events_path = (Path(workdir) / "parmonc_data" / "telemetry"
                       / "events.jsonl")
        saves = list(read_events(events_path, kind="save"))
        print(f"{len(saves)} save-points in the event log; "
              f"error decay along the run:")
        print("   t(s)        L      eps_max   eps_max * sqrt(L)  "
              "(should be ~flat)")
        step = max(1, len(saves) // 8)
        for event in saves[::step]:
            volume = event.fields["volume"]
            eps = event.fields["eps_max"]
            print(f"{event.ts:7.3f}  {volume:7d}   {eps:.6f}    "
                  f"{eps * math.sqrt(volume):8.4f}")
        final = saves[-1]
        print(f"final:  L = {final.fields['volume']}, "
              f"eps_max = {final.fields['eps_max']:.6f}")
        # The in-memory history carries the same trace (and works with
        # telemetry off); the event log survives the process.
        assert len(result.history) == len(saves)
        totals = result.telemetry
        print(f"telemetry: {totals['events']} events, "
              f"{totals['messages']} messages from "
              f"{totals['workers']} workers\n")

    with tempfile.TemporaryDirectory() as workdir:
        run = MonteCarloRun(heavy_tailish, workdir=workdir, processors=2)
        result = run.run_until(target_abs_error=TARGET,
                               session_volume=SESSION_VOLUME)
        print(f"run_until(eps <= {TARGET}): stopped after "
              f"{result.sessions} session(s), L = {result.total_volume}, "
              f"eps_max = {result.estimates.abs_error_max:.6f}")


if __name__ == "__main__":
    main()
