"""Quickstart: estimate pi with a parallel stochastic simulation.

The user-side recipe from the paper, in Python:

1. write a routine that simulates ONE realization of your random object
   (here: the quarter-circle indicator, whose expectation is pi/4);
2. hand it to ``parmonc`` with the sample volume and processor count;
3. read the sample means and the automatically computed errors.

Run:  python examples/quickstart.py
"""

import os
import tempfile

from repro import parmonc

# PARMONC_BENCH_SMOKE=1: the test suite's seconds-long smoke size.
MAXSV = 2_000 if os.environ.get("PARMONC_BENCH_SMOKE") else 200_000


def quarter_circle(rng):
    """One realization: 1 if a uniform point falls inside the quarter disc."""
    x = rng.random()
    y = rng.random()
    return 1.0 if x * x + y * y <= 1.0 else 0.0


def main():
    with tempfile.TemporaryDirectory() as workdir:
        result = parmonc(
            quarter_circle,
            maxsv=MAXSV,        # total sample volume
            processors=4,       # simulated processors
            workdir=workdir,    # parmonc_data/ is created here
        )
        estimates = result.estimates
        pi_estimate = 4.0 * estimates.mean[0, 0]
        pi_error = 4.0 * estimates.abs_error[0, 0]
        print(f"sample volume     : {result.total_volume}")
        print(f"pi estimate       : {pi_estimate:.6f} +/- {pi_error:.6f}")
        print(f"relative error    : {estimates.rel_error[0, 0]:.4f} %")
        print(f"per-worker volumes: {result.per_rank_volumes}")
        print(f"result files under: {result.data_dir}/results")
        lower, upper = estimates.confidence_interval()
        print(f"99.7% CI for pi   : "
              f"[{4 * lower[0, 0]:.6f}, {4 * upper[0, 0]:.6f}]")


if __name__ == "__main__":
    main()
