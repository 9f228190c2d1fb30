"""Radiation transfer through a slab — Monte Carlo's original domain.

Sweeps the per-collision absorption probability with
``repro.parameter_sweep`` (one independent PARMONC experiment per
setting) and estimates the transmission / reflection / absorption split
of particle histories in a two-mean-free-paths slab.  The
pure-absorption endpoint has the closed form exp(-depth) and is checked
against it.

Run:  python examples/radiation_transport.py
"""

import math
import os

from repro import parameter_sweep
from repro.apps.transport import SlabProblem, make_realization

DEPTH = 2.0
# PARMONC_BENCH_SMOKE=1: the test suite's seconds-long smoke size.
HISTORIES = 1_000 if os.environ.get("PARMONC_BENCH_SMOKE") else 20_000


def factory(absorption):
    return make_realization(SlabProblem(depth=DEPTH,
                                        absorption=absorption))


def main():
    absorptions = (1.0, 0.8, 0.5, 0.2)
    sweep = parameter_sweep(factory, absorptions, maxsv=HISTORIES,
                            ncol=3, processors=2,
                            backend="multiprocess")
    print(f"slab depth {DEPTH} mean free paths, "
          f"{HISTORIES} histories per setting\n")
    print("absorption  P(transmit)  P(reflect)  P(absorb)   eps_max  seqnum")
    for point in sweep:
        mean = point.result.estimates.mean[0]
        print(f"{point.value:10.2f}  {mean[0]:11.4f}  {mean[1]:10.4f}  "
              f"{mean[2]:9.4f}  {point.result.estimates.abs_error_max:9.4f}"
              f"  {point.seqnum:6d}")
    exact = math.exp(-DEPTH)
    print(f"\npure-absorption transmission, exact: exp(-{DEPTH}) = "
          f"{exact:.4f}")
    print("each sweep point consumed its own experiments subsequence, "
          "so the rows are mutually independent")


if __name__ == "__main__":
    main()
