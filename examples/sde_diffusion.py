"""The paper's §4 performance-test problem at laptop scale.

Simulates trajectories of the 2-D additive SDE

    dy(t) = C dt + D dw(t),  y(0) = 0,

with the generalized Euler method, estimates E y_j(t_i) on a grid of
output times, and compares against the exact line y_0 + C t.  This is
the Python twin of the paper's C ``main()``:

    int main() {
        int nrow = 1000, ncol = 2, res = 1, seqnum = 2, ...;
        parmoncc(difftraj, &nrow, &ncol, &maxsv, &res, &seqnum,
                 &perpass, &peraver);
    }

scaled down (fewer output times, coarser mesh, smaller sample volume)
so it runs in seconds rather than cluster-hours.

Run:  python examples/sde_diffusion.py
"""

import os
import tempfile

import numpy as np

from repro import parmonc
from repro.apps.sde import EulerSpec, make_paper_realization, paper_system

# PARMONC_BENCH_SMOKE=1: the test suite's seconds-long smoke size.
MAXSV = 16 if os.environ.get("PARMONC_BENCH_SMOKE") else 400


def main():
    system = paper_system()
    spec = EulerSpec(mesh=0.01, t_max=10.0, n_output=100)
    difftraj = make_paper_realization(spec, system)

    with tempfile.TemporaryDirectory() as workdir:
        result = parmonc(
            difftraj,
            nrow=spec.n_output, ncol=system.dimension,
            maxsv=MAXSV, processors=4, workdir=workdir,
        )
        estimates = result.estimates
        # abs_error is computed on every read: bind it once.
        abs_error = estimates.abs_error
        exact = system.exact_mean(spec.output_times)
        worst = np.max(np.abs(estimates.mean - exact))
        covered = np.mean(np.abs(estimates.mean - exact)
                          <= abs_error + 1e-12)
        print(f"trajectories simulated : {result.total_volume}")
        print(f"output grid            : {spec.n_output} times x "
              f"{system.dimension} components")
        print(f"max |estimate - exact| : {worst:.4f}")
        print(f"entries inside 3-sigma : {covered * 100:.1f}% "
              f"(expect ~99.7%)")
        print()
        print(" t      E y1 (est)  E y1 (exact)  eps_1    "
              "E y2 (est)  E y2 (exact)  eps_2")
        for i in (9, 49, 99):
            t = spec.output_times[i]
            print(f"{t:5.1f}  {estimates.mean[i, 0]:10.4f}  "
                  f"{exact[i, 0]:12.4f}  {abs_error[i, 0]:6.4f}  "
                  f"{estimates.mean[i, 1]:10.4f}  {exact[i, 1]:12.4f}  "
                  f"{abs_error[i, 1]:6.4f}")


if __name__ == "__main__":
    main()
