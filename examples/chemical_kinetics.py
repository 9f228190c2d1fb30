"""Stochastic chemical kinetics and coagulation under PARMONC.

Two of §2.1's "physical and chemical kinetics" applications in one
script: exact SSA trajectories of a reaction network (isomerization,
with the linear master equation as oracle) and Marcus–Lushnikov
coagulation (constant-kernel Smoluchowski solution as oracle).

Run:  python examples/chemical_kinetics.py
"""

import os

import numpy as np

from repro import parmonc
from repro.apps import coagulation, kinetics

# PARMONC_BENCH_SMOKE=1: the test suite's seconds-long smoke size.
SSA_RUNS, COAGULATION_RUNS = (
    (100, 20) if os.environ.get("PARMONC_BENCH_SMOKE") else (1_000, 200))


def main():
    # --- SSA: A -> B ---------------------------------------------------
    network = kinetics.isomerization(a0=200, rate=1.0,
                                     output_times=(0.25, 0.5, 1.0, 2.0))
    result = parmonc(kinetics.make_realization(network),
                     nrow=4, ncol=2, maxsv=SSA_RUNS, processors=2,
                     use_files=False)
    exact = 200.0 * np.exp(-np.array(network.output_times))
    print(f"SSA, A -> B with A(0) = 200 ({result.total_volume} "
          "trajectories)\n")
    print("   t    E A(t) est   exact     eps")
    # abs_error is computed on every read: bind it once.
    abs_error = result.estimates.abs_error
    for row, t in enumerate(network.output_times):
        print(f"{t:5.2f}  {result.estimates.mean[row, 0]:10.2f}  "
              f"{exact[row]:7.2f}  {abs_error[row, 0]:6.2f}")

    # --- Smoluchowski coagulation --------------------------------------
    problem = coagulation.CoagulationProblem(
        n0=400, output_times=(0.5, 1.0, 2.0, 4.0), max_size=4)
    result = parmonc(coagulation.make_realization(problem),
                     nrow=4, ncol=5, maxsv=COAGULATION_RUNS,
                     processors=2, use_files=False)
    exact_matrix = problem.exact_matrix()
    print("\nconstant-kernel coagulation, 400 monomers "
          f"({result.total_volume} Marcus-Lushnikov trajectories)\n")
    print("   t    N(t) est   N(t) exact   c_1 est   c_1 exact")
    for row, t in enumerate(problem.output_times):
        print(f"{t:5.2f}  {result.estimates.mean[row, 0]:9.4f}  "
              f"{exact_matrix[row, 0]:10.4f}   "
              f"{result.estimates.mean[row, 1]:8.4f}  "
              f"{exact_matrix[row, 1]:9.4f}")
    worst = np.abs(result.estimates.mean - exact_matrix).max()
    print(f"\nmax |estimate - mean-field| over the spectrum: {worst:.4f} "
          "(finite-size bias is O(1/n0))")


if __name__ == "__main__":
    main()
