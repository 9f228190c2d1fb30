"""Solving a PDE by Monte Carlo: walk-on-spheres for the Laplace equation.

Section 2.1's founding application area — stochastic representations of
PDE solutions.  The Dirichlet problem on the unit disk with boundary
data g(x, y) = Re((x+iy)^2) = x^2 - y^2 has the exact solution
u(r, theta) = r^2 cos(2 theta); this example estimates u along a radius
with walk-on-spheres realizations and prints estimate vs exact.

Run:  python examples/pde_laplace.py
"""

from repro import parmonc
from repro.apps.pde import DirichletDisk, harmonic_polynomial, \
    make_realization


def main():
    radii = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9)
    points = tuple((r, 0.0) for r in radii)  # theta = 0: u = r^2
    problem = DirichletDisk(harmonic_polynomial(2), points,
                            epsilon=1e-3)
    result = parmonc(make_realization(problem),
                     nrow=len(points), ncol=1,
                     maxsv=4_000, processors=2, use_files=False)
    estimates = result.estimates
    # abs_error is computed on every read: bind it once.
    abs_error = estimates.abs_error
    exact = problem.exact_for(harmonic_polynomial(2))
    print("Dirichlet problem on the unit disk, g = x^2 - y^2 "
          f"({result.total_volume} walks per point)\n")
    print("   r     u estimated   u exact    3-sigma")
    for row, r in enumerate(radii):
        print(f"{r:5.2f}   {estimates.mean[row, 0]:11.4f}   "
              f"{exact[row, 0]:7.4f}   {abs_error[row, 0]:7.4f}")
    inside = (abs(estimates.mean - exact) <= abs_error + 5e-3).mean()
    print(f"\nwithin 3-sigma + WoS bias at {inside * 100:.0f}% of points "
          "(mean walk cost ~ log(1/epsilon) jumps)")


if __name__ == "__main__":
    main()
