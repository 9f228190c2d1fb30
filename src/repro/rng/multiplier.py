"""Multipliers and leap parameters of the PARMONC parallel generator.

The base generator (paper formula (6)) is the multiplicative congruential
generator

    u_0 = 1,   u_{k+1} = u_k * A  (mod 2**r),   alpha_k = u_k * 2**-r

with ``r = 128`` and ``A = 5**101 (mod 2**128)`` (the Dyadkin–Hamilton
multiplier).  Its period is ``2**(r-2) = 2**126`` (formula (7)); PARMONC
recommends consuming only the first half, i.e. the first ``2**125``
numbers.

Independent streams are obtained by "leaps" (formula (8)): the stream
starting ``n`` steps ahead of state ``u`` has initial state
``u * A(n) (mod 2**128)`` where ``A(n) = A**n (mod 2**128)``.  PARMONC
uses a three-level hierarchy of leaps — experiments, processors,
realizations — whose default lengths are powers of two recovered here
from the paper's capacity arithmetic (section 2.4):

    n_e = 2**115  ->  2**125 / 2**115 = 2**10  experiments,
    n_p = 2**98   ->  2**115 / 2**98  = 2**17  processors/experiment,
    n_r = 2**43   ->  2**98  / 2**43  = 2**55  realizations/processor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "MODULUS_BITS",
    "MODULUS",
    "STATE_MASK",
    "BASE_MULTIPLIER",
    "PERIOD",
    "RECOMMENDED_LIMIT",
    "DEFAULT_EXPERIMENT_EXPONENT",
    "DEFAULT_PROCESSOR_EXPONENT",
    "DEFAULT_REALIZATION_EXPONENT",
    "jump_multiplier",
    "jump_multiplier_pow2",
    "LeapSet",
    "DEFAULT_LEAPS",
]

#: Word size ``r`` of the congruential generator.
MODULUS_BITS = 128

#: The modulus ``2**r``.
MODULUS = 1 << MODULUS_BITS

#: Bit mask equivalent to reduction modulo :data:`MODULUS`.
STATE_MASK = MODULUS - 1

#: The Dyadkin–Hamilton multiplier ``A = 5**101 (mod 2**128)``.
BASE_MULTIPLIER = pow(5, 101, MODULUS)

#: Full period of the generator, ``2**(r-2)``.
PERIOD = 1 << (MODULUS_BITS - 2)

#: Only the first half of the period is recommended for use.
RECOMMENDED_LIMIT = PERIOD // 2

#: Default leap exponent for "experiments" subsequences (``n_e = 2**115``).
DEFAULT_EXPERIMENT_EXPONENT = 115

#: Default leap exponent for "processors" subsequences (``n_p = 2**98``).
DEFAULT_PROCESSOR_EXPONENT = 98

#: Default leap exponent for "realizations" subsequences (``n_r = 2**43``).
DEFAULT_REALIZATION_EXPONENT = 43


def jump_multiplier(leap_length: int, base: int = BASE_MULTIPLIER) -> int:
    """Return ``A(n) = base**n (mod 2**128)`` for a leap of ``n`` steps.

    Multiplying a generator state by ``A(n)`` advances the stream by
    exactly ``n`` draws, which is how PARMONC carves disjoint
    subsequences out of the general sequence.

    Args:
        leap_length: The leap ``n``; must be non-negative.
        base: The one-step multiplier, by default :data:`BASE_MULTIPLIER`.

    Raises:
        ConfigurationError: If ``leap_length`` is negative or ``base``
            is even (an even multiplier collapses the state to zero).
    """
    if leap_length < 0:
        raise ConfigurationError(
            f"leap length must be non-negative, got {leap_length}")
    if base % 2 == 0:
        raise ConfigurationError(
            f"multiplier must be odd for a 2**{MODULUS_BITS} modulus, "
            f"got an even value")
    return pow(base, leap_length, MODULUS)


@functools.lru_cache(maxsize=256)
def jump_multiplier_pow2(exponent: int, base: int = BASE_MULTIPLIER) -> int:
    """Return ``A(2**exponent)``, the jump multiplier for a power-of-two leap.

    This is the quantity the ``genparam`` utility computes (section 3.5):
    its command-line arguments are exponents of two.  A pure function of
    its arguments, computed once per ``(exponent, base)``: every
    :class:`~repro.rng.streams.StreamTree` (one per worker assignment)
    would otherwise pay three 128-bit modular powers.
    """
    if exponent < 0:
        raise ConfigurationError(
            f"leap exponent must be non-negative, got {exponent}")
    if exponent >= 4 * MODULUS_BITS:
        # pow() would handle it, but leaps beyond the period are a user
        # error: the subsequence would wrap the whole generator orbit.
        raise ConfigurationError(
            f"leap exponent {exponent} exceeds any sensible value for a "
            f"period-2**{MODULUS_BITS - 2} generator")
    return jump_multiplier(1 << exponent, base)


@dataclass(frozen=True)
class LeapSet:
    """The three leap exponents of the PARMONC subsequence hierarchy.

    The hierarchy requires strictly decreasing leap lengths
    ``n_e > n_p > n_r`` so that "processors" subsequences nest inside an
    "experiments" subsequence and "realizations" subsequences nest inside
    a "processors" subsequence.

    Attributes:
        experiment_exponent: ``log2(n_e)``.
        processor_exponent: ``log2(n_p)``.
        realization_exponent: ``log2(n_r)``.
    """

    experiment_exponent: int = DEFAULT_EXPERIMENT_EXPONENT
    processor_exponent: int = DEFAULT_PROCESSOR_EXPONENT
    realization_exponent: int = DEFAULT_REALIZATION_EXPONENT

    def __post_init__(self) -> None:
        exponents = (self.experiment_exponent, self.processor_exponent,
                     self.realization_exponent)
        for value in exponents:
            if not isinstance(value, int) or value < 0:
                raise ConfigurationError(
                    f"leap exponents must be non-negative integers, "
                    f"got {exponents}")
        if not (self.experiment_exponent > self.processor_exponent
                > self.realization_exponent):
            raise ConfigurationError(
                "leap exponents must be strictly decreasing "
                f"(n_e > n_p > n_r), got {exponents}")
        if self.experiment_exponent >= MODULUS_BITS - 2:
            raise ConfigurationError(
                f"experiment leap 2**{self.experiment_exponent} is not "
                f"smaller than the generator period 2**{MODULUS_BITS - 2}")

    @property
    def experiment_leap(self) -> int:
        """Leap length ``n_e`` between consecutive experiments."""
        return 1 << self.experiment_exponent

    @property
    def processor_leap(self) -> int:
        """Leap length ``n_p`` between consecutive processors."""
        return 1 << self.processor_exponent

    @property
    def realization_leap(self) -> int:
        """Leap length ``n_r`` between consecutive realizations."""
        return 1 << self.realization_exponent

    @property
    def experiment_capacity(self) -> int:
        """Number of disjoint experiments in the recommended half-period."""
        return 1 << (MODULUS_BITS - 3 - self.experiment_exponent)

    @property
    def processor_capacity(self) -> int:
        """Number of disjoint processor streams per experiment."""
        return 1 << (self.experiment_exponent - self.processor_exponent)

    @property
    def realization_capacity(self) -> int:
        """Number of disjoint realization streams per processor."""
        return 1 << (self.processor_exponent - self.realization_exponent)

    def multipliers(self, base: int = BASE_MULTIPLIER) -> tuple[int, int, int]:
        """Return ``(A(n_e), A(n_p), A(n_r))`` for this leap set."""
        return (
            jump_multiplier_pow2(self.experiment_exponent, base),
            jump_multiplier_pow2(self.processor_exponent, base),
            jump_multiplier_pow2(self.realization_exponent, base),
        )


#: The PARMONC default hierarchy: ``n_e = 2**115``, ``n_p = 2**98``,
#: ``n_r = 2**43``.
DEFAULT_LEAPS = LeapSet()
