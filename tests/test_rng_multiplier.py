"""Tests for repro.rng.multiplier: constants, jumps and the leap hierarchy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.rng.multiplier import (
    BASE_MULTIPLIER,
    DEFAULT_LEAPS,
    MODULUS,
    MODULUS_BITS,
    PERIOD,
    RECOMMENDED_LIMIT,
    STATE_MASK,
    LeapSet,
    jump_multiplier,
    jump_multiplier_pow2,
)


class TestConstants:
    def test_modulus_is_2_pow_128(self):
        assert MODULUS == 2 ** 128
        assert MODULUS_BITS == 128
        assert STATE_MASK == MODULUS - 1

    def test_base_multiplier_is_5_pow_101(self):
        assert BASE_MULTIPLIER == pow(5, 101, 2 ** 128)

    def test_base_multiplier_is_odd(self):
        assert BASE_MULTIPLIER % 2 == 1

    def test_period_formula_6_and_7(self):
        # Paper formula (7): L_r = 2**(r-2).
        assert PERIOD == 2 ** 126

    def test_recommended_limit_is_half_period(self):
        # "it is recommended to use the first half of the period only,
        # particularly, the first 2**125 random numbers".
        assert RECOMMENDED_LIMIT == 2 ** 125

    def test_multiplier_congruent_5_mod_8(self):
        # The maximal-period condition for a multiplicative generator
        # modulo 2**r is A = 3 or 5 (mod 8).  5**101 = 5 (mod 8); an
        # even 5-exponent (e.g. the OCR-plausible 5**100, which is
        # 1 mod 8) would cut the period to 2**124 — this is why the
        # exponent must be 101.
        assert BASE_MULTIPLIER % 8 == 5

    def test_multiplier_order_via_2adic_structure(self):
        # The order of A in (Z/2**128)* equals 2**126 iff A**(2**125)
        # != 1; squaring once more must give 1.
        assert pow(BASE_MULTIPLIER, 1 << 125, MODULUS) != 1
        assert pow(BASE_MULTIPLIER, 1 << 126, MODULUS) == 1

    def test_orbit_period_on_small_modulus_analogue(self):
        # Directly verify the period claim on a small analogue (r=16):
        # the orbit of 1 under A = 5**101 mod 2**16 has length 2**14.
        modulus = 1 << 16
        multiplier = pow(5, 101, modulus)
        state = 1
        seen_at = {}
        for step in range(1 << 15):
            if state in seen_at:
                assert step - seen_at[state] == 1 << 14
                break
            seen_at[state] = step
            state = state * multiplier % modulus
        else:
            pytest.fail("orbit did not close within 2**15 steps")


class TestJumpMultiplier:
    def test_identity_jump(self):
        assert jump_multiplier(0) == 1

    def test_single_step(self):
        assert jump_multiplier(1) == BASE_MULTIPLIER

    def test_matches_pow(self):
        assert jump_multiplier(12345) == pow(BASE_MULTIPLIER, 12345, MODULUS)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            jump_multiplier(-1)

    def test_even_base_rejected(self):
        with pytest.raises(ConfigurationError):
            jump_multiplier(10, base=2)

    @given(a=st.integers(min_value=0, max_value=10 ** 6),
           b=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=50)
    def test_jump_is_homomorphism(self, a, b):
        # A(a) * A(b) == A(a + b) (mod 2**128): composing leaps adds
        # their lengths — the algebra the stream hierarchy relies on.
        assert (jump_multiplier(a) * jump_multiplier(b)) % MODULUS \
            == jump_multiplier(a + b)

    def test_pow2_variant_matches(self):
        for exponent in (0, 1, 7, 43, 98, 115):
            assert jump_multiplier_pow2(exponent) \
                == jump_multiplier(1 << exponent)

    def test_pow2_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            jump_multiplier_pow2(-3)

    def test_pow2_absurd_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            jump_multiplier_pow2(4 * MODULUS_BITS)

    def test_pow2_is_computed_once_per_leap(self, monkeypatch):
        # Every worker assignment builds a StreamTree: its three 128-bit
        # modular powers are paid once per (exponent, base), not per tree.
        from repro.rng import multiplier
        from repro.rng.streams import StreamTree

        expected = tuple(pow(BASE_MULTIPLIER, 1 << exponent, MODULUS)
                         for exponent in (115, 98, 43))
        powers = []
        original = multiplier.jump_multiplier
        monkeypatch.setattr(multiplier, "jump_multiplier",
                            lambda n, base: powers.append(n)
                            or original(n, base))
        jump_multiplier_pow2.cache_clear()
        try:
            for _ in range(3):
                assert StreamTree().jump_multipliers == expected
            assert DEFAULT_LEAPS.multipliers() == expected
        finally:
            jump_multiplier_pow2.cache_clear()
        assert powers == [1 << 115, 1 << 98, 1 << 43]


class TestLeapSet:
    def test_paper_defaults(self):
        assert DEFAULT_LEAPS.experiment_exponent == 115
        assert DEFAULT_LEAPS.processor_exponent == 98
        assert DEFAULT_LEAPS.realization_exponent == 43

    def test_paper_capacity_arithmetic(self):
        # "approximately 2**125 * 2**-115 = 2**10 ~ 10**3 stochastic
        # experiments; ... 2**17 ~ 10**5 processors at most and ...
        # 2**55 ~ 10**16 independent realizations at most".
        assert DEFAULT_LEAPS.experiment_capacity == 2 ** 10
        assert DEFAULT_LEAPS.processor_capacity == 2 ** 17
        assert DEFAULT_LEAPS.realization_capacity == 2 ** 55

    def test_leap_lengths(self):
        assert DEFAULT_LEAPS.experiment_leap == 2 ** 115
        assert DEFAULT_LEAPS.processor_leap == 2 ** 98
        assert DEFAULT_LEAPS.realization_leap == 2 ** 43

    def test_multipliers_match_jump_arithmetic(self):
        a_ne, a_np, a_nr = DEFAULT_LEAPS.multipliers()
        assert a_ne == pow(BASE_MULTIPLIER, 2 ** 115, MODULUS)
        assert a_np == pow(BASE_MULTIPLIER, 2 ** 98, MODULUS)
        assert a_nr == pow(BASE_MULTIPLIER, 2 ** 43, MODULUS)

    def test_non_decreasing_rejected(self):
        with pytest.raises(ConfigurationError):
            LeapSet(experiment_exponent=50, processor_exponent=50,
                    realization_exponent=10)

    def test_increasing_rejected(self):
        with pytest.raises(ConfigurationError):
            LeapSet(experiment_exponent=10, processor_exponent=50,
                    realization_exponent=60)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            LeapSet(experiment_exponent=20, processor_exponent=10,
                    realization_exponent=-1)

    def test_experiment_leap_must_fit_period(self):
        with pytest.raises(ConfigurationError):
            LeapSet(experiment_exponent=126, processor_exponent=98,
                    realization_exponent=43)

    def test_custom_hierarchy_capacities(self):
        leaps = LeapSet(experiment_exponent=20, processor_exponent=12,
                        realization_exponent=6)
        assert leaps.experiment_capacity == 2 ** 105
        assert leaps.processor_capacity == 2 ** 8
        assert leaps.realization_capacity == 2 ** 6

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_LEAPS.experiment_exponent = 7
