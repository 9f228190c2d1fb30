"""Tests for MomentAccumulator.add_batch: bit-identity with repeated add.

``add_batch`` is the batched worker loop's accumulation primitive; its
contract is exact equivalence with calling :meth:`MomentAccumulator.add`
once per row, including the rejection semantics (a poisoned batch must
leave the accumulator untouched).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.stats import MomentAccumulator

# Batch sizes straddling the internal fold chunk (32).
SIZES = [1, 2, 31, 32, 33, 64, 65, 100]
SHAPES = [(1, 1), (2, 1), (1, 3), (5, 4)]


def finite_floats():
    """Hypothesis, imported inside the property tests that use it."""
    hypothesis = pytest.importorskip("hypothesis")
    return hypothesis, hypothesis.strategies.floats(
        min_value=-1e12, max_value=1e12, allow_nan=False,
        allow_infinity=False)


def assert_same(left: MomentAccumulator, right: MomentAccumulator):
    a, b = left.snapshot(), right.snapshot()
    assert np.array_equal(a.sum1, b.sum1)
    assert np.array_equal(a.sum2, b.sum2)
    assert a.volume == b.volume
    assert a.compute_time == b.compute_time


class TestEquivalence:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("size", SIZES)
    def test_matches_repeated_add(self, shape, size):
        rng = np.random.default_rng(size * 31 + shape[0])
        batch = rng.random((size,) + shape) * 200.0 - 100.0
        scalar = MomentAccumulator(*shape)
        batched = MomentAccumulator(*shape)
        # Warm both with a couple of scalar adds so the running sums are
        # non-zero when the batch arrives.
        for row in batch[: min(2, size)]:
            scalar.add(row)
            batched.add(row)
        for row in batch:
            scalar.add(row)
        batched.add_batch(batch)
        assert_same(scalar, batched)

    def test_scalar_problem_property(self):
        hypothesis, finite = finite_floats()
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(values=st.lists(finite, min_size=1, max_size=80))
        def check(values):
            scalar = MomentAccumulator(1, 1)
            batched = MomentAccumulator(1, 1)
            for value in values:
                scalar.add(value)
            batched.add_batch(np.asarray(values))
            assert_same(scalar, batched)

        check()

    def test_matrix_problem_property(self):
        hypothesis, finite = finite_floats()
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(rows=st.lists(
            st.lists(finite, min_size=3, max_size=3),
            min_size=1, max_size=70))
        def check(rows):
            batch = np.asarray(rows, dtype=np.float64).reshape(-1, 1, 3)
            scalar = MomentAccumulator(1, 3)
            batched = MomentAccumulator(1, 3)
            for row in batch:
                scalar.add(row)
            batched.add_batch(batch)
            assert_same(scalar, batched)

        check()

    def test_flat_vector_convenience_for_1x1(self):
        acc = MomentAccumulator(1, 1)
        acc.add_batch([1.0, 2.0, 3.0])
        assert acc.volume == 3
        assert acc.snapshot().sum1[0, 0] == 6.0

    def test_broadcast_view_accepted(self):
        constant = np.full((2, 3), 1.5)
        batch = np.broadcast_to(constant, (40, 2, 3))
        scalar = MomentAccumulator(2, 3)
        batched = MomentAccumulator(2, 3)
        for _ in range(40):
            scalar.add(constant)
        batched.add_batch(batch)
        assert_same(scalar, batched)

    def test_successive_batches_chain(self):
        rng = np.random.default_rng(9)
        batch = rng.random((70, 3, 2))
        scalar = MomentAccumulator(3, 2)
        batched = MomentAccumulator(3, 2)
        for row in batch:
            scalar.add(row)
        batched.add_batch(batch[:33])
        batched.add_batch(batch[33:])
        assert_same(scalar, batched)

    def test_empty_batch_is_noop(self):
        acc = MomentAccumulator(2, 2)
        acc.add(np.ones((2, 2)))
        before = acc.snapshot()
        acc.add_batch(np.empty((0, 2, 2)))
        after = acc.snapshot()
        assert np.array_equal(before.sum1, after.sum1)
        assert before.volume == after.volume


class TestComputeTime:
    def test_accumulates_once_per_batch(self):
        acc = MomentAccumulator(1, 1)
        acc.add_batch(np.ones(5), compute_time=0.25)
        acc.add_batch(np.ones(3), compute_time=0.5)
        assert acc.compute_time == 0.75
        assert acc.volume == 8

    def test_negative_rejected(self):
        acc = MomentAccumulator(1, 1)
        with pytest.raises(ConfigurationError):
            acc.add_batch(np.ones(2), compute_time=-1.0)


class TestRejection:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 40, 99])
    def test_non_finite_rejects_whole_batch(self, bad, position):
        batch = np.ones((100, 2, 2))
        batch[position, 1, 0] = bad
        acc = MomentAccumulator(2, 2)
        acc.add(np.full((2, 2), 3.0))
        before = acc.snapshot()
        with pytest.raises(ConfigurationError, match="non-finite"):
            acc.add_batch(batch)
        after = acc.snapshot()
        assert np.array_equal(before.sum1, after.sum1)
        assert np.array_equal(before.sum2, after.sum2)
        assert before.volume == after.volume == 1

    def test_wrong_inner_shape(self):
        acc = MomentAccumulator(2, 2)
        with pytest.raises(ConfigurationError, match="batch shape"):
            acc.add_batch(np.ones((4, 2, 3)))

    def test_wrong_rank(self):
        acc = MomentAccumulator(2, 2)
        with pytest.raises(ConfigurationError, match="batch shape"):
            acc.add_batch(np.ones((2, 2)))

    def test_flat_vector_rejected_for_matrix_problem(self):
        acc = MomentAccumulator(2, 2)
        with pytest.raises(ConfigurationError, match="batch shape"):
            acc.add_batch(np.ones(4))
