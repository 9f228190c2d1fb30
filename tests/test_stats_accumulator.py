"""Tests for repro.stats.accumulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.stats.accumulator import MomentAccumulator, MomentSnapshot


class TestAccumulation:
    def test_scalar_means(self):
        accumulator = MomentAccumulator(1, 1)
        accumulator.add(2.0)
        accumulator.add(4.0)
        estimates = accumulator.estimates()
        assert estimates.mean[0, 0] == 3.0
        assert estimates.volume == 2

    def test_matrix_accumulation(self):
        accumulator = MomentAccumulator(2, 3)
        accumulator.add(np.arange(6.0).reshape(2, 3))
        accumulator.add(np.arange(6.0).reshape(2, 3) * 3)
        estimates = accumulator.estimates()
        assert np.allclose(estimates.mean,
                           2 * np.arange(6.0).reshape(2, 3))

    def test_volume_and_len(self):
        accumulator = MomentAccumulator(1, 1)
        for i in range(7):
            accumulator.add(float(i))
        assert accumulator.volume == 7
        assert len(accumulator) == 7

    def test_compute_time_tracked(self):
        accumulator = MomentAccumulator(1, 1)
        accumulator.add(1.0, compute_time=0.5)
        accumulator.add(1.0, compute_time=1.5)
        assert accumulator.compute_time == pytest.approx(2.0)
        assert accumulator.estimates().mean_time == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        accumulator = MomentAccumulator(2, 2)
        with pytest.raises(ConfigurationError):
            accumulator.add(np.zeros((2, 3)))

    def test_scalar_rejected_for_matrix_problem(self):
        accumulator = MomentAccumulator(2, 2)
        with pytest.raises(ConfigurationError):
            accumulator.add(1.0)

    def test_nan_rejected(self):
        accumulator = MomentAccumulator(1, 1)
        with pytest.raises(ConfigurationError):
            accumulator.add(float("nan"))

    def test_inf_rejected(self):
        accumulator = MomentAccumulator(1, 1)
        with pytest.raises(ConfigurationError):
            accumulator.add(float("inf"))

    def test_negative_compute_time_rejected(self):
        accumulator = MomentAccumulator(1, 1)
        with pytest.raises(ConfigurationError):
            accumulator.add(1.0, compute_time=-0.1)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            MomentAccumulator(0, 1)

    def test_reset(self):
        accumulator = MomentAccumulator(1, 1)
        accumulator.add(5.0, compute_time=1.0)
        accumulator.reset()
        assert accumulator.volume == 0
        assert accumulator.compute_time == 0.0
        accumulator.add(1.0)
        assert accumulator.estimates().mean[0, 0] == 1.0

    def test_repr(self):
        assert "volume=0" in repr(MomentAccumulator(3, 2))


class TestSnapshot:
    def test_snapshot_is_immutable_copy(self):
        accumulator = MomentAccumulator(1, 1)
        accumulator.add(1.0)
        snapshot = accumulator.snapshot()
        accumulator.add(100.0)
        assert snapshot.volume == 1
        assert snapshot.sum1[0, 0] == 1.0

    def test_zero_snapshot(self):
        snapshot = MomentSnapshot.zero(2, 3)
        assert snapshot.volume == 0
        assert snapshot.shape == (2, 3)

    def test_serialization_roundtrip(self):
        accumulator = MomentAccumulator(2, 2)
        accumulator.add(np.array([[1.0, 2.0], [3.0, 4.0]]),
                        compute_time=0.25)
        snapshot = accumulator.snapshot()
        restored = MomentSnapshot.from_dict(snapshot.to_dict())
        assert np.array_equal(restored.sum1, snapshot.sum1)
        assert np.array_equal(restored.sum2, snapshot.sum2)
        assert restored.volume == snapshot.volume
        assert restored.compute_time == snapshot.compute_time

    def test_from_dict_malformed(self):
        with pytest.raises(ConfigurationError):
            MomentSnapshot.from_dict({"sum1": [[1.0]]})

    def test_snapshot_validation(self):
        with pytest.raises(ConfigurationError):
            MomentSnapshot(sum1=np.zeros((1, 1)), sum2=np.zeros((2, 2)),
                           volume=0)
        with pytest.raises(ConfigurationError):
            MomentSnapshot(sum1=np.zeros((1, 1)), sum2=np.zeros((1, 1)),
                           volume=-1)
        with pytest.raises(ConfigurationError):
            MomentSnapshot(sum1=np.zeros((1, 1)), sum2=np.zeros((1, 1)),
                           volume=0, compute_time=-1.0)

    def test_estimates_from_snapshot(self):
        accumulator = MomentAccumulator(1, 1)
        accumulator.add(3.0)
        assert accumulator.snapshot().estimates().mean[0, 0] == 3.0


class TestMergeSnapshot:
    def test_merge_equals_joint_accumulation(self):
        joint = MomentAccumulator(1, 2)
        part_a = MomentAccumulator(1, 2)
        part_b = MomentAccumulator(1, 2)
        for i in range(10):
            row = np.array([[float(i), float(i * i)]])
            joint.add(row)
            (part_a if i % 2 == 0 else part_b).add(row)
        part_a.merge_snapshot(part_b.snapshot())
        assert np.allclose(part_a.estimates().mean, joint.estimates().mean)
        assert part_a.volume == joint.volume

    def test_merge_shape_mismatch(self):
        accumulator = MomentAccumulator(1, 1)
        with pytest.raises(ConfigurationError):
            accumulator.merge_snapshot(MomentSnapshot.zero(2, 2))

    def test_merge_any_split_is_exact(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                                  allow_nan=False, allow_infinity=False)

        @hypothesis.settings(max_examples=50)
        @hypothesis.given(
            values=st.lists(finite_floats, min_size=1, max_size=30),
            split=st.integers(0, 30))
        def check(values, split):
            split = min(split, len(values))
            joint = MomentAccumulator(1, 1)
            left = MomentAccumulator(1, 1)
            right = MomentAccumulator(1, 1)
            for index, value in enumerate(values):
                joint.add(value)
                (left if index < split else right).add(value)
            left.merge_snapshot(right.snapshot())
            assert left.snapshot().sum1 \
                == pytest.approx(joint.snapshot().sum1)
            assert left.snapshot().sum2 \
                == pytest.approx(joint.snapshot().sum2)
            assert left.volume == joint.volume

        check()


# Values at the edges of float64: signed zeros, subnormals, the largest
# magnitudes, and 1e200, whose square overflows.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1.7e308, -1.7e308, 1e200, -1e200, 1.0, -2.5)

INPUT_FORMS = ("float64", "list", "float32", "int", "fortran", "strided",
               "bare")


def _as_input(matrix: np.ndarray, form: str):
    """``matrix`` in one of the forms :meth:`MomentAccumulator.add` takes."""
    if form == "bare":
        return float(matrix[0, 0])
    if form == "list":
        return matrix.tolist()
    if form == "float32":
        return matrix.astype(np.float32)
    if form == "int":
        return matrix.astype(np.int64)
    if form == "fortran":
        return np.asfortranarray(matrix)
    if form == "strided":
        wide = np.zeros((matrix.shape[0], 2 * matrix.shape[1]))
        wide[:, ::2] = matrix
        return wide[:, ::2]
    return matrix.copy()


def _reference_fold(sums, realization, shape):
    """The fold add() has always done, written out: asarray, reshape a
    bare float, reject any non-finite entry, add the matrix and its
    square.  Returns the new sums, or None for a rejection."""
    matrix = np.asarray(realization, dtype=np.float64)
    if matrix.shape == () and shape == (1, 1):
        matrix = matrix.reshape(1, 1)
    assert matrix.shape == shape
    if not np.all(np.isfinite(matrix)):
        return None
    sum1, sum2 = sums
    return sum1 + matrix, sum2 + matrix * matrix


def _state(accumulator):
    snapshot = accumulator.snapshot()
    return (snapshot.sum1.tobytes(), snapshot.sum2.tobytes(),
            snapshot.volume, np.float64(snapshot.compute_time).tobytes())


class TestAddRejectionContract:
    def test_accepts_like_the_asarray_fold_and_rejects_unchanged(self):
        # Every input form on every shape: each edge value passes
        # through every entry position, and after every accepted step
        # the same matrix comes back with one entry poisoned (NaN,
        # +inf, -inf in turn).
        wide = np.random.default_rng(4).standard_normal(6) \
            * 10.0 ** np.arange(-300, 300, 100)
        pools = {"float32": np.array([0.0, -0.0, 1e-45, -1e-45, 3.4e38,
                                      -3.4e38, 1.0, -2.5, 0.1],
                                     np.float32).astype(np.float64),
                 "int": np.array([0, 1, -1, 2 ** 53, -2 ** 53, 12345,
                                  -7], np.float64)}
        poisons = (np.nan, np.inf, -np.inf)
        for shape in [(1, 1), (1, 3), (2, 2), (3, 2)]:
            size = shape[0] * shape[1]
            for form in INPUT_FORMS if size == 1 else INPUT_FORMS[:-1]:
                accumulator = MomentAccumulator(*shape)
                sums = (np.zeros(shape), np.zeros(shape))
                compute_time = 0.0
                pool = pools.get(form, np.concatenate([EDGE_VALUES, wide]))
                for step in range(len(pool)):
                    matrix = np.roll(pool, -step)[:size].reshape(shape)
                    seconds = (0.0, 0.25, 1e-6)[step % 3]
                    realization = _as_input(matrix, form)
                    with np.errstate(over="ignore"):
                        sums = _reference_fold(sums, realization, shape)
                        accumulator.add(realization, seconds)
                    compute_time += seconds
                    after = (sums[0].tobytes(), sums[1].tobytes(), step + 1,
                             np.float64(compute_time).tobytes())
                    assert _state(accumulator) == after, (form, step)
                    if form == "int":
                        continue
                    row, col = divmod(step % size, shape[1])
                    realization = _as_input(matrix, form)
                    if form == "bare":
                        realization = float(poisons[step % 3])
                    elif form == "list":
                        realization[row][col] = poisons[step % 3]
                    else:
                        realization[row, col] = poisons[step % 3]
                    assert _reference_fold(sums, realization, shape) is None
                    with pytest.raises(ConfigurationError,
                                       match="non-finite"):
                        accumulator.add(realization, seconds)
                    assert _state(accumulator) == after, (form, step)

    @pytest.mark.parametrize("form",
                             ["float64", "list", "fortran", "strided"])
    def test_square_overflow_is_accepted(self, form):
        # 1e200 is finite; only its square overflows, as it always has.
        accumulator = MomentAccumulator(2, 2)
        matrix = np.array([[1e200, 1.0], [-1e200, 0.5]])
        with np.errstate(over="ignore"):
            accumulator.add(_as_input(matrix, form))
        snapshot = accumulator.snapshot()
        assert accumulator.volume == 1
        assert np.array_equal(snapshot.sum1, matrix)
        assert snapshot.sum2[0, 0] == snapshot.sum2[1, 0] == np.inf
        assert snapshot.sum2[0, 1] == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejection_leaves_every_field_unchanged(self, bad):
        # The Fig. 2 shape: long enough for the BLAS dot product to run
        # its unrolled blocks, which the property's small shapes do not.
        accumulator = MomentAccumulator(1000, 2)
        accumulator.add(np.linspace(-1.0, 1.0, 2000).reshape(1000, 2), 0.5)
        before = _state(accumulator)
        for index in (0, 777, 1999):
            matrix = np.ones((1000, 2))
            matrix.flat[index] = bad
            with pytest.raises(ConfigurationError, match="non-finite"):
                accumulator.add(matrix, 0.25)
        assert _state(accumulator) == before


class TestSnapshotsShareNothing:
    def test_an_earlier_snapshot_keeps_its_bytes(self):
        accumulator = MomentAccumulator(3, 2)
        accumulator.add(np.arange(6.0).reshape(3, 2), 0.5)
        snapshot = accumulator.snapshot()
        kept = (snapshot.sum1.tobytes(), snapshot.sum2.tobytes(),
                snapshot.volume, snapshot.compute_time)
        for step in range(5):
            accumulator.add(np.full((3, 2), float(step + 1)), 0.25)
        accumulator.add_batch(np.ones((40, 3, 2)))
        assert (snapshot.sum1.tobytes(), snapshot.sum2.tobytes(),
                snapshot.volume, snapshot.compute_time) == kept

    def test_no_buffer_is_shared(self):
        accumulator = MomentAccumulator(3, 2)
        accumulator.add(np.arange(6.0).reshape(3, 2))
        first, second = accumulator.snapshot(), accumulator.snapshot()
        live = [accumulator._sum1, accumulator._sum2, accumulator._square,
                accumulator._zeros]
        arrays = [first.sum1, first.sum2, second.sum1, second.sum2]
        for index, array in enumerate(arrays):
            for other in arrays[index + 1:] + live:
                assert not np.shares_memory(array, other)
