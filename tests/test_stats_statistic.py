"""Tests for the mergeable-statistic abstraction (repro.stats.statistic).

Covers the registry, the normalization of statistic specs, and every
built-in implementation: scalar/batch bit-identity, payload round-trips,
merge semantics, and validation of malformed input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.stats.accumulator import MOMENT_WORDS_PER_ENTRY, MomentAccumulator
from repro.stats.merging import merge_statistic_maps, merge_statistics
from repro.stats.statistic import (
    DEFAULT_STATISTICS,
    Counter,
    Covariance,
    Extrema,
    Histogram,
    Moments,
    Statistic,
    StatisticSet,
    create_statistic,
    normalize_statistics,
    payload_map,
    register_statistic,
    statistic_class,
    statistic_from_payload,
    statistic_kinds,
    statistics_from_payload_map,
)

EXTRA_KINDS = ("covariance", "histogram", "extrema", "counter")


def _sample(count: int, nrow: int = 2, ncol: int = 3,
            seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(scale=2.0, size=(count, nrow, ncol))


class TestRegistry:
    def test_builtins_registered(self):
        kinds = statistic_kinds()
        assert "moments" in kinds
        for kind in EXTRA_KINDS:
            assert kind in kinds

    def test_statistic_class_roundtrip(self):
        for kind in ("moments",) + EXTRA_KINDS:
            cls = statistic_class(kind)
            assert cls.kind == kind
            statistic = create_statistic(kind, 2, 2)
            assert isinstance(statistic, cls)
            assert statistic.shape == (2, 2)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError, match="unknown statistic"):
            statistic_class("no-such-kind")

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            @register_statistic
            class Impostor(Statistic):  # noqa: F811
                kind = "histogram"

    def test_custom_kind_registers_and_runs(self):
        @register_statistic
        class AbsSum(Statistic):
            kind = "test-abs-sum"

            def __init__(self, nrow, ncol):
                super().__init__(nrow, ncol)
                self._total = np.zeros((nrow, ncol))

            def _update(self, matrices):
                self._total += np.abs(matrices).sum(axis=0)

            def _merge(self, other):
                self._total += other._total

            def _payload(self):
                return {"total": self._total.tolist()}

            def _restore(self, payload):
                self._total = np.asarray(payload["total"], dtype=np.float64)

            def _words(self):
                return self._size + 1

        try:
            statistic = create_statistic("test-abs-sum", 1, 1)
            statistic.update(-2.0)
            statistic.update(3.0)
            assert statistic.volume == 2
            restored = statistic_from_payload(statistic.to_payload())
            assert restored.to_payload() == statistic.to_payload()
            assert normalize_statistics(["test-abs-sum"]) == (
                "moments", "test-abs-sum")
        finally:
            from repro.stats import statistic as module
            module._REGISTRY.pop("test-abs-sum", None)


class TestNormalizeStatistics:
    def test_default(self):
        assert normalize_statistics(None) == DEFAULT_STATISTICS
        assert normalize_statistics(()) == DEFAULT_STATISTICS

    def test_moments_always_first_and_deduped(self):
        assert normalize_statistics(["histogram", "moments",
                                     "histogram"]) == (
            "moments", "histogram")

    def test_comma_string(self):
        assert normalize_statistics("covariance, extrema") == (
            "moments", "covariance", "extrema")

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            normalize_statistics(["bogus"])


class TestScalarBatchIdentity:
    """One batched update must equal the per-realization loop, bitwise."""

    @pytest.mark.parametrize("kind", EXTRA_KINDS)
    def test_batch_equals_scalar_loop(self, kind):
        matrices = _sample(37)
        scalar = create_statistic(kind, 2, 3)
        for matrix in matrices:
            scalar.update(matrix)
        batched = create_statistic(kind, 2, 3)
        batched.update(matrices, count=len(matrices))
        assert batched.volume == scalar.volume == 37
        assert batched.to_payload() == scalar.to_payload()

    def test_covariance_batch_widths_do_not_change_bits(self):
        matrices = _sample(101, 1, 2)
        whole = create_statistic("covariance", 1, 2)
        whole.update(matrices, count=101)
        pieces = create_statistic("covariance", 1, 2)
        for start in (0, 3, 50, 83):
            stop = {0: 3, 3: 50, 50: 83, 83: 101}[start]
            pieces.update(matrices[start:stop], count=stop - start)
        assert pieces.to_payload() == whole.to_payload()


class TestPayloadRoundTrip:
    @pytest.mark.parametrize("kind", ("moments",) + EXTRA_KINDS)
    def test_roundtrip_preserves_payload(self, kind):
        statistic = create_statistic(kind, 2, 3)
        statistic.update(_sample(19), count=19)
        payload = statistic.to_payload()
        restored = statistic_from_payload(payload)
        assert restored.kind == kind
        assert restored.volume == 19
        assert restored.to_payload() == payload

    def test_empty_extrema_roundtrip(self):
        statistic = create_statistic("extrema", 2, 2)
        restored = statistic_from_payload(statistic.to_payload())
        assert restored.volume == 0

    @pytest.mark.parametrize("kind", EXTRA_KINDS)
    def test_malformed_payload_raises(self, kind):
        statistic = create_statistic(kind, 1, 2)
        statistic.update(np.array([[0.5, -0.5]]))
        payload = statistic.to_payload()
        del payload["volume"]
        with pytest.raises(ConfigurationError, match="malformed"):
            statistic_from_payload(payload)

    def test_wrong_kind_rejected(self):
        statistic = create_statistic("extrema", 1, 1)
        payload = statistic.to_payload()
        payload["kind"] = "histogram"
        with pytest.raises(ConfigurationError):
            Extrema.from_payload(payload)

    def test_negative_histogram_counts_rejected(self):
        statistic = create_statistic("histogram", 1, 1)
        statistic.update(0.25)
        payload = statistic.to_payload()
        payload["counts"][0][0] = -1
        with pytest.raises(ConfigurationError):
            statistic_from_payload(payload)

    def test_payload_map_helpers(self):
        statistics = {kind: create_statistic(kind, 1, 1)
                      for kind in EXTRA_KINDS}
        for statistic in statistics.values():
            statistic.update(0.5)
        payloads = payload_map(statistics)
        assert set(payloads) == set(EXTRA_KINDS)
        known, unknown = statistics_from_payload_map(payloads)
        assert set(known) == set(EXTRA_KINDS)
        assert unknown == ()
        payloads["mystery"] = {"kind": "mystery", "anything": 1}
        known, unknown = statistics_from_payload_map(payloads)
        assert unknown == ("mystery",)


class TestMerge:
    @pytest.mark.parametrize("kind", ("histogram", "extrema", "counter"))
    def test_integer_merge_is_exactly_the_union(self, kind):
        matrices = _sample(40)
        whole = create_statistic(kind, 2, 3)
        whole.update(matrices, count=40)
        left = create_statistic(kind, 2, 3)
        left.update(matrices[:17], count=17)
        right = create_statistic(kind, 2, 3)
        right.update(matrices[17:], count=23)
        left.merge(right)
        assert left.to_payload() == whole.to_payload()

    def test_covariance_merge_is_formula_exact(self):
        matrices = _sample(30, 1, 2)
        whole = create_statistic("covariance", 1, 2)
        whole.update(matrices, count=30)
        left = create_statistic("covariance", 1, 2)
        left.update(matrices[:11], count=11)
        right = create_statistic("covariance", 1, 2)
        right.update(matrices[11:], count=19)
        left.merge(right)
        assert left.volume == 30
        assert np.allclose(left.accumulator.covariance(),
                           whole.accumulator.covariance())

    def test_kind_mismatch_raises(self):
        histogram = create_statistic("histogram", 1, 1)
        with pytest.raises(ConfigurationError):
            histogram.merge(create_statistic("extrema", 1, 1))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            create_statistic("extrema", 1, 1).merge(
                create_statistic("extrema", 2, 2))

    def test_histogram_binning_mismatch_raises(self):
        class Narrow(Histogram):
            DEFAULT_LO = 0.0
            DEFAULT_HI = 1.0

        with pytest.raises(ConfigurationError):
            create_statistic("histogram", 1, 1).merge(Narrow(1, 1))

    def test_merge_statistics_helper(self):
        parts = []
        for seed in (1, 2, 3):
            statistic = create_statistic("counter", 1, 1)
            statistic.update(_sample(5, 1, 1, seed=seed), count=5)
            parts.append(statistic)
        merged = merge_statistics(parts)
        assert merged.volume == 15
        assert parts[0].volume == 5  # inputs untouched

    def test_merge_statistic_maps_union(self):
        first = {"extrema": create_statistic("extrema", 1, 1)}
        first["extrema"].update(1.0)
        second = {"extrema": create_statistic("extrema", 1, 1),
                  "counter": create_statistic("counter", 1, 1)}
        second["extrema"].update(-3.0)
        second["counter"].update(-3.0)
        merged = merge_statistic_maps([first, second])
        assert merged["extrema"].volume == 2
        assert merged["extrema"].minimum[0, 0] == -3.0
        assert merged["counter"].volume == 1
        assert first["extrema"].volume == 1  # inputs untouched


class TestImplementations:
    def test_histogram_under_and_overflow(self):
        statistic = Histogram(1, 1)
        statistic.update(np.array([[[-100.0]], [[100.0]], [[0.0]]]),
                         count=3)
        assert statistic.underflow == 1
        assert statistic.overflow == 1
        assert statistic.bin_counts.sum() == 1
        assert statistic.volume == 3

    def test_extrema_bounds(self):
        statistic = Extrema(1, 2)
        statistic.update(np.array([[1.0, -2.0]]))
        statistic.update(np.array([[-5.0, 7.0]]))
        assert statistic.minimum.tolist() == [[-5.0, -2.0]]
        assert statistic.maximum.tolist() == [[1.0, 7.0]]

    def test_counter_signs(self):
        statistic = Counter(1, 1)
        statistic.update(np.array([[[-1.0]], [[0.0]], [[2.0]], [[3.0]]]),
                         count=4)
        assert statistic.negative[0, 0] == 1
        assert statistic.zero[0, 0] == 1
        assert statistic.positive[0, 0] == 2

    def test_nonfinite_rejected(self):
        for kind in EXTRA_KINDS:
            statistic = create_statistic(kind, 1, 1)
            with pytest.raises(Exception):
                statistic.update(float("nan"))
            assert statistic.volume == 0

    def test_nbytes_model(self):
        assert create_statistic("moments", 10, 2).nbytes == (
            8 * MOMENT_WORDS_PER_ENTRY * 20)
        histogram = Histogram(1, 1)
        assert histogram.nbytes == 8 * (histogram.bins + 2 + 3)
        assert Covariance(1, 2).nbytes == 8 * (2 + 4 + 1)
        assert Extrema(2, 2).nbytes == 8 * (2 * 4 + 1)
        assert Counter(2, 2).nbytes == 8 * (3 * 4 + 1)

    @pytest.mark.parametrize("kind", EXTRA_KINDS)
    def test_snapshot_is_frozen_independent_and_scratch_free(self, kind):
        statistic = create_statistic(kind, 2, 3)
        statistic.update(_sample(7), count=7)   # batched: scratch in use
        frozen = statistic.snapshot()
        before = statistic.to_payload()
        assert type(frozen) is type(statistic)
        assert frozen.to_payload() == before
        assert frozen.nbytes == statistic.nbytes

        def arrays(obj):
            return [value for value in vars(obj).values()
                    if isinstance(value, np.ndarray)]

        # As small as its payload (no batch scratch, no staging block)
        # and sharing no array with the live statistic.
        holders = [(frozen, statistic)]
        assert all(getattr(frozen, name) is None
                   for name in type(statistic)._scratch_names)
        if kind == "covariance":
            holders.append((frozen.accumulator, statistic.accumulator))
            assert statistic.accumulator._buffer is not None
            assert frozen.accumulator._buffer is None
        for copy, live in holders:
            assert not any(np.shares_memory(a, b)
                           for a in arrays(copy) for b in arrays(live))
        statistic.update(_sample(5, seed=11), count=5)
        assert frozen.to_payload() == before
        frozen.merge(statistic.snapshot())       # still a working statistic
        assert frozen.volume == 7 + 12

    def test_moments_wraps_accumulator_bitwise(self):
        matrices = _sample(25, 1, 1)
        statistic = Moments(1, 1)
        reference = MomentAccumulator(1, 1)
        for matrix in matrices:
            statistic.update(matrix)
            reference.add(matrix)
        ours = statistic.moment_snapshot()
        theirs = reference.snapshot()
        assert np.array_equal(ours.sum1, theirs.sum1)
        assert np.array_equal(ours.sum2, theirs.sum2)
        assert ours.volume == theirs.volume


class TestStatisticSet:
    def test_for_run_orders_moments_first(self):
        statistics = StatisticSet.for_run(
            ("moments", "histogram", "extrema"), 1, 2)
        assert statistics.kinds == ("moments", "histogram", "extrema")
        assert isinstance(statistics.moments, MomentAccumulator)
        assert len(statistics.extras) == 2

    def test_moments_only_snapshot_is_none(self):
        statistics = StatisticSet.for_run(DEFAULT_STATISTICS, 1, 1)
        statistics.update(0.5)
        assert statistics.extras_snapshot() is None

    def test_update_feeds_every_statistic(self):
        statistics = StatisticSet.for_run(
            ("moments", "counter", "extrema"), 1, 1)
        statistics.update(-1.5)
        statistics.update_batch(np.array([[[0.5]], [[2.5]]]))
        assert statistics.moments.volume == 3
        snapshot = statistics.extras_snapshot()
        assert snapshot["counter"].volume == 3
        assert snapshot["extrema"].maximum[0, 0] == 2.5

    @pytest.mark.parametrize("kind", EXTRA_KINDS)
    def test_one_volume_however_the_realizations_arrived(self, kind):
        # Scalar update, raw batched fold, merge and payload restore
        # all keep the base's count; Covariance used to keep its own
        # beside it and the two drifted apart.
        statistics = StatisticSet.for_run(("moments", kind), 2, 3)
        statistics.update(_sample(1)[0])
        statistics.update_batch(_sample(4, seed=8))
        [statistic] = statistics.extras
        other = create_statistic(kind, 2, 3)
        other.update(_sample(2, seed=9), count=2)
        statistic.merge(other)
        restored = statistic_from_payload(statistic.to_payload())
        for item in (statistic, statistic.snapshot(), restored):
            assert item.volume == 7
            assert "volume=7" in repr(item) and "volume=7" in item.describe()
        if kind == "covariance":
            assert statistic.accumulator.volume == 7
            assert restored.accumulator.volume == 7

    def test_invalid_update_leaves_extras_untouched(self):
        statistics = StatisticSet.for_run(("moments", "counter"), 1, 1)
        with pytest.raises(Exception):
            statistics.update(float("inf"))
        assert statistics.moments.volume == 0
        assert statistics.extras[0].volume == 0
