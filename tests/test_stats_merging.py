"""Tests for repro.stats.merging: formula (5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.stats.accumulator import MomentAccumulator, MomentSnapshot
from repro.stats.merging import combine_estimates, merge_snapshots


def snapshot_of(values, shape=(1, 1)):
    accumulator = MomentAccumulator(*shape)
    for value in values:
        accumulator.add(value)
    return accumulator.snapshot()


class TestMergeSnapshots:
    def test_formula_5_unequal_volumes(self):
        # Three "processors" with different sample volumes l_m; the
        # merged mean must be the volume-weighted mean, i.e. the plain
        # mean of the concatenated sample.
        parts = [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]
        merged = merge_snapshots([snapshot_of(p) for p in parts])
        flat = [v for part in parts for v in part]
        assert merged.volume == len(flat)
        assert merged.estimates().mean[0, 0] == pytest.approx(
            np.mean(flat))

    def test_merge_single(self):
        snapshot = snapshot_of([1.0, 2.0])
        merged = merge_snapshots([snapshot])
        assert merged.volume == 2
        assert np.array_equal(merged.sum1, snapshot.sum1)

    def test_merge_empty_iterable_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_snapshots([])

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_snapshots([MomentSnapshot.zero(1, 1),
                             MomentSnapshot.zero(2, 1)])

    def test_merge_accumulates_compute_time(self):
        a = MomentAccumulator(1, 1)
        a.add(1.0, compute_time=2.0)
        b = MomentAccumulator(1, 1)
        b.add(1.0, compute_time=3.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.compute_time == pytest.approx(5.0)

    def test_zero_snapshots_merge_to_zero(self):
        merged = merge_snapshots([MomentSnapshot.zero(1, 1)] * 3)
        assert merged.volume == 0

    def test_does_not_mutate_inputs(self):
        a = snapshot_of([1.0])
        b = snapshot_of([2.0])
        merge_snapshots([a, b])
        assert a.sum1[0, 0] == 1.0
        assert b.sum1[0, 0] == 2.0

    def test_merged_arrays_alias_no_input(self):
        inputs = [snapshot_of([np.full((2, 3), 1.5 * k), np.eye(2, 3)],
                              shape=(2, 3))
                  for k in range(1, 4)]
        inputs.append(MomentSnapshot(
            sum1=np.arange(6, dtype=np.float32).reshape(2, 3),
            sum2=np.ones((2, 3), dtype=np.float32), volume=1))
        before = [(s.sum1.tobytes(), s.sum2.tobytes()) for s in inputs]
        for group in ([inputs[0]], [inputs[-1]], inputs):
            merged = merge_snapshots(group)
            assert merged.sum1.dtype == merged.sum2.dtype == np.float64
            merged.sum1[...] += 1e6
            merged.sum2[...] *= -1.0
            assert [(s.sum1.tobytes(), s.sum2.tobytes())
                    for s in inputs] == before

    @given(chunks=st.lists(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=0,
                 max_size=10),
        min_size=1, max_size=6))
    @settings(max_examples=50)
    def test_merge_is_order_invariant_and_associative(self, chunks):
        snapshots = [snapshot_of(chunk) for chunk in chunks]
        forward = merge_snapshots(snapshots)
        backward = merge_snapshots(list(reversed(snapshots)))
        assert forward.volume == backward.volume
        assert forward.sum1[0, 0] == pytest.approx(backward.sum1[0, 0])
        # Associativity: merging a prefix first changes nothing.
        if len(snapshots) > 2:
            nested = merge_snapshots(
                [merge_snapshots(snapshots[:2]), *snapshots[2:]])
            assert nested.sum1[0, 0] == pytest.approx(forward.sum1[0, 0])
            assert nested.volume == forward.volume


class TestCombineEstimates:
    def test_combined_estimates_match_monolithic(self):
        values = list(np.linspace(0.0, 1.0, 50))
        split = [snapshot_of(values[:20]), snapshot_of(values[20:])]
        combined = combine_estimates(split)
        monolithic = snapshot_of(values).estimates()
        assert combined.mean[0, 0] == pytest.approx(
            monolithic.mean[0, 0])
        assert combined.variance[0, 0] == pytest.approx(
            monolithic.variance[0, 0])
        assert combined.abs_error[0, 0] == pytest.approx(
            monolithic.abs_error[0, 0])

    def test_zero_volume_rejected(self):
        with pytest.raises(ConfigurationError):
            combine_estimates([MomentSnapshot.zero(1, 1)])
