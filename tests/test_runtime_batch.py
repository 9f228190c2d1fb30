"""Tests for the batched worker loop and its adapters.

A batched run must be indistinguishable from the scalar run in every
estimate — only faster.  These tests cover the protocol plumbing
(``batch_routine``, ``make_batched``, ``adapt_realization``), the
run_worker fast path's perpass/deadline/error semantics, batched-vs-
scalar equivalence across backends, and the ``parmonc(batch_size=...)``
entry point.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import parmonc
from repro.exceptions import ConfigurationError, RealizationError
from repro.obs.telemetry import WorkerTelemetry
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.sequential import SequentialBackend
from repro.runtime.worker import (
    adapt_realization,
    batch_routine,
    make_batched,
    run_worker,
)

_BASE = np.linspace(0.0, 1.0, 6).reshape(3, 2)


def scalar_routine(rng):
    return _BASE * rng.random() + rng.random()


def make_batched_kernel(batch_size):
    @batch_routine(batch_size)
    def kernel(streams):
        uniforms = streams.uniforms(2)
        return (_BASE[np.newaxis] * uniforms[:, 0, np.newaxis, np.newaxis]
                + uniforms[:, 1, np.newaxis, np.newaxis])
    return kernel


def config(**overrides):
    defaults = dict(maxsv=100, nrow=3, ncol=2, perpass=0.0, seqnum=1)
    defaults.update(overrides)
    return RunConfig(**defaults)


def solo_run(routine, config):
    return Engine(SequentialBackend(), config, use_files=False).run(routine)


def assert_identical(left, right):
    assert np.array_equal(left.estimates.mean, right.estimates.mean)
    assert np.array_equal(left.estimates.abs_error,
                          right.estimates.abs_error)
    assert left.total_volume == right.total_volume


class TestBatchRoutineDecorator:
    def test_sets_attribute(self):
        kernel = make_batched_kernel(16)
        assert kernel.batch_size == 16

    @pytest.mark.parametrize("bad", [0, -3, 1.5, "8", True, None])
    def test_invalid_sizes_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="batch_size"):
            batch_routine(bad)

    def test_non_callable_rejected(self):
        with pytest.raises(ConfigurationError):
            batch_routine(4)(7)


class TestAdaptRealization:
    def test_batched_routine_passes_through(self):
        kernel = make_batched_kernel(8)
        assert adapt_realization(kernel) is kernel

    def test_invalid_attached_batch_size(self):
        def kernel(streams):
            return streams

        kernel.batch_size = -2
        with pytest.raises(ConfigurationError, match="batch_size"):
            adapt_realization(kernel)

    def test_batched_routine_with_wrong_arity(self):
        @batch_routine(4)
        def kernel(streams, extra):
            return streams

        with pytest.raises(ConfigurationError, match="exactly 1"):
            adapt_realization(kernel)


class TestMakeBatched:
    def test_equivalent_to_scalar_run(self):
        scalar = solo_run(scalar_routine, config())
        wrapped = make_batched(scalar_routine, 16)
        batched = solo_run(wrapped, config())
        assert_identical(scalar, batched)

    def test_rejects_already_batched(self):
        with pytest.raises(ConfigurationError, match="already batched"):
            make_batched(make_batched_kernel(4), 8)

    def test_wraps_zero_argument_routines(self):
        from repro.rng import rnd128

        def legacy():
            return _BASE * rnd128()

        scalar = solo_run(legacy, config())
        batched = solo_run(make_batched(legacy, 8), config())
        assert_identical(scalar, batched)


class TestBatchedWorkerLoop:
    @pytest.mark.parametrize("batch_size", [1, 7, 32, 100, 256])
    def test_identical_estimates_incl_partial_final_block(self,
                                                          batch_size):
        scalar = solo_run(scalar_routine, config())
        batched = solo_run(make_batched_kernel(batch_size), config())
        assert_identical(scalar, batched)

    def test_identical_across_processors(self):
        scalar = solo_run(scalar_routine, config(processors=3))
        batched = solo_run(make_batched_kernel(16), config(processors=3))
        assert_identical(scalar, batched)

    def test_perpass_zero_ships_per_batch(self):
        messages = []
        run_worker(make_batched_kernel(16), config(maxsv=64), rank=0,
                   quota=64, send=messages.append)
        # 4 blocks of 16 -> 4 periodic passes plus the final one.
        assert len(messages) == 5
        assert messages[-1].final
        assert messages[-1].snapshot.volume == 64

    def test_large_perpass_ships_only_final(self):
        messages = []
        run_worker(make_batched_kernel(16), config(maxsv=64, perpass=1e9),
                   rank=0, quota=64, send=messages.append)
        assert len(messages) == 1
        assert messages[0].final

    def test_deadline_stops_between_blocks(self):
        ticks = iter(np.arange(0.0, 1000.0, 0.5))
        messages = []
        run_worker(make_batched_kernel(8), config(maxsv=80),
                   rank=0, quota=80, send=messages.append,
                   clock=lambda: next(ticks), deadline=3.0)
        final = messages[-1]
        assert final.final
        assert final.snapshot.volume < 80
        assert final.snapshot.volume % 8 == 0

    def test_telemetry_counts_batches(self):
        telemetry = WorkerTelemetry(0)
        run_worker(make_batched_kernel(32), config(maxsv=100), rank=0,
                   quota=100, send=lambda message: None,
                   telemetry=telemetry)
        stats = telemetry.as_dict(now=1.0)
        assert stats["realizations"] == 100
        assert stats["batches"] == 4
        assert stats["max_batch"] == 32

    def test_routine_error_wrapped(self):
        @batch_routine(8)
        def broken(streams):
            raise ValueError("kernel exploded")

        with pytest.raises(RealizationError, match="kernel exploded"):
            run_worker(broken, config(), rank=0, quota=16,
                       send=lambda message: None)

    def test_wrong_row_count_rejected(self):
        @batch_routine(8)
        def short(streams):
            return np.ones((3, 3, 2))

        with pytest.raises(RealizationError, match="block of 8"):
            run_worker(short, config(), rank=0, quota=16,
                       send=lambda message: None)

    def test_scalar_return_rejected(self):
        @batch_routine(8)
        def scalarish(streams):
            return 1.0

        with pytest.raises(RealizationError, match="a scalar"):
            run_worker(scalarish, config(), rank=0, quota=16,
                       send=lambda message: None)


class TestBackends:
    def test_simcluster_matches_sequential(self, tmp_path):
        common = dict(nrow=3, ncol=2, maxsv=120, seqnum=1, perpass=0.0,
                      processors=2, use_files=False,
                      workdir=tmp_path)
        scalar = parmonc(scalar_routine, backend="simcluster", **common)
        batched = parmonc(make_batched_kernel(16), backend="simcluster",
                          **common)
        assert_identical(scalar, batched)

    def test_multiprocess_matches_sequential(self, tmp_path):
        common = dict(nrow=3, ncol=2, maxsv=60, seqnum=1, perpass=0.0,
                      processors=2, use_files=False, workdir=tmp_path)
        scalar = parmonc(scalar_routine, backend="sequential", **common)
        batched = parmonc(make_batched_kernel(16), backend="multiprocess",
                          **common)
        assert_identical(scalar, batched)


class TestParmoncBatchSize:
    def test_batch_size_argument_wraps_scalar_routine(self, tmp_path):
        common = dict(nrow=3, ncol=2, maxsv=50, seqnum=1,
                      use_files=False, workdir=tmp_path)
        scalar = parmonc(scalar_routine, **common)
        batched = parmonc(scalar_routine, batch_size=16, **common)
        assert_identical(scalar, batched)

    def test_conflicts_with_batched_routine(self, tmp_path):
        with pytest.raises(ConfigurationError, match="batch_size"):
            parmonc(make_batched_kernel(8), nrow=3, ncol=2, maxsv=10,
                    batch_size=16, use_files=False, workdir=tmp_path)

    def test_batched_routine_direct(self, tmp_path):
        common = dict(nrow=3, ncol=2, maxsv=50, seqnum=1,
                      use_files=False, workdir=tmp_path)
        scalar = parmonc(scalar_routine, **common)
        batched = parmonc(make_batched_kernel(16), **common)
        assert_identical(scalar, batched)
