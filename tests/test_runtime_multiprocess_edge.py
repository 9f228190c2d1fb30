"""Edge cases of the multiprocess backend: start methods, limits, IPC."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import parmonc
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.multiprocess import MultiprocessBackend
from repro.runtime.sequential import run_sequential


def run_multiprocess(routine, config, use_files=True, start_method=None):
    return Engine(MultiprocessBackend(start_method), config,
                  use_files=use_files).run(routine)


def module_level_square(rng):
    """Importable (hence picklable) realization for spawn tests."""
    return rng.random() ** 2


def module_level_slow(rng):
    time.sleep(0.05)
    return 1.0


def module_level_matrix(rng):
    return np.array([[rng.random(), rng.random() ** 2]])


class TestStartMethods:
    def test_spawn_start_method(self, tmp_path):
        # spawn re-imports the module in the child: requires the
        # routine to be picklable, which module-level functions are.
        config = RunConfig(maxsv=20, processors=2, workdir=tmp_path)
        result = run_multiprocess(module_level_square, config,
                                  start_method="spawn")
        reference = run_sequential(
            module_level_square,
            config.with_updates(workdir=tmp_path / "ref"))
        assert np.array_equal(result.estimates.mean,
                              reference.estimates.mean)

    @pytest.mark.parametrize("fanout", [None, 2])
    def test_spawn_edges_survive_as_process_args(self, tmp_path, fanout):
        # Under spawn a child gets only the pipe ends passed to it: the
        # host's private pipe, or (fanout 2 over 4 workers) the tree
        # edges handed to workers and reducers as Process arguments.
        config = RunConfig(maxsv=40, processors=4, perpass=0.0,
                           peraver=0.0, seqnum=2, reduction_fanout=fanout)
        result = run_multiprocess(module_level_square, config,
                                  use_files=False, start_method="spawn")
        reference = run_sequential(module_level_square, config,
                                   use_files=False)
        for name in ("mean", "variance", "abs_error"):
            assert getattr(result.estimates, name).tobytes() \
                == getattr(reference.estimates, name).tobytes(), name

    def test_fork_keeps_closures(self, tmp_path):
        scale = 3.0
        result = parmonc(lambda rng: scale * rng.random(), maxsv=100,
                         processors=2, backend="multiprocess",
                         start_method="fork", workdir=tmp_path)
        assert 1.2 < result.estimates.mean[0, 0] < 1.8


class TestTimeLimit:
    def test_time_limit_truncates_run(self, tmp_path):
        config = RunConfig(maxsv=10_000, processors=2,
                           workdir=tmp_path, time_limit=0.4)
        result = run_multiprocess(module_level_slow, config)
        assert 0 < result.total_volume < 10_000

    def test_truncated_run_still_produces_estimates(self, tmp_path):
        config = RunConfig(maxsv=10_000, processors=2,
                           workdir=tmp_path, time_limit=0.4)
        result = run_multiprocess(module_level_slow, config)
        assert result.estimates.mean[0, 0] == 1.0

    def test_truncated_run_is_resumable(self, tmp_path):
        config = RunConfig(maxsv=10_000, processors=2,
                           workdir=tmp_path, time_limit=0.4)
        first = run_multiprocess(module_level_slow, config)
        resumed = parmonc(module_level_slow, maxsv=4, res=1, seqnum=1,
                          processors=2, workdir=tmp_path)
        assert resumed.total_volume == first.total_volume + 4


class TestIpcBehaviour:
    def test_matrix_messages_cross_process_boundary(self, tmp_path):
        config = RunConfig(nrow=1, ncol=2, maxsv=40, processors=2,
                           workdir=tmp_path)
        result = run_multiprocess(module_level_matrix, config)
        reference = run_sequential(
            module_level_matrix,
            config.with_updates(workdir=tmp_path / "ref"))
        assert np.array_equal(result.estimates.mean,
                              reference.estimates.mean)
        assert np.array_equal(result.estimates.variance,
                              reference.estimates.variance)

    def test_many_workers_on_one_core(self, tmp_path):
        # Oversubscription must not deadlock or lose messages.
        config = RunConfig(maxsv=64, processors=16, workdir=tmp_path,
                           perpass=0.0)
        result = run_multiprocess(module_level_square, config)
        assert result.total_volume == 64
        assert sum(result.per_rank_volumes.values()) == 64

    def test_single_worker_degenerate_case(self, tmp_path):
        config = RunConfig(maxsv=10, processors=1, workdir=tmp_path)
        result = run_multiprocess(module_level_square, config)
        assert result.total_volume == 10
