"""Tests for the sequential, multiprocess and simcluster backends.

The headline property: all three backends produce *bit-identical*
estimates for the same configuration, because estimates depend only on
the stream hierarchy, never on scheduling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.simulation import ClusterSpec
from repro.cluster.machine import DurationModel
from repro.exceptions import BackendError
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine, WorkerAssignment
from repro.runtime.files import DataDirectory
from repro.runtime.multiprocess import MultiprocessBackend
from repro.runtime.sequential import SequentialBackend
from repro.runtime.simcluster import SimclusterBackend
from repro.stats.accumulator import MomentAccumulator


def square(rng):
    return rng.random() ** 2


def _crash(rng):
    raise SystemExit(3)


class TestSequential:
    def test_estimates_match_direct_accumulation(self, tmp_path):
        config = RunConfig(maxsv=100, processors=4, workdir=tmp_path)
        result = Engine(SequentialBackend(), config).run(square)
        # Recompute by hand from the stream hierarchy.
        from repro.rng.streams import StreamTree
        tree = StreamTree()
        accumulator = MomentAccumulator(1, 1)
        for rank in range(4):
            for index in range(config.worker_quota(rank)):
                accumulator.add(square(tree.rng(0, rank, index)))
        assert result.estimates.mean[0, 0] == pytest.approx(
            accumulator.estimates().mean[0, 0], rel=1e-15)
        assert result.total_volume == 100

    def test_result_files_written(self, tmp_path):
        config = RunConfig(maxsv=50, processors=2, workdir=tmp_path)
        result = Engine(SequentialBackend(), config).run(square)
        data = DataDirectory(tmp_path)
        assert data.read_mean_matrix().shape == (1, 1)
        log = data.read_log()
        assert log["total_sample_volume"] == "50"
        assert result.data_dir == data.root

    def test_in_memory_run(self, tmp_path):
        config = RunConfig(maxsv=50, processors=2, workdir=tmp_path)
        result = Engine(SequentialBackend(), config,
                        use_files=False).run(square)
        assert result.data_dir is None
        assert not (tmp_path / "parmonc_data").exists()

    def test_processor_count_does_not_change_total(self, tmp_path):
        results = [
            Engine(SequentialBackend(),
                   RunConfig(maxsv=60, processors=m,
                             workdir=tmp_path / str(m))).run(square)
            for m in (1, 2, 3, 5)]
        volumes = {r.total_volume for r in results}
        assert volumes == {60}

    def test_resume_matches_monolithic_run(self, tmp_path):
        # Two 50-realization sessions with seqnums 0 and 1 must merge to
        # exactly the union of the two experiment samples.
        config1 = RunConfig(maxsv=50, processors=2,
                            workdir=tmp_path / "split")
        Engine(SequentialBackend(), config1).run(square)
        config2 = config1.with_updates(res=1, seqnum=1)
        resumed = Engine(SequentialBackend(), config2).run(square)
        assert resumed.total_volume == 100
        assert resumed.sessions == 2
        # Monolithic reference: same realizations, summed by hand.
        from repro.rng.streams import StreamTree
        tree = StreamTree()
        accumulator = MomentAccumulator(1, 1)
        for seqnum in (0, 1):
            for rank in range(2):
                for index in range(25):
                    accumulator.add(square(tree.rng(seqnum, rank, index)))
        assert resumed.estimates.mean[0, 0] == pytest.approx(
            accumulator.estimates().mean[0, 0], rel=1e-12)

    def test_per_rank_volumes(self, tmp_path):
        config = RunConfig(maxsv=10, processors=4, workdir=tmp_path)
        result = Engine(SequentialBackend(), config).run(square)
        assert result.per_rank_volumes == {0: 3, 1: 3, 2: 2, 3: 2}

    def test_time_limit_caps_run(self, tmp_path):
        import time

        def slow(rng):
            time.sleep(0.02)
            return 1.0

        config = RunConfig(maxsv=10_000, processors=2, workdir=tmp_path,
                           time_limit=0.3)
        result = Engine(SequentialBackend(), config).run(slow)
        assert 0 < result.total_volume < 10_000


@pytest.mark.parametrize("backend", [SequentialBackend])
def test_release_rebuilds_the_queue_only_when_the_job_has_some(backend):
    # Unbound, the backend runs nothing: every assignment stays queued.
    # It is the one backend with a queue; the others are handed only
    # what they can start.
    backend = backend()
    backend.spawn([WorkerAssignment(rank, 1, job=job)
                   for job in ("a", "b", "a") for rank in range(2)])
    pending = backend._pending
    for job_id in ("c", None):  # nothing queued
        backend.release_job(job_id)
        assert backend._pending is pending
    backend.release_job("a")
    assert [(each.job, each.rank) for each in backend._pending] \
        == [("b", 0), ("b", 1)]
    pending = backend._pending
    backend.release_job("a")
    assert backend._pending is pending


class TestMultiprocess:
    def test_matches_sequential_bit_for_bit(self, tmp_path):
        config = RunConfig(maxsv=60, processors=3, workdir=tmp_path / "a")
        sequential = Engine(SequentialBackend(), config).run(square)
        parallel = Engine(MultiprocessBackend(), config.with_updates(
            workdir=tmp_path / "b")).run(square)
        assert np.array_equal(sequential.estimates.mean,
                              parallel.estimates.mean)
        assert np.array_equal(sequential.estimates.variance,
                              parallel.estimates.variance)
        assert parallel.total_volume == 60

    def test_worker_crash_raises_backend_error(self, tmp_path):
        config = RunConfig(maxsv=4, processors=2, workdir=tmp_path)
        with pytest.raises(BackendError):
            Engine(MultiprocessBackend(), config).run(_crash)

    def test_result_files(self, tmp_path):
        config = RunConfig(maxsv=20, processors=2, workdir=tmp_path)
        Engine(MultiprocessBackend(), config).run(square)
        assert DataDirectory(tmp_path).read_log()[
            "total_sample_volume"] == "20"


class TestSimclusterBackend:
    def test_matches_sequential_estimates(self, tmp_path):
        config = RunConfig(maxsv=40, processors=4, workdir=tmp_path / "a")
        sequential = Engine(SequentialBackend(), config).run(square)
        simulated = Engine(
            SimclusterBackend(
                ClusterSpec(duration_model=DurationModel(mean=1.0))),
            config.with_updates(workdir=tmp_path / "b")).run(square)
        assert np.array_equal(sequential.estimates.mean,
                              simulated.estimates.mean)
        assert simulated.virtual_time is not None

    def test_virtual_time_scales_with_processors(self, tmp_path):
        spec = ClusterSpec(duration_model=DurationModel(mean=2.0))
        times = {}
        for m in (1, 4):
            result = Engine(
                SimclusterBackend(spec),
                RunConfig(maxsv=40, processors=m,
                          workdir=tmp_path / str(m))).run(square)
            times[m] = result.virtual_time
        assert times[1] == pytest.approx(4 * times[4], rel=0.05)

    def test_accounting_only_mode(self, tmp_path):
        result = Engine(
            SimclusterBackend(execute_realizations=False),
            RunConfig(maxsv=100, processors=8, workdir=tmp_path)).run(None)
        assert result.estimates is None or result.estimates.volume == 100
        assert result.session_volume == 100
        assert result.virtual_time > 0

    def test_resume_on_simcluster(self, tmp_path):
        config = RunConfig(maxsv=30, processors=3, workdir=tmp_path)
        spec = ClusterSpec(duration_model=DurationModel(mean=1.0))
        Engine(SimclusterBackend(spec), config).run(square)
        resumed = Engine(SimclusterBackend(spec), config.with_updates(
            res=1, seqnum=1)).run(square)
        assert resumed.total_volume == 60
        assert resumed.sessions == 2
