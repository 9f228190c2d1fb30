"""Edge cases of the multiprocess backend: start methods, limits, IPC,
and the slots every rank runs on."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro import parmonc
from repro.core.parmonc import build_job_spec
from repro.obs.events import read_events
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.job import JobSpec, JobStatus
from repro.runtime.multiprocess import MultiprocessBackend
from repro.runtime.scheduler import Scheduler
from repro.runtime.sequential import SequentialBackend

# The pool's slot tests note pids the same way; these run on both hosts.
from test_runtime_distributed import (
    _PID_DIR_ENV,
    _drive,
    _pids,
    block_until_killed,
    exit_on_thirteenth,
    noted_grid,
    noted_square,
    noted_wide,
)
from test_runtime_engine import assert_same_bytes


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
        reference = Engine(
            SequentialBackend(),
            config.with_updates(workdir=tmp_path / "ref")).run(
                module_level_square)
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
        reference = Engine(SequentialBackend(), config,
                           use_files=False).run(module_level_square)
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
        reference = Engine(
            SequentialBackend(),
            config.with_updates(workdir=tmp_path / "ref")).run(
                module_level_matrix)
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


# ---------------------------------------------------------------------------
# Slots


def _reaped(pid: int) -> bool:
    """True once ``pid`` is gone — exited *and* waited for, no zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestMultiprocessSlots:
    """Every rank runs on a slot: forked once, handed rank after rank and
    job after job, replaced only when it dies; a routine that cannot
    travel as bytes runs on slots pinned to its job.  Gated by pid files,
    never by a sleep."""

    RUN = dict(perpass=0.0, peraver=0.0)

    SHAPES = (
        dict(routine=noted_square, maxsv=3, seqnum=1),
        dict(routine=noted_wide, nrow=1000, ncol=2, maxsv=24, processors=2,
             seqnum=2, batch_size=5, statistics="extrema", telemetry=True),
        dict(routine=noted_grid, nrow=3, ncol=4, maxsv=30, processors=2,
             seqnum=3, statistics="histogram,covariance"),
    )

    @staticmethod
    def _service(workers=2, start_method="fork"):
        backend = MultiprocessBackend(start_method=start_method)
        return backend, Scheduler(backend, workers=workers)

    def _spec(self, routine, name, **run):
        return build_job_spec(dict(routine=routine, name=name,
                                   use_files=False, **self.RUN, **run))

    def test_jobs_of_changing_shape_share_the_slots(self, tmp_path,
                                                    monkeypatch):
        references = [
            parmonc(shape["routine"], backend="sequential", **self.RUN,
                    **{key: value for key, value in shape.items()
                       if key != "routine"},
                    workdir=tmp_path / f"ref{index}")
            for index, shape in enumerate(self.SHAPES)]
        monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
        backend, scheduler = self._service()
        jobs = [scheduler.submit(build_job_spec(dict(
                    shape, **self.RUN, name=f"shape{index}",
                    workdir=tmp_path / f"job{index}")))
                for index, shape in enumerate(self.SHAPES)]
        scheduler.run()
        for job, reference in zip(jobs, references):
            assert job.status is JobStatus.DONE, job.error
            assert_same_bytes(job.result, reference)
        # Five ranks ran on two slots, whose context changed between
        # jobs as the fair share interleaved them.
        assert len(_pids(tmp_path)) == 2
        assert (backend.slots_started, backend.assignments_served) == (2, 5)

    def test_a_closure_runs_on_a_slot_pinned_to_its_job(self, tmp_path,
                                                        monkeypatch):
        noted, pinned_dir = tmp_path / "noted", tmp_path / "pinned"
        noted.mkdir()
        pinned_dir.mkdir()
        monkeypatch.setenv(_PID_DIR_ENV, str(noted))
        scale = 3.0

        def closure(rng):
            open(pinned_dir / str(os.getpid()), "a").close()
            return scale * rng.random()

        backend, scheduler = self._service()
        try:
            first = scheduler.submit(self._spec(noted_square, "first",
                                                maxsv=8))
            _drive(scheduler, lambda: first.status is JobStatus.DONE)
            [slot] = _pids(noted)
            job = scheduler.submit(self._spec(closure, "closure", maxsv=8))
            _drive(scheduler, lambda: job.status is JobStatus.DONE)
            # Released means gone: the pinned slot was stopped and
            # reaped; the one that serves any job idles on.
            [pinned] = _pids(pinned_dir)
            assert pinned != slot
            assert _reaped(pinned) and not _reaped(slot)
            assert backend.slots_started == 2
        finally:
            scheduler.shutdown(timeout=30.0)
        assert_same_bytes(job.result, parmonc(
            closure, maxsv=8, backend="sequential", use_files=False,
            **self.RUN))

    def test_exit_mid_assignment_on_a_reused_slot_is_a_death(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
        backend, scheduler = self._service(workers=1)
        job = scheduler.submit(JobSpec(
            routine=exit_on_thirteenth, name="run", config=RunConfig(
                maxsv=20, processors=2, on_worker_death="reassign",
                telemetry=True, workdir=tmp_path / "run", **self.RUN)))
        scheduler.run()
        assert job.status is JobStatus.DONE, job.error
        # Rank 0 ran whole on the slot; rank 1 exited 0 on the same slot
        # without its final; a fresh slot reran rank 1 whole.
        result = job.result
        assert result.total_volume == 20
        assert result.recovered_ranks == (1,)
        assert result.per_rank_volumes == {0: 10, 1: 10}
        assert backend.slots_started == 2
        died = read_events(tmp_path / "run" / "parmonc_data" / "telemetry"
                           / "events.jsonl", kind="worker_died")
        assert [(event.fields["rank"], event.fields["exitcode"])
                for event in died] == [(1, 0)]
        monkeypatch.delenv(_PID_DIR_ENV)
        assert_same_bytes(result, parmonc(
            exit_on_thirteenth, maxsv=20, processors=2,
            backend="sequential", use_files=False, **self.RUN))

    def test_cancel_stops_only_the_busy_slot(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
        backend, scheduler = self._service()
        published = tmp_path / "busy.pid"
        try:
            first = scheduler.submit(self._spec(noted_square, "first",
                                                maxsv=8, processors=2))
            _drive(scheduler, lambda: first.status is JobStatus.DONE)
            slots = _pids(tmp_path)
            stuck = scheduler.submit(self._spec(block_until_killed, "stuck",
                                                maxsv=8))
            _drive(scheduler, published.exists)
            busy = int(published.read_text())
            assert backend._host.running() == [("stuck", 0)]
            assert scheduler.cancel(stuck)
            _drive(scheduler, lambda: stuck.status is JobStatus.CANCELLED)
            [idle] = slots - {busy}
            assert _reaped(busy) and not _reaped(idle)
            last = scheduler.submit(self._spec(noted_square, "last",
                                               maxsv=8))
            _drive(scheduler, lambda: last.status is JobStatus.DONE)
        finally:
            scheduler.shutdown(timeout=30.0)
        assert len(slots) == 2 and busy in slots
        # The last job ran on the slot that idled through the cancel.
        assert _pids(tmp_path) == slots
        assert backend.slots_started == 2

    def test_time_limit_is_honoured_on_a_reused_slot(self):
        backend, scheduler = self._service()
        try:
            first = scheduler.submit(self._spec(
                module_level_square, "first", maxsv=8, processors=2))
            _drive(scheduler, lambda: first.status is JobStatus.DONE)
            # Over before the ranks start: each finishes the realization
            # in flight and ships its final, on the slots already there.
            limited = scheduler.submit(self._spec(
                module_level_square, "limited", maxsv=10_000, processors=2,
                seqnum=1, time_limit=1e-9))
            _drive(scheduler, lambda: limited.status is JobStatus.DONE)
        finally:
            scheduler.shutdown(timeout=30.0)
        assert limited.result.per_rank_volumes == {0: 1, 1: 1}
        assert backend.slots_started == 2

    def test_spawned_slots_decode_each_job_from_its_payload(self):
        backend, scheduler = self._service(start_method="spawn")
        jobs = [scheduler.submit(self._spec(
                    module_level_square, f"job{index}", maxsv=12,
                    processors=2, seqnum=index))
                for index in range(2)]
        scheduler.run()
        for index, job in enumerate(jobs):
            assert job.status is JobStatus.DONE, job.error
            assert_same_bytes(job.result, parmonc(
                module_level_square, maxsv=12, processors=2, seqnum=index,
                backend="sequential", use_files=False, **self.RUN))
        # A spawned slot inherits nothing: both jobs reached the two
        # slots as bytes.
        assert (backend.slots_started, backend.assignments_served) == (2, 4)
