"""Tests for worker liveness, which the job reads off its in-flight ranks.

A rank is in flight from its dispatch until its final arrives or an exit
of it is judged a death.  Only an in-flight rank can be flagged
``stale_worker``, and an exit a backend reports is a death exactly when
its rank is in flight.  Every test here runs on virtual time.
"""

from __future__ import annotations

import pytest

from repro.exceptions import BackendError
from repro.runtime.config import RunConfig
from repro.runtime.engine import EngineBackend, WorkerAssignment, WorkerDeath
from repro.runtime.job import Job, JobSpec
from repro.runtime.messages import MomentMessage
from repro.runtime.scheduler import Scheduler
from repro.runtime.sequential import SequentialBackend
from repro.stats.accumulator import MomentAccumulator


def _draw(rng):
    return rng.random()


def opened_job(config: RunConfig, backend=None) -> Job:
    """An anonymous in-memory job opened at run time 0, as admission
    opens one."""
    job = Job(JobSpec(routine=_draw, config=config, use_files=False),
              None, 0)
    job.open(backend or SequentialBackend(), 0.0)
    return job


def dispatch(job: Job, now: float, *ranks: int) -> None:
    """Record the dispatch of ``ranks`` at ``now``, quota 4 each."""
    job.record_spawn([WorkerAssignment(rank, 4) for rank in ranks], None,
                     now)


def stale(job: Job) -> list[tuple[int, float]]:
    """``(rank, last_seen)`` of every ``stale_worker`` event so far."""
    return [(event.fields["rank"], event.fields["last_seen"])
            for event in job.telemetry.events.by_kind("stale_worker")]


def a_pass(rank: int, volume: int, final: bool = False) -> MomentMessage:
    accumulator = MomentAccumulator(1, 1)
    for _ in range(volume):
        accumulator.add(0.5)
    return MomentMessage(rank=rank, snapshot=accumulator.snapshot(),
                         sent_at=0.0, final=final)


#: One pass a second: a rank is stale after 3 * 1 + 1 = 4 silent seconds.
WATCHED = dict(maxsv=8, processors=2, perpass=1.0, telemetry=True)


class _SilentWorkers(EngineBackend):
    """Workers that start and never report, on a clock that moves only
    while the loop polls."""

    name = "silent"
    monitors_staleness = True

    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.spawned: list[int] = []

    def clock(self) -> float:
        return self.now

    def spawn(self, assignments) -> None:
        self.spawned.extend(assignment.rank for assignment in assignments)

    def poll(self, timeout: float) -> None:
        self.now += timeout
        return None


class TestStaleWorkers:
    def test_a_rank_waiting_for_its_slot_is_never_stale(self):
        backend = _SilentWorkers()
        scheduler = Scheduler(backend, workers=1)
        job = scheduler.submit(JobSpec(
            routine=_draw, use_files=False,
            config=RunConfig(maxsv=4, processors=2, perpass=1.0,
                             telemetry=True)))
        for _ in range(200):
            scheduler.step(0.05)
        assert backend.spawned == [0]  # rank 1 never had a slot
        (event,) = job.telemetry.events.by_kind("stale_worker")
        assert event.fields == {"rank": 0, "last_seen": 0.0}
        assert event.ts == pytest.approx(4.05)

    def test_a_dispatched_rank_is_judged_from_its_dispatch(self):
        job = opened_job(RunConfig(**WATCHED))
        dispatch(job, 10.0, 0, 1)
        job.flag_stale(13.5)
        assert stale(job) == []
        job.flag_stale(14.5)
        assert stale(job) == [(0, 10.0), (1, 10.0)]
        job.flag_stale(100.0)  # once per silence
        assert len(stale(job)) == 2

    def test_a_message_re_arms_a_flagged_rank(self):
        job = opened_job(RunConfig(**WATCHED))
        dispatch(job, 0.0, 0, 1)
        job.flag_stale(5.0)
        job.ingest(a_pass(0, 1), now=6.0)
        job.flag_stale(10.5)
        assert stale(job) == [(0, 0.0), (1, 0.0), (0, 6.0)]

    def test_no_watermark_without_telemetry_or_passes(self):
        for config in (RunConfig(maxsv=8, processors=2, perpass=1.0),
                       RunConfig(maxsv=8, processors=2, telemetry=True)):
            job = opened_job(config)
            dispatch(job, 0.0, 0, 1)
            job.flag_stale(1e9)
            assert job._seen is None
            if job.telemetry is not None:
                assert stale(job) == []


class TestExitVerdicts:
    def test_an_exit_is_a_death_exactly_when_its_rank_is_in_flight(self):
        job = opened_job(RunConfig(maxsv=12, processors=3, telemetry=True))
        dispatch(job, 0.0, 0, 1, 2)
        job.ingest(a_pass(0, 4, final=True), now=1.0)
        assert job.in_flight == {1, 2}
        with pytest.raises(BackendError) as caught:
            job.handle_deaths([WorkerDeath(0, 0), WorkerDeath(1, 0)], 2.0,
                              spawn=None)
        assert "rank 1 (exitcode 0)" in str(caught.value)
        assert "rank 0" not in str(caught.value)
        died = job.telemetry.events.by_kind("worker_died")
        assert [event.fields["rank"] for event in died] == [1]
        assert job.in_flight == {2}

    def test_exits_of_retired_ranks_change_nothing(self):
        job = opened_job(RunConfig(maxsv=8, processors=2, telemetry=True))
        dispatch(job, 0.0, 0, 1)
        job.ingest(a_pass(0, 4, final=True), now=1.0)
        job.handle_deaths([WorkerDeath(0, 0)], 2.0, spawn=None)
        assert job.in_flight == {1}
        assert job.telemetry.events.by_kind("worker_died") == ()

    def test_an_error_exit_fails_the_job_whatever_its_ranks(self):
        job = opened_job(RunConfig(maxsv=4, processors=1,
                                   on_worker_death="reassign"))
        dispatch(job, 0.0, 0)
        job.ingest(a_pass(0, 4, final=True), now=1.0)
        error = BackendError("reducer r0 died")
        with pytest.raises(BackendError, match="reducer r0 died"):
            job.handle_deaths([WorkerDeath(0, 1, error=error)], 2.0,
                              spawn=None)
