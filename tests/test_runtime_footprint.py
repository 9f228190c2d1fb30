"""A finished job keeps its result, not its run.

A scheduler outlives its jobs, and ``parmonc-sched --serve`` never
prunes them, so every finished :class:`~repro.runtime.job.Job` stays
reachable.  Each must cost about its result — four estimate matrices —
and not the sample its run held: the collector's per-rank snapshots,
its merged and estimates caches and the resume base.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np

from repro.runtime.config import RunConfig
from repro.runtime.engine import WorkerDeath
from repro.runtime.job import JobSpec, JobStatus
from repro.runtime.scheduler import Scheduler
from repro.runtime.sequential import SequentialBackend

NROW, NCOL = 1000, 2
JOBS = 200
#: Retained bytes per finished job.  The result's four (1000, 2)
#: float64 estimate matrices are 62.5 KiB of it; a job that kept its
#: run would add the sample held in the collector and the resume base
#: and retain about 198 KB.
CEILING = 75 * 1024


def _matrix(rng):
    return np.full((NROW, NCOL), rng.random())


def _spec(index: int) -> JobSpec:
    return JobSpec(routine=_matrix, use_files=False, name=f"job-{index}",
                   config=RunConfig(maxsv=4, processors=2, nrow=NROW,
                                    ncol=NCOL, seqnum=index))


class _Watched(SequentialBackend):
    """The sequential backend, taking weak references to each job's
    collector and resume state at admission.  Exits put on ``exits``
    are reaped on the next empty turn, before another rank runs."""

    def __init__(self) -> None:
        super().__init__()
        self.runs: dict[str, list[weakref.ref]] = {}
        self.exits: list[WorkerDeath] = []

    def open_job(self, job) -> None:
        super().open_job(job)
        self.runs[job.id] = [weakref.ref(job.collector),
                             weakref.ref(job.state)]

    def poll(self, timeout: float):
        return None if self.exits else super().poll(timeout)

    def reap(self) -> list[WorkerDeath]:
        exits, self.exits = self.exits, []
        return exits


def _run_released(backend: _Watched, job) -> bool:
    gc.collect()
    return all(ref() is None for ref in backend.runs[job.id])


class TestFinishedJobFootprint:
    def test_a_done_job_retains_about_its_result(self):
        scheduler = Scheduler(SequentialBackend())

        def run(first: int, count: int) -> list:
            jobs = [scheduler.submit(_spec(index))
                    for index in range(first, first + count)]
            assert scheduler.drain()
            return jobs

        run(0, 10)  # first-use allocations land outside the window
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            jobs = run(10, JOBS)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert {job.status for job in jobs} == {JobStatus.DONE}
        assert all(job.result.total_volume == 4 for job in jobs)
        assert growth / JOBS <= CEILING, f"{growth / JOBS:.0f} B per job"

    def test_a_failed_job_holds_no_sample(self):
        backend = _Watched()
        scheduler = Scheduler(backend)
        job = scheduler.submit(_spec(0))
        scheduler.step(0.0)  # rank 0 runs whole; rank 1 waits its turn
        assert job.collector.worker_volume(0) == 2
        backend.exits.append(WorkerDeath(1, exitcode=9, job=job.id))
        scheduler.step(0.0)
        assert job.status == JobStatus.FAILED
        assert "rank 1" in str(job.error)
        assert job.collector is None and job.state is None
        assert _run_released(backend, job)

    def test_a_cancelled_job_holds_no_sample(self):
        backend = _Watched()
        scheduler = Scheduler(backend)
        job = scheduler.submit(_spec(0))
        scheduler.step(0.0)
        assert job.collector.worker_volume(0) == 2
        assert scheduler.cancel(job)
        scheduler.step(0.0)
        assert job.status == JobStatus.CANCELLED
        assert job.collector is None and job.state is None
        assert _run_released(backend, job)
