"""The streaming scheduler *as* a G/G/c/K queue, at scale.

The million-submission load study: drive the live admission loop of
:class:`~repro.runtime.scheduler.Scheduler` with a synthetic arrival
stream on a *virtual* clock, and compare its measured admission
behaviour against the analytic/Monte-Carlo reference in
:mod:`repro.apps.queueing`.

The mapping is exact, not approximate:

* a job submission is an arrival; ``interarrival`` spaces them;
* the scheduler's global ``workers`` cap is the ``c`` servers;
* ``max_jobs`` is the capacity bound ``K`` — an
  :class:`~repro.exceptions.AdmissionError` is a blocked arrival;
* a job's service demand is drawn from ``service`` at the moment its
  single assignment is dispatched (start of service), exactly where
  :func:`~repro.apps.queueing.simulate_ggck` draws it;
* submit-to-dispatch delay on the virtual clock is the waiting time.

Because both sides draw from one shared generator in the same event
order, the study's rejection count matches ``simulate_ggck``'s blocked
count *exactly*, and the mean waits agree to floating-point error —
the test suite and the streaming benchmark assert both.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.apps.queueing import GGcKQueue
from repro.exceptions import AdmissionError
from repro.rng.lcg128 import Lcg128
from repro.runtime.config import RunConfig
from repro.runtime.engine import EngineBackend
from repro.runtime.job import JobSpec
from repro.runtime.messages import MomentMessage
from repro.runtime.scheduler import Scheduler
from repro.stats.accumulator import MomentSnapshot

__all__ = ["LoadStudyBackend", "LoadStudyResult", "run_load_study",
           "synthetic_job"]


def synthetic_job(rng):
    """Placeholder realization; the load backend never executes it."""
    return 0.0


class LoadStudyBackend(EngineBackend):
    """Virtual-clock backend: service demands are sampled, not run.

    ``spawn`` draws one service demand per assignment from the shared
    generator — the same draw the G/G/c/K reference makes at the start
    of service — records the job's virtual wait, and schedules a
    synthetic final message at ``now + demand`` on a min-heap.
    ``poll`` delivers the head completion once the driver has advanced
    the virtual clock to it.
    """

    name = "loadstudy"
    supports_shared_jobs = True

    def __init__(self, service, rng: Lcg128) -> None:
        super().__init__()
        self._service = service
        self._rng = rng
        #: The virtual clock, advanced only by the driver.
        self.now = 0.0
        #: Virtual arrival time per job id, set by the driver at submit.
        self.arrivals: dict[str, float] = {}
        #: Virtual submit-to-dispatch waits, one per admitted job.
        self.waits: list[float] = []
        self._seq = 0
        self.completions: list[tuple] = []  # (finish, seq, job, rank)

    def clock(self) -> float:
        return self.now

    def spawn(self, assignments) -> None:
        for assignment in assignments:
            demand = self._service(self._rng)
            arrival = self.arrivals.pop(assignment.job)
            self.waits.append(self.now - arrival)
            heapq.heappush(self.completions,
                           (self.now + demand, self._seq,
                            assignment.job, assignment.rank))
            self._seq += 1
        return None

    def poll(self, timeout: float) -> MomentMessage | None:
        if self.completions and self.completions[0][0] <= self.now:
            finish, _, job, rank = heapq.heappop(self.completions)
            snapshot = MomentSnapshot(sum1=np.zeros((1, 1)),
                                      sum2=np.zeros((1, 1)), volume=1)
            return MomentMessage(rank, snapshot, sent_at=finish,
                                 final=True, job=job)
        return None


@dataclass(frozen=True)
class LoadStudyResult:
    """Measured admission behaviour of one load-study run.

    Attributes:
        submitted: Total arrivals pushed at the admission loop.
        admitted: Jobs that were admitted and served.
        rejected: Arrivals refused with :class:`AdmissionError`.
        mean_wait: Mean virtual submit-to-dispatch wait of admitted
            jobs (the G/G/c/K ``W_q``).
    """

    submitted: int
    admitted: int
    rejected: int
    mean_wait: float


def run_load_study(queue: GGcKQueue, rng: Lcg128) -> LoadStudyResult:
    """Replay a G/G/c/K arrival stream against the live admission loop.

    Event discipline mirrors :func:`simulate_ggck` step for step: draw
    the interarrival, absorb every completion up to the arrival (one
    ``step`` to finalize the finished job, one to hand the freed slot
    to the queue head at the freed instant), then submit at the arrival
    time.  Pruning after every arrival bounds the live job table so a
    million submissions run in constant memory — and, since every
    service-loop pass scans the live table, in constant time per
    arrival (measurably *faster* than batching the prunes up).
    """
    backend = LoadStudyBackend(queue.service, rng)
    scheduler = Scheduler(backend, workers=queue.servers,
                          max_jobs=queue.capacity)
    config = RunConfig(maxsv=1, processors=1, perpass=0.0, peraver=0.0)
    rejected = 0
    now = 0.0

    def flush(until: float) -> None:
        while backend.completions and backend.completions[0][0] <= until:
            backend.now = backend.completions[0][0]
            scheduler.step(poll_timeout=0.0)   # absorb + finalize
            scheduler.step(poll_timeout=0.0)   # freed slot refills

    for index in range(queue.customers):
        now += queue.interarrival(rng)
        flush(now)
        backend.now = now
        name = f"c{index}"
        backend.arrivals[name] = now
        try:
            scheduler.submit(JobSpec(routine=synthetic_job,
                                     config=config, name=name,
                                     use_files=False))
        except AdmissionError:
            rejected += 1
            del backend.arrivals[name]
            continue
        scheduler.step(poll_timeout=0.0)
        scheduler.prune()
    flush(float("inf"))
    scheduler.shutdown()
    admitted = len(backend.waits)
    mean_wait = sum(backend.waits) / admitted if admitted else 0.0
    return LoadStudyResult(submitted=queue.customers, admitted=admitted,
                           rejected=rejected, mean_wait=mean_wait)
