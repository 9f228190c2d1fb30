"""The streaming scheduler *as* a G/G/c/K queue, at scale.

The million-submission load study: drive the live admission loop of
:class:`~repro.runtime.scheduler.Scheduler` with a synthetic arrival
stream on the simulated cluster's *virtual* clock, and compare its
measured admission behaviour against the analytic/Monte-Carlo
reference in :mod:`repro.apps.queueing`.

The mapping is exact, not approximate:

* a job submission is an arrival; ``interarrival`` spaces them;
* the scheduler's global ``workers`` cap is the ``c`` servers;
* ``max_jobs`` is the capacity bound ``K`` — an
  :class:`~repro.exceptions.AdmissionError` is a blocked arrival;
* a job is one routine-less worker owing one realization on
  :class:`~repro.runtime.simcluster.SimclusterBackend`, whose duration
  is drawn from ``service`` when the worker is dispatched (start of
  service), exactly where :func:`~repro.apps.queueing.simulate_ggck`
  draws it; the network and the collector server cost nothing;
* a job's submit-to-start SLA wait, in virtual seconds, is the waiting
  time.

Because both sides draw from one shared generator in the same event
order, the study's rejection count matches ``simulate_ggck``'s blocked
count *exactly*, and the mean waits agree to floating-point error —
the test suite and the streaming benchmark assert both.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

from repro.apps.queueing import GGcKQueue
from repro.cluster.network import NetworkModel
from repro.cluster.simulation import ClusterSpec
from repro.exceptions import AdmissionError
from repro.rng.lcg128 import Lcg128
from repro.runtime.config import RunConfig
from repro.runtime.job import JobSpec
from repro.runtime.scheduler import Scheduler
from repro.runtime.simcluster import SimclusterBackend

__all__ = ["LoadStudyResult", "run_load_study"]


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
    the interarrival, step the loop until the virtual clock reaches the
    arrival — each finished job is absorbed, and its freed slot handed
    to the queue head, at the instant it finished — then submit.
    Service starts in submission order, so waits are summed in the
    reference's order as each job starts.  Pruning after every arrival
    bounds the live job table so a million submissions run in constant
    memory — and, since every loop turn scans the live table, in
    constant time per arrival.
    """
    # Every modelled duration is the queue's next service demand, drawn
    # from the study's shared generator.
    demand = SimpleNamespace(sample=lambda _: queue.service(rng))
    backend = SimclusterBackend(
        ClusterSpec(duration_model=demand,
                    network=NetworkModel(latency=0.0),
                    collector_service_time=0.0),
        execute_realizations=False)
    scheduler = Scheduler(backend, workers=queue.servers,
                          max_jobs=queue.capacity)
    # One realization and its final pass: no pass is ever due before it.
    config = RunConfig(maxsv=1, processors=1, perpass=math.inf,
                       peraver=0.0)
    rejected = admitted = 0
    total_wait = 0.0
    waiting: deque = deque()
    arrival = 0.0
    for index in range(queue.customers):
        arrival += queue.interarrival(rng)
        while backend.clock() < arrival:
            scheduler.step(poll_timeout=arrival - backend.clock())
        try:
            waiting.append(scheduler.submit(JobSpec(
                routine=None, config=config, name=f"c{index}",
                use_files=False)))
        except AdmissionError:
            rejected += 1
            continue
        admitted += 1
        scheduler.step(poll_timeout=0.0)
        scheduler.prune()
        while waiting and waiting[0].started_wall is not None:
            job = waiting.popleft()
            total_wait += job.started_wall - job.submitted_wall
    while scheduler.step(poll_timeout=math.inf):
        pass
    for job in waiting:
        total_wait += job.started_wall - job.submitted_wall
    scheduler.shutdown()
    mean_wait = total_wait / admitted if admitted else 0.0
    return LoadStudyResult(submitted=queue.customers, admitted=admitted,
                           rejected=rejected, mean_wait=mean_wait)
