"""Simulated-cluster backend: every job of a scheduler in virtual time.

One simulated cluster — one event queue, one modelled collector server
— carries any number of jobs under the real
:meth:`Scheduler.step() <repro.runtime.scheduler.Scheduler.step>`, so a
run "on 512 processors", a batch of them or a million-submission load
study is a function call on a laptop.  A job's workers are real
:class:`~repro.runtime.worker.WorkerBody` objects built from
``engine.job_context(job)``, started at the virtual instant they are
dispatched; its time limit, injected failures and ``T_comp``
(:attr:`~repro.runtime.result.RunResult.virtual_time`) count from its
own start, so a job alone computes exactly what it always did.  The
cluster's clock is the run clock: telemetry, SLA stamps and time limits
read virtual seconds.

Injected node failures (:attr:`~repro.cluster.simulation.ClusterSpec
.failures`) take the engine's fault path: ``"reassign"`` reissues the
undelivered quota to a fresh simulated node, a deterministic rehearsal
of the multiprocess recovery path; ``"fail"`` loses the tail, as §2.2
models.
"""

from __future__ import annotations

import math

from repro.cluster.simulation import ClusterSpec, _Cluster, _SimulatedJob
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.engine import (
    Engine,
    EngineBackend,
    WorkerAssignment,
    WorkerDeath,
    register_backend,
)
from repro.runtime.messages import CombinedMessage, MomentMessage
from repro.runtime.result import RunResult
from repro.runtime.worker import RealizationRoutine

__all__ = ["SimclusterBackend", "run_simcluster"]


@register_backend("simcluster")
class SimclusterBackend(EngineBackend):
    """Run every job on one simulated cluster.

    Args:
        cluster_spec: Cluster hardware model; defaults to the paper's
            test rig (``tau = 7.7 s``, ~1 GB/s interconnect).
        execute_realizations: When False, realizations are only
            accounted for in time — used by pure scaling studies, where
            estimates would be meaningless zeros anyway.
        quotas: Optional per-rank realization quotas (see
            :func:`repro.cluster.simulation.proportional_quotas`);
            defaults to each job's even split.
        scheduling: ``"static"`` quotas or ``"dynamic"``
            self-scheduling (a job's workers draw work until its
            ``maxsv`` is started).
    """

    name = "simcluster"
    # Per-message subtotal persistence would dominate a timing study;
    # the merged save-point at session end still supports resumption.
    persist_subtotals = False
    #: Every job's workers run on their own simulated reduction tree.
    supports_job_reduction = True

    def __init__(self, cluster_spec: ClusterSpec | None = None,
                 execute_realizations: bool = True,
                 quotas: list[int] | None = None,
                 scheduling: str = "static") -> None:
        super().__init__()
        self._cluster = _Cluster(cluster_spec if cluster_spec is not None
                                 else ClusterSpec())
        self._events = self._cluster.events
        self._execute = execute_realizations
        self._quotas = quotas
        self._scheduling = scheduling
        self._jobs: dict[str | None, _SimulatedJob] = {}
        #: The job the loop released last: its result hooks follow.
        self._released: _SimulatedJob | None = None
        #: The last poll found the cluster idle and nothing started since.
        self._idle = False

    def clock(self) -> float:
        """The cluster's virtual time."""
        return self._events.now

    def plan(self, job) -> list[WorkerAssignment]:
        if self._scheduling == "dynamic":
            # Self-scheduling: no per-rank quota exists to reassign.
            return [WorkerAssignment(rank, None, job=job.id)
                    for rank in range(job.config.processors)]
        if self._quotas is not None:
            return [WorkerAssignment(rank, quota, job=job.id)
                    for rank, quota in enumerate(self._quotas)]
        return super().plan(job)

    def open_job(self, job) -> None:
        """The job starts on the cluster now."""
        self._jobs[job.id] = _SimulatedJob(
            self._cluster, job.config, job.collector,
            routine=job.routine if self._execute else None,
            quotas=self._quotas, scheduling=self._scheduling,
            telemetry=job.telemetry, job=job.id)

    def spawn(self, assignments) -> None:
        for assignment in assignments:
            self._jobs[assignment.job].add_worker(assignment.rank,
                                                  assignment.quota)
        self._idle = False
        return None

    def poll(self, timeout: float
             ) -> MomentMessage | CombinedMessage | None:
        """Run events up to ``timeout`` virtual seconds from now, handing
        each pass the collector server finishes to ``Scheduler.ingest``
        and returning the first final: only a final frees a slot or
        completes a job.

        While the scheduler admits jobs the clock stops at that horizon,
        so a submission lands at the instant its driver chose; once it
        admits nothing further the clock runs to the next final.
        """
        events, outbox = self._events, self._cluster.outbox
        engine = self.engine
        horizon = events.now + timeout if engine.admitting else math.inf
        while events.step(horizon):
            if outbox:
                delivered = outbox.popleft()
                if delivered.final:
                    return delivered
                engine.ingest(delivered, events.now)
        self._idle = not events
        if horizon < math.inf:
            events.run(until=horizon)
        return None

    def reap(self) -> list[WorkerDeath]:
        """Report injected node failures once the cluster is idle, under
        ``"reassign"`` only: under ``"fail"`` the job keeps its
        historical §2.2 semantics and completes with a smaller sample
        (:attr:`done`), raising nothing.
        """
        if not self._idle:
            return []
        engine = self.engine
        return [WorkerDeath(rank, None, detail="injected node failure",
                            job=job_id)
                for job_id, simulation in self._jobs.items()
                if engine.job_context(job_id).config.on_worker_death
                == "reassign"
                for rank in simulation.dead_ranks()]

    @property
    def done(self) -> bool:
        """The cluster went idle and reaping started nothing."""
        return self._idle

    def release_job(self, job_id: str | None) -> None:
        """Stop the job's workers; its result hooks read it next."""
        simulation = self._jobs.pop(job_id, None)
        if simulation is not None:
            simulation.stop()
            self._released = simulation

    @property
    def virtual_time(self) -> float:
        return self._released.finish().t_comp

    def per_rank_volumes(self, collector: Collector, ranks) -> dict:
        # The simulator's own accounting: computed volumes, including
        # work a failed node computed but never delivered.
        return self._released.finish().per_rank_volumes

    def session_volume(self, collector: Collector) -> int:
        return self._released.finish().total_volume


def run_simcluster(routine: RealizationRoutine | None, config: RunConfig,
                   spec: ClusterSpec | None = None,
                   use_files: bool = True,
                   execute_realizations: bool = True,
                   quotas: list[int] | None = None,
                   scheduling: str = "static") -> RunResult:
    """Run one session on the discrete-event cluster backend.

    Args:
        routine: User realization routine; required when
            ``execute_realizations`` is True.
        config: Run configuration; ``time_limit`` is interpreted in
            *virtual* seconds (the cluster job limit).
        spec: Cluster hardware model; defaults to the paper's test rig
            (``tau = 7.7 s``, ~1 GB/s interconnect).
        use_files: Write result files and save-points.
        execute_realizations: When False, realizations are only
            accounted for in time — used by pure scaling studies, where
            estimates would be meaningless zeros anyway.
        quotas: Optional per-rank realization quotas (see
            :func:`repro.cluster.simulation.proportional_quotas`);
            defaults to the config's even split.
        scheduling: ``"static"`` quotas or ``"dynamic"``
            self-scheduling (workers draw work until ``maxsv`` is
            started cluster-wide).

    Returns:
        A :class:`RunResult` with ``virtual_time`` set to ``T_comp``.
    """
    backend = SimclusterBackend(cluster_spec=spec,
                                execute_realizations=execute_realizations,
                                quotas=quotas, scheduling=scheduling)
    return Engine(backend, config, use_files=use_files).run(routine)
