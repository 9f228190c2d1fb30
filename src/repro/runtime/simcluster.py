"""Simulated-cluster backend: every job of a scheduler in virtual time.

One simulated cluster — one event queue, one modelled collector server
— carries any number of jobs under the real
:meth:`Scheduler.step() <repro.runtime.scheduler.Scheduler.step>`, so a
run "on 512 processors", a batch of them or a million-submission load
study is a function call on a laptop; a single run,
``Engine(SimclusterBackend(...), config).run(routine)``, is one job on
that loop.  A job's workers are real
:class:`~repro.runtime.worker.WorkerBody` objects built from
``engine.job_context(job)``, started at the virtual instant they are
dispatched; its time limit, injected failures and ``T_comp`` count from
its own start, so a job alone computes exactly what it always did.  Its
:class:`~repro.cluster.simulation.ClusterResult` becomes
:attr:`RunResult.cluster <repro.runtime.result.RunResult.cluster>`.
The cluster's clock is the run clock: telemetry, SLA stamps and time
limits read virtual seconds.

Injected node failures (:attr:`~repro.cluster.simulation.ClusterSpec
.failures`) take the engine's fault path: a failed node's exit is
reported once everything it sent has landed, the drained rule every
backend follows, and its job judges it.  ``"reassign"`` reruns the
failed rank on its own stream on a fresh simulated node at once, a
deterministic rehearsal of the multiprocess recovery path; ``"fail"``
retires it with what it delivered, as §2.2 models.  A job's failures
are judged alike alone and on a shared cluster.
"""

from __future__ import annotations

import math

from repro.cluster.simulation import (
    ClusterResult,
    ClusterSpec,
    _Cluster,
    _SimulatedJob,
)
from repro.runtime.engine import (
    EngineBackend,
    WorkerAssignment,
    WorkerDeath,
    register_backend,
)
from repro.runtime.job import JobStatus
from repro.runtime.messages import CombinedMessage, MomentMessage

__all__ = ["SimclusterBackend"]


@register_backend("simcluster")
class SimclusterBackend(EngineBackend):
    """Run every job on one simulated cluster.

    Args:
        cluster_spec: Cluster hardware model; defaults to the paper's
            test rig (``tau = 7.7 s``, ~1 GB/s interconnect).
        execute_realizations: When False, realizations are only
            accounted for in time: zero placeholder matrices keep the
            books, and the routine may be None — used by pure scaling
            studies, where estimates would be meaningless zeros anyway.
            When True every realization executes with its proper RNG
            substream and the collector accumulates genuine moments.
        quotas: Optional per-rank realization quotas overriding each
            job's even split; they must sum to its ``maxsv``.  Use
            :func:`repro.cluster.simulation.proportional_quotas` for
            heterogeneous or hybrid clusters.
        scheduling: ``"static"`` (default) deals fixed quotas;
            ``"dynamic"`` is self-scheduling — a job's workers keep
            simulating until its ``maxsv`` realizations have been
            *started*, so faster nodes naturally contribute more.  This
            is the paper's §2.2 argument for needing no load balancer;
            ``quotas`` must not be given in this mode.
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
        #: The drained job's books :meth:`cluster_result` returns.
        self._released: ClusterResult | None = None

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
        return None

    def poll(self, timeout: float
             ) -> MomentMessage | CombinedMessage | None:
        """Run events up to ``timeout`` virtual seconds from now, handing
        each pass the collector server finishes to ``Scheduler.ingest``
        and returning the first final, or None at the first drained
        exit: only a final or an exit frees a slot or completes a job.

        While the scheduler admits jobs the clock stops at that horizon,
        so a submission lands at the instant its driver chose; once it
        admits nothing further the clock runs to the next final or exit.
        """
        events, outbox = self._events, self._cluster.outbox
        exits = self._cluster.exits
        engine = self.engine
        horizon = events.now + timeout if engine.admitting else math.inf
        while not exits and events.step(horizon):
            if outbox:
                delivered = outbox.popleft()
                if delivered.final:
                    return delivered
                engine.ingest(delivered, events.now)
        if horizon < math.inf and not exits:
            events.run(until=horizon)
        return None

    def reap(self) -> list[WorkerDeath]:
        """Report each failed node's exit, silent (§2.2), once every
        pass the node sent has landed."""
        exits = list(self._cluster.exits)
        self._cluster.exits.clear()
        return exits

    def release_job(self, job_id: str | None) -> None:
        """Stop the job's workers and let go of its sample.  A drained
        job's books are settled first, for :meth:`cluster_result`; a
        cancelled or failed job leaves nothing behind."""
        simulation = self._jobs.pop(job_id, None)
        if simulation is not None:
            job = self.engine.job_context(job_id)
            self._released = (simulation.finish() if job.status
                              is JobStatus.DRAINING else None)
            simulation.stop()

    def cluster_result(self) -> ClusterResult | None:
        """The released job's accounting: computed volumes, including
        work a failed node computed but never delivered."""
        return self._released
