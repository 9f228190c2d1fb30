"""Per-experiment job state: the unit the scheduler multiplexes.

A :class:`Job` is one session's entire lifecycle — collector,
telemetry, save-points, quota plan, recovery bookkeeping, result
assembly — so a :class:`~repro.runtime.scheduler.Scheduler` can drive
N of them concurrently over one shared backend worker pool, or exactly
one (the anonymous job :class:`~repro.runtime.engine.Engine` submits)
with the same statements in the same order.

A job owns:

* its experiment configuration (the ``seqnum`` subsequence of the RNG
  hierarchy keeps concurrent jobs statistically independent),
* its :class:`~repro.runtime.collector.Collector`, resume state and
  session directory (``start_session``; the save that completes the
  run commits the save-point and result files together),
* its telemetry,
* its work plan, quotas, and the fault-tolerant reassignment
  bookkeeping (recovery budget, rerun ranks),
* the liveness of its workers, read off its in-flight ranks: the ranks
  dispatched whose final has not arrived and that were not judged.  An
  exit a backend reports is a death exactly when its rank is in flight,
  and only an in-flight rank can be flagged ``stale_worker``,
* its :class:`~repro.runtime.result.RunResult` and SLA record
  (submit-to-start wait, makespan, deadline misses).

A finished job (DONE, FAILED or CANCELLED) keeps only what it reports
— ``result``, ``error``, ``status``, ``state_times`` and the SLA
fields: the transition drops the collector, resume state, session
directory and telemetry, so a service that never prunes holds one
result per job, not one run.

The scheduling policy — fair share, admission, slots — lives in the
scheduler; the job only answers "what do I still need" and "what
happened to me".
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.exceptions import BackendError, ConfigurationError
from repro.obs.telemetry import RunTelemetry
from repro.runtime.bootstrap import start_session
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.engine import (
    _RECOVERY_FACTOR,
    WorkerAssignment,
    WorkerDeath,
)
from repro.runtime.messages import CombinedMessage, MomentMessage
from repro.runtime.result import RunResult

__all__ = ["Job", "JobSpec", "JobStatus"]


class JobStatus:
    """The job lifecycle states (plain strings, stable for reporting).

    ``QUEUED -> RUNNING -> DRAINING -> DONE`` on the happy path;
    ``FAILED`` when the job's death policy (or its prologue/epilogue)
    raised and the scheduler contained the error; ``CANCELLED`` when
    the caller withdrew the job.  Every transition records a per-state
    SLA timestamp in :attr:`Job.state_times`.
    """

    QUEUED = "queued"
    RUNNING = "running"
    #: Every message is in; finalization still owed.
    DRAINING = "draining"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States that take no further worker messages.
    TERMINAL = (DRAINING, DONE, FAILED, CANCELLED)
    #: States that need no further scheduler attention at all.
    FINISHED = (DONE, FAILED, CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """What the caller submits: one experiment and its scheduling knobs.

    Attributes:
        routine: The realization routine (``fn(rng)``, ``fn()``, or a
            batched routine).
        config: The job's :class:`~repro.runtime.config.RunConfig`.
            Each concurrent job should carry its own ``seqnum`` so the
            experiments draw disjoint RNG subsequences, and its own
            ``workdir`` so save-points land in per-job session
            directories.
        name: Stable job identifier; defaults to ``job-<index>`` in
            submission order.
        priority: Fair-share weight (> 0).  A priority-2 job is
            dispatched twice as often as a priority-1 job while both
            are contending for workers.
        max_workers: Per-job cap on concurrently running workers
            (None = no cap beyond the scheduler's global slots).
        deadline: SLA target in seconds from submission.  Advisory:
            the scheduler counts a deadline miss when the job's
            makespan exceeds it; it does not cancel the job (use
            ``config.time_limit`` for hard cancellation).
        use_files: Write ``parmonc_data`` result files and save-points;
            disable for throwaway in-memory estimation.
    """

    routine: object
    config: RunConfig
    name: str | None = None
    priority: float = 1.0
    max_workers: int | None = None
    deadline: float | None = None
    use_files: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.config, RunConfig):
            raise ConfigurationError(
                f"job config must be a RunConfig, got "
                f"{type(self.config).__name__}")
        if not (self.priority > 0.0):
            raise ConfigurationError(
                f"job priority must be > 0, got {self.priority}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError(
                f"job max_workers must be >= 1, got {self.max_workers}")
        if self.deadline is not None and not (self.deadline > 0.0):
            raise ConfigurationError(
                f"job deadline must be > 0 seconds, got {self.deadline}")
        if self.name is not None and (not isinstance(self.name, str)
                                      or not self.name):
            raise ConfigurationError(
                f"job name must be a non-empty string, got {self.name!r}")


class Job:
    """One experiment's live state while a scheduler drives it.

    Args:
        spec: The submitted :class:`JobSpec`.
        job_id: Stable identifier, or None for the anonymous job of a
            single run (its messages and assignments then carry no job
            tag, keeping a solo run's traffic byte-identical to a named
            job's).
        index: Submission order, used for deterministic tie-breaking.
    """

    #: The SLA clock; the scheduler sets its backend's run clock.
    clock = time.monotonic

    def __init__(self, spec: JobSpec, job_id: str | None,
                 index: int) -> None:
        self.spec = spec
        self.id = job_id
        self.index = index
        #: Per-state SLA stamps (:attr:`clock` seconds at each transition).
        self.state_times: dict[str, float] = {}
        #: Set once the job reaches DONE/FAILED/CANCELLED.
        self.finished = threading.Event()
        #: Scheduler hook fired on entry into a FINISHED state.
        self.on_terminal = None
        self._status = None
        self.status = JobStatus.QUEUED
        self.error: BaseException | None = None
        self.result: RunResult | None = None
        # -- scheduling state ------------------------------------------
        self.deficit = 0.0
        self.pending: deque[WorkerAssignment] = deque()
        #: Ranks dispatched whose final has not arrived and that were
        #: not judged dead: the one set liveness is read off.
        self.in_flight: set[int] = set()
        self.dispatched = 0
        self.peak_workers = 0
        # -- SLA clock stamps (run-clock seconds) ----------------------
        self.submitted_wall: float | None = None
        self.started_wall: float | None = None
        self.finished_wall: float | None = None
        self.completed = False
        # -- session state (populated by open()) -----------------------
        self.data = None
        self.state = None
        self.collector: Collector | None = None
        self.telemetry = None
        self.deadline: float | None = None
        self.run_started = 0.0
        self._wall_started = 0.0
        self.drain_started: float | None = None
        # -- recovery bookkeeping --------------------------------------
        self._quotas: dict[int, int | None] = {}
        self._assigned: list[int] = []
        self._recovered: list[int] = []
        self._recovery_budget = _RECOVERY_FACTOR * spec.config.processors
        #: Per rank, the run-clock time it was dispatched or last heard
        #: from; None when no ``stale_worker`` can be logged (telemetry
        #: off, or ``perpass=0``).
        self._seen: dict[int, float] | None = None
        self._stale_after = 3.0 * spec.config.perpass + 1.0

    # -- lifecycle state ------------------------------------------------

    @property
    def status(self) -> str:
        """Current lifecycle state (a :class:`JobStatus` constant)."""
        return self._status

    @status.setter
    def status(self, value: str) -> None:
        self._status = value
        self.state_times[value] = self.clock()
        if value in JobStatus.FINISHED:
            # A scheduler keeps its finished jobs until pruned, a
            # service for good: each must cost its result, not its run.
            self.collector = self.state = self.data = self.telemetry = None
            self.finished.set()
            if self.on_terminal is not None:
                self.on_terminal(self)

    # -- context the backends read --------------------------------------

    @property
    def routine(self):
        """The realization routine backends run for this job."""
        return self.spec.routine

    @property
    def config(self) -> RunConfig:
        """The job's run configuration."""
        return self.spec.config

    @property
    def priority(self) -> float:
        """Fair-share weight."""
        return self.spec.priority

    # -- lifecycle ------------------------------------------------------

    def open(self, backend, run_started: float) -> None:
        """Resume the session and wire collector + telemetry.

        In order: session resume, telemetry, collector construction,
        deadline.  ``run_started`` is the backend clock's now: every
        run-clock stamp counts from it.  With telemetry on, a fresh
        (``res=0``) file-backed session clears the previous run's
        telemetry artifacts, and a resumed one appends to its event log,
        so the record spans the whole simulation.
        """
        config = self.spec.config
        self.run_started = run_started
        self._wall_started = time.monotonic()
        data, state = start_session(config, self.spec.use_files)
        telemetry = None
        if config.telemetry:
            if data is not None and config.res == 0:
                data.clear_telemetry()
            telemetry = RunTelemetry(
                clock=backend.clock, epoch=run_started,
                directory=data.telemetry_dir if data is not None else None)
            telemetry.events.append(
                "session_start", backend=backend.name,
                processors=config.processors, maxsv=config.maxsv,
                seqnum=config.seqnum, res=config.res,
                perpass=config.perpass, peraver=config.peraver,
                shape=list(config.shape))
            if data is not None:
                # Quarantined artifacts surface as storage.quarantined
                # events.
                data.attach_events(telemetry.events)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index,
                              persist_subtotals=backend.persist_subtotals,
                              telemetry=telemetry)
        self.data = data
        self.state = state
        self.telemetry = telemetry
        self.collector = collector
        if config.time_limit is not None:
            self.deadline = run_started + config.time_limit
        if telemetry is not None and config.perpass > 0:
            self._seen = {}

    # -- message path ---------------------------------------------------

    def ingest(self, message: MomentMessage | CombinedMessage,
               now: float) -> bool:
        """Deliver one message to this job's collector.

        A rank whose final arrives leaves :attr:`in_flight`.  Returns
        whether a final arrived: only then can the job complete.
        """
        if isinstance(message, CombinedMessage):
            self.collector.receive_combined(message, now)
            entries = message.entries
        else:
            self.collector.receive(message, now)
            entries = (message,)
        final = False
        for entry in entries:
            if self._seen is not None:  # any entry, kept or stale
                self._seen[entry.rank] = now
            if entry.final:
                final = True
                self.in_flight.discard(entry.rank)
                if self.telemetry is not None:
                    stats = entry.metrics or {}
                    self.telemetry.events.append(
                        "worker_final", ts=now, rank=entry.rank,
                        volume=entry.snapshot.volume,
                        messages=stats.get("messages"),
                        bytes=stats.get("bytes"))
        return final

    def flag_stale(self, now: float) -> None:
        """Emit ``stale_worker`` for each in-flight rank not dispatched
        or heard from for over ``3 * perpass + 1`` seconds, once per
        silence: its next message or dispatch re-arms it."""
        if self._seen is None:
            return
        for rank in sorted(self.in_flight):
            seen = self._seen[rank]
            if now - seen > self._stale_after:
                self._seen[rank] = math.inf  # flagged
                self.telemetry.events.append(
                    "stale_worker", ts=now, rank=rank,
                    last_seen=seen - self.run_started)

    # -- work dispatch --------------------------------------------------

    def record_spawn(self, plan, extras, now: float) -> None:
        """Account for assignments the backend started at ``now``; a
        rerun's dispatch starts its rank's watermark afresh."""
        if extras is None:
            extras = [None] * len(plan)
        for assignment, extra in zip(plan, extras):
            self._assigned.append(assignment.rank)
            self._quotas[assignment.rank] = assignment.quota
            self.in_flight.add(assignment.rank)
            self.dispatched += 1
            if self._seen is not None:
                self._seen[assignment.rank] = now
            if self.telemetry is not None:
                fields = dict(extra) if extra else {}
                if assignment.recovery:
                    fields["recovery"] = True
                self.telemetry.events.append(
                    "worker_start", rank=assignment.rank,
                    quota=assignment.quota, **fields)
        self.peak_workers = max(self.peak_workers, len(self.in_flight))

    # -- fault handling -------------------------------------------------

    def handle_deaths(self, exits, now: float, spawn) -> None:
        """Judge a batch of drained exits and apply the death policy.

        An exit is a death exactly when its rank is still in flight: a
        rank whose final arrived has retired.  An exit carrying an
        ``error`` (a reducer that cannot be respawned) fails the job
        whatever its ranks' state.

        Args:
            exits: The :class:`WorkerDeath` records routed to this job.
            now: Backend clock at the reap.
            spawn: ``spawn(job, assignments)`` callback that starts
                reruns immediately (the scheduler's dispatch path,
                bypassing the fair-share queue).
        """
        for death in exits:
            if death.error is not None:
                raise death.error
        deaths = []
        for death in sorted(exits, key=lambda death: death.rank):
            if death.rank in self.in_flight:
                self.in_flight.discard(death.rank)
                deaths.append(death)
        if not deaths:
            return
        if self.telemetry is not None:
            for death in deaths:
                self.telemetry.events.append(
                    "worker_died", ts=now, rank=death.rank,
                    exitcode=death.exitcode,
                    volume=self.collector.worker_volume(death.rank))
            self.telemetry.events.flush()
        if self.spec.config.on_worker_death != "reassign":
            described = ", ".join(death.describe() for death in deaths)
            raise BackendError(
                f"worker process(es) died before delivering a final "
                f"message: {described}")
        for death in deaths:
            self.reassign(death, now, spawn)

    def reassign(self, death: WorkerDeath, now: float, spawn) -> None:
        """Rerun a dead worker's rank, whole quota, on its own stream.

        Rank r's k-th realization is a pure function of (experiment, r,
        k), so the rerun repeats the dead worker's passes byte for byte:
        the collector keeps the dead worker's last snapshot until the
        rerun passes it, and the final is the fault-free one.  A rank
        that died with everything delivered reruns too: only a final
        ends it.
        """
        quota = self._quotas.get(death.rank)
        if quota is None:
            raise BackendError(
                f"cannot reassign the quota of dead worker "
                f"{death.describe()}: its assignment is dynamically "
                f"scheduled")
        if self._recovery_budget <= 0:
            raise BackendError(
                f"worker {death.describe()} died but the recovery "
                f"budget ({_RECOVERY_FACTOR} per worker) is "
                f"exhausted; the routine appears to kill every "
                f"worker it is given")
        self._recovery_budget -= 1
        delivered = self.collector.worker_volume(death.rank)
        self._recovered.append(death.rank)
        spawn(self, [WorkerAssignment(rank=death.rank, quota=quota,
                                      recovery=True, job=self.id)])
        if self.telemetry is not None:
            self.telemetry.worker_recovered(
                rank=death.rank, reassigned=quota, delivered=delivered,
                now=now)

    # -- completion -----------------------------------------------------

    def mark_complete(self, completed: bool) -> None:
        """Stop taking messages; the loop's next turn finalizes the job."""
        self.status = JobStatus.DRAINING
        self.completed = completed
        self.finished_wall = self.clock()
        self.pending.clear()
        self.in_flight.clear()

    def fail(self, error: BaseException) -> None:
        """Contain a per-job failure: drop its work.

        ``error`` lands before the FAILED transition so a waiter woken
        by :attr:`finished` always observes it.
        """
        self.error = error
        self.finished_wall = self.clock()
        self.pending.clear()
        self.in_flight.clear()
        if self.telemetry is not None:
            self.telemetry.events.append("job_failed", error=str(error))
            self.telemetry.events.flush()
        self.status = JobStatus.FAILED

    def cancel(self) -> None:
        """Withdraw the job: drop its work and mark it CANCELLED.

        The scheduler releases the job from the backend first
        (``release_job`` stops its workers); messages that were already
        in flight land as stray traffic and are counted, not applied.
        """
        self.finished_wall = self.clock()
        self.pending.clear()
        self.in_flight.clear()
        if self.telemetry is not None:
            self.telemetry.events.append("job_cancelled")
            self.telemetry.events.flush()
        self.status = JobStatus.CANCELLED

    def finalize(self, backend, scheduler_started: float) -> RunResult:
        """Merge and assemble this job's :class:`RunResult`.

        A run that completed was committed by the save its last message
        triggered; one that ended without completing (a deadline, a
        partial sample) gets its final save here.  The statement order
        (clock samples, event order) is what the byte-identity pins on
        single-job artifacts hold fixed.  ``elapsed`` is wall-clock
        seconds since the job was opened, whatever the run clock.
        """
        collector = self.collector
        elapsed = time.monotonic() - self._wall_started
        if not collector.committed:
            collector.save(backend.clock(), final=True)
        merged = collector.merged()
        estimates = collector.estimates() if merged.volume > 0 else None
        sla = (self.sla_snapshot(scheduler_started)
               if self.id is not None else None)
        if sla is not None and self.telemetry is not None:
            self.telemetry.events.append("job_sla", **sla)
        # The simulator counts what its nodes computed, including work a
        # failed node never delivered; elsewhere the collector's view.
        cluster = backend.cluster_result()
        if cluster is None:
            per_rank = {rank: collector.worker_volume(rank)
                        for rank in self._assigned}
            session_volume, virtual_time = collector.session_volume, None
        else:
            per_rank = cluster.per_rank_volumes
            session_volume, virtual_time = cluster.total_volume, cluster.t_comp
        summary = (self.telemetry.finalize(
                       elapsed=elapsed, volume=collector.total_volume,
                       virtual_time=virtual_time)
                   if self.telemetry is not None else None)
        self.result = RunResult(
            estimates=estimates,
            config=self.spec.config,
            per_rank_volumes=per_rank,
            session_volume=session_volume,
            total_volume=collector.total_volume,
            elapsed=elapsed,
            cluster=cluster,
            sessions=self.state.session_index,
            data_dir=self.data.root if self.data is not None else None,
            messages_received=collector.receive_count,
            saves_performed=collector.save_count,
            history=collector.history,
            telemetry=summary,
            recovered_ranks=tuple(self._recovered),
            statistics=dict(merged.extras or {}),
            sla=sla)
        self.status = JobStatus.DONE
        return self.result

    # -- SLA ------------------------------------------------------------

    def sla_snapshot(self, base: float) -> dict:
        """The job's SLA record, clock stamps relative to ``base``.

        Keys: submit-to-start ``wait_seconds``, ``makespan_seconds``
        (submit to finish), the advisory ``deadline_seconds`` target
        and whether it was missed, dispatch accounting, and ``states``
        — the per-state lifecycle stamps (seconds relative to
        ``base``) recorded at each transition.
        """
        wait = (self.started_wall - self.submitted_wall
                if self.started_wall is not None
                and self.submitted_wall is not None else None)
        makespan = (self.finished_wall - self.submitted_wall
                    if self.finished_wall is not None
                    and self.submitted_wall is not None else None)
        deadline = self.spec.deadline
        missed = (deadline is not None
                  and (makespan is None or makespan > deadline))
        return {
            "job": self.id,
            "status": self.status,
            "priority": self.spec.priority,
            "submitted_at": (self.submitted_wall - base
                             if self.submitted_wall is not None else None),
            "started_at": (self.started_wall - base
                           if self.started_wall is not None else None),
            "finished_at": (self.finished_wall - base
                            if self.finished_wall is not None else None),
            "wait_seconds": wait,
            "makespan_seconds": makespan,
            "deadline_seconds": deadline,
            "deadline_missed": missed,
            "completed": self.completed,
            "dispatched": self.dispatched,
            "peak_workers": self.peak_workers,
            "recovered": len(self._recovered),
            "states": {state: stamp - base
                       for state, stamp in self.state_times.items()},
        }
