"""The run loop: N experiments multiplexed over one backend.

PARMONC's RNG hierarchy carves out 2**10 independent *experiments*
(``seqnum`` subsequences).  The :class:`Scheduler` drives any number of
:class:`~repro.runtime.job.Job` instances over one shared backend
worker pool, and :meth:`Scheduler.step` is the only loop body in the
runtime: admit queued jobs, apply cancellations, dispatch, expire
deadlines, poll and ingest one message, reap exits, finalize whatever
drained.  Its three clients differ only in who calls it and when they
stop:

* ``parmonc()`` / :class:`~repro.runtime.engine.Engine` — one anonymous
  job, :meth:`Scheduler.run` on the calling thread, error re-raised;
* :meth:`Scheduler.run` / ``parmonc(jobs=...)`` — a batch: stop
  admitting, drain on the calling thread, shut down;
* :meth:`Scheduler.start` / :meth:`Scheduler.serve` /
  ``parmonc-sched`` — a live service that keeps admitting until
  :meth:`Scheduler.shutdown` or its ``on_idle`` says stop (a
  ``parmonc-sched`` batch does at the end of its queue file).

Policies the loop applies:

* **Fair share.**  Worker slots are handed out by per-job deficit
  counters: every dispatch charges the job ``1 / priority``, and the
  job with the highest deficit (ties broken by submission order) wins
  the next free slot, so long-run dispatch rates are proportional to
  priorities.  Free slots are the smaller of the ``workers=`` headroom
  and the backend's ``free_slots()``: unbounded, every pending
  assignment is dispatched at once; else only what a slot can start,
  so a rank's spawn is its start and the rest wait in their job.
* **Quotas.**  ``JobSpec.max_workers`` caps a job's concurrent
  workers; ``workers=`` caps the whole pool.
* **Admission control.**  ``max_jobs=`` bounds the queue;
  :meth:`submit` raises :class:`~repro.exceptions.AdmissionError`
  (back-pressure) once the bound is reached and counts the rejection.
* **SLA tracking.**  Each job records submit-to-start wait, makespan
  and advisory deadline misses; :meth:`sla_report` returns the whole
  picture and each job's record also lands in its own telemetry and
  on its :class:`~repro.runtime.result.RunResult`.
* **Fault containment.**  A job whose prologue, death policy or
  epilogue raises is marked FAILED and the loop carries on; backend
  and programming errors propagate to whoever drives the loop.
* **One way in, one way out.**  The backend hears of a job through
  ``open_job`` at admission and is told to forget it through
  ``release_job`` exactly once, whichever way the job leaves RUNNING —
  drained, failed, cancelled or out of time — and always before the job
  reaches a finished state, so nobody can have pruned it yet.
* **One clock.**  Every stamp the loop takes — submission, dispatch,
  state transitions, time limits — reads ``backend.clock()``: the host's
  monotonic clock on the real backends, virtual seconds on the
  simulated cluster, which shares jobs like any other backend.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Sequence

from repro.exceptions import (
    AdmissionError,
    BackendError,
    ConfigurationError,
    ReproError,
)
from repro.runtime.engine import (
    _POLL_SECONDS,
    EngineBackend,
    WorkerAssignment,
)
from repro.runtime.job import Job, JobSpec, JobStatus

__all__ = ["Scheduler"]


class Scheduler:
    """Run jobs over one shared backend.

    Args:
        backend: The execution strategy all jobs share.
        workers: Global cap on concurrently running workers across all
            jobs (None = unbounded).
        max_jobs: Admission bound on the job queue; further
            :meth:`submit` calls raise
            :class:`~repro.exceptions.AdmissionError`.

    Usage::

        scheduler = Scheduler(MultiprocessBackend(), workers=4)
        jobs = [scheduler.submit(spec) for spec in specs]
        scheduler.run()
        results = [job.result for job in jobs]
    """

    def __init__(self, backend: EngineBackend, *, workers: int | None = None,
                 max_jobs: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(
                f"scheduler workers must be >= 1, got {workers}")
        if max_jobs is not None and max_jobs < 1:
            raise ConfigurationError(
                f"scheduler max_jobs must be >= 1, got {max_jobs}")
        self._backend = backend
        self._workers = workers
        self._max_jobs = max_jobs
        #: Every job in submission order, and by id, until pruned.
        self._jobs: list[Job] = []
        self._by_id: dict[str | None, Job] = {}
        #: Jobs not yet DONE/FAILED/CANCELLED, by index (submission
        #: order): what every turn walks, and the admission bound.
        self._live: dict[int, Job] = {}
        #: Resolved session directory -> the unpruned job writing it.
        self._data_dirs: dict = {}
        self.started = 0.0
        self.rejected = 0
        self.stray_messages = 0
        self._lock = threading.RLock()
        self._state_cond = threading.Condition(self._lock)
        #: Open (False) or stopping (True): once set, nothing further
        #: is admitted and the loop ends when its jobs have finished.
        self._stop = False
        #: The thread inside :meth:`serve`, while there is one.
        self._thread: threading.Thread | None = None
        self._bound = False
        #: Jobs admitted by submit() but not yet opened by the loop.
        self._admissions: deque[Job] = deque()
        #: RUNNING jobs with a cancellation pending loop-side teardown.
        self._cancels: deque[Job] = deque()
        #: Monotonic submission counter; unlike ``len(self._jobs)`` it
        #: survives :meth:`prune`, keeping ids and indices unique.
        self._submitted = 0

    # -- submission -----------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Queue one job; returns its live :class:`Job` handle.

        Callable at any time, from any thread, until the scheduler
        starts stopping (:meth:`run` or :meth:`shutdown`): the loop
        admits the job on its next turn and it starts competing for
        workers, mid-run if others are already running.

        Raises:
            AdmissionError: The scheduler is at its ``max_jobs`` bound
                of active (not yet finished) jobs.
            ConfigurationError: The spec cannot run on this backend,
                collides with an already-submitted job, or the
                scheduler no longer admits jobs.
        """
        with self._state_cond:
            if self._stop:
                raise ConfigurationError(
                    "the scheduler service is shutting down and no "
                    "longer admits jobs")
            if (self._max_jobs is not None
                    and len(self._live) >= self._max_jobs):
                self.rejected += 1
                raise AdmissionError(
                    f"job queue is at capacity ({self._max_jobs} jobs); "
                    f"retry after a job finishes or raise max_jobs")
            data_dir = self._validate_shared(spec)
            job_id = spec.name or f"job-{self._submitted}"
            if job_id in self._by_id:
                raise ConfigurationError(
                    f"duplicate job name {job_id!r}")
            if data_dir is not None:
                self._data_dirs[data_dir] = job_id
            return self._enqueue(Job(spec, job_id, self._submitted))

    def _enqueue(self, job: Job) -> Job:
        """Register a job and hand it to the loop for admission."""
        with self._state_cond:
            job.on_terminal = self._on_job_terminal
            job.clock = self._backend.clock
            job.submitted_wall = job.state_times[JobStatus.QUEUED] = \
                job.clock()
            self._jobs.append(job)
            self._by_id[job.id] = job
            self._live[job.index] = job
            self._submitted += 1
            self._admissions.append(job)
            self._state_cond.notify_all()
            return job

    def _validate_shared(self, spec: JobSpec):
        """Refuse a spec this backend or an unpruned job rules out;
        return its resolved session directory, if it writes one."""
        backend = self._backend
        config = spec.config
        if (config.reduction_fanout is not None
                and not backend.supports_job_reduction):
            raise ConfigurationError(
                f"backend {backend.name!r} does not plan job-scoped "
                f"reduction trees; drop reduction_fanout or use the "
                f"multiprocess backend")
        if not spec.use_files:
            return None
        new_dir = config.data_dir.resolve()
        other = self._data_dirs.get(new_dir)
        if other is not None:
            raise ConfigurationError(
                f"jobs {other!r} and {spec.name!r} would share the "
                f"session directory {new_dir}; give each job its own "
                f"workdir")
        return new_dir

    # -- backend-facing context ----------------------------------------

    def job_context(self, job_id: str | None) -> Job:
        """The owning job's context (config, routine, collector, ...)."""
        job = self._by_id.get(job_id)
        if job is None:
            raise BackendError(f"unknown job {job_id!r}")
        return job

    @property
    def admitting(self) -> bool:
        """Whether :meth:`submit` still takes jobs."""
        return not self._stop

    @property
    def all_complete(self) -> bool:
        """True once no job expects further worker messages."""
        with self._lock:
            return all(job.status in JobStatus.TERMINAL
                       for job in self._live.values())

    def running(self) -> list[Job]:
        """RUNNING jobs in submission order."""
        with self._lock:
            return [job for job in self._live.values()
                    if job.status is JobStatus.RUNNING]

    @property
    def jobs(self) -> tuple[Job, ...]:
        """Submitted jobs in submission order."""
        return tuple(self._jobs)

    # -- message path ---------------------------------------------------

    def ingest(self, message, now: float) -> None:
        """Route one worker/reducer message to its owning job."""
        with self._lock:
            job = self._by_id.get(getattr(message, "job", None))
            if job is None or job.status is not JobStatus.RUNNING:
                # Late traffic from an already-finished or failed job.
                self.stray_messages += 1
                return
            job.ingest(message, now)

    # -- deadlines ------------------------------------------------------

    def _expire_deadlines(self, running: Sequence[Job]) -> None:
        """Drop undispatched work of jobs past their time limit.

        Dispatched workers honour the same deadline themselves (it is
        passed to ``run_worker``), ship a final pass and complete the
        job; only never-dispatched assignments need dropping here.
        """
        for job in running:
            if job.deadline is None or job.status is not JobStatus.RUNNING:
                continue
            if self._backend.clock() < job.deadline:
                continue
            job.pending.clear()
            job.settle()

    # -- dispatch -------------------------------------------------------

    def _dispatch(self, running: Sequence[Job]) -> None:
        """Hand free worker slots to the pending assignments of the
        ``running`` jobs, fairly.

        Unbounded slots dispatch everything at once — a single
        ``backend.spawn`` with a job's full plan.  Bounded slots run
        the deficit auction: highest deficit wins, each dispatch
        charges ``1 / priority``.
        """
        contenders = [job for job in running if job.pending]
        if not contenders:
            return
        free = self._free_slots()
        batches: dict[int, list[WorkerAssignment]] = {}

        def headroom(job: Job) -> int | None:
            cap = job.spec.max_workers
            if cap is None:
                return None
            used = len(job.in_flight) + len(batches.get(job.index, ()))
            return cap - used

        if free is None:
            for job in contenders:
                while job.pending:
                    room = headroom(job)
                    if room is not None and room <= 0:
                        break
                    batches.setdefault(job.index, []).append(
                        job.pending.popleft())
        else:
            while free > 0:
                candidates = [job for job in contenders
                              if job.pending
                              and (headroom(job) is None
                                   or headroom(job) > 0)]
                if not candidates:
                    break
                job = max(candidates,
                          key=lambda j: (j.deficit, -j.index))
                batches.setdefault(job.index, []).append(
                    job.pending.popleft())
                job.deficit -= 1.0 / job.priority
                free -= 1
        for job in contenders:
            batch = batches.get(job.index)
            if batch:
                self._spawn_for(job, batch)

    def _free_slots(self) -> int | None:
        """The smaller of the ``workers`` headroom and the backend's
        ``free_slots()``; None when neither is bounded."""
        free = self._backend.free_slots()
        if self._workers is None:
            return free
        room = self._workers - sum(len(job.in_flight)
                                   for job in self._live.values())
        return room if free is None else min(free, room)

    def _rerun(self, job: Job, batch: list[WorkerAssignment]) -> None:
        """Start a dead rank's rerun now if a slot is free; else it
        waits at the head of its job's ``pending``."""
        free = self._free_slots()
        if free is None or free > 0:
            self._spawn_for(job, batch)
        else:
            job.pending.extendleft(reversed(batch))

    def _spawn_for(self, job: Job, batch: list[WorkerAssignment]) -> None:
        extras = self._backend.spawn(batch)
        now = self._backend.clock()
        if job.started_wall is None:
            job.started_wall = now
        job.record_spawn(batch, extras, now)

    # -- fault handling -------------------------------------------------

    def _handle_deaths(self, exits, now: float) -> None:
        """Route drained exits to their jobs, which judge them.  The
        exit of a pruned job's worker is stray traffic, like its late
        DATA; a finished job's is ignored."""
        by_job: dict[str | None, list] = {}
        for death in exits:
            by_job.setdefault(death.job, []).append(death)
        for job_id in sorted(
                by_job,
                key=lambda jid: self._by_id[jid].index
                if jid in self._by_id else -1):
            job = self._by_id.get(job_id)
            if job is None:
                self.stray_messages += len(by_job[job_id])
                continue
            if job.status is not JobStatus.RUNNING:
                continue
            try:
                job.handle_deaths(by_job[job_id], now, self._rerun)
            except BackendError as error:
                self._backend.release_job(job.id)
                job.fail(error)

    # -- the loop -------------------------------------------------------

    def run(self) -> list[Job]:
        """Drive every submitted job to completion; returns the jobs.

        A batch: nothing further is admitted, the loop runs on the
        calling thread until the jobs have finished, and the backend is
        shut down — error or not.  Per-job failures land on
        ``job.error``; backend and programming errors propagate.
        """
        if not self._jobs:
            raise ConfigurationError("no jobs were submitted")
        with self._state_cond:
            self._stop = True
        self.serve()
        return list(self._jobs)

    def start(self, on_idle: Callable[[], object] | None = None
              ) -> threading.Thread:
        """Run :meth:`serve` on a background thread; returns the thread.

        ``submit``/``cancel``/``drain``/``shutdown`` are then callable
        from the caller's thread while the service loop owns the
        backend.
        """
        thread = threading.Thread(
            target=self.serve, kwargs={"on_idle": on_idle},
            name="parmonc-scheduler", daemon=True)
        with self._state_cond:
            if self._thread is not None:
                raise ConfigurationError(
                    "the scheduler service is already running")
            self._thread = thread
        thread.start()
        return thread

    def serve(self, on_idle: Callable[[], object] | None = None) -> None:
        """Run the loop on this thread until the scheduler stops.

        Args:
            on_idle: Optional callback invoked after every turn of
                the loop, busy or idle (at least every poll interval),
                so it runs once per message ingested and must cost
                little when nothing changed — ``parmonc-sched`` hooks
                its queue reader here.  Returning ``False`` requests
                shutdown: the loop finishes the jobs it has, admits
                nothing further and returns.
        """
        with self._state_cond:
            if self._driven_elsewhere():
                raise ConfigurationError(
                    "the scheduler service is already running")
            self._thread = threading.current_thread()
            if not self.started:
                self.started = self._backend.clock()
        try:
            while True:
                # Idle, wait on the condition below, not in the backend.
                busy = self.step(_POLL_SECONDS if self._live else 0.0)
                if on_idle is not None and on_idle() is False:
                    with self._state_cond:
                        self._stop = True
                if busy:
                    continue
                with self._state_cond:
                    if self._admissions or self._cancels:
                        continue
                    if self._stop:
                        break
                    # Park until a submit/cancel/shutdown wakes us
                    # (bounded so the on_idle watcher keeps ticking).
                    self._state_cond.wait(_POLL_SECONDS)
        finally:
            try:
                self._close()
            finally:
                with self._state_cond:
                    self._thread = None
                    self._state_cond.notify_all()

    def step(self, poll_timeout: float = _POLL_SECONDS) -> bool:
        """One turn of the run loop; returns True while work remains.

        In order: admit, apply cancellations, dispatch, expire
        deadlines, poll/ingest, reap exits (each job judges its own),
        flag stale workers where the backend ``monitors_staleness``,
        finalize whatever drained.  With nothing running the poll only
        lets ``poll_timeout`` pass on the backend's clock — the one way
        a synchronous driver moves an idle virtual clock — so a zero
        timeout skips it.  Public so synchronous harnesses (the load
        study, tests) can drive the loop without a thread.
        """
        backend = self._backend
        with self._lock:
            if not self._bound:
                # The loop's first turn takes the backend online; a
                # scheduler nobody steps never does.
                backend.bind(self)
                self._bound = True
            if self._admissions:
                self._admit_pending()
            if self._cancels:
                self._apply_cancels()
            running = self.running()
            if running:
                self._dispatch(running)
                self._expire_deadlines(running)
        if running or poll_timeout > 0.0:
            message = backend.poll(poll_timeout)
            if message is not None:
                self.ingest(message, backend.clock())
            else:
                now = backend.clock()
                exits = backend.reap()
                with self._lock:
                    if exits:
                        self._handle_deaths(exits, now)
                    if backend.monitors_staleness:
                        for job in running:
                            if job.status is JobStatus.RUNNING:
                                job.flag_stale(now)
        for job in running:
            if job.status is JobStatus.DRAINING:
                self._finalize(job)
        return bool(self._live)

    def _admit_pending(self) -> None:
        """Open queued jobs and put their work plans in contention.

        Each newcomer joins the fair-share auction where the field
        currently stands: matching the least-charged running job means
        it competes on equal terms from now on instead of replaying
        dispatches it never contended for.  A newcomer joins at that
        maximum, so it stays the field's maximum for the whole turn.
        """
        backend = self._backend
        field = max((job.deficit for job in self.running()), default=0.0)
        while self._admissions:
            job = self._admissions.popleft()
            if job.status is not JobStatus.QUEUED:
                continue  # cancelled while queued
            try:
                job.open(backend, backend.clock())
                backend.open_job(job)
            except ReproError as error:
                job.fail(error)
                continue
            job.deficit = field
            job.status = JobStatus.RUNNING
            job.pending.extend(backend.plan(job))
            job.drain_started = backend.clock()

    def _apply_cancels(self) -> None:
        """Release the jobs cancelled while RUNNING."""
        while self._cancels:
            job = self._cancels.popleft()
            if job.status is not JobStatus.RUNNING:
                continue
            self._backend.release_job(job.id)
            job.cancel()

    def _finalize(self, job: Job) -> None:
        """Run the epilogue of a job whose messages are all in.

        A service never shuts the pool down between jobs, so each job's
        epilogue (save, merge, result assembly) runs in the turn it
        drains, right after ``release_job`` — whose books
        ``cluster_result`` then reads.
        """
        backend = self._backend
        if job.telemetry is not None and job.drain_started is not None:
            job.telemetry.tracer.record(
                "collector.drain", job.drain_started, backend.clock(),
                messages=job.collector.receive_count)
        backend.release_job(job.id)
        try:
            job.finalize(backend, self.started)
        except ReproError as error:
            job.fail(error)

    def cancel(self, job: Job | str) -> bool:
        """Cancel a job by handle or id; returns True if it will stop.

        A QUEUED job is withdrawn immediately; a RUNNING job is torn
        down by the loop (workers terminated, late messages counted as
        stray).  Jobs already draining or finished are left alone and
        ``False`` is returned.
        """
        with self._state_cond:
            if isinstance(job, str):
                resolved = self._by_id.get(job)
                if resolved is None:
                    raise ConfigurationError(f"unknown job {job!r}")
                job = resolved
            if job.status is JobStatus.QUEUED:
                job.cancel()
                self._state_cond.notify_all()
                return True
            if job.status is JobStatus.RUNNING:
                self._cancels.append(job)
                self._state_cond.notify_all()
                return True
            return False

    def wait(self, job: Job, timeout: float | None = None) -> bool:
        """Block until ``job`` reaches DONE/FAILED/CANCELLED."""
        return job.finished.wait(timeout)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted job has finished.

        Returns True when the queue is fully drained (immediately so
        when it already is), False on timeout.  While another thread
        runs the loop this waits; otherwise it steps the loop itself.
        """

        def drained() -> bool:
            return (not self._admissions and not self._cancels
                    and not self._live)

        with self._state_cond:
            if self._driven_elsewhere():
                return self._state_cond.wait_for(drained, timeout)
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            with self._lock:
                if drained():
                    return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            self.step()

    def shutdown(self, timeout: float | None = None) -> bool:
        """Finish the admitted jobs, stop the loop, free the backend.

        Returns False when the drain or the join of the service thread
        timed out: the loop then still owns the backend, and a later
        ``shutdown()`` finishes the job.
        """
        drained = self.drain(timeout)
        with self._state_cond:
            self._stop = True
            thread = self._thread
            elsewhere = self._driven_elsewhere()
            self._state_cond.notify_all()
        if not elsewhere:
            # Nobody else runs the loop, so nobody else will close it.
            if drained:
                self._close()
            return drained
        if drained:
            thread.join(timeout)
        return drained and not thread.is_alive()

    def _driven_elsewhere(self) -> bool:
        """True while a thread other than the caller's runs the loop."""
        return self._thread not in (None, threading.current_thread())

    def _close(self) -> None:
        """Stop admitting and free the backend; safe to repeat."""
        with self._state_cond:
            self._stop = True
            bound, self._bound = self._bound, False
        if bound:
            self._backend.shutdown()

    def prune(self) -> int:
        """Drop finished jobs from the live tables; returns the count.

        A long-running service under sustained traffic (the million-
        submission study) would otherwise grow its job list without
        bound.  Aggregate counters (``submitted``, ``rejected``) are
        kept; per-job results must be read before pruning.
        """
        with self._lock:
            keep = list(self._live.values())
            removed = len(self._jobs) - len(keep)
            self._jobs = keep
            self._by_id = {job.id: job for job in keep}
            self._data_dirs = {
                data_dir: job_id
                for data_dir, job_id in self._data_dirs.items()
                if job_id in self._by_id}
            return removed

    def _on_job_terminal(self, job: Job) -> None:
        with self._state_cond:
            self._live.pop(job.index, None)
            self._state_cond.notify_all()

    # -- reporting ------------------------------------------------------

    def sla_report(self) -> dict:
        """Scheduler-level SLA summary across all named jobs."""
        with self._lock:
            jobs = [job.sla_snapshot(self.started) for job in self._jobs
                    if job.id is not None]
            missed = sum(1 for record in jobs if record["deadline_missed"])
            return {
                "workers": self._workers,
                "max_jobs": self._max_jobs,
                "jobs": jobs,
                "submitted": self._submitted,
                "rejected": self.rejected,
                "deadline_misses": missed,
                "stray_messages": self.stray_messages,
            }
