"""Backends, their registry, and the single-run facade.

Every PARMONC run follows the same master-worker script — resume the
previous session, dispatch a work plan to ``M`` workers, drain moment
messages into the collector, average and save periodically, finalize —
and only the *execution strategy* differs between running workers
inline, as OS processes, over TCP, or inside the discrete-event cluster
simulation.  The script itself lives in two places: per-run state in
:class:`~repro.runtime.job.Job`, and the one run loop in
:meth:`Scheduler.step() <repro.runtime.scheduler.Scheduler.step>`.
This module holds what the loop drives:

* :class:`EngineBackend` is the strategy contract — ``open_job(job)`` /
  ``spawn(plan)`` / ``poll(timeout)`` / ``reap()`` /
  ``release_job(job_id)`` / ``shutdown()`` — implemented by
  :class:`~repro.runtime.sequential.SequentialBackend`,
  :class:`~repro.runtime.multiprocess.MultiprocessBackend`,
  :class:`~repro.runtime.distributed.DistributedBackend` and
  :class:`~repro.runtime.simcluster.SimclusterBackend`.
* The **registry** (:func:`register_backend`) is the single source of
  backend names: ``parmonc()`` and ``parmonc-run`` both resolve names
  through it, and new backends plug in without touching the core.
* :class:`Engine` is the single-run facade: submit one anonymous job to
  a scheduler, drain it on the calling thread, re-raise its error or
  return its result.

**Fault-tolerant quota reassignment.**  When a backend reports a dead
worker (:meth:`EngineBackend.reap`) and the run's
:attr:`~repro.runtime.config.RunConfig.on_worker_death` policy is
``"reassign"``, the job keeps the dead worker's moments at its last
collected watermark, retires its rank, and reissues the undelivered
remainder of its quota to a replacement worker on a *fresh* processor
subsequence of the RNG hierarchy (an index beyond ``M``), so the
recovered estimate stays uncorrelated with everything the dead worker
consumed.  The default policy, ``"fail"``, fails the job with a
:class:`~repro.exceptions.BackendError` on the multiprocess and
distributed backends; the simulated cluster loses the tail of the
failed node's work, as §2.2 models.
"""

from __future__ import annotations

import importlib
import inspect
import queue as queue_module
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.exceptions import ConfigurationError
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.messages import CombinedMessage, MomentMessage
from repro.runtime.result import RunResult

__all__ = [
    "Backend",
    "DrainBuffer",
    "EngineBackend",
    "Engine",
    "ExitVerdicts",
    "WorkerAssignment",
    "WorkerDeath",
    "available_backends",
    "create_backend",
    "shared_job_backends",
    "register_backend",
    "register_lazy_backend",
]

#: Blocking-poll granularity of the drain loop, in seconds.
_POLL_SECONDS = 0.05

#: Reassignment budget: at most this many recoveries per initial worker.
#: A routine that kills every worker it is given would otherwise respawn
#: replacements forever; past the budget the engine fails the run.
_RECOVERY_FACTOR = 4


@dataclass(frozen=True)
class WorkerAssignment:
    """One unit of the work plan: a worker rank and its quota.

    Attributes:
        rank: Processor index — both the collector lane the worker's
            messages arrive on and the "processors" subsequence of the
            RNG hierarchy it draws from.
        quota: Realizations assigned to the rank, or None when the
            backend self-schedules (the simulated cluster's ``dynamic``
            mode); reassignment needs a known quota.
        recovery: True when this assignment re-issues a dead worker's
            remaining quota on a fresh subsequence.
        job: Identifier of the owning :class:`~repro.runtime.job.Job`;
            ``None`` for the anonymous job of a single run.  Backends
            route the worker's messages (and its death) back to this
            job.
    """

    rank: int
    quota: int | None
    recovery: bool = False
    job: str | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(
                f"assignment rank must be >= 0, got {self.rank}")
        if self.quota is not None and self.quota < 0:
            raise ConfigurationError(
                f"assignment quota must be >= 0, got {self.quota}")


@dataclass(frozen=True)
class WorkerDeath:
    """A worker that will never deliver its final message.

    Attributes:
        rank: The dead worker's rank.
        exitcode: OS exit code when known (None for simulated nodes).
        detail: Human-readable cause, e.g. the injected failure time.
        job: Identifier of the job the dead worker was running for
            (``None`` for a single run's anonymous job); the scheduler
            routes the death to that job's recovery bookkeeping.
    """

    rank: int
    exitcode: int | None = None
    detail: str = ""
    job: str | None = None

    def describe(self) -> str:
        """The ``rank N (...)`` fragment used in error messages."""
        cause = (self.detail if self.detail
                 else f"exitcode {self.exitcode}")
        prefix = f"job {self.job} " if self.job is not None else ""
        return f"{prefix}rank {self.rank} ({cause})"


class EngineBackend:
    """An execution strategy: everything the run loop touches, once.

    A backend never touches the session lifecycle: it starts workers,
    surfaces their messages and reports their deaths.  The
    :class:`~repro.runtime.scheduler.Scheduler` calls, in this order:
    :meth:`bind` once, before anything else; per admitted job
    :meth:`open_job`, :meth:`plan`, then :meth:`spawn` / :meth:`poll` /
    :meth:`reap` for as long as the job is RUNNING, :meth:`release_job`
    exactly once when it leaves RUNNING — however it leaves — and
    :meth:`finish` plus the result hooks if it drained; finally
    :meth:`shutdown`, once, error or not.  ``engine.job_context(job_id)``
    is the one source of an assignment's routine, config, collector,
    telemetry and deadline, for the anonymous job of a single run and
    for named jobs alike.

    Subclasses implement :meth:`spawn` and :meth:`poll`; everything
    else — the run clock, the work plan, the two job hooks, result
    accounting — has a real-time, hold-no-state default here.
    """

    name = "abstract"
    #: Collector ``persist_subtotals`` override (None = collector default).
    persist_subtotals: bool | None = None
    #: Virtual run seconds (``T_comp``); stays None on real-time backends.
    virtual_time: float | None = None
    #: Whether the engine should flag silent workers with ``stale_worker``
    #: telemetry events.  Meaningful only for backends whose workers report
    #: asynchronously; the sequential loop and the virtual cluster opt out.
    monitors_staleness = False
    #: Whether the backend can interleave assignments from different jobs
    #: of one :class:`~repro.runtime.scheduler.Scheduler`; one that opts
    #: in tags every message and death with the owning job id.
    supports_shared_jobs = False
    #: Whether a shared-pool job may carry its own ``reduction_fanout``
    #: (the backend plans a job-scoped tree in :meth:`open_job`).
    supports_job_reduction = False

    def __init__(self) -> None:
        #: The bound scheduler (None until :meth:`bind`).
        self.engine = None
        self._done = False

    # -- context ---------------------------------------------------------

    def bind(self, engine) -> None:
        """Remember the scheduler; job context is read through it."""
        self.engine = engine

    def clock(self) -> float:
        """The run clock; virtual backends override this."""
        return time.monotonic()

    def telemetry_epoch(self, started: float) -> float:
        """Clock value subtracted from telemetry timestamps."""
        return started

    # -- job lifecycle ---------------------------------------------------

    def open_job(self, job) -> None:
        """A job enters the backend: set up what is scoped to it.

        Called once per job at admission, after :meth:`bind` and before
        the job's first :meth:`spawn`.  Raising a
        :class:`~repro.exceptions.ReproError` fails the job, which then
        counts as never opened.
        """

    def release_job(self, job_id: str | None) -> None:
        """A job leaves the backend: it takes no more messages.

        Called exactly once, on the loop thread, for every opened job
        on every exit from RUNNING (drained, failed, cancelled, past
        its time limit): stop whatever still runs for the job and
        forget everything keyed by it.  Idempotent, so a
        :meth:`shutdown` that sweeps up after an error may repeat it.
        """

    # -- work plan and results -------------------------------------------

    def plan(self, job) -> list[WorkerAssignment]:
        """A job's initial work plan: its config's even static split."""
        config = job.config
        return [WorkerAssignment(rank, config.worker_quota(rank),
                                 job=job.id)
                for rank in range(config.processors)]

    def per_rank_volumes(self, collector: Collector,
                         ranks: Sequence[int]) -> dict[int, int]:
        """Final per-worker volumes for the result (collector's view)."""
        return {rank: collector.worker_volume(rank) for rank in ranks}

    def session_volume(self, collector: Collector) -> int:
        """Realizations this session contributed to the estimate."""
        return collector.session_volume

    def finish(self) -> None:
        """Success-path accounting hook, before the final save."""

    # -- workers and messages --------------------------------------------

    def spawn(self, plan: Sequence[WorkerAssignment]
              ) -> list[dict] | None:
        """Start one worker per assignment.

        May be called again mid-run with recovery assignments.  The
        optional return value supplies per-assignment extra fields for
        the ``worker_start`` telemetry event (e.g. the OS pid).
        """
        raise NotImplementedError

    def poll(self, timeout: float
             ) -> MomentMessage | CombinedMessage | None:
        """Return the next worker or reducer message, or None.

        Backends that deliver messages out-of-band (straight into the
        scheduler's ``ingest``, or into the collector itself) always
        return None and make progress inside the call instead.  A
        backend running a reduction tree (see
        :mod:`repro.runtime.reduction`) surfaces the interior nodes'
        :class:`~repro.runtime.messages.CombinedMessage` forwards
        through the same channel.
        """
        raise NotImplementedError

    def reap(self) -> list[WorkerDeath]:
        """Report workers that died short of their final message.

        Called when :meth:`poll` comes back empty.  Implementations must
        drain any messages still in flight from a suspect worker before
        declaring it dead — a delivered-but-queued final message means
        the worker finished, and a queued non-final message must reach
        the collector (advancing the rank's watermark) before any
        reassignment is sized.  The contract, shared by the
        multiprocess and distributed backends via :class:`DrainBuffer`
        and :class:`ExitVerdicts`:

        1. Drain the message channel completely.  If anything was
           drained, return ``[]`` — the engine ingests the buffered
           messages first and calls ``reap`` again on the next empty
           poll.
        2. Only on an empty drain, judge the suspects: a nonzero exit
           is dead on sight; a clean exit whose final message has not
           arrived gets ``config.death_grace`` seconds before the
           verdict; a rank in ``collector.final_ranks`` is never dead.
        """
        return []

    def shutdown(self) -> None:
        """Release resources; called exactly once, error or not."""

    @property
    def done(self) -> bool:
        """True when the backend can produce no further messages."""
        return self._done


#: The annotation name of the contract; :class:`EngineBackend` is its
#: one declaration.
Backend = EngineBackend


class DrainBuffer:
    """Drain-before-verdict buffer shared by asynchronous backends.

    Backends whose workers report through a queue (multiprocess) or a
    socket thread (distributed) must never declare a worker dead while
    its messages sit undelivered in the channel: a queued *final*
    message means the worker actually finished, and a queued non-final
    message moves the watermark that sizes any reassignment.  This
    helper centralizes the pattern:

    * ``poll`` returns :meth:`pop` results before reading the channel,
      so drained messages reach the engine in order;
    * ``reap`` calls :meth:`drain` first and returns no deaths when it
      buffered anything — verdicts wait for a provably empty channel.

    Args:
        fetch_nowait: Zero-argument callable returning the next queued
            message, raising :class:`queue.Empty` when there is none.
            Evaluated at call time, so a backend may rebind its
            underlying channel (tests do).
    """

    def __init__(self, fetch_nowait: Callable[[], MomentMessage]) -> None:
        self._fetch = fetch_nowait
        self._buffer: deque[MomentMessage | CombinedMessage] = deque()

    def __len__(self) -> int:
        return len(self._buffer)

    def pop(self) -> MomentMessage | None:
        """The oldest buffered message, or None when empty."""
        if self._buffer:
            return self._buffer.popleft()
        return None

    def drain(self) -> bool:
        """Move every pending message into the buffer; True if any were."""
        drained = False
        while True:
            try:
                self._buffer.append(self._fetch())
            except queue_module.Empty:
                break
            drained = True
        return drained


class ExitVerdicts:
    """Step 2 of the :meth:`EngineBackend.reap` contract (exited workers).

    One instance per backend judges every worker the backend has seen
    exit (or lose its pool), keyed ``(job, rank)``, and remembers when
    a clean exit without a final message was first noticed so its
    grace period runs across ``reap`` calls.
    """

    def __init__(self) -> None:
        self._suspects: dict[tuple, float] = {}

    def judge(self, key: tuple, *, final: bool, crashed: bool,
              now: float, grace: float) -> bool | None:
        """Whether the exited worker ``key`` is dead.

        Args:
            key: ``(job, rank)`` of the exited worker.
            final: The rank is in its collector's ``final_ranks``.
            crashed: Nonzero exit code, signal, or lost pool.
            now: The backend clock.
            grace: The owning job's ``config.death_grace``.

        Returns:
            False for a finalized rank (never dead); True for a crash,
            or for a clean exit still silent ``grace`` seconds after it
            was first judged; None while that grace is running.
        """
        if final:
            self._suspects.pop(key, None)
            return False
        if crashed or now - self._suspects.setdefault(key, now) >= grace:
            self._suspects.pop(key, None)
            return True
        return None

    def forget(self, key: tuple) -> None:
        """Drop a worker whose job was released or pruned."""
        self._suspects.pop(key, None)


# ---------------------------------------------------------------------------
# Backend registry

_FACTORIES: dict[str, Callable[..., Backend]] = {}
_LAZY: dict[str, str] = {}
#: Names in first-registration order.  Kept separately so resolving a
#: lazy entry (which eagerly registers the factory) cannot reshuffle
#: ``available_backends()``.
_ORDER: list[str] = []


def register_backend(name: str, factory: Callable[..., Backend] | None = None):
    """Register a backend factory under ``name``; usable as a decorator.

    The registry is the single source of backend names: ``parmonc()``
    validates against it and the CLI offers its names as choices.
    Re-registering a name that already has a *different* eager factory
    is an error; resolving a lazy entry (see
    :func:`register_lazy_backend`) is not.

    Example:
        >>> @register_backend("null")                   # doctest: +SKIP
        ... class NullBackend(EngineBackend): ...
    """

    def register(factory: Callable[..., Backend]):
        existing = _FACTORIES.get(name)
        if existing is not None and existing is not factory:
            raise ConfigurationError(
                f"backend {name!r} is already registered")
        _FACTORIES[name] = factory
        _LAZY.pop(name, None)
        if name not in _ORDER:
            _ORDER.append(name)
        return factory

    if factory is not None:
        return register(factory)
    return register


def register_lazy_backend(name: str, module: str) -> None:
    """Register a backend whose module is imported on first use.

    This is how the simulated-cluster backend joins the registry
    without creating an import cycle: ``repro.runtime`` records only
    the module path; importing the module (which pulls in
    ``repro.cluster``) happens when the backend is first requested, and
    the module's own :func:`register_backend` call completes the entry.
    """
    if name in _FACTORIES or name in _LAZY:
        return
    _LAZY[name] = module
    if name not in _ORDER:
        _ORDER.append(name)


def available_backends() -> tuple[str, ...]:
    """Every registered backend name, eager and lazy, in registration order.

    The order is first-registration order and stays stable when a lazy
    backend's module is imported (directly or via first use).
    """
    return tuple(name for name in _ORDER
                 if name in _FACTORIES or name in _LAZY)


def shared_job_backends() -> tuple[str, ...]:
    """Backend names whose class declares ``supports_shared_jobs``.

    Used by the scheduler's submit-time rejection message so the caller
    learns which backends *can* multiplex concurrent jobs.  Resolving
    the answer for a lazy entry imports its module (the class attribute
    cannot be read otherwise); the registration order is unaffected.
    """
    names = []
    for name in available_backends():
        try:
            factory = _resolve_factory(name)
        except ConfigurationError:
            continue
        if getattr(factory, "supports_shared_jobs", False):
            names.append(name)
    return tuple(names)


def _resolve_factory(name: str) -> Callable[..., Backend]:
    factory = _FACTORIES.get(name)
    if factory is not None:
        return factory
    module = _LAZY.get(name)
    if module is not None:
        importlib.import_module(module)
        factory = _FACTORIES.get(name)
        if factory is not None:
            return factory
        raise ConfigurationError(
            f"module {module!r} did not register backend {name!r}")
    raise ConfigurationError(
        f"unknown backend {name!r}; choose from {available_backends()}")


def create_backend(name: str, **options) -> Backend:
    """Instantiate a registered backend by name.

    ``options`` is the union of every backend-specific knob the caller
    carries (``start_method``, ``cluster_spec``, ...); each factory
    receives only the keywords its signature accepts, so options that
    belong to a different backend are ignored — matching how
    ``parmonc()`` has always tolerated them.
    """
    factory = _resolve_factory(name)
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return factory(**options)
    if any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
        return factory(**options)
    accepted = {key: value for key, value in options.items()
                if key in parameters}
    return factory(**accepted)


# ---------------------------------------------------------------------------
# The engine

class Engine:
    """Single-session facade over the scheduler's run loop.

    Submits one *anonymous* job (its messages and assignments carry
    ``job=None``, so a single run's traffic and artifacts stay
    byte-identical whatever else the scheduler learns to do), drains it
    on the calling thread and hands back its result.  The scheduler
    contains failures per job; this facade re-raises the job's error,
    so a single run fails exactly where its caller stands.

    Args:
        backend: The execution strategy (an :class:`EngineBackend`).
        config: The run configuration.
        use_files: Write ``parmonc_data`` result files and save-points;
            disable for throwaway in-memory estimation.
    """

    def __init__(self, backend: Backend, config: RunConfig,
                 use_files: bool = True) -> None:
        self._backend = backend
        self.config = config
        self._use_files = use_files

    def run(self, routine) -> RunResult:
        """Run one session; return its :class:`RunResult`.

        Raises:
            BackendError: When a worker dies under the ``"fail"`` policy,
                or recovery is impossible under ``"reassign"``.
        """
        # Imported here: scheduler/job import this module for the
        # assignment and registry types.
        from repro.runtime.job import Job, JobSpec
        from repro.runtime.scheduler import Scheduler

        scheduler = Scheduler(self._backend)
        job = scheduler._enqueue(Job(
            JobSpec(routine=routine, config=self.config,
                    use_files=self._use_files), None, 0))
        scheduler.run()
        if job.error is not None:
            raise job.error
        return job.result
