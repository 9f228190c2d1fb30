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
  ``free_slots()`` / ``spawn(plan)`` / ``poll(timeout)`` / ``reap()`` /
  ``release_job(job_id)`` / ``shutdown()`` — implemented by
  :class:`~repro.runtime.sequential.SequentialBackend`,
  :class:`~repro.runtime.multiprocess.MultiprocessBackend`,
  :class:`~repro.runtime.distributed.DistributedBackend` and
  :class:`~repro.runtime.simcluster.SimclusterBackend`.  Every one of
  them carries any number of jobs at once; ``clock()`` is the run clock
  the loop stamps with, virtual on the simulated cluster alone.
* The **registry** (:func:`register_backend`) is the single source of
  backend names: ``parmonc()`` and ``parmonc-run`` both resolve names
  through it, and new backends plug in without touching the core.
* :class:`Engine` is the one single-run facade, on every clock: submit
  one anonymous job to a scheduler, drain it on the calling thread,
  re-raise its error or return its result.

**Fault-tolerant quota reassignment.**  When a backend reports a
worker's exit (:meth:`EngineBackend.reap`) while its rank is still in
flight — dispatched, its final not in — the job judges it dead, and
when the run's :attr:`~repro.runtime.config.RunConfig.on_worker_death`
policy is ``"reassign"``, the job reruns the dead rank with its whole
quota from realization 0 of its own "processors" subsequence.  The
rank's k-th realization is a pure function of (experiment, rank, k),
so the rerun repeats what the dead worker delivered, and the recovered
estimate is byte for byte the fault-free one.  The default policy, ``"fail"``,
fails the job with a :class:`~repro.exceptions.BackendError`, except
on a simulated node's silent stop (:attr:`WorkerDeath.silent`): that
rank retires with what it delivered, and the job loses the tail of its
work, as §2.2 models.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.exceptions import BackendError, ConfigurationError
from repro.runtime.config import RunConfig
from repro.runtime.messages import CombinedMessage, MomentMessage
from repro.runtime.result import RunResult

if TYPE_CHECKING:
    from repro.cluster.simulation import ClusterResult

__all__ = [
    "EngineBackend",
    "Engine",
    "WorkerAssignment",
    "WorkerDeath",
    "available_backends",
    "create_backend",
    "register_backend",
    "register_lazy_backend",
]

#: Blocking-poll granularity of the drain loop, in seconds.
_POLL_SECONDS = 0.05

#: Reassignment budget: at most this many recoveries per initial worker.
#: A routine that kills every worker it is given would otherwise rerun
#: its ranks forever; past the budget the engine fails the run.
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
        recovery: True when this assignment reruns a dead worker's
            rank; it reports straight to rank 0, past any reducer.
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
    """A drained exit: a worker that will write nothing more.

    A backend reports one only once everything the worker wrote has
    been delivered; the owning job judges it a death exactly when the
    rank is still in flight (its final is not in).

    Attributes:
        rank: The exited worker's rank.
        exitcode: OS exit code when known (None for simulated nodes
            and lost pools).
        detail: Human-readable cause, e.g. the injected failure time.
        job: Identifier of the job the worker was running for
            (``None`` for a single run's anonymous job); the scheduler
            routes the exit to that job, which judges it.
        error: Set when the death ends its job under either death
            policy — a reducer that cannot be respawned, filed under
            the lowest rank below it; the job fails with this error.
        silent: §2.2's silent stop, set by the simulated cluster alone:
            under ``"fail"`` the rank retires with what it delivered
            instead of failing its job.
    """

    rank: int
    exitcode: int | None = None
    detail: str = ""
    job: str | None = None
    error: BackendError | None = None
    silent: bool = False

    def describe(self) -> str:
        """The ``rank N (...)`` fragment used in error messages."""
        cause = (self.detail if self.detail
                 else f"exitcode {self.exitcode}")
        prefix = f"job {self.job} " if self.job is not None else ""
        return f"{prefix}rank {self.rank} ({cause})"


class EngineBackend:
    """An execution strategy: everything the run loop touches, once.

    A backend never touches the session lifecycle: it starts workers,
    surfaces their messages and reports their exits.  The
    :class:`~repro.runtime.scheduler.Scheduler` calls, in this order:
    :meth:`bind` once, before anything else; per admitted job
    :meth:`open_job`, :meth:`plan`, then :meth:`free_slots` /
    :meth:`spawn` / :meth:`poll` / :meth:`reap` while the job is
    RUNNING, :meth:`release_job` exactly once when it leaves RUNNING —
    however it leaves — and :meth:`cluster_result` right after it if
    the job drained; finally
    :meth:`shutdown`, once, error or not.  ``engine.job_context(job_id)``
    is the one source of an assignment's routine, config, collector,
    telemetry and deadline, for the anonymous job of a single run and
    for named jobs alike.  Every message and exit carries its owning
    job's id, so any number of jobs share one backend.

    Subclasses implement :meth:`spawn` and :meth:`poll`; everything
    else — the run clock, the work plan, the two job hooks, result
    accounting — has a real-time, hold-no-state default here.
    """

    name = "abstract"
    #: Collector ``persist_subtotals`` override (None = collector default).
    persist_subtotals: bool | None = None
    #: Whether the scheduler should flag silent in-flight workers with
    #: ``stale_worker`` telemetry events.  Meaningful only for backends whose workers report
    #: asynchronously; the sequential loop and the virtual cluster opt out.
    monitors_staleness = False
    #: Whether a shared-pool job may carry its own ``reduction_fanout``
    #: (the backend plans a job-scoped tree in :meth:`open_job`).
    supports_job_reduction = False

    def __init__(self) -> None:
        #: The bound scheduler (None until :meth:`bind`).
        self.engine = None

    # -- context ---------------------------------------------------------

    def bind(self, engine) -> None:
        """Remember the scheduler; job context is read through it."""
        self.engine = engine

    def clock(self) -> float:
        """The run clock; the simulated cluster's is virtual."""
        return time.monotonic()

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

    def cluster_result(self) -> ClusterResult | None:
        """The simulator's accounting of the job :meth:`release_job` last
        released, or None: a real backend keeps no books of its own, and
        the result is the collector's view."""
        return None

    # -- workers and messages --------------------------------------------

    def free_slots(self) -> int | None:
        """How many assignments :meth:`spawn` can start now (None: no
        bound), asked on each turn with work pending and before a rerun."""
        return None

    def spawn(self, plan: Sequence[WorkerAssignment]
              ) -> list[dict] | None:
        """Start one worker per assignment.

        Never more than :meth:`free_slots` allowed: the spawn is the
        start.  Called again mid-run with recovery reruns; the optional
        return value supplies per-assignment extra fields for the
        ``worker_start`` telemetry event (e.g. the OS pid).
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
        """Report the workers that exited, each once drained.

        Called when :meth:`poll` comes back empty.  The backend decides
        *when* an exit may be reported: only once everything the worker
        wrote has been delivered.  The owning job decides *whether* it
        was a death: exactly when its rank is still in flight.  No
        verdict reads a clock.  The multiprocess backend's
        :class:`~repro.runtime.host.WorkerHost` reports an exit only
        after the child's pipe is drained, and a tree rank's clean exit
        waits until the root reducer above it has exited; the
        distributed backend reads a pool's DATA and EXIT frames off one
        ordered inbox; the simulated cluster reports a failed node once
        its last pass has landed.  A nonzero exit is reported on sight.
        """
        return []

    def shutdown(self) -> None:
        """Release resources; called exactly once, error or not."""


# ---------------------------------------------------------------------------
# Backend registry

_FACTORIES: dict[str, Callable[..., EngineBackend]] = {}
_LAZY: dict[str, str] = {}
#: Names in first-registration order.  Kept separately so resolving a
#: lazy entry (which eagerly registers the factory) cannot reshuffle
#: ``available_backends()``.
_ORDER: list[str] = []


def register_backend(name: str,
                     factory: Callable[..., EngineBackend] | None = None):
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

    def register(factory: Callable[..., EngineBackend]):
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


def _resolve_factory(name: str) -> Callable[..., EngineBackend]:
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


def create_backend(name: str, **options) -> EngineBackend:
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

    def __init__(self, backend: EngineBackend, config: RunConfig,
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
