"""The ``parmonc`` entry point — Python twin of ``parmoncc``/``parmoncf``.

The paper's C usage::

    parmoncc(difftraj, &nrow, &ncol, &maxsv, &res, &seqnum,
             &perpass, &peraver);

becomes::

    result = parmonc(difftraj, nrow=1000, ncol=2, maxsv=10**9,
                     res=1, seqnum=2, perpass=minutes(10),
                     peraver=minutes(20), processors=8)

with the user routine written either as ``difftraj(rng)`` (explicit
generator) or as the paper's argument-less style calling the global
``rnd128()``.

Backend dispatch goes through the engine registry
(:func:`~repro.runtime.engine.register_backend`): each name maps to a
:class:`~repro.runtime.engine.Backend` factory, and the shared
:class:`~repro.runtime.engine.Engine` drives the session lifecycle the
same way for all of them.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.exceptions import BackendError, ConfigurationError
from repro.rng.multiplier import DEFAULT_LEAPS, LeapSet
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine, available_backends, create_backend
from repro.runtime.files import read_genparam_file
from repro.runtime.job import JobSpec
from repro.runtime.result import RunResult
from repro.runtime.scheduler import Scheduler
from repro.runtime.worker import RealizationRoutine, make_batched
from repro.stats.statistic import normalize_statistics

if TYPE_CHECKING:
    from repro.cluster.simulation import ClusterSpec

__all__ = ["parmonc", "build_job_spec", "BACKENDS"]

#: Names accepted by the ``backend`` argument (registry snapshot; the
#: authoritative, always-current list is ``available_backends()``).
BACKENDS = available_backends()


def _resolve_leaps(workdir: Path, leaps: LeapSet | None) -> LeapSet:
    """Explicit leaps win; otherwise honour ``parmonc_genparam.dat``."""
    if leaps is not None:
        return leaps
    stored = read_genparam_file(workdir)
    if stored is None:
        return DEFAULT_LEAPS
    return LeapSet(
        experiment_exponent=stored["ne_exponent"],
        processor_exponent=stored["np_exponent"],
        realization_exponent=stored["nr_exponent"])


def parmonc(realization: RealizationRoutine | None = None,
            nrow: int = 1, ncol: int = 1,
            maxsv: int = 1, res: int = 0, seqnum: int = 0,
            perpass: float = 1.0, peraver: float = 5.0, *,
            processors: int = 1, backend: str = "sequential",
            workdir: str | Path | None = None,
            leaps: LeapSet | None = None,
            time_limit: float | None = None,
            use_files: bool = True,
            cluster_spec: ClusterSpec | None = None,
            execute_realizations: bool = True,
            start_method: str | None = None,
            connect: str | Sequence | None = None,
            backend_options: Mapping | None = None,
            telemetry: bool = False,
            batch_size: int | None = None,
            on_worker_death: str = "fail",
            death_grace: float = 1.0,
            statistics: Sequence[str] | str | None = None,
            reduction_fanout: int | None = None,
            jobs: Sequence | None = None,
            workers: int | None = None,
            max_jobs: int | None = None
            ) -> RunResult | list[RunResult]:
    """Run a massively parallel stochastic simulation.

    Args:
        realization: Routine computing a single realization of the
            random object; ``fn(rng) -> matrix`` or argument-less
            ``fn() -> matrix`` drawing from the global ``rnd128()``.
        nrow: Rows of the realization matrix ``[zeta_ij]``.
        ncol: Columns of the realization matrix.
        maxsv: Maximal total sample volume.
        res: 0 for a new simulation, 1 to resume the previous one (its
            results are folded in automatically, formula (5)).
        seqnum: "Experiments" subsequence number; when resuming it must
            differ from every previous session's.
        perpass: Seconds between a worker's data passes.  0 means "after
            every realization" — the paper's strictest performance-test
            condition; expect heavy exchange traffic.  Use
            :func:`repro.runtime.minutes` for the paper's minute-valued
            arguments.
        peraver: Seconds between collector averaging/saving sweeps
            (0 = on every message; each sweep rewrites the result
            files).
        processors: Number of processors ``M``.
        backend: Any registered backend name — ``"sequential"``,
            ``"multiprocess"`` (real OS processes), ``"simcluster"``
            (discrete-event simulation in virtual time) or
            ``"distributed"`` (TCP ``parmonc-pool`` worker daemons)
            out of the box; see
            :func:`~repro.runtime.engine.register_backend`.
        workdir: Directory for ``parmonc_data``; defaults to the current
            directory.  A ``parmonc_genparam.dat`` there overrides the
            default leap parameters, as in §3.5.
        leaps: Explicit hierarchy parameters (beats the genparam file).
        time_limit: Job time limit in seconds (virtual seconds under
            ``simcluster``).
        use_files: Set False for throwaway in-memory estimation.
        cluster_spec: Hardware model for the ``simcluster`` backend.
        execute_realizations: ``simcluster`` only — False turns the run
            into a pure timing study.
        start_method: ``multiprocess`` only — multiprocessing start
            method override.
        connect: ``distributed`` only — ``parmonc-pool`` address(es)
            to dispatch quota to: ``"host:port"``, a comma-separated
            list, or an iterable of addresses.  See
            ``docs/protocol.md``.
        backend_options: Extra keyword options forwarded to the chosen
            backend's factory (each backend keeps only what its
            signature accepts), for backends whose knobs have no
            dedicated ``parmonc()`` argument — e.g. the distributed
            backend's ``routine_spec`` or ``heartbeat_timeout``.
        telemetry: Record metrics, spans and a JSONL event log under
            ``parmonc_data/telemetry/`` (virtual-clock timestamps under
            ``simcluster``); summarized on ``RunResult.telemetry`` and
            rendered by ``parmonc-report --telemetry``.  See
            :mod:`repro.obs` and ``docs/observability.md``.
        batch_size: Run the batched realization engine with blocks of
            this many realizations per inner-loop pass.  A scalar
            routine is wrapped with :func:`~repro.runtime.worker
            .make_batched`; a routine already carrying a ``batch_size``
            attribute (see :func:`~repro.runtime.worker.batch_routine`)
            is used as-is and this argument must be None.  Estimates are
            bit-identical to the scalar path; see ``docs/performance.md``.
        on_worker_death: ``"fail"`` (default) aborts the run when a
            worker dies short of its final message; ``"reassign"``
            retires the dead rank at its last delivered watermark and
            reissues the remaining quota to a fresh worker on a fresh
            RNG subsequence.  See ``docs/architecture.md``.
        death_grace: Seconds a cleanly-exited worker may stay silent
            before being declared dead (its final message may still be
            crossing the queue).
        statistics: Mergeable statistics to accumulate alongside the
            moments — a sequence of registered kinds or a
            comma-separated string (``"moments"`` is always included
            and always first).  Built-ins: ``"moments"``,
            ``"covariance"``, ``"histogram"``, ``"extrema"``,
            ``"counter"``; user kinds register via
            :func:`repro.stats.register_statistic`.  Extra statistics
            piggyback on every data pass, merge under formula (5) and
            survive save-points; the merged result lands on
            ``RunResult.statistics``.  Default: moments only.
        reduction_fanout: Width of the hierarchical reduction tree.
            None (default) keeps the flat worker->rank-0 exchange;
            ``k >= 2`` inserts interior reducer nodes that coalesce
            their subtree's latest snapshots into one combined message
            upstream, so the collector serves O(fanout) peers instead
            of O(M) workers — estimates stay bit-identical.  Honoured
            by ``multiprocess`` and ``simcluster``; see
            ``docs/reduction.md``.
        jobs: Batch mode — a sequence of experiments to multiplex over
            *one* shared worker pool through a
            :class:`~repro.runtime.scheduler.Scheduler` instead of
            running a single session.  Each item is either a
            :class:`~repro.runtime.job.JobSpec` or a mapping of the
            per-run ``parmonc()`` arguments (``routine``/
            ``realization``, ``nrow``, ``maxsv``, ``seqnum``,
            ``workdir``, ...) plus the job knobs ``name``,
            ``priority``, ``max_workers`` and ``deadline``.  Mutually
            exclusive with ``realization``; the top-level per-run
            arguments are ignored and every job carries its own.
            Returns a list of per-job results in submission order.
        workers: Batch mode — global cap on concurrently running
            workers across all jobs (None = unbounded).
        max_jobs: Batch mode — admission bound on the job queue;
            submitting more raises
            :class:`~repro.exceptions.AdmissionError`.

    Returns:
        The session's :class:`~repro.runtime.result.RunResult`, or the
        per-job list of results in ``jobs=[...]`` batch mode.
    """
    # create_backend rejects an unknown name and keeps only the options
    # the chosen factory accepts (simcluster-only knobs drop elsewhere).
    options = dict(backend_options) if backend_options else {}
    options.setdefault("start_method", start_method)
    options.setdefault("cluster_spec", cluster_spec)
    options.setdefault("execute_realizations", execute_realizations)
    options.setdefault("connect", connect)
    backend_impl = create_backend(backend, **options)
    if jobs is not None:
        if realization is not None:
            raise ConfigurationError(
                "pass either a single realization routine or "
                "jobs=[...], not both")
        return _run_jobs(jobs, backend_impl, workers=workers,
                         max_jobs=max_jobs)
    if realization is None and execute_realizations:
        raise ConfigurationError(
            "a realization routine is required (or pass jobs=[...] "
            "for batch mode)")
    if workers is not None or max_jobs is not None:
        raise ConfigurationError(
            "workers= and max_jobs= apply to jobs=[...] batch mode "
            "only; a single run sizes its pool with processors=")
    spec = _job_spec(realization, dict(
        nrow=nrow, ncol=ncol, maxsv=maxsv, res=res, seqnum=seqnum,
        perpass=perpass, peraver=peraver, processors=processors,
        workdir=workdir, leaps=leaps, time_limit=time_limit,
        telemetry=telemetry, batch_size=batch_size,
        on_worker_death=on_worker_death, death_grace=death_grace,
        statistics=statistics, reduction_fanout=reduction_fanout,
        use_files=use_files), "the run")
    return Engine(backend_impl, spec.config,
                  use_files=spec.use_files).run(spec.routine)


#: Mapping keys of a ``jobs=[...]`` item that flow into its RunConfig.
_JOB_CONFIG_KEYS = frozenset((
    "nrow", "ncol", "maxsv", "res", "seqnum", "perpass", "peraver",
    "processors", "time_limit", "telemetry", "on_worker_death",
    "death_grace", "reduction_fanout"))

#: ... and those that are :class:`JobSpec` fields of their own.
_JOB_KNOB_KEYS = frozenset((
    "name", "priority", "max_workers", "deadline", "use_files"))


def build_job_spec(item, index: int = 0) -> JobSpec:
    """Normalize one ``jobs=[...]`` item into a :class:`JobSpec`.

    Accepts a ready :class:`~repro.runtime.job.JobSpec` (returned
    as-is) or a mapping of per-run ``parmonc()`` arguments plus the
    job knobs (``name``, ``priority``, ``max_workers``, ``deadline``).
    Shared by the batch API and the ``parmonc-sched`` CLI.
    """
    if isinstance(item, JobSpec):
        return item
    if not isinstance(item, Mapping):
        raise ConfigurationError(
            f"job #{index} must be a JobSpec or a mapping of parmonc "
            f"arguments, got {type(item).__name__}")
    spec = dict(item)
    routine = spec.pop("routine", spec.pop("realization", None))
    if not callable(routine):
        raise ConfigurationError(
            f"job #{index} needs a callable 'routine'")
    return _job_spec(routine, spec, f"job #{index}")


def _job_spec(routine, spec: dict, label: str) -> JobSpec:
    """The one place run arguments become a :class:`JobSpec`.

    ``spec`` holds per-run ``parmonc()`` arguments and job knobs and is
    consumed; ``label`` names the run in error messages.
    """
    batch_size = spec.pop("batch_size", None)
    if batch_size is not None:
        if getattr(routine, "batch_size", None) is not None:
            raise ConfigurationError(
                f"{label}: routine already declares its own "
                f"batch_size; drop the batch_size argument")
        routine = make_batched(routine, batch_size)
    workdir = spec.pop("workdir", None)
    resolved_workdir = (Path(workdir) if workdir is not None
                        else Path.cwd())
    leaps = spec.pop("leaps", None)
    statistics = spec.pop("statistics", None)
    job_kwargs = {key: spec.pop(key) for key in tuple(spec)
                  if key in _JOB_KNOB_KEYS}
    config_kwargs = {key: spec.pop(key) for key in tuple(spec)
                     if key in _JOB_CONFIG_KEYS}
    if spec:
        raise ConfigurationError(
            f"{label} has unknown keys {sorted(spec)}")
    config = RunConfig(
        workdir=resolved_workdir,
        leaps=_resolve_leaps(resolved_workdir, leaps),
        statistics=normalize_statistics(statistics),
        **config_kwargs)
    return JobSpec(routine=routine, config=config, **job_kwargs)


def _run_jobs(jobs: Sequence, backend, *, workers: int | None,
              max_jobs: int | None) -> list[RunResult]:
    """The ``jobs=[...]`` batch path: one scheduler, one shared pool."""
    specs = [build_job_spec(item, index)
             for index, item in enumerate(jobs)]
    if not specs:
        raise ConfigurationError("jobs=[...] needs at least one job")
    scheduler = Scheduler(backend, workers=workers, max_jobs=max_jobs)
    submitted = [scheduler.submit(spec) for spec in specs]
    scheduler.run()
    failed = [job for job in submitted if job.error is not None]
    if failed:
        details = "; ".join(f"{job.id}: {job.error}" for job in failed)
        raise BackendError(
            f"{len(failed)} of {len(submitted)} jobs failed — {details}")
    return [job.result for job in submitted]
