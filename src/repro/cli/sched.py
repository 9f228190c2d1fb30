"""The ``parmonc-submit`` / ``parmonc-sched`` commands: batch runs.

``parmonc-submit`` appends one job description to a queue file (JSON
lines, one job per line)::

    $ parmonc-submit mymodel:one_trajectory --queue jobs.jsonl \\
          --maxsv 100000 --seqnum 3 --name diffusion --priority 2

``parmonc-sched`` drains the queue through one shared
:class:`~repro.runtime.scheduler.Scheduler` — every job multiplexed
over the same worker pool, fair-shared by priority::

    $ parmonc-sched --queue jobs.jsonl --backend multiprocess \\
          --workers 8 --sla-report sla.json

The queue file is a plain spool, not a daemon: ``submit`` only writes
the description (the routine travels as its ``module:function`` name),
and ``sched`` reads it, imports the routines, submits the jobs and
blocks until they drain.  The SLA report is the scheduler's
:meth:`~repro.runtime.scheduler.Scheduler.sla_report` as JSON — per-job
submit-to-start wait, makespan, deadline misses and dispatch counts.

**Streaming service.**  ``parmonc-sched --serve`` keeps reading: the
one queue reader runs on every turn of the scheduler's loop and admits
each appended entry mid-run, where a batch stops reading at the end of
the file.  Both append to ``<queue>.status.jsonl``, a
:mod:`repro.obs.events` log of one ``job`` record per state change
between two ``service`` records, which ``parmonc-submit --wait`` polls::

    $ parmonc-sched --serve --queue jobs.jsonl --workers 8 &
    $ parmonc-submit mymodel:one_trajectory --queue jobs.jsonl \\
          --maxsv 100000 --name diffusion --wait   # blocks until done
    $ parmonc-submit --cancel diffusion --queue jobs.jsonl

Besides job entries the queue accepts two directives:
``{"cancel": "<job>"}`` withdraws a queued or running job, and
``{"shutdown": true}`` stops the reading there and drains the admitted
jobs (SIGTERM does the same).  Every entry is validated *before* it is
appended — a bad field fails ``parmonc-submit`` with exit code 2 and
never reaches the queue.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

from repro.cli.run import load_routine
from repro.core.parmonc import build_job_spec
from repro.exceptions import ConfigurationError, ReproError
from repro.obs.events import EventLog, EventTail
from repro.runtime.engine import available_backends, create_backend
from repro.runtime.job import Job, JobStatus
from repro.runtime.scheduler import Scheduler

__all__ = ["submit_main", "sched_main", "status_path", "validate_entry"]

#: Default queue file, relative to the working directory.
DEFAULT_QUEUE = "parmonc_jobs.jsonl"

#: Seconds between ``--wait`` polls of the service status log.
_WAIT_POLL_SECONDS = 0.2


def status_path(queue: Path) -> Path:
    """The service's status log for a queue."""
    return queue.with_name(queue.name + ".status.jsonl")


def _placeholder_routine(rng):  # pragma: no cover - never executed
    """Stand-in callable for validating entries at submit time."""
    return 0.0


def validate_entry(entry: dict, position: int = 0) -> None:
    """Check that a queue entry builds a valid :class:`JobSpec`.

    The routine travels as its ``module:function`` name and is only
    imported by the scheduler, so validation substitutes a placeholder
    callable and lets :func:`~repro.core.parmonc.build_job_spec` (and
    the :class:`~repro.runtime.config.RunConfig` it constructs) check
    every other field.

    Raises:
        ConfigurationError: Naming the offending field, exactly as the
            scheduler would have at admission time.
    """
    probe = dict(entry)
    probe["routine"] = _placeholder_routine
    build_job_spec(probe, position)


# ---------------------------------------------------------------------------
# parmonc-submit


def build_submit_parser() -> argparse.ArgumentParser:
    """Build the parmonc-submit argument parser."""
    parser = argparse.ArgumentParser(
        prog="parmonc-submit",
        description="Append one job to a parmonc batch queue file "
                    "(run the queue with parmonc-sched).")
    parser.add_argument("routine", nargs="?", default=None,
                        help="realization routine as module:function "
                             "(imported by parmonc-sched at run time)")
    parser.add_argument("--queue", type=Path, default=Path(DEFAULT_QUEUE),
                        help=f"queue file to append to (default: "
                             f"{DEFAULT_QUEUE})")
    parser.add_argument("--name", default=None,
                        help="job name (default: job-<position>)")
    parser.add_argument("--priority", type=float, default=1.0,
                        help="fair-share weight; a priority-2 job is "
                             "dispatched twice as often as a "
                             "priority-1 one under contention")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="cap on this job's concurrent workers")
    parser.add_argument("--deadline", type=float, default=None,
                        help="advisory SLA target in seconds; misses "
                             "are counted in the SLA report, the job "
                             "is not cancelled (use --time-limit for "
                             "hard cancellation)")
    parser.add_argument("--nrow", type=int, default=1)
    parser.add_argument("--ncol", type=int, default=1)
    parser.add_argument("--maxsv", type=int, default=None,
                        help="maximal total sample volume")
    parser.add_argument("--res", type=int, choices=(0, 1), default=0,
                        help="0 = new simulation, 1 = resume previous")
    parser.add_argument("--seqnum", type=int, default=0,
                        help="experiments subsequence number; give "
                             "every queued job its own")
    parser.add_argument("--perpass", type=float, default=1.0,
                        help="seconds between worker data passes")
    parser.add_argument("--peraver", type=float, default=5.0,
                        help="seconds between collector saves")
    parser.add_argument("--processors", "-M", type=int, default=1)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="job result directory (default: a "
                             "directory named after the job, next to "
                             "the queue file)")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="hard per-job time limit in seconds")
    parser.add_argument("--telemetry", action="store_true",
                        help="record telemetry artifacts for this job")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="batched realization engine block size")
    parser.add_argument("--statistics", default=None,
                        help="comma-separated extra statistics")
    parser.add_argument("--on-worker-death",
                        choices=("fail", "reassign"), default="fail")
    parser.add_argument("--cancel", metavar="JOB", default=None,
                        help="append a cancel directive for the named "
                             "job instead of submitting one; parmonc-sched "
                             "applies it when it reads the line")
    parser.add_argument("--shutdown", action="store_true",
                        help="append a shutdown directive: the serving "
                             "parmonc-sched drains its jobs and exits")
    parser.add_argument("--wait", action="store_true",
                        help="block until the job finishes, polling "
                             "the parmonc-sched status log; exit 0 when "
                             "done, 1 when failed/cancelled/rejected")
    parser.add_argument("--wait-timeout", type=float, default=None,
                        help="give up --wait after this many seconds "
                             "(exit 1)")
    return parser


def _append_line(queue: Path, entry: dict) -> None:
    queue.parent.mkdir(parents=True, exist_ok=True)
    with queue.open("a") as stream:
        stream.write(json.dumps(entry) + "\n")


def _wait_for(queue: Path, name: str, timeout: float | None) -> int:
    """Poll the service status log until ``name`` finishes.

    Each poll decodes only the records appended since the previous one
    (:class:`~repro.obs.events.EventTail`); a new log (the service
    restarted) is read from its start, and a malformed line leaves the
    job "not yet" until the log is replaced.
    """
    tail = EventTail(status_path(queue))
    deadline = (time.monotonic() + timeout
                if timeout is not None else None)
    record: dict = {}
    while True:
        try:
            events, restarted = tail.poll(kind="job")
        except OSError:
            events, restarted = [], False  # no log yet
        except ConfigurationError:
            events, restarted, record = [], False, {}  # malformed: not yet
        if restarted:
            record = {}
        for event in events:
            if event.fields.get("job") == name:
                record = event.fields
        state = record.get("status")
        if state == JobStatus.DONE:
            print(f"{name}: done")
            return 0
        if state in (JobStatus.FAILED, JobStatus.CANCELLED, "rejected"):
            error = record.get("error")
            print(f"{name}: {state}" + (f" — {error}" if error else ""),
                  file=sys.stderr)
            return 1
        if deadline is not None and time.monotonic() >= deadline:
            print(f"parmonc-submit: timed out waiting for {name} "
                  f"(is parmonc-sched running?)",
                  file=sys.stderr)
            return 1
        time.sleep(_WAIT_POLL_SECONDS)


def submit_main(argv: list[str] | None = None) -> int:
    """Entry point of ``parmonc-submit``; returns a process exit code."""
    parser = build_submit_parser()
    args = parser.parse_args(argv)
    if args.cancel is not None:
        _append_line(args.queue, {"cancel": args.cancel})
        print(f"cancel {args.cancel} queued in {args.queue}")
        if args.wait:
            return _wait_for(args.queue, args.cancel, args.wait_timeout)
        return 0
    if args.shutdown:
        _append_line(args.queue, {"shutdown": True})
        print(f"shutdown queued in {args.queue}")
        return 0
    if args.routine is None or args.maxsv is None:
        parser.error("a routine and --maxsv are required "
                     "(unless --cancel/--shutdown)")
    position = 0
    if args.queue.exists():
        position = sum(1 for line in args.queue.read_bytes().splitlines()
                       if line.strip() and _is_job_entry(_decode(line)))
    name = args.name or f"job-{position}"
    entry = {
        "routine": args.routine,
        "name": name,
        "priority": args.priority,
        "nrow": args.nrow, "ncol": args.ncol, "maxsv": args.maxsv,
        "res": args.res, "seqnum": args.seqnum,
        "perpass": args.perpass, "peraver": args.peraver,
        "processors": args.processors,
        "on_worker_death": args.on_worker_death,
        "telemetry": args.telemetry,
    }
    if args.max_workers is not None:
        entry["max_workers"] = args.max_workers
    if args.deadline is not None:
        entry["deadline"] = args.deadline
    if args.time_limit is not None:
        entry["time_limit"] = args.time_limit
    if args.batch_size is not None:
        entry["batch_size"] = args.batch_size
    if args.statistics is not None:
        entry["statistics"] = args.statistics
    if args.workdir is not None:
        entry["workdir"] = str(args.workdir)
    try:
        # Catch bad fields here, with a field-level message, instead
        # of poisoning the queue for the scheduler to trip over.
        validate_entry(entry, position)
    except ConfigurationError as exc:
        print(f"parmonc-submit: error: {exc}", file=sys.stderr)
        return 2
    _append_line(args.queue, entry)
    print(f"queued {name} (#{position}) in {args.queue}")
    if args.wait:
        return _wait_for(args.queue, name, args.wait_timeout)
    return 0


# ---------------------------------------------------------------------------
# parmonc-sched


def build_sched_parser() -> argparse.ArgumentParser:
    """Build the parmonc-sched argument parser."""
    parser = argparse.ArgumentParser(
        prog="parmonc-sched",
        description="Run every job of a parmonc batch queue over one "
                    "shared worker pool.")
    parser.add_argument("--queue", type=Path, default=Path(DEFAULT_QUEUE),
                        help=f"queue file written by parmonc-submit "
                             f"(default: {DEFAULT_QUEUE})")
    parser.add_argument("--serve", action="store_true",
                        help="run as a live service: keep the admission "
                             "loop running, tail the queue file and "
                             "admit appended jobs mid-run; stop via a "
                             "shutdown directive or SIGTERM")
    parser.add_argument("--backend", choices=available_backends(),
                        default="multiprocess",
                        help="shared backend all jobs run on "
                             "(must support concurrent jobs: "
                             "sequential, multiprocess or distributed)")
    parser.add_argument("--workers", type=int, default=None,
                        help="global cap on concurrently running "
                             "workers across all jobs "
                             "(default: unbounded)")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="admission bound; queue entries beyond it "
                             "are rejected and reported")
    parser.add_argument("--connect", default=None,
                        help="distributed backend: comma-separated "
                             "parmonc-pool addresses")
    parser.add_argument("--start-method", default=None,
                        help="multiprocess backend: multiprocessing "
                             "start method override")
    parser.add_argument("--sla-report", type=Path, default=None,
                        help="write the scheduler's SLA report (per-job "
                             "waits, makespans, deadline misses) to "
                             "this JSON file")
    return parser


def _decode(line: bytes | str) -> dict | str:
    """A queue line's entry, or why the line is not one."""
    try:
        entry = json.loads(line)
    except ValueError as exc:
        return f"malformed entry: {exc}"
    return entry if isinstance(entry, dict) else "non-object entry"


def _is_job_entry(entry: dict | str) -> bool:
    """Whether a decoded line is a job (default names count these)."""
    return (isinstance(entry, dict) and not entry.get("shutdown")
            and entry.get("cancel") is None)


class _QueueConsumer:
    """The one reader of a queue file, run as the scheduler's tick.

    Each :meth:`turn` reads only the bytes appended since the last one
    through a handle kept open, and hands every complete line to
    :meth:`process`; ``offset`` counts the bytes consumed.  Batch mode
    is the same consumer with ``follow=False``: the end of the file —
    a last line without its newline included — ends the reading, and
    the loop drains what was admitted.  A turn appends one ``job``
    record to the status log per state change it sees, stamped with the
    transition's run-clock time; a finished job is no longer looked
    at, so an idle turn costs O(live jobs) and writes nothing.
    """

    def __init__(self, scheduler: Scheduler, queue: Path, handle,
                 follow: bool, clock) -> None:
        self.scheduler = scheduler
        self.queue = queue
        self.follow = follow
        self.stopping = False
        self.offset = 0
        self.admitted: list[Job] = []
        self.rejected: list[str] = []
        self._handle = handle
        self._tail = b""
        self._lines = 0
        self._entries = 0
        self._live: dict[Job, str | None] = {}  # -> status last logged
        status_path(queue).unlink(missing_ok=True)  # a fresh log per run
        self.log = EventLog(clock, status_path(queue), epoch=clock())
        self.log.append("service", serving=True)

    def turn(self) -> bool:
        """Consume what was appended and log what changed; False once
        nothing further is to be read."""
        if not self.stopping:
            data = self._tail + self._handle.read()
            cut = data.rfind(b"\n") + 1 if self.follow else len(data)
            self._tail = data[cut:]
            for line in data[:cut].splitlines(keepends=True):
                if self.stopping:
                    break
                self.offset += len(line)
                self._lines += 1
                self.process(line)
            if not self.follow:
                self.stopping = True
        self.mirror()
        self._flush()
        return not self.stopping

    def process(self, line: bytes) -> None:
        """Consume one line: a directive, a job entry, or a skip."""
        if not line.strip():
            return
        entry = _decode(line)
        if isinstance(entry, str):
            print(f"parmonc-sched: {self.queue}:{self._lines}: skipping "
                  f"{entry}", file=sys.stderr)
        elif _is_job_entry(entry):
            self._admit(entry, self._entries)
            self._entries += 1
        elif entry.get("shutdown"):
            self.stopping = True
        else:
            target = str(entry["cancel"])
            try:
                accepted = self.scheduler.cancel(target)
            except ConfigurationError as exc:
                print(f"parmonc-sched: cancel: {exc}", file=sys.stderr)
                return
            print(f"parmonc-sched: cancel {target}: "
                  f"{'accepted' if accepted else 'already finished'}",
                  flush=True)

    def _admit(self, entry: dict, position: int) -> None:
        """Submit one job entry, or record why it was rejected.

        Routines travel by name; a missing ``workdir`` defaults to a
        directory named after the job, next to the queue file.
        """
        name = str(entry.get("name") or f"job-{position}")
        try:
            spec = entry.pop("routine", None)
            if not isinstance(spec, str):
                raise ConfigurationError(
                    "entry misses its module:function routine")
            entry["routine"] = load_routine(spec)
            entry.setdefault("name", name)
            entry.setdefault("workdir", str(self.queue.parent / name))
            job = self.scheduler.submit(build_job_spec(entry, position))
        except ReproError as exc:
            print(f"parmonc-sched: rejected {name}: {exc}", file=sys.stderr)
            self.rejected.append(name)
            self.log.append("job", job=name, status="rejected",
                            error=str(exc))
            return
        self.admitted.append(job)
        self._live[job] = None
        print(f"parmonc-sched: admitted {job.id}", flush=True)

    def mirror(self) -> None:
        """Log each live job's state change since the last look."""
        for job, logged in list(self._live.items()):
            status, error = job.status, job.error
            if status == logged:
                continue
            self._live[job] = status
            self.log.append("job", ts=job.state_times[status], job=job.id,
                            status=status, error=str(error) if error else None)
            if status in JobStatus.FINISHED:
                del self._live[job]
                print(f"parmonc-sched: {job.id}: {status}"
                      + (f" — {error}" if error else ""), flush=True)

    def close(self) -> None:
        """Log the last changes, then the service's end."""
        self.mirror()
        self.log.append("service", serving=False)
        self._flush()

    def _flush(self) -> None:
        try:
            self.log.flush()
        except OSError as exc:  # pragma: no cover - disk trouble
            print(f"parmonc-sched: cannot write {self.log.path}: {exc}",
                  file=sys.stderr)


def _report(consumer: _QueueConsumer, args) -> int:
    """Print the closing lines, write the SLA report; the exit code."""
    failed = cancelled = 0
    for job in consumer.admitted:
        if job.error is not None:
            failed += 1
            print(f"{job.id}: FAILED — {job.error}")
            continue
        if job.result is None:
            cancelled += 1
            print(f"{job.id}: {job.status}")
            continue
        sla = job.result.sla or {}
        print(f"{job.id}: L={job.result.total_volume} "
              f"wait={sla.get('wait_seconds', 0.0):.3f}s "
              f"makespan={sla.get('makespan_seconds', 0.0):.3f}s"
              + (" DEADLINE MISSED" if sla.get("deadline_missed")
                 else ""))
        if job.result.data_dir is not None:
            print(f"  results under {job.result.data_dir}")
    report = dict(consumer.scheduler.sla_report(),
                  rejected_jobs=consumer.rejected)
    print(f"{'service' if args.serve else 'batch'}: "
          f"{len(consumer.admitted)} jobs, {failed} failed, "
          f"{len(consumer.rejected)} rejected, {cancelled} cancelled, "
          f"{report['deadline_misses']} deadline misses")
    if args.sla_report is not None:
        args.sla_report.parent.mkdir(parents=True, exist_ok=True)
        args.sla_report.write_text(json.dumps(report, indent=2) + "\n")
        print(f"SLA report written to {args.sla_report}")
    return 1 if failed else 0


def sched_main(argv: list[str] | None = None) -> int:
    """Entry point of ``parmonc-sched``; returns a process exit code."""
    args = build_sched_parser().parse_args(argv)
    queue: Path = args.queue
    if args.serve:
        queue.parent.mkdir(parents=True, exist_ok=True)
        queue.touch(exist_ok=True)
    try:
        handle = queue.open("rb")
    except FileNotFoundError:
        print(f"parmonc-sched: error: queue file {queue} does not exist; "
              f"create it with parmonc-submit", file=sys.stderr)
        return 2
    # Routines travel by name; import relative to the queue directory,
    # the way parmonc-run resolves specs next to the model file.
    sys.path.insert(0, str(queue.parent.resolve()))

    def request_stop(signum, frame):
        consumer.stopping = True

    previous, consumer = {}, None
    try:
        backend = create_backend(args.backend, connect=args.connect,
                                 start_method=args.start_method)
        consumer = _QueueConsumer(
            Scheduler(backend, workers=args.workers,
                      max_jobs=args.max_jobs),
            queue, handle, follow=args.serve, clock=backend.clock)
        if args.serve:
            print(f"parmonc-sched: serving {queue} on the {args.backend} "
                  f"backend (status log: {status_path(queue)})",
                  flush=True)
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous[signum] = signal.signal(signum, request_stop)
        consumer.scheduler.serve(on_idle=consumer.turn)
    except ReproError as exc:
        print(f"parmonc-sched: error: {exc}", file=sys.stderr)
        return 2
    finally:
        handle.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        if consumer is not None:
            consumer.close()
    if not (args.serve or consumer.admitted):
        print(f"parmonc-sched: error: {queue} holds no job that could be "
              f"admitted", file=sys.stderr)
        return 2
    return _report(consumer, args)


if __name__ == "__main__":  # pragma: no cover - exercised via scripts
    sys.exit(sched_main())
