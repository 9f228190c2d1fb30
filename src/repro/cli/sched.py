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
and ``sched`` imports the routines, submits every job and blocks until
the batch drains.  The SLA report is the scheduler's
:meth:`~repro.runtime.scheduler.Scheduler.sla_report` as JSON — per-job
submit-to-start wait, makespan, deadline misses and dispatch counts.

**Streaming service.**  ``parmonc-sched --serve`` turns the spool into
a live queue: the command keeps the scheduler's admission loop running,
tails the queue file, and admits every appended entry mid-run.  The
service mirrors job states into ``<queue>.status.json`` (written
atomically), which is what ``parmonc-submit --wait`` polls::

    $ parmonc-sched --serve --queue jobs.jsonl --workers 8 &
    $ parmonc-submit mymodel:one_trajectory --queue jobs.jsonl \\
          --maxsv 100000 --name diffusion --wait   # blocks until done
    $ parmonc-submit --cancel diffusion --queue jobs.jsonl

Besides job entries the queue accepts two directives:
``{"cancel": "<job>"}`` withdraws a queued or running job, and
``{"shutdown": true}`` drains the admitted jobs and stops the service
(SIGTERM does the same).  Every entry is validated *before* it is
appended — a bad field fails ``parmonc-submit`` with exit code 2 and
never reaches the queue.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from repro.cli.run import load_routine
from repro.core.parmonc import build_job_spec
from repro.exceptions import ConfigurationError, ReproError
from repro.runtime.engine import available_backends, create_backend
from repro.runtime.job import JobStatus
from repro.runtime.scheduler import Scheduler

__all__ = ["submit_main", "sched_main", "status_path", "validate_entry"]

#: Default queue file, relative to the working directory.
DEFAULT_QUEUE = "parmonc_jobs.jsonl"

#: Seconds between ``--wait`` polls of the service status file.
_WAIT_POLL_SECONDS = 0.2


def status_path(queue: Path) -> Path:
    """The live service's status file for a queue."""
    return queue.with_name(queue.name + ".status.json")


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
                             "job instead of submitting one (needs a "
                             "parmonc-sched --serve watching the queue)")
    parser.add_argument("--shutdown", action="store_true",
                        help="append a shutdown directive: the serving "
                             "parmonc-sched drains its jobs and exits")
    parser.add_argument("--wait", action="store_true",
                        help="block until the job finishes, polling "
                             "the --serve status file; exit 0 when "
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
    """Poll the service status file until ``name`` finishes."""
    path = status_path(queue)
    deadline = (time.monotonic() + timeout
                if timeout is not None else None)
    while True:
        try:
            snapshot = json.loads(path.read_text())
        except (OSError, ValueError):
            snapshot = {}
        record = (snapshot.get("jobs") or {}).get(name)
        if record is not None:
            state = record.get("status")
            if state == JobStatus.DONE:
                print(f"{name}: done")
                return 0
            if state in (JobStatus.FAILED, JobStatus.CANCELLED,
                         "rejected"):
                error = record.get("error")
                print(f"{name}: {state}"
                      + (f" — {error}" if error else ""),
                      file=sys.stderr)
                return 1
        if deadline is not None and time.monotonic() >= deadline:
            print(f"parmonc-submit: timed out waiting for {name} "
                  f"(is parmonc-sched --serve running?)",
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
        position = sum(1 for line in
                       args.queue.read_text().splitlines() if line.strip())
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


def _load_queue(path: Path) -> list[dict]:
    if not path.exists():
        raise FileNotFoundError(
            f"queue file {path} does not exist; create it with "
            f"parmonc-submit")
    entries = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{number}: malformed job entry: {exc}") from exc
        if not isinstance(entry, dict):
            raise ValueError(
                f"{path}:{number}: job entry must be an object")
        entries.append(entry)
    return entries


def _make_scheduler(args) -> Scheduler:
    return Scheduler(
        create_backend(args.backend, start_method=args.start_method,
                       connect=args.connect),
        workers=args.workers, max_jobs=args.max_jobs)


def _admit(scheduler: Scheduler, queue: Path, entry: dict, position: int):
    """Submit one queue entry; returns ``(name, job, reason)``.

    ``job`` is None when the entry was rejected — no routine, one that
    does not import, a spec the scheduler refuses, or admission
    back-pressure — and ``reason`` says why (also reported on stderr).
    Routines travel by name; a missing ``workdir`` defaults to a
    directory named after the job, next to the queue file.
    """
    entry = dict(entry)
    name = str(entry.get("name") or f"job-{position}")
    try:
        spec = entry.pop("routine", None)
        if not isinstance(spec, str):
            raise ConfigurationError(
                "entry misses its module:function routine")
        entry["routine"] = load_routine(spec)
        entry.setdefault("name", name)
        entry.setdefault("workdir", str(queue.parent / name))
        return name, scheduler.submit(build_job_spec(entry, position)), None
    except ReproError as exc:
        print(f"parmonc-sched: rejected {name}: {exc}", file=sys.stderr)
        return name, None, str(exc)


def _finish_report(scheduler: Scheduler, args, headline: str,
                   **extra) -> None:
    """Print the closing summary and write the SLA report, if asked."""
    report = dict(scheduler.sla_report(), **extra)
    print(f"{headline}, {report['deadline_misses']} deadline misses")
    if args.sla_report is not None:
        args.sla_report.parent.mkdir(parents=True, exist_ok=True)
        args.sla_report.write_text(json.dumps(report, indent=2) + "\n")
        print(f"SLA report written to {args.sla_report}")


def _write_status(path: Path, payload: dict,
                  last: str | None) -> str | None:
    """Atomically mirror the service state; skip unchanged rewrites."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if text == last:
        return last
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:  # pragma: no cover - disk trouble
        print(f"parmonc-sched: cannot write {path}: {exc}",
              file=sys.stderr)
        return last
    return text


def _serve_queue(args) -> int:
    """The ``--serve`` path: a live scheduler tailing the queue file."""
    queue: Path = args.queue
    queue.parent.mkdir(parents=True, exist_ok=True)
    queue.touch(exist_ok=True)
    sys.path.insert(0, str(queue.parent.resolve()))
    status_file = status_path(queue)
    scheduler = _make_scheduler(args)
    records: dict[str, dict] = {}
    jobs: dict[str, object] = {}
    state = {"offset": 0, "count": 0, "stop": False, "written": None}

    def admit(entry: dict, position: int) -> None:
        name, job, reason = _admit(scheduler, queue, entry, position)
        if job is None:
            records[name] = {"status": "rejected", "error": reason}
            return
        jobs[job.id] = job
        print(f"parmonc-sched: admitted {job.id}", flush=True)

    def process(line: str) -> None:
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            print(f"parmonc-sched: skipping malformed entry: {exc}",
                  file=sys.stderr)
            return
        if not isinstance(entry, dict):
            print("parmonc-sched: skipping non-object entry",
                  file=sys.stderr)
            return
        if entry.get("shutdown"):
            state["stop"] = True
            return
        target = entry.get("cancel")
        if target is not None:
            try:
                accepted = scheduler.cancel(str(target))
            except ConfigurationError as exc:
                print(f"parmonc-sched: cancel: {exc}", file=sys.stderr)
                return
            print(f"parmonc-sched: cancel {target}: "
                  f"{'accepted' if accepted else 'already finished'}",
                  flush=True)
            return
        position = state["count"]
        state["count"] += 1
        admit(entry, position)

    def snapshot(serving: bool = True) -> dict:
        for job in jobs.values():
            record = records.setdefault(job.id, {})
            status = job.status
            if record.get("status") != status:
                record["status"] = status
                record["error"] = (str(job.error)
                                   if job.error is not None else None)
                if status in JobStatus.FINISHED:
                    print(f"parmonc-sched: {job.id}: {status}"
                          + (f" — {job.error}" if job.error else ""),
                          flush=True)
        return {"queue": str(queue), "serving": serving,
                "jobs": records}

    def watcher() -> bool:
        try:
            text = queue.read_text()
        except OSError:
            text = ""
        chunk = text[state["offset"]:]
        cut = chunk.rfind("\n")
        if cut >= 0:
            # Consume only complete lines; a submit racing this read
            # keeps its partial line for the next tick.
            state["offset"] += cut + 1
            for line in chunk[:cut].splitlines():
                if line.strip():
                    process(line.strip())
        state["written"] = _write_status(status_file, snapshot(),
                                         state["written"])
        return not state["stop"]

    def request_stop(signum, frame):
        state["stop"] = True

    on_main = threading.current_thread() is threading.main_thread()
    previous = {}
    if on_main:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, request_stop)
    print(f"parmonc-sched: serving {queue} on the {args.backend} "
          f"backend (status file: {status_file})", flush=True)
    try:
        scheduler.serve(on_idle=watcher)
    except ReproError as exc:
        print(f"parmonc-sched: error: {exc}", file=sys.stderr)
        return 2
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        state["written"] = _write_status(status_file, snapshot(False),
                                         state["written"])
    failed = sum(1 for job in jobs.values() if job.error is not None)
    cancelled = sum(1 for job in jobs.values()
                    if job.status is JobStatus.CANCELLED)
    _finish_report(scheduler, args,
                   f"service: {len(jobs)} jobs admitted, {failed} failed, "
                   f"{cancelled} cancelled")
    return 1 if failed else 0


def sched_main(argv: list[str] | None = None) -> int:
    """Entry point of ``parmonc-sched``; returns a process exit code."""
    args = build_sched_parser().parse_args(argv)
    if args.serve:
        return _serve_queue(args)
    try:
        entries = _load_queue(args.queue)
    except (FileNotFoundError, ValueError) as exc:
        print(f"parmonc-sched: error: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"parmonc-sched: {args.queue} holds no jobs",
              file=sys.stderr)
        return 2
    # Routines travel by name; import relative to the queue directory,
    # the way parmonc-run resolves specs next to the model file.
    sys.path.insert(0, str(args.queue.parent.resolve()))
    try:
        scheduler = _make_scheduler(args)
        admitted = [_admit(scheduler, args.queue, entry, index)
                    for index, entry in enumerate(entries)]
        submitted = [job for _, job, _ in admitted if job is not None]
        rejected = [name for name, job, _ in admitted if job is None]
        if not submitted:
            print("parmonc-sched: error: every job was rejected",
                  file=sys.stderr)
            return 2
        scheduler.run()
    except ReproError as exc:
        print(f"parmonc-sched: error: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for job in submitted:
        if job.error is not None:
            failed += 1
            print(f"{job.id}: FAILED — {job.error}")
            continue
        result = job.result
        sla = result.sla or {}
        print(f"{job.id}: L={result.total_volume} "
              f"wait={sla.get('wait_seconds', 0.0):.3f}s "
              f"makespan={sla.get('makespan_seconds', 0.0):.3f}s"
              + (" DEADLINE MISSED" if sla.get("deadline_missed")
                 else ""))
        if result.data_dir is not None:
            print(f"  results under {result.data_dir}")
    _finish_report(scheduler, args,
                   f"batch: {len(submitted)} jobs, {failed} failed, "
                   f"{len(rejected)} rejected", rejected_jobs=rejected)
    incomplete = sum(1 for job in submitted
                     if job.error is None and job.status
                     is not JobStatus.DONE)
    return 1 if (failed or incomplete) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via scripts
    sys.exit(sched_main())
