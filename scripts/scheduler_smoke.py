#!/usr/bin/env python
"""End-to-end scheduler smoke test (CI gate for the Job/Scheduler split).

Launches a real ``parmonc-pool`` daemon and drives **three concurrent
jobs** through one shared :class:`repro.runtime.scheduler.Scheduler`
session over actual TCP, then proves the multi-tenant promises:

1. **Isolation under chaos** — one job's worker is SIGKILLed mid-run;
   that job recovers via ``on_worker_death="reassign"`` while its two
   neighbours finish untouched.
2. **Per-job identity** — every job's estimate is bit-identical to its
   solo sequential reference (the victim's to the rank-ordered merge of
   the pieces the run actually kept).
3. **SLA accounting** — the scheduler's report covers all three jobs,
   records the recovery, and is written out for CI upload together with
   the victim job's telemetry.

Usage::

    $ PYTHONPATH=src python scripts/scheduler_smoke.py [--artifacts DIR]
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent
REPO_SRC = str(SCRIPTS_DIR.parent / "src")
for entry in (REPO_SRC, str(SCRIPTS_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.obs.events import read_events  # noqa: E402
from repro.runtime.config import RunConfig  # noqa: E402
from repro.runtime.engine import create_backend  # noqa: E402
from repro.runtime.job import JobSpec, JobStatus  # noqa: E402
from repro.runtime.scheduler import Scheduler  # noqa: E402
from repro.runtime.sequential import run_sequential  # noqa: E402
from repro.runtime.worker import run_worker  # noqa: E402
from repro.stats.merging import merge_snapshots  # noqa: E402

#: Shared-mode routines travel by pickle (by reference), so the pool
#: imports *this file* as the ``scheduler_smoke`` module — keep
#: everything the workers run importable at module level, and submit
#: the module's attributes, never ``__main__``'s (see ``main()``).
_HANG_DIR_ENV = "PARMONC_SCHED_SMOKE_HANG_DIR"

_CALLS = {"n": 0}

LISTEN_TIMEOUT = 30.0
CHAOS_TIMEOUT = 60.0


def square(rng):
    return rng.random() ** 2


def cube(rng):
    return rng.random() ** 3


def hang_on_sixth(rng):
    """One worker process hangs forever on its 6th call (O_EXCL race).

    The winner records its pid in ``hang.pid`` for the harness to
    SIGKILL after having simulated 5 realizations.  ``perpass=0`` makes
    a pass due after each one, but the latest-wins outbox skips a pass
    while the previous one is unread, so the run may keep fewer than 5.
    """
    directory = os.environ.get(_HANG_DIR_ENV)
    if directory:
        _CALLS["n"] += 1
        if _CALLS["n"] == 6:
            try:
                fd = os.open(os.path.join(directory, "hang.pid"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                while True:
                    time.sleep(3600)
    return rng.random() ** 2


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def launch_pool(workers: int) -> tuple[subprocess.Popen, str]:
    """Start a parmonc-pool daemon; return (process, address)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [REPO_SRC, str(SCRIPTS_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.pool", "--port", "0",
         "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    banner: list[str] = []

    def read_banner():
        banner.append(child.stdout.readline())

    reader = threading.Thread(target=read_banner, daemon=True)
    reader.start()
    reader.join(LISTEN_TIMEOUT)
    if not banner or "listening on" not in banner[0]:
        child.kill()
        raise RuntimeError(
            f"pool did not announce itself within {LISTEN_TIMEOUT:.0f}s: "
            f"{banner[0]!r}" if banner else "no output")
    address = banner[0].rsplit(" ", 1)[-1].strip()
    print(f"smoke: pool up at {address} (pid {child.pid})")
    return child, address


def check(condition: bool, what: str) -> None:
    if not condition:
        print(f"smoke: FAIL — {what}", file=sys.stderr)
        sys.exit(1)
    print(f"smoke: ok — {what}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifacts", type=Path, default=None,
                        help="write the SLA report and the victim "
                             "job's telemetry JSONL files here")
    args = parser.parse_args()

    # Submit the *module's* routines so pickle serializes them by
    # importable reference, never as ``__main__`` attributes.
    import scheduler_smoke as mod

    base = Path(tempfile.mkdtemp(prefix="parmonc-sched-smoke-"))
    os.environ[_HANG_DIR_ENV] = str(base)
    pool: subprocess.Popen | None = None
    try:
        pool, address = launch_pool(workers=4)

        scheduler = Scheduler(create_backend("distributed",
                                             connect=address))
        steady0 = scheduler.submit(JobSpec(
            routine=mod.square,
            config=RunConfig(maxsv=200, perpass=0.0, peraver=0.0,
                             processors=1, seqnum=0,
                             workdir=base / "steady0"),
            name="steady0", priority=1.0, deadline=3600.0))
        steady1 = scheduler.submit(JobSpec(
            routine=mod.cube,
            config=RunConfig(maxsv=200, perpass=0.0, peraver=0.0,
                             processors=1, seqnum=1,
                             workdir=base / "steady1"),
            name="steady1", priority=2.0))
        victim = scheduler.submit(JobSpec(
            routine=mod.hang_on_sixth,
            config=RunConfig(maxsv=20, perpass=0.0, peraver=0.0,
                             processors=2, seqnum=2,
                             on_worker_death="reassign",
                             telemetry=True,
                             workdir=base / "victim"),
            name="victim", priority=1.0))

        pid_path = base / "hang.pid"
        chaos_errors: list[str] = []

        def chaos():
            deadline = time.monotonic() + CHAOS_TIMEOUT
            while not pid_path.exists() or not pid_path.read_text():
                if time.monotonic() > deadline:
                    chaos_errors.append("hang.pid never appeared")
                    return
                time.sleep(0.05)
            time.sleep(0.3)
            os.kill(int(pid_path.read_text()), signal.SIGKILL)
            print("smoke: SIGKILLed the victim job's hung worker")

        agitator = threading.Thread(target=chaos, daemon=True)
        agitator.start()
        scheduler.run()
        agitator.join(timeout=CHAOS_TIMEOUT)
        check(not chaos_errors, "chaos thread ran to completion"
              if not chaos_errors else f"chaos: {chaos_errors[0]}")
        check(all(job.status is JobStatus.DONE
                  for job in (steady0, steady1, victim)),
              "all three concurrent jobs finished")

        # Per-job identity: the steady jobs vs. their solo sequential
        # references, the victim vs. the rank-ordered merge of the
        # pieces the run kept (what the hung rank delivered, its
        # sibling's full 10, the replacement rank 2's remainder).
        del os.environ[_HANG_DIR_ENV]
        for job, routine in ((steady0, mod.square), (steady1, mod.cube)):
            reference = run_sequential(
                routine, RunConfig(maxsv=200, perpass=0.0, peraver=0.0,
                                   processors=1, seqnum=job.index,
                                   workdir=base / f"ref-{job.id}"),
                use_files=False)
            check(job.result.estimates.mean[0, 0]
                  == reference.estimates.mean[0, 0]
                  and job.result.estimates.variance[0, 0]
                  == reference.estimates.variance[0, 0],
                  f"{job.id} estimate bit-identical to its solo "
                  f"sequential reference")
        check(victim.result.total_volume == 20,
              "victim job completed its full 20-realization sample")
        # Either victim rank can win the O_EXCL race in hang_on_sixth.
        recovered = victim.result.recovered_ranks
        check(recovered in ((0,), (1,)),
              f"victim's dead rank was reassigned (rank {recovered})")
        hung = recovered[0]
        volumes = victim.result.per_rank_volumes
        check(sorted(volumes) == [0, 1, 2] and 1 <= volumes[hung] <= 5
              and volumes[1 - hung] == 10,
              f"the victim kept {volumes} (rank {hung} at most its 5 "
              f"simulated)")
        config = RunConfig(maxsv=20, perpass=0.0, peraver=0.0,
                           processors=2, seqnum=2, workdir=base / "ref")
        pieces = [run_worker(mod.hang_on_sixth, config, rank, volume,
                             send=lambda message: None).snapshot()
                  for rank, volume in sorted(volumes.items())]
        reference = merge_snapshots(pieces).estimates()
        check(victim.result.estimates.mean[0, 0] == reference.mean[0, 0]
              and victim.result.estimates.variance[0, 0]
              == reference.variance[0, 0],
              "victim estimate bit-identical to the rank-ordered "
              "reference merge")

        report = scheduler.sla_report()
        by_id = {record["job"]: record for record in report["jobs"]}
        check(set(by_id) == {"steady0", "steady1", "victim"},
              "SLA report covers all three jobs")
        check(by_id["victim"]["recovered"] == 1,
              "SLA report records the victim's recovery")
        check(report["deadline_misses"] == 0,
              "no deadline was missed")

        kinds = [event.kind for event in read_events(
            base / "victim" / "parmonc_data" / "telemetry"
            / "events.jsonl")]
        check("worker_died" in kinds and "worker_recovered" in kinds
              and "job_sla" in kinds,
              "victim telemetry recorded death, recovery and SLA")

        if args.artifacts is not None:
            args.artifacts.mkdir(parents=True, exist_ok=True)
            import json
            (args.artifacts / "sla_report.json").write_text(
                json.dumps(report, indent=2) + "\n")
            telemetry_dir = (base / "victim" / "parmonc_data"
                             / "telemetry")
            for artifact in sorted(telemetry_dir.glob("*.jsonl")):
                shutil.copy2(artifact, args.artifacts / artifact.name)
            print(f"smoke: SLA report + telemetry copied to "
                  f"{args.artifacts}")
        print("smoke: OK — three concurrent jobs, one shared pool, "
              "per-job recovery and identity hold")
        return 0
    finally:
        if pool is not None and pool.poll() is None:
            pool.terminate()
            try:
                pool.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pool.kill()


if __name__ == "__main__":
    sys.exit(main())
