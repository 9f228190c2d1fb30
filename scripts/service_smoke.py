#!/usr/bin/env python
"""End-to-end streaming-service smoke test (CI gate for PR 10).

Boots a real ``parmonc-pool`` daemon and a real ``parmonc-sched
--serve`` process, then drives the live admission loop the way an
operator would — through ``parmonc-submit`` against the queue file:

1. **Staggered admission** — three jobs submitted one by one while the
   service is already running; each is admitted mid-session over the
   SUBMIT wire frame.
2. **Cancellation** — one running job is withdrawn with
   ``parmonc-submit --cancel``; its ``--wait`` must exit 1 and the
   status file must show ``cancelled``.
3. **Chaos** — one worker of the telemetry-enabled job is SIGKILLed
   mid-run; the job must recover via ``on_worker_death="reassign"``
   and still finish, on the bytes of a fault-free run.
4. **Failure containment** — a job under the default
   ``on_worker_death="fail"`` loses one of its two workers to
   ``os._exit(3)``; it must end ``failed``, and its *other* worker —
   which would otherwise sit in its routine forever — must be gone
   from the pool within 2 s (``release_job`` -> ``CANCEL``).
5. **Bit-identity** — the steady, late and victim jobs' result
   artifacts must be byte-identical (wall-clock fields aside) to solo
   sequential runs.
6. **Validation** — a malformed submission must exit 2 and never touch
   the queue.
7. **SLA artifact** — the shutdown directive drains the service and
   leaves an SLA report covering every job, copied (with the
   status file and the victim's telemetry) to ``--artifacts``.

Usage::

    $ PYTHONPATH=src python scripts/service_smoke.py [--artifacts DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent
REPO_SRC = str(SCRIPTS_DIR.parent / "src")
if REPO_SRC not in sys.path:
    sys.path.insert(0, REPO_SRC)

from repro.cli.sched import status_path, submit_main  # noqa: E402
from repro.runtime.config import RunConfig  # noqa: E402
from repro.runtime.files import DataDirectory  # noqa: E402
from repro.runtime.engine import Engine  # noqa: E402
from repro.runtime.sequential import SequentialBackend  # noqa: E402

LISTEN_TIMEOUT = 30.0
SERVE_TIMEOUT = 60.0
CHAOS_TIMEOUT = 60.0

#: The routines module written next to the queue file; the serving
#: scheduler imports it from there and the pool unpickles the routines
#: by reference, so the pool's PYTHONPATH includes the directory too.
ROUTINES = '''\
"""Realization routines for the streaming-service smoke test."""
import os
import time

_CALLS = {"n": 0}


def square(rng):
    return rng.random() ** 2


def crawl(rng):
    """Slow enough that the job is still running when cancelled."""
    time.sleep(0.05)
    return rng.random()


def hang_on_sixth(rng):
    """One worker hangs forever on its 6th call (O_EXCL race).

    ``_CALLS`` counts per process: per slot on either backend, across
    every assignment the slot has run.
    """
    directory = os.environ.get("PARMONC_SERVICE_SMOKE_HANG_DIR")
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


def exit_or_linger(rng):
    """Of a job's two workers one lingers for good, the other exits 3
    once the lingerer has recorded its pid (O_EXCL picks who is who)."""
    directory = os.environ.get("PARMONC_SERVICE_SMOKE_HANG_DIR")
    if directory:
        path = os.path.join(directory, "linger.pid")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            while not os.path.getsize(path):
                time.sleep(0.01)
            os._exit(3)
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        while True:
            time.sleep(3600)
    return rng.random() ** 2
'''


def check(condition: bool, what: str) -> None:
    if not condition:
        print(f"smoke: FAIL — {what}", file=sys.stderr)
        sys.exit(1)
    print(f"smoke: ok — {what}")


def child_env(base: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [REPO_SRC, str(base)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PARMONC_SERVICE_SMOKE_HANG_DIR"] = str(base)
    return env


def launch_pool(base: Path, workers: int) -> tuple[subprocess.Popen, str]:
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.pool", "--port", "0",
         "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=child_env(base))
    banner: list[str] = []

    def read_banner():
        banner.append(child.stdout.readline())

    reader = threading.Thread(target=read_banner, daemon=True)
    reader.start()
    reader.join(LISTEN_TIMEOUT)
    if not banner or "listening on" not in banner[0]:
        child.kill()
        raise RuntimeError("pool did not announce itself: "
                           + (banner[0] if banner else "no output"))
    address = banner[0].rsplit(" ", 1)[-1].strip()
    print(f"smoke: pool up at {address} (pid {child.pid})")
    return child, address


def launch_service(base: Path, queue: Path,
                   address: str) -> subprocess.Popen:
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.sched", "--serve",
         "--queue", str(queue), "--backend", "distributed",
         "--connect", address, "--sla-report", str(base / "sla.json")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=child_env(base))
    threading.Thread(target=lambda: shutil.copyfileobj(
        child.stdout, sys.stdout), daemon=True).start()
    deadline = time.monotonic() + SERVE_TIMEOUT
    status_file = status_path(queue)
    while not status_file.exists():
        if child.poll() is not None or time.monotonic() > deadline:
            child.kill()
            raise RuntimeError("service never wrote its status file")
        time.sleep(0.05)
    print(f"smoke: service up (pid {child.pid})")
    return child


def read_status(queue: Path) -> dict:
    try:
        return json.loads(status_path(queue).read_text())
    except (OSError, ValueError):
        return {}


def wait_status(queue: Path, job: str, states: tuple[str, ...],
                timeout: float) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = (read_status(queue).get("jobs") or {}).get(job) or {}
        state = record.get("status")
        if state in states:
            return state
        time.sleep(0.1)
    raise RuntimeError(f"{job} never reached {states}")


def process_gone(pid: int, within: float) -> bool:
    """Whether ``pid`` ends (and is reaped) inside ``within`` seconds."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.02)
    return False


def normalized_artifacts(workdir: Path) -> dict:
    """A job's result artifacts with the wall-clock fields removed."""
    root = workdir / "parmonc_data"
    artifacts = {}
    for name in ("results/func.dat", "results/func_ci.dat"):
        artifacts[name] = (root / name).read_bytes()
    log_lines = [line for line
                 in (root / "results/func_log.dat").read_text().splitlines()
                 if not line.startswith(("mean_time_per_realization_sec",
                                         "written_at", "elapsed_sec"))]
    artifacts["results/func_log.dat"] = "\n".join(log_lines)
    snapshot, meta = DataDirectory(workdir).load_savepoint()
    # Everything the save-point holds except ``compute_time``.
    artifacts["savepoint.bin"] = (
        snapshot.sum1.tobytes(), snapshot.sum2.tobytes(), snapshot.volume,
        meta.used_seqnums, meta.sessions, meta.manifest)
    return artifacts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifacts", type=Path, default=None,
                        help="copy the SLA report, status file and the "
                             "victim job's telemetry here")
    args = parser.parse_args()

    base = Path(tempfile.mkdtemp(prefix="parmonc-service-smoke-"))
    (base / "smokeroutines.py").write_text(ROUTINES)
    queue = base / "jobs.jsonl"
    pool: subprocess.Popen | None = None
    service: subprocess.Popen | None = None
    try:
        pool, address = launch_pool(base, workers=4)
        service = launch_service(base, queue, address)

        def submit(argv: list[str]) -> int:
            return submit_main(argv + ["--queue", str(queue)])

        # A malformed submission dies at validation, queue untouched.
        before = queue.read_text() if queue.exists() else ""
        code = submit(["smokeroutines:square", "--maxsv", "-5",
                       "--name", "broken"])
        check(code == 2 and (queue.read_text()
                             if queue.exists() else "") == before,
              "invalid submission exits 2 without touching the queue")

        # Three staggered jobs against the live admission loop.
        check(submit(["smokeroutines:square", "--maxsv", "200",
                      "--name", "steady", "--seqnum", "0",
                      "--processors", "1", "--perpass", "0",
                      "--peraver", "0"]) == 0, "submitted steady")
        wait_status(queue, "steady", ("running", "done"), SERVE_TIMEOUT)
        check(submit(["smokeroutines:crawl", "--maxsv", "600",
                      "--name", "doomed", "--seqnum", "1",
                      "--processors", "1", "--perpass", "0",
                      "--peraver", "0"]) == 0, "submitted doomed")
        check(submit(["smokeroutines:hang_on_sixth", "--maxsv", "20",
                      "--name", "victim", "--seqnum", "2",
                      "--processors", "2", "--perpass", "0",
                      "--peraver", "0", "--telemetry",
                      "--on-worker-death", "reassign"]) == 0,
              "submitted victim")

        # Chaos: SIGKILL the victim's hung worker once it appears.
        pid_path = base / "hang.pid"
        deadline = time.monotonic() + CHAOS_TIMEOUT
        while not pid_path.exists() or not pid_path.read_text():
            if time.monotonic() > deadline:
                check(False, "hang.pid never appeared")
            time.sleep(0.05)
        time.sleep(0.3)
        os.kill(int(pid_path.read_text()), signal.SIGKILL)
        print("smoke: SIGKILLed the victim job's hung worker")

        # Cancel the running crawler; --wait must report cancellation.
        wait_status(queue, "doomed", ("running",), SERVE_TIMEOUT)
        code = submit(["--cancel", "doomed", "--wait",
                       "--wait-timeout", str(SERVE_TIMEOUT)])
        check(code == 1, "--cancel + --wait exits 1 for the victim "
                         "of a cancellation")
        check(wait_status(queue, "doomed", ("cancelled",),
                          SERVE_TIMEOUT) == "cancelled",
              "status file shows doomed cancelled")

        # A job that fails must not leave its other worker computing
        # in a slot the scheduler already counts free.
        check(submit(["smokeroutines:exit_or_linger", "--maxsv", "20",
                      "--name", "faulty", "--seqnum", "4",
                      "--processors", "2", "--perpass", "0",
                      "--peraver", "0"]) == 0, "submitted faulty")
        check(wait_status(queue, "faulty", ("failed", "done"),
                          SERVE_TIMEOUT) == "failed",
              "a worker's os._exit(3) fails its job")
        check(process_gone(int((base / "linger.pid").read_text()), 2.0),
              "the failed job's surviving worker is gone within 2 s")

        # The survivors drain to completion.
        check(submit(["--wait", "--wait-timeout", str(SERVE_TIMEOUT),
                      "smokeroutines:square", "--maxsv", "40",
                      "--name", "late", "--seqnum", "3",
                      "--processors", "2", "--perpass", "0",
                      "--peraver", "0"]) == 0,
              "late job admitted mid-run and --wait exits 0")
        wait_status(queue, "steady", ("done",), SERVE_TIMEOUT)
        wait_status(queue, "victim", ("done",), SERVE_TIMEOUT)
        check(True, "steady and victim both finished")

        # Shutdown directive: drain, write the SLA report, exit.
        check(submit(["--shutdown"]) == 0, "shutdown directive queued")
        try:
            returncode = service.wait(timeout=SERVE_TIMEOUT)
        except subprocess.TimeoutExpired:
            service.kill()
            check(False, "service did not exit after shutdown")
        check(returncode == 1, "service drained and exited 1 (one job "
                               "failed, by design)")
        status = read_status(queue)
        check(status.get("serving") is False,
              "final status file records the service as stopped")

        # Bit-identity: the streamed steady job vs. a solo sequential
        # run of the same config.
        os.environ.pop("PARMONC_SERVICE_SMOKE_HANG_DIR", None)
        sys.path.insert(0, str(base))
        import smokeroutines
        Engine(SequentialBackend(),
               RunConfig(maxsv=200, processors=1, perpass=0.0,
                         peraver=0.0, seqnum=0,
                         workdir=base / "ref-steady")).run(
                             smokeroutines.square)
        check(normalized_artifacts(base / "steady")
              == normalized_artifacts(base / "ref-steady"),
              "steady artifacts bit-identical to the solo reference")
        Engine(SequentialBackend(),
               RunConfig(maxsv=40, processors=2, perpass=0.0,
                         peraver=0.0, seqnum=3,
                         workdir=base / "ref-late")).run(
                             smokeroutines.square)
        check(normalized_artifacts(base / "late")
              == normalized_artifacts(base / "ref-late"),
              "late artifacts (admitted after the failure) bit-identical "
              "to the solo reference")
        Engine(SequentialBackend(),
               RunConfig(maxsv=20, processors=2, perpass=0.0,
                         peraver=0.0, seqnum=2,
                         workdir=base / "ref-victim")).run(
                             smokeroutines.hang_on_sixth)
        check(normalized_artifacts(base / "victim")
              == normalized_artifacts(base / "ref-victim"),
              "victim artifacts (a worker SIGKILLed) bit-identical to "
              "the fault-free solo reference")

        report = json.loads((base / "sla.json").read_text())
        by_id = {record["job"]: record for record in report["jobs"]}
        check({"steady", "doomed", "victim", "faulty", "late"}
              <= set(by_id), "SLA report covers all submitted jobs")
        check(by_id["faulty"]["status"] == "failed",
              "SLA report records the faulty job as failed")
        check(by_id["victim"]["recovered"] == 1,
              "SLA report records the victim's recovery")
        check(report["deadline_misses"] == 0, "no deadline misses")

        if args.artifacts is not None:
            args.artifacts.mkdir(parents=True, exist_ok=True)
            shutil.copy2(base / "sla.json", args.artifacts / "sla.json")
            shutil.copy2(status_path(queue),
                         args.artifacts / "status.json")
            telemetry = (base / "victim" / "parmonc_data"
                         / "telemetry")
            for artifact in sorted(telemetry.glob("*.jsonl")):
                shutil.copy2(artifact, args.artifacts / artifact.name)
            print(f"smoke: artifacts copied to {args.artifacts}")

        print("smoke: streaming service PASSED")
        return 0
    finally:
        for child in (service, pool):
            if child is not None and child.poll() is None:
                child.kill()
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
