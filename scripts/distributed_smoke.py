#!/usr/bin/env python
"""End-to-end distributed-backend smoke test (CI gate for ISSUE 6).

Launches real ``parmonc-pool`` daemons as subprocesses and proves the
distributed backend's two headline promises over actual TCP:

1. **Parity** — a run dispatched to a pool is bit-identical to the
   sequential backend.
2. **Elastic recovery** — with a second pool joining mid-run and a
   worker SIGKILLed after simulating 5 of its 10 realizations, the run
   still completes the full sample, and the merged estimate is
   bit-identical to the rank-ordered merge of the three pieces the run
   reports it kept (``per_rank_volumes``, computed locally as the
   reference).

Usage::

    $ PYTHONPATH=src python scripts/distributed_smoke.py \\
          [--artifacts DIR]

``--artifacts`` copies the recovery run's telemetry JSONL artifacts
(events, metrics) into DIR for CI upload.
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
if REPO_SRC not in sys.path:
    sys.path.insert(0, REPO_SRC)

from repro.core.parmonc import parmonc  # noqa: E402
from repro.obs.events import read_events  # noqa: E402
from repro.runtime.config import RunConfig  # noqa: E402
from repro.runtime.worker import run_worker  # noqa: E402
from repro.stats.merging import merge_snapshots  # noqa: E402

#: Routines are shipped to the pools by name (``routine_spec``), so the
#: pool processes import *this file* as a module — keep everything the
#: workers touch importable at module level.
_HANG_DIR_ENV = "PARMONC_SMOKE_HANG_DIR"

_CALLS = {"n": 0}

LISTEN_TIMEOUT = 30.0
CHAOS_TIMEOUT = 60.0


def square(rng):
    return rng.random() ** 2


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


def launch_pool(port: int, verbose: bool = False
                ) -> tuple[subprocess.Popen, str]:
    """Start a one-slot parmonc-pool daemon; return (process, address).

    ``verbose`` makes the daemon log its sessions, which
    :func:`await_session` reads.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [REPO_SRC, str(SCRIPTS_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.pool", "--port", str(port),
         "--workers", "1"] + (["--verbose"] if verbose else []),
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


def await_session(pool: subprocess.Popen, timeout: float) -> bool:
    """Block until a verbose pool logs a run's handshake.

    The reader keeps draining the pool's output afterwards, so the
    daemon never stalls on a full pipe.
    """
    seen = threading.Event()

    def scan():
        for line in pool.stdout:
            if "workers offered" in line:
                seen.set()

    threading.Thread(target=scan, daemon=True).start()
    return seen.wait(timeout)


def check(condition: bool, what: str) -> None:
    if not condition:
        print(f"smoke: FAIL — {what}", file=sys.stderr)
        sys.exit(1)
    print(f"smoke: ok — {what}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifacts", type=Path, default=None,
                        help="copy the recovery run's telemetry JSONL "
                             "files into this directory")
    args = parser.parse_args()

    base = Path(tempfile.mkdtemp(prefix="parmonc-dist-smoke-"))
    os.environ[_HANG_DIR_ENV] = str(base)
    pools: list[subprocess.Popen] = []
    try:
        first, first_address = launch_pool(0)
        pools.append(first)
        late_port = free_port()

        # -- Part 1: clean parity over real TCP ------------------------
        sequential = parmonc(square, maxsv=400, perpass=0.0, peraver=0.0,
                             processors=2, backend="sequential",
                             workdir=base / "seq")
        distributed = parmonc(square, maxsv=400, perpass=0.0,
                              peraver=0.0, processors=2,
                              backend="distributed",
                              connect=first_address,
                              backend_options={
                                  "routine_spec":
                                      "distributed_smoke:square"},
                              workdir=base / "dist")
        check(distributed.total_volume == sequential.total_volume == 400,
              "parity run completed the full sample")
        check(distributed.estimates.mean[0, 0]
              == sequential.estimates.mean[0, 0]
              and distributed.estimates.variance[0, 0]
              == sequential.estimates.variance[0, 0],
              "distributed estimates bit-identical to sequential")

        # -- Part 2: late join + SIGKILL + reassign --------------------
        pid_path = base / "hang.pid"
        chaos_errors: list[str] = []

        def chaos():
            deadline = time.monotonic() + CHAOS_TIMEOUT
            while not pid_path.exists() or not pid_path.read_text():
                if time.monotonic() > deadline:
                    chaos_errors.append("hang.pid never appeared")
                    return
                time.sleep(0.05)
            try:
                pools.append(launch_pool(late_port, verbose=True)[0])
            except RuntimeError as error:
                chaos_errors.append(str(error))
                return
            # Kill only once the run's retry loop has found the late
            # pool: a sleep here raced the (now much faster) recovery.
            if not await_session(pools[-1], CHAOS_TIMEOUT):
                chaos_errors.append("the run never reached the late pool")
            os.kill(int(pid_path.read_text()), signal.SIGKILL)
            print("smoke: SIGKILLed the hung worker; late pool serving")

        agitator = threading.Thread(target=chaos, daemon=True)
        agitator.start()
        result = parmonc(
            hang_on_sixth, maxsv=20, perpass=0.0, peraver=0.0,
            processors=2, backend="distributed",
            connect=f"{first_address},127.0.0.1:{late_port}",
            backend_options={
                "routine_spec": "distributed_smoke:hang_on_sixth"},
            on_worker_death="reassign", telemetry=True,
            workdir=base / "elastic")
        agitator.join(timeout=CHAOS_TIMEOUT)
        check(not chaos_errors, "chaos thread ran to completion"
              if not chaos_errors else f"chaos: {chaos_errors[0]}")
        check(result.total_volume == 20,
              "recovered run completed the full 20-realization sample")
        check(result.recovered_ranks == (0,),
              "rank 0's remainder was reassigned")

        # Reference: the pieces the run kept — what rank 0 delivered,
        # rank 1's full 10, the replacement rank 2's remainder — merged
        # in rank order by a local worker loop (env unset -> benign).
        volumes = result.per_rank_volumes
        check(sorted(volumes) == [0, 1, 2] and 1 <= volumes[0] <= 5
              and volumes[1] == 10,
              f"the run kept {volumes} (rank 0 at most its 5 simulated)")
        del os.environ[_HANG_DIR_ENV]
        config = RunConfig(nrow=1, ncol=1, maxsv=20, perpass=0.0,
                           peraver=0.0, processors=2,
                           workdir=base / "ref")
        pieces = [run_worker(hang_on_sixth, config, rank, volume,
                             send=lambda message: None).snapshot()
                  for rank, volume in sorted(volumes.items())]
        reference = merge_snapshots(pieces).estimates()
        check(result.estimates.mean[0, 0] == reference.mean[0, 0]
              and result.estimates.variance[0, 0]
              == reference.variance[0, 0],
              "recovered estimate bit-identical to the rank-ordered "
              "reference merge")

        telemetry_dir = (base / "elastic" / "parmonc_data" / "telemetry")
        kinds = [event.kind for event in
                 read_events(telemetry_dir / "events.jsonl")]
        check(kinds.count("pool_connected") == 2,
              "both pools connected (one mid-run)")
        check("worker_died" in kinds and "worker_recovered" in kinds,
              "telemetry recorded the death and the recovery")

        if args.artifacts is not None:
            args.artifacts.mkdir(parents=True, exist_ok=True)
            for artifact in sorted(telemetry_dir.glob("*.jsonl")):
                shutil.copy2(artifact, args.artifacts / artifact.name)
            print(f"smoke: telemetry JSONL copied to {args.artifacts}")
        print("smoke: OK — distributed parity and elastic recovery hold")
        return 0
    finally:
        for pool in pools:
            if pool.poll() is None:
                pool.terminate()
                try:
                    pool.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    pool.kill()


if __name__ == "__main__":
    sys.exit(main())
