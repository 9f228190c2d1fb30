#!/usr/bin/env python
"""End-to-end crash-recovery smoke test (CI gate for §3.4).

Launches a real multiprocess PARMONC run in a child process group,
SIGKILLs the whole group mid-run — the moral equivalent of a cluster
scheduler cancelling the job — and then proves the §3.4 recovery
promise: ``manaver`` exits 0 and recovers a non-zero sample volume from
the per-processor save-points, and the recovered save-point passes its
checksum.

Usage::

    $ PYTHONPATH=src python scripts/crash_recovery_smoke.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")
if REPO_SRC not in sys.path:
    sys.path.insert(0, REPO_SRC)

from repro.cli.manaver import main as manaver_main  # noqa: E402
from repro.runtime.files import DataDirectory  # noqa: E402

#: The victim: a deliberately slow run that cannot finish before the
#: kill.  perpass=0 makes a pass due after every realization (one is
#: skipped only while the previous is still unread), so there is always
#: recent recoverable state on disk.
CHILD_PROGRAM = """
import sys, time
sys.path.insert(0, {src!r})
from repro import parmonc

def slow(rng):
    time.sleep(0.005)
    return rng.random()

parmonc(slow, maxsv=1_000_000, processors=2, backend="multiprocess",
        perpass=0.0, peraver=0.0, workdir={workdir!r})
"""

POLL_TIMEOUT = 60.0
EXTRA_RUNTIME = 0.5


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="parmonc-crash-smoke-"))
    program = CHILD_PROGRAM.format(src=REPO_SRC, workdir=str(workdir))
    child = subprocess.Popen([sys.executable, "-c", program],
                             start_new_session=True)
    data = DataDirectory(workdir)
    try:
        deadline = time.monotonic() + POLL_TIMEOUT
        while time.monotonic() < deadline:
            if child.poll() is not None:
                print("smoke: FAIL — run finished before the kill "
                      f"(exit {child.returncode}); raise maxsv",
                      file=sys.stderr)
                return 1
            if list(data.savepoints_dir.glob("processor_*.bin")):
                break
            time.sleep(0.1)
        else:
            print("smoke: FAIL — no processor save-point appeared "
                  f"within {POLL_TIMEOUT:.0f}s", file=sys.stderr)
            return 1
        # Let a few more subtotals land, then kill the whole group the
        # way a scheduler would: no warning, no cleanup.
        time.sleep(EXTRA_RUNTIME)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:  # pragma: no cover - defensive
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    print(f"smoke: killed run (pgid {child.pid}); recovering...")

    code = manaver_main(["--workdir", str(workdir)])
    if code != 0:
        print(f"smoke: FAIL — manaver exited {code}", file=sys.stderr)
        return 1
    snapshot, meta = data.load_savepoint()
    if snapshot.volume <= 0:
        print("smoke: FAIL — recovered sample volume is 0",
              file=sys.stderr)
        return 1
    if data.quarantined_files():
        print("smoke: FAIL — recovery quarantined artifacts: "
              f"{data.quarantined_files()}", file=sys.stderr)
        return 1
    print(f"smoke: OK — recovered {snapshot.volume} realizations over "
          f"{meta.sessions} session(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
