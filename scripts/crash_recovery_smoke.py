#!/usr/bin/env python
"""End-to-end crash-recovery smoke test (CI gate for §3.4).

Launches a real multiprocess PARMONC run in a child process group,
SIGKILLs the whole group mid-run — the moral equivalent of a cluster
scheduler cancelling the job — and then proves the §3.4 recovery
promise: ``manaver`` exits 0 and recovers a non-zero sample volume from
the per-processor save-points, and the recovered save-point passes its
checksum.  The victim carries extra statistics, which ride inside every
subtotal: each recovered extra must cover exactly the moments' sample.

Two more victims die inside the job's completion commit (the save-point
and result files written together), by ``PARMONC_CRASHPOINT``:

* at ``savepoint.before_rename`` every file is still old: ``manaver``
  recovers at least the ranks whose final was not the completing one,
  quarantines nothing, and a ``res=1`` session resumes from it;
* at ``savepoint.after_rename`` the save-point holds the whole run and
  the subtotals are still there: ``manaver`` recovers exactly ``maxsv``,
  counting none of them twice.

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

from repro import parmonc  # noqa: E402
from repro.cli.manaver import main as manaver_main  # noqa: E402
from repro.runtime.files import DataDirectory  # noqa: E402

#: The victim: a deliberately slow run that cannot finish before the
#: kill.  perpass=0 makes a pass due after every realization (one is
#: skipped only while the previous is still unread), so there is always
#: recent recoverable state on disk.
STATISTICS = ("covariance", "histogram")
CHILD_PROGRAM = """
import sys, time
sys.path.insert(0, {src!r})
from repro import parmonc

def slow(rng):
    time.sleep(0.005)
    return rng.random()

parmonc(slow, maxsv=1_000_000, processors=2, backend="multiprocess",
        perpass=0.0, peraver=0.0, statistics={statistics!r},
        workdir={workdir!r})
"""

POLL_TIMEOUT = 60.0
EXTRA_RUNTIME = 0.5

#: The commit victims: a short run that reaches its completion commit.
COMMIT_MAXSV, COMMIT_PROCESSORS = 400, 2
COMMIT_PROGRAM = """
import sys
sys.path.insert(0, {src!r})
from repro import parmonc

parmonc(lambda rng: rng.random(), maxsv={maxsv}, processors={processors},
        backend="multiprocess", perpass=0.0, peraver=0.0,
        workdir={workdir!r})
"""


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="parmonc-crash-smoke-") as tmp:
        root = Path(tmp)
        code = smoke(root / "sigkill")
        for point in ("savepoint.before_rename", "savepoint.after_rename"):
            code = code or commit_smoke(root / point, point)
        return code


def smoke(workdir: Path) -> int:
    """Kill a run under ``workdir`` and recover it; the exit code."""
    program = CHILD_PROGRAM.format(src=REPO_SRC, workdir=str(workdir),
                                   statistics=STATISTICS)
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
    volumes = {kind: statistic.volume
               for kind, statistic in (snapshot.extras or {}).items()}
    if volumes != dict.fromkeys(STATISTICS, snapshot.volume):
        print(f"smoke: FAIL — recovered extras {volumes} do not cover "
              f"the moments' {snapshot.volume} realizations",
              file=sys.stderr)
        return 1
    print(f"smoke: OK — recovered {snapshot.volume} realizations over "
          f"{meta.sessions} session(s), extras {', '.join(volumes)} "
          f"included")
    return 0


def commit_smoke(workdir: Path, point: str) -> int:
    """Kill a run at crashpoint ``point`` of its completion commit,
    recover and resume it; the exit code."""
    program = COMMIT_PROGRAM.format(src=REPO_SRC, workdir=str(workdir),
                                    maxsv=COMMIT_MAXSV,
                                    processors=COMMIT_PROCESSORS)
    env = dict(os.environ, PARMONC_CRASHPOINT=point)
    code = subprocess.run([sys.executable, "-c", program], env=env,
                          timeout=POLL_TIMEOUT).returncode
    if code != 137:
        print(f"smoke: FAIL — the run did not die at {point} "
              f"(exit {code})", file=sys.stderr)
        return 1
    if manaver_main(["--workdir", str(workdir)]) != 0:
        print(f"smoke: FAIL — manaver exited non-zero after {point}",
              file=sys.stderr)
        return 1
    data = DataDirectory(workdir)
    volume = data.load_savepoint()[0].volume
    # Before the rename only the completing rank's last pass may be
    # missing; after it the save-point holds the run, absorbed
    # subtotals skipped.
    floor = COMMIT_MAXSV - COMMIT_MAXSV // COMMIT_PROCESSORS
    if point.endswith("after_rename"):
        floor = COMMIT_MAXSV
    if not floor <= volume <= COMMIT_MAXSV:
        print(f"smoke: FAIL — recovered {volume} realizations after "
              f"{point}, expected {floor}..{COMMIT_MAXSV}", file=sys.stderr)
        return 1
    if data.quarantined_files():
        print("smoke: FAIL — recovery quarantined artifacts: "
              f"{data.quarantined_files()}", file=sys.stderr)
        return 1
    resumed = parmonc(lambda rng: rng.random(), maxsv=10, res=1, seqnum=1,
                      workdir=workdir)
    if resumed.total_volume != volume + 10:
        print(f"smoke: FAIL — the res=1 resume after {point} holds "
              f"{resumed.total_volume}, not {volume} + 10", file=sys.stderr)
        return 1
    print(f"smoke: OK — killed at {point}, recovered {volume} of "
          f"{COMMIT_MAXSV} realizations and resumed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
