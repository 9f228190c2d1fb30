"""Set-up of one workload in a fresh interpreter, for ``setup_s``.

Imports the library, builds the workload's configuration and brings up
its long-lived resources (pool daemon, scheduler thread), prints
``ready`` — ``run.py`` stops its clock on that line — and tears down.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
sys.path[:0] = [str(PERF.parents[1] / "src"), str(PERF)]

if __name__ == "__main__":
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]](
        int(sys.argv[2]), PERF / ".work" / "setup-probe", Tracer())
    workload.start()
    print("ready", flush=True)
    workload.stop()
