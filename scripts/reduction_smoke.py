#!/usr/bin/env python
"""End-to-end tree-reduction smoke test (CI gate).

Runs the multiprocess backend with ``reduction_fanout=4`` — interior
reducer processes coalescing their subtree's passes — and proves the
tree's two headline promises on real OS processes:

1. **Parity** — the tree run is bit-identical to the sequential
   backend.
2. **Fault tolerance** — with the rank-4 subtree's reducer killed
   deterministically the moment it absorbs its worker's final message
   (``PARMONC_REDUCER_CRASH``), the run still completes the full
   sample under ``on_worker_death="reassign"``: the reducer respawns,
   the eaten final's quota moves to a fresh rank, and the merged
   estimate is bit-identical to the rank-ordered merge of the pieces
   the run actually kept (computed locally as the reference).

Usage::

    $ PYTHONPATH=src python scripts/reduction_smoke.py [--artifacts DIR]

``--artifacts`` copies the recovery run's telemetry JSONL artifacts
(events, metrics) into DIR for CI upload.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

SCRIPTS_DIR = Path(__file__).resolve().parent
REPO_SRC = str(SCRIPTS_DIR.parent / "src")
if REPO_SRC not in sys.path:
    sys.path.insert(0, REPO_SRC)

from repro.core.parmonc import parmonc  # noqa: E402
from repro.obs.events import read_events  # noqa: E402
from repro.runtime.config import RunConfig  # noqa: E402
from repro.runtime.reduction import CRASH_ENV  # noqa: E402
from repro.runtime.worker import run_worker  # noqa: E402
from repro.stats.merging import merge_snapshots  # noqa: E402


def square(rng):
    return rng.random() ** 2


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
    base = Path(tempfile.mkdtemp(prefix="parmonc-reduction-smoke-"))

    # -- Part 1: tree parity against sequential ------------------------
    sequential = parmonc(square, maxsv=400, perpass=0.0, peraver=0.0,
                         processors=8, backend="sequential",
                         workdir=base / "seq")
    tree = parmonc(square, maxsv=400, perpass=0.0, peraver=0.0,
                   processors=8, backend="multiprocess",
                   start_method="fork", reduction_fanout=4,
                   workdir=base / "tree")
    check(tree.total_volume == sequential.total_volume == 400,
          "tree run completed the full sample")
    check(tree.estimates.mean[0, 0] == sequential.estimates.mean[0, 0]
          and tree.estimates.variance[0, 0]
          == sequential.estimates.variance[0, 0],
          "tree estimates bit-identical to sequential")

    # -- Part 2: reducer killed on a final, subtree reassigned ---------
    # processors=5, fanout=4: r1.0 serves ranks 0-3, r1.1 serves rank 4
    # alone.  perpass is huge, so rank 4's *only* message is its final —
    # r1.1 dies the moment it absorbs it, the worst case the grace path
    # must cover: worker 4 exited cleanly, nothing of it ever reached
    # the collector, so its full 5-realization quota moves to rank 5.
    os.environ[CRASH_ENV] = "r1.1:on-final"
    try:
        result = parmonc(square, maxsv=25, perpass=1000.0, peraver=0.0,
                         processors=5, backend="multiprocess",
                         start_method="fork", reduction_fanout=4,
                         on_worker_death="reassign",
                         death_grace=0.3, telemetry=True,
                         workdir=base / "elastic")
    finally:
        del os.environ[CRASH_ENV]
    check(result.total_volume == 25,
          "recovered run completed the full 25-realization sample")
    check(result.recovered_ranks == (4,),
          "rank 4's eaten quota was reassigned")

    # Reference: ranks 0-3 at full quota plus replacement rank 5 at
    # rank 4's quota, merged in rank order by a local worker loop.
    config = RunConfig(nrow=1, ncol=1, maxsv=25, perpass=0.0,
                       peraver=0.0, processors=5, workdir=base / "ref")
    pieces = [run_worker(square, config, rank, quota,
                         send=lambda message: None).snapshot()
              for rank, quota in ((0, 5), (1, 5), (2, 5), (3, 5), (5, 5))]
    reference = merge_snapshots(pieces).estimates()
    check(result.estimates.mean[0, 0] == reference.mean[0, 0]
          and result.estimates.variance[0, 0] == reference.variance[0, 0],
          "recovered estimate bit-identical to the rank-ordered "
          "reference merge")

    telemetry_dir = base / "elastic" / "parmonc_data" / "telemetry"
    kinds = [event.kind for event in
             read_events(telemetry_dir / "events.jsonl")]
    check("reducer_respawned" in kinds,
          "telemetry recorded the reducer respawn")
    check("worker_died" in kinds and "worker_recovered" in kinds,
          "telemetry recorded the death and the recovery")

    if args.artifacts is not None:
        args.artifacts.mkdir(parents=True, exist_ok=True)
        for artifact in sorted(telemetry_dir.glob("*.jsonl")):
            shutil.copy2(artifact, args.artifacts / artifact.name)
        print(f"smoke: telemetry JSONL copied to {args.artifacts}")
    print("smoke: OK — tree reduction parity and reducer fault "
          "tolerance hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
