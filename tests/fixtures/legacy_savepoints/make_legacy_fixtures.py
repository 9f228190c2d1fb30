"""Regenerate tests/fixtures/legacy_savepoints (run at commit 1ec9ace).

    PYTHONPATH=<checkout of 1ec9ace>/src python make_legacy_fixtures.py OUT

Per era (``v3`` envelope with statistics, ``v2`` envelope without,
``v1`` bare pre-envelope JSON) OUT/<era>/ holds

* ``parmonc_data/`` - what a two-processor job killed in its second
  session left behind: ``savepoint.json`` of session 1 (seqnum 0, 24
  realizations), both ``savepoints/processor_0000<m>.json`` of the
  killed session 2 (seqnum 1) and the registry;
* ``expected/manaver/`` - ``func.dat``/``func_ci.dat`` that commit's
  ``manaver`` wrote for the tree, and the recovered total's moments;
* ``expected/resume/`` - the same after that commit's
  ``parmonc(res=1, seqnum=2)`` on the save-point alone.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from repro import parmonc
from repro.cli.manaver import manual_average
from repro.runtime import storage
from repro.runtime.bootstrap import start_session
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.files import (PROCESSOR_FORMAT, SAVEPOINT_FORMAT,
                                 DataDirectory)
from repro.runtime.worker import run_worker

STATISTICS = ["covariance", "histogram", "extrema", "counter"]
COMMON = dict(nrow=1, ncol=2, processors=2, perpass=0.0, peraver=0.0)


def pair(rng):
    return np.array([[rng.random(), rng.random() * 2.0 - 1.0]])


def killed_job(workdir, statistics):
    parmonc(pair, maxsv=24, seqnum=0, workdir=workdir,
            statistics=statistics, **COMMON)
    # Session 2 delivers every message, then dies before finalize.
    config = RunConfig(maxsv=16, seqnum=1, res=1, workdir=workdir,
                       statistics=tuple(statistics or ()), **COMMON)
    data, state = start_session(config)
    collector = Collector(config, state.base, data,
                          sessions=state.session_index,
                          base_statistics=state.base_statistics)
    for rank in range(2):
        run_worker(pair, config, rank, config.worker_quota(rank),
                   send=lambda m: collector.receive(m, 0.0))
    return data


def downgrade(data, era):
    """Rewrite the v3 artifacts the way ``era`` wrote them."""
    files = [(data.savepoint_path, SAVEPOINT_FORMAT)] + [
        (path, PROCESSOR_FORMAT)
        for path in sorted(data.savepoints_dir.glob("processor_*.json"))]
    for path, kind in files:
        payload, _ = storage.read_artifact(path, kind, max_version=3)
        payload.pop("statistics", None)
        if era == "v2":
            storage.write_artifact(path, kind, payload, version=2)
        else:  # bare document: no envelope, no manifest, no session tag
            payload.pop("manifest", None)
            payload.pop("session", None)
            path.write_text(json.dumps(dict(payload, version=1)))


def record(target, workdir, result_statistics):
    target.mkdir(parents=True)
    data = DataDirectory(workdir)
    for name in ("func.dat", "func_ci.dat"):
        shutil.copy2(data.results_dir / name, target / name)
    snapshot, meta = data.load_savepoint()
    (target / "savepoint.json").write_text(json.dumps({
        "sum1": snapshot.sum1.tobytes().hex(),
        "sum2": snapshot.sum2.tobytes().hex(),
        "volume": snapshot.volume,
        "used_seqnums": list(meta.used_seqnums),
        "sessions": meta.sessions,
        "statistics": {kind: statistic.to_payload() for kind, statistic
                       in sorted(result_statistics.items())},
    }, indent=1, sort_keys=True) + "\n")


def main(out):
    scratch = out / "_scratch"
    for era in ("v3", "v2", "v1"):
        statistics = STATISTICS if era == "v3" else None
        work = scratch / era
        data = killed_job(work, statistics)
        if era != "v3":
            downgrade(data, era)
        tree = out / era / "parmonc_data"
        tree.mkdir(parents=True)
        shutil.copy2(data.savepoint_path, tree / "savepoint.json")
        shutil.copy2(data.registry_path, tree / "parmonc_exp.dat")
        shutil.copytree(data.savepoints_dir, tree / "savepoints")
        # -- what this commit's manaver makes of the tree
        manaver = scratch / f"{era}-manaver"
        shutil.copytree(out / era / "parmonc_data", manaver / "parmonc_data")
        summary = manual_average(manaver)
        record(out / era / "expected" / "manaver", manaver,
               summary["statistics"])
        # -- what this commit's res=1 makes of the save-point alone
        resume = scratch / f"{era}-resume"
        (resume / "parmonc_data").mkdir(parents=True)
        shutil.copy2(tree / "savepoint.json", resume / "parmonc_data")
        result = parmonc(pair, maxsv=16, seqnum=2, res=1, workdir=resume,
                         statistics=statistics, **COMMON)
        record(out / era / "expected" / "resume", resume, result.statistics)
    shutil.rmtree(scratch)


if __name__ == "__main__":
    main(Path(sys.argv[1]))
