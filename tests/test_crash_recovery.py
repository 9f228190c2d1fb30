"""Crash-injection property tests: §3.4's no-lost-realization promise.

The harness drives a full session through the same bootstrap → collect
path the engine uses — the message that completes the run commits the
save-point and result files — with a named crashpoint armed, then
asserts the crash-safety contract:

* every artifact on disk is all-old-or-all-new (parses cleanly, no
  quarantine needed),
* every realization whose collector ingest completed is on disk, in its
  rank's subtotal or in the committed save-point,
* ``manaver`` recovers at least all of them, and never double-counts,
  and
* a later ``res=1`` session resumes from the recovered total.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import parmonc
from repro.cli.manaver import manual_average
from repro.exceptions import ReproError, ResumeError
from repro.rng.multiplier import LeapSet
from repro.runtime import storage
from repro.runtime.bootstrap import start_session
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory, write_genparam_file
from repro.runtime.storage import CrashInjected
from repro.runtime.worker import run_worker

MAXSV = 12
PROCESSORS = 3

#: Every crashpoint a file-backed session passes through: one write per
#: result file and subtotal/save-point, four points per atomic write.
LABELS = ("processor", "results.func", "results.func_ci",
          "results.func_log", "savepoint")
STEPS = ("before_write", "after_write", "before_rename", "after_rename")
ALL_CRASHPOINTS = [f"{label}.{step}" for label in LABELS for step in STEPS]


def _routine(rng):
    return rng.random()


@pytest.fixture(autouse=True)
def _no_leaked_crashpoints():
    yield
    storage.clear_crashpoints()


def _drive_session(workdir, *, res=0, seqnum=0, delivered=None):
    """One full file-backed session on the engine's persistence path:
    the last final's ``receive`` is the completion commit.

    ``delivered`` (rank -> cumulative volume) records each message whose
    ``collector.receive`` *completed* — meaning its realizations reached
    disk, in the rank's subtotal or the committed save-point — which is
    exactly the set of realizations §3.4 promises to recover after a
    kill.
    """
    config = RunConfig(maxsv=MAXSV, processors=PROCESSORS, res=res,
                       seqnum=seqnum, workdir=workdir)
    data, state = start_session(config)
    collector = Collector(config, state.base, data,
                          sessions=state.session_index)
    record = delivered if delivered is not None else {}

    def send(message):
        collector.receive(message, 0.0)
        record[message.rank] = message.snapshot.volume

    for rank in range(PROCESSORS):
        run_worker(_routine, config, rank, config.worker_quota(rank),
                   send=send)
    return collector


def _killed_before_finals(collector):
    """A worker ``send`` for a job killed before any final pass reached
    rank 0.  At ``perpass=0`` each final repeats its rank's last
    pass, so every realization is in a subtotal and none committed."""
    return lambda message: message.final or collector.receive(message, 0.0)


class TestCrashpointCoverage:
    def test_session_passes_every_expected_crashpoint(self, tmp_path):
        with storage.trace_crashpoints() as trace:
            _drive_session(tmp_path)
        assert set(trace) == set(ALL_CRASHPOINTS)
        # Binary save-points changed what is written, not where a
        # write can die: the same 20 names as when they were JSON.
        assert len(set(ALL_CRASHPOINTS)) == 20


class TestCrashAtEveryPoint:
    """Kill the session at each crashpoint; recovery must be exact."""

    @pytest.mark.parametrize("point", ALL_CRASHPOINTS)
    def test_all_old_or_all_new_and_recoverable(self, tmp_path, point):
        delivered: dict[int, int] = {}
        storage.install_crashpoint(point)
        with pytest.raises(CrashInjected):
            _drive_session(tmp_path, delivered=delivered)
        storage.clear_crashpoints()

        data = DataDirectory(tmp_path)
        # 1. No torn artifact anywhere: everything on disk parses and
        #    passes its checksum (all-old-or-all-new).
        savepoint = (data.load_savepoint()[0] if data.has_savepoint()
                     else None)
        subtotals = data.load_processor_snapshots()
        assert data.quarantined_files() == []
        if (data.results_dir / "func.dat").exists():
            matrix = np.loadtxt(data.results_dir / "func.dat", ndmin=2)
            assert matrix.shape == (1, 1)
        # 2. Durability: every realization of a message whose ingest
        #    completed is on disk — in its rank's subtotal, or in the
        #    save-point once the completion commit renamed it.
        persisted = sum(delivered.values())
        if savepoint is not None:
            assert savepoint.volume >= persisted
        else:
            for rank, volume in delivered.items():
                assert subtotals[rank].volume >= volume
        if not data.has_savepoint() and not subtotals:
            # Crash before the very first subtotal reached disk.
            assert persisted == 0
            with pytest.raises(ReproError):
                manual_average(tmp_path)
            return
        # 3. manaver recovers everything persisted, without inventing
        #    or double-counting realizations (a crash between the
        #    save-point rename and the subtotal cleanup used to yield
        #    2 * MAXSV here).
        summary = manual_average(tmp_path)
        assert summary["volume"] >= persisted
        assert summary["volume"] <= MAXSV
        assert summary["quarantined"] == 0
        # 4. The recovered sample is resumable and the crashed
        #    session's seqnum stays burnt.
        with pytest.raises(ResumeError):
            parmonc(_routine, maxsv=4, res=1, seqnum=0, workdir=tmp_path)
        resumed = parmonc(_routine, maxsv=4, res=1, seqnum=1,
                          workdir=tmp_path)
        assert resumed.total_volume == summary["volume"] + 4

    def test_crash_after_finalize_does_not_double_count(self, tmp_path):
        # The nastiest window: the completion commit's save-point
        # already contains the session, but the subtotals were not yet
        # cleaned up.
        storage.install_crashpoint("savepoint.after_rename")
        with pytest.raises(CrashInjected):
            _drive_session(tmp_path)
        storage.clear_crashpoints()
        data = DataDirectory(tmp_path)
        assert data.has_savepoint()
        # Stale absorbed subtotals are filtered by their session tag.
        assert data.load_processor_snapshots(absorbed_sessions=1) == {}
        summary = manual_average(tmp_path)
        assert summary["volume"] == MAXSV
        assert summary["processors_recovered"] == 0


class TestQuarantineRecovery:
    def _leave_unfinalized_job(self, tmp_path):
        config = RunConfig(maxsv=MAXSV, processors=PROCESSORS,
                           workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        for rank in range(PROCESSORS):
            run_worker(_routine, config, rank, config.worker_quota(rank),
                       send=_killed_before_finals(collector))
        return data

    def test_manaver_skips_quarantined_subtotal(self, tmp_path):
        # One torn subtotal costs only that processor's realizations,
        # never the whole recovery.
        data = self._leave_unfinalized_job(tmp_path)
        path = data.processor_savepoint_path(1)
        path.write_bytes(path.read_bytes()[:40])
        summary = manual_average(tmp_path)
        lost = RunConfig(maxsv=MAXSV, processors=PROCESSORS,
                         workdir=tmp_path).worker_quota(1)
        assert summary["volume"] == MAXSV - lost
        assert summary["processors_recovered"] == PROCESSORS - 1
        assert summary["quarantined"] == 1
        assert summary["warnings"]
        assert [p.name for p in data.quarantined_files()] == [
            "processor_00001.bin.corrupt"]

    def test_manaver_survives_corrupt_merged_base(self, tmp_path):
        data = self._leave_unfinalized_job(tmp_path)
        data.savepoint_path.write_text("{torn")
        summary = manual_average(tmp_path)
        assert summary["volume"] == MAXSV
        assert not summary["base_included"]
        assert summary["quarantined"] == 1
        assert any("save-point" in w for w in summary["warnings"])
        assert [p.name for p in data.quarantined_files()] == [
            "savepoint.bin.corrupt"]

    def test_truncated_savepoint_flagged_and_quarantined(self, tmp_path):
        parmonc(_routine, maxsv=6, workdir=tmp_path)
        data = DataDirectory(tmp_path)
        sealed = data.savepoint_path.read_bytes()
        data.savepoint_path.write_bytes(sealed[:len(sealed) // 2])
        with pytest.raises(ResumeError, match="quarantined"):
            data.load_savepoint()
        assert not data.has_savepoint()


class TestResumeCorrelationGuards:
    def test_res0_then_res1_cannot_reuse_superseded_seqnum(self, tmp_path):
        parmonc(_routine, maxsv=6, seqnum=4, workdir=tmp_path)
        with pytest.warns(Warning):
            parmonc(_routine, maxsv=6, seqnum=2, workdir=tmp_path)
        # seqnum 4 belongs to the superseded sample but stays burnt.
        with pytest.raises(ResumeError, match="seqnum 4"):
            parmonc(_routine, maxsv=6, res=1, seqnum=4, workdir=tmp_path)
        resumed = parmonc(_routine, maxsv=6, res=1, seqnum=5,
                          workdir=tmp_path)
        assert resumed.total_volume == 12

    def test_resume_refused_when_genparam_changes(self, tmp_path):
        parmonc(_routine, maxsv=6, workdir=tmp_path)
        leaps = LeapSet(110, 90, 40)
        write_genparam_file(tmp_path, 110, 90, 40, leaps.multipliers())
        with pytest.raises(ResumeError, match="leap"):
            parmonc(_routine, maxsv=6, res=1, seqnum=1, workdir=tmp_path)

    def test_stale_temp_files_swept_at_session_start(self, tmp_path):
        parmonc(_routine, maxsv=6, workdir=tmp_path)
        data = DataDirectory(tmp_path)
        stale = data.savepoints_dir / "processor_00000.bin.tmp"
        stale.write_text("{half a write")
        (data.root / "savepoint.bin.tmp").write_text("{torn")
        with pytest.warns(Warning):
            parmonc(_routine, maxsv=6, workdir=tmp_path)
        assert not stale.exists()
        assert not (data.root / "savepoint.bin.tmp").exists()

    def test_stale_temp_files_swept_by_manaver(self, tmp_path):
        config = RunConfig(maxsv=MAXSV, processors=1, workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        run_worker(_routine, config, 0, MAXSV,
                   send=_killed_before_finals(collector))
        stale = data.savepoints_dir / "processor_00009.bin.tmp"
        stale.write_text("{half a write")
        manual_average(tmp_path)
        assert not stale.exists()


class TestManaverCounts:
    def test_log_counts_preserved_when_only_base_exists(self, tmp_path):
        # Regression: processors used to be written as 0 when every
        # subtotal had been absorbed into the merged base.
        parmonc(_routine, maxsv=10, processors=2, seqnum=3,
                workdir=tmp_path)
        summary = manual_average(tmp_path)
        assert summary["volume"] == 10
        data = DataDirectory(tmp_path)
        log = data.read_log()
        assert log["processors"] == "2"
        assert log["seqnum"] == "3"
        assert log["sessions"] == "1"

    def test_sessions_counted_from_registry_without_base(self, tmp_path):
        # Session 1 finalizes; session 2 (res=0) crashes after leaving
        # subtotals — its res=0 bootstrap already discarded the base, so
        # only the registry remembers that two sessions ever started.
        parmonc(_routine, maxsv=6, workdir=tmp_path)
        config = RunConfig(maxsv=MAXSV, processors=PROCESSORS, res=0,
                           seqnum=1, workdir=tmp_path)
        with pytest.warns(Warning):
            data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        for rank in range(PROCESSORS):
            run_worker(_routine, config, rank, config.worker_quota(rank),
                       send=_killed_before_finals(collector))
        summary = manual_average(tmp_path)
        assert summary["volume"] == MAXSV
        assert not summary["base_included"]
        assert DataDirectory(tmp_path).read_log()["sessions"] == "2"


class TestSigkillSmoke:
    def test_smoke_script_recovers_after_sigkill(self):
        # The CI gate, runnable locally: real OS processes, a real
        # SIGKILL of the whole group, manaver must still recover.
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ,
                   PYTHONPATH=str(repo / "src"))
        result = subprocess.run(
            [sys.executable, str(repo / "scripts"
                                 / "crash_recovery_smoke.py")],
            env=env, capture_output=True, text=True, timeout=150)
        assert result.returncode == 0, result.stderr + result.stdout
        assert "smoke: OK" in result.stdout
