"""Tests for repro.runtime.storage: atomic I/O, checksums, crashpoints."""

from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from repro.exceptions import ArtifactVersionError, CorruptArtifactError
from repro.runtime import storage
from repro.runtime.storage import (
    CrashInjected,
    atomic_write_text,
    crashpoint,
    crashpoint_installed,
    payload_checksum,
    quarantine,
    read_artifact,
    sweep_temp_files,
    trace_crashpoints,
    write_artifact,
)
from repro.stats.accumulator import MomentAccumulator


@pytest.fixture(autouse=True)
def _no_leaked_crashpoints():
    yield
    storage.clear_crashpoints()


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "sub" / "file.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_no_temp_left_behind(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "x")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_overwrite_replaces_whole_content(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "a long first version\n")
        atomic_write_text(path, "v2\n")
        assert path.read_text() == "v2\n"

    @pytest.mark.parametrize("point", ["before_write", "after_write",
                                       "before_rename"])
    def test_crash_before_rename_keeps_old_content(self, tmp_path, point):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "old", label="lbl")
        with crashpoint_installed(f"lbl.{point}"):
            with pytest.raises(CrashInjected):
                atomic_write_text(path, "new", label="lbl")
        assert path.read_text() == "old"

    def test_crash_after_rename_shows_new_content(self, tmp_path):
        path = tmp_path / "f.txt"
        atomic_write_text(path, "old", label="lbl")
        with crashpoint_installed("lbl.after_rename"):
            with pytest.raises(CrashInjected):
                atomic_write_text(path, "new", label="lbl")
        assert path.read_text() == "new"

    def test_crash_leaves_sweepable_temp(self, tmp_path):
        path = tmp_path / "f.txt"
        with crashpoint_installed("f.txt.before_rename"):
            with pytest.raises(CrashInjected):
                atomic_write_text(path, "content")
        assert not path.exists()
        removed = sweep_temp_files(tmp_path)
        assert [p.name for p in removed] == ["f.txt.tmp"]
        assert list(tmp_path.iterdir()) == []

    def test_durable_writes_toggle(self, tmp_path):
        with storage.durable_writes(False):
            atomic_write_text(tmp_path / "f.txt", "x")
        with storage.durable_writes(True):
            atomic_write_text(tmp_path / "f.txt", "y")
        assert (tmp_path / "f.txt").read_text() == "y"


class TestArtifactEnvelope:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, "kind/x", {"value": [1, 2.5, "s"]}, version=3)
        payload, version = read_artifact(path, "kind/x", max_version=3)
        assert payload == {"value": [1, 2.5, "s"]}
        assert version == 3

    def test_checksum_is_canonical(self):
        assert (payload_checksum({"a": 1, "b": 2})
                == payload_checksum({"b": 2, "a": 1}))

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, "kind/x", {"value": list(range(100))},
                       version=1)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(CorruptArtifactError, match="truncated"):
            read_artifact(path, "kind/x", max_version=1)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, "kind/x", {"volume": 10}, version=1)
        document = json.loads(path.read_text())
        document["payload"]["volume"] = 99
        path.write_text(json.dumps(document))
        with pytest.raises(CorruptArtifactError, match="checksum"):
            read_artifact(path, "kind/x", max_version=1)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, "kind/x", {}, version=1)
        with pytest.raises(CorruptArtifactError, match="format"):
            read_artifact(path, "kind/y", max_version=1)

    def test_newer_version_raises_version_error(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, "kind/x", {"v": 1}, version=9)
        with pytest.raises(ArtifactVersionError, match="newer"):
            read_artifact(path, "kind/x", max_version=2)
        # The file must be left untouched — it is healthy.
        assert path.exists()

    def test_legacy_document_returned_whole(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"version": 1, "snapshot": {"x": 1}}))
        payload, version = read_artifact(path, "kind/x", max_version=2)
        assert version == 0
        assert payload["snapshot"] == {"x": 1}

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CorruptArtifactError):
            read_artifact(path, "kind/x", max_version=1)


class TestQuarantine:
    def test_renames_and_keeps_evidence(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("garbage")
        target = quarantine(path, "test")
        assert not path.exists()
        assert target.name == "bad.json.corrupt"
        assert target.read_text() == "garbage"

    def test_serial_suffix_on_collision(self, tmp_path):
        for expected in ("bad.json.corrupt", "bad.json.corrupt.1",
                         "bad.json.corrupt.2"):
            path = tmp_path / "bad.json"
            path.write_text("garbage")
            assert quarantine(path, "test").name == expected

    def test_listeners_observe(self, tmp_path):
        seen = []
        listener = lambda *args: seen.append(args)  # noqa: E731
        storage.add_quarantine_listener(listener)
        try:
            path = tmp_path / "bad.json"
            path.write_text("garbage")
            target = quarantine(path, "why")
        finally:
            storage.remove_quarantine_listener(listener)
        assert seen == [(path, target, "why")]

    def test_quarantined_files_listing(self, tmp_path):
        (tmp_path / "deep").mkdir()
        (tmp_path / "deep" / "x.json").write_text("bad")
        quarantine(tmp_path / "deep" / "x.json", "test")
        found = storage.quarantined_files(tmp_path)
        assert [p.name for p in found] == ["x.json.corrupt"]


class TestCrashpoints:
    def test_noop_without_trigger(self):
        crashpoint("nothing.installed")  # must not raise

    def test_install_and_clear(self):
        storage.install_crashpoint("p")
        with pytest.raises(CrashInjected) as err:
            crashpoint("p")
        assert err.value.crashpoint == "p"
        storage.clear_crashpoints()
        crashpoint("p")

    def test_custom_trigger(self):
        hits = []
        storage.install_crashpoint("p", hits.append)
        crashpoint("p")
        assert hits == ["p"]

    def test_crash_injected_is_base_exception(self):
        # A simulated kill must rip through `except Exception` blocks.
        assert not issubclass(CrashInjected, Exception)

    def test_trace_records_order(self, tmp_path):
        with trace_crashpoints() as trace:
            atomic_write_text(tmp_path / "f.txt", "x", label="one")
            atomic_write_text(tmp_path / "g.txt", "y", label="two")
        assert trace[:4] == ["one.before_write", "one.after_write",
                             "one.before_rename", "one.after_rename"]
        assert trace[4].startswith("two.")

    def test_env_crashpoint_kills_subprocess(self, tmp_path):
        # PARMONC_CRASHPOINT makes the process die mid-write like a
        # SIGKILL: exit 137, target untouched, temp stranded.
        program = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from pathlib import Path\n"
            "from repro.runtime.storage import atomic_write_text\n"
            "atomic_write_text(Path(sys.argv[2]) / 'f.txt', 'new',"
            " label='lbl')\n")
        env = dict(os.environ, PARMONC_CRASHPOINT="lbl.before_rename")
        repo_src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        result = subprocess.run(
            [sys.executable, "-c", program, repo_src, str(tmp_path)],
            env=env, capture_output=True)
        assert result.returncode == storage.CRASH_EXIT_CODE, result.stderr
        assert not (tmp_path / "f.txt").exists()
        assert (tmp_path / "f.txt.tmp").exists()


class TestSweep:
    def test_sweeps_recursively(self, tmp_path):
        (tmp_path / "savepoints").mkdir()
        (tmp_path / "savepoint.json.tmp").write_text("x")
        (tmp_path / "savepoints" / "processor_00000.json.tmp").write_text("y")
        (tmp_path / "keep.json").write_text("z")
        removed = sweep_temp_files(tmp_path)
        assert len(removed) == 2
        assert (tmp_path / "keep.json").exists()
        assert sweep_temp_files(tmp_path) == []

    def test_missing_root(self, tmp_path):
        assert sweep_temp_files(tmp_path / "absent") == []


class TestDirectoriesOncePerSession:
    def test_ingest_and_saves_make_no_directory(self, tmp_path,
                                                monkeypatch):
        from repro.runtime.bootstrap import start_session
        from repro.runtime.collector import Collector
        from repro.runtime.config import RunConfig
        from repro.runtime.worker import run_worker

        config = RunConfig(maxsv=12, processors=3, perpass=0.0,
                           peraver=0.0, workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        made = []
        mkdir = os.mkdir
        monkeypatch.setattr(os, "mkdir", lambda *args, **kwargs: (
            made.append(args[0]), mkdir(*args, **kwargs))[1])
        for rank in range(config.processors):
            run_worker(lambda rng: rng.random(), config, rank,
                       config.worker_quota(rank),
                       send=lambda message: collector.receive(message, 0.0))
        assert collector.save_count > 3
        assert made == []
        assert (data.results_dir / "func.dat").exists()
        assert data.savepoint_path.exists()  # the completion commit

    def test_a_write_into_a_missing_directory_lands(self, tmp_path):
        from repro.runtime.files import DataDirectory

        data = DataDirectory(tmp_path / "never" / "made")
        snapshot = MomentAccumulator(1, 1)
        snapshot.add(np.ones((1, 1)))
        data.save_processor_snapshot(0, snapshot.snapshot())
        assert data.load_processor_snapshots()[0].volume == 1
        atomic_write_text(tmp_path / "a" / "b" / "c.txt", "x")
        assert (tmp_path / "a" / "b" / "c.txt").read_text() == "x"


def _spy_syscalls(monkeypatch, trace):
    """Append each ``os.fsync`` (as the fd's inode, and whether it is a
    directory) and ``os.replace`` (as its target) to the crashpoint
    ``trace``, so one list holds the whole order."""
    fsync, replace = os.fsync, os.replace

    def spy_fsync(fd):
        status = os.fstat(fd)
        trace.append(("fsync", status.st_ino, stat.S_ISDIR(status.st_mode)))
        fsync(fd)

    def spy_replace(source, target):
        trace.append(("rename", os.path.basename(target)))
        replace(source, target)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)


def _tokens(trace, paths):
    """The trace as strings: crashpoints by name, renames by target,
    fsyncs by the file or directory (among ``paths``) they synced."""
    names = {path.stat().st_ino: path.name for path in paths}
    tokens = []
    for event in trace:
        if isinstance(event, str):
            tokens.append(event)
        elif event[0] == "rename":
            tokens.append(f"rename {event[1]}")
        else:
            kind = "fsync-dir" if event[2] else "fsync"
            tokens.append(f"{kind} {names[event[1]]}")
    return tokens


def _commit_order(files, directories):
    """Every ``(label, name)`` temp written, then all fsynced, then
    renamed in order, then each directory fsynced once."""
    return ([f"{label}.{step}" for label, _ in files
             for step in ("before_write", "after_write")]
            + [f"fsync {name}" for _, name in files]
            + [token for label, name in files for token in (
                f"{label}.before_rename", f"rename {name}",
                f"{label}.after_rename")]
            + [f"fsync-dir {name}" for name in directories])


RESULTS = [("results.func", "func.dat"), ("results.func_ci", "func_ci.dat"),
           ("results.func_log", "func_log.dat")]


class TestCommitOrder:
    """One commit of N files, fsync on: temps written and fsynced back
    to back before the first rename, renames in order (the save-point
    first), each directory fsynced once, after its last rename."""

    def test_write_results_is_one_commit(self, tmp_path, monkeypatch):
        from repro.runtime.files import DataDirectory

        accumulator = MomentAccumulator(2, 2)
        accumulator.add(np.arange(4.0).reshape(2, 2))
        data = DataDirectory(tmp_path).ensure()
        with storage.durable_writes(True), trace_crashpoints() as trace:
            _spy_syscalls(monkeypatch, trace)
            data.write_results(accumulator.estimates(), seqnum=0,
                               processors=1, sessions=1)
        results = data.results_dir
        assert _tokens(trace, [results, *results.iterdir()]) == \
            _commit_order(RESULTS, ["results"])

    def test_the_completing_receive_commits_the_session(self, tmp_path,
                                                        monkeypatch):
        from repro.runtime.bootstrap import start_session
        from repro.runtime.collector import Collector
        from repro.runtime.config import RunConfig
        from repro.runtime.worker import run_worker

        config = RunConfig(maxsv=6, processors=2, workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        messages = []
        for rank in range(2):
            run_worker(lambda rng: rng.random(), config, rank, 3,
                       send=messages.append)
        *earlier, last = messages
        for message in earlier:
            collector.receive(message, 0.0)
        assert data.processor_savepoint_path(1).exists()
        with storage.durable_writes(True), trace_crashpoints() as trace:
            _spy_syscalls(monkeypatch, trace)
            assert collector.receive(last, 0.0)
        results = data.results_dir
        paths = [data.root, data.savepoint_path, results,
                 *results.iterdir()]
        # No subtotal for the completing message: the save-point holds it.
        assert _tokens(trace, paths) == _commit_order(
            [("savepoint", "savepoint.bin"), *RESULTS],
            ["parmonc_data", "results"])
        assert list(data.savepoints_dir.iterdir()) == []
        assert collector.committed
        assert data.load_savepoint()[0].volume == 6


class TestCommitCounts:
    """Durable operations of one job through the scheduler, as the
    service runs them: multiprocess, ``perpass=1``, ``peraver=5``, so
    each rank ships only its final pass."""

    @pytest.mark.parametrize("maxsv, processors, fsyncs, renames", [
        (64, 1, 7, 4),      # registry + the completion commit
        (512, 2, 13, 8),    # + one subtotal and one results commit
    ])
    def test_one_job(self, tmp_path, monkeypatch, maxsv, processors,
                     fsyncs, renames):
        from repro.runtime.config import RunConfig
        from repro.runtime.engine import create_backend
        from repro.runtime.job import JobSpec, JobStatus
        from repro.runtime.scheduler import Scheduler

        calls = Counter()
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: (
            calls.update(["fsync"]), fsync(fd)))
        monkeypatch.setattr(os, "replace", lambda source, target: (
            calls.update(["rename"]), replace(source, target)))
        scheduler = Scheduler(
            create_backend("multiprocess", start_method="fork"), workers=2)
        config = RunConfig(maxsv=maxsv, processors=processors,
                           perpass=1.0, peraver=5.0, workdir=tmp_path)
        with storage.durable_writes(True):
            job = scheduler.submit(JobSpec(
                routine=lambda rng: rng.random(), config=config,
                name="job"))
            scheduler.run()
        assert job.status is JobStatus.DONE
        assert job.result.messages_received == processors
        assert (calls["fsync"], calls["rename"]) == (fsyncs, renames)
