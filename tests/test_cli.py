"""Tests for the genparam, manaver and parmonc-run command-line tools."""

from __future__ import annotations

import json

import pytest

from repro import parmonc
from repro.cli.genparam import main as genparam_main
from repro.cli.manaver import main as manaver_main, manual_average
from repro.cli.run import load_routine, main as run_main
from repro.exceptions import ConfigurationError, ReproError
from repro.rng.multiplier import LeapSet
from repro.runtime.bootstrap import start_session
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime import storage
from repro.runtime.files import DataDirectory, read_genparam_file
from repro.runtime.worker import run_worker


class TestGenparamCli:
    def test_writes_file_with_correct_multipliers(self, tmp_path, capsys):
        code = genparam_main(["30", "20", "10",
                              "--workdir", str(tmp_path)])
        assert code == 0
        values = read_genparam_file(tmp_path)
        expected = LeapSet(30, 20, 10).multipliers()
        assert (values["A_ne"], values["A_np"], values["A_nr"]) == expected
        output = capsys.readouterr().out
        assert "parmonc_genparam.dat" in output

    def test_invalid_exponents_fail_cleanly(self, tmp_path, capsys):
        code = genparam_main(["10", "20", "30",
                              "--workdir", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_prints_capacities(self, tmp_path, capsys):
        genparam_main(["30", "20", "10", "--workdir", str(tmp_path)])
        output = capsys.readouterr().out
        assert "experiments" in output


def _killed_before_finals(collector):
    """A worker ``send`` for a job killed before any final pass reached
    rank 0: the last final's ``receive`` would commit the run.  At
    ``perpass=0`` each final repeats its rank's last pass, so every
    realization is in a subtotal and none is committed."""
    return lambda message: message.final or collector.receive(message, 0.0)


class TestManaverCli:
    def _leave_unfinalized_job(self, tmp_path, volume=30, processors=3):
        config = RunConfig(maxsv=volume, processors=processors,
                           workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        for rank in range(processors):
            run_worker(lambda rng: rng.random(), config, rank,
                       config.worker_quota(rank),
                       send=_killed_before_finals(collector))
        return collector

    def test_recovers_killed_job(self, tmp_path, capsys):
        self._leave_unfinalized_job(tmp_path)
        assert not DataDirectory(tmp_path).has_savepoint()
        code = manaver_main(["--workdir", str(tmp_path)])
        assert code == 0
        assert "recovered 30 realizations" in capsys.readouterr().out
        data = DataDirectory(tmp_path)
        assert data.read_log()["total_sample_volume"] == "30"
        # The recovered sample becomes resumable.
        snapshot, _ = data.load_savepoint()
        assert snapshot.volume == 30

    def test_recovery_ends_in_one_commit_savepoint_first(self, tmp_path):
        # As a job's end: every file is written before any is renamed,
        # the save-point is renamed first, and the subtotals go last.
        self._leave_unfinalized_job(tmp_path)
        with storage.trace_crashpoints() as trace:
            manual_average(tmp_path)
        steps = [name for name in trace
                 if name.endswith((".before_write", ".before_rename"))]
        files = ["savepoint", "results.func", "results.func_ci",
                 "results.func_log"]
        assert steps == [f"{name}.before_write" for name in files] \
            + [f"{name}.before_rename" for name in files]
        assert DataDirectory(tmp_path).load_processor_snapshots() == {}

    def test_nothing_to_average(self, tmp_path, capsys):
        code = manaver_main(["--workdir", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_includes_previous_session_base(self, tmp_path):
        parmonc(lambda rng: rng.random(), maxsv=20, workdir=tmp_path)
        # A later job that dies mid-flight.
        config = RunConfig(maxsv=10, processors=1, res=1, seqnum=1,
                           workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        run_worker(lambda rng: rng.random(), config, 0, 10,
                   send=_killed_before_finals(collector))
        summary = manual_average(tmp_path)
        assert summary["volume"] == 30
        assert summary["base_included"]
        assert summary["processors_recovered"] == 1

    def test_resume_after_manaver_counts_everything(self, tmp_path):
        self._leave_unfinalized_job(tmp_path, volume=30)
        manual_average(tmp_path)
        resumed = parmonc(lambda rng: rng.random(), maxsv=10, res=1,
                          seqnum=1, workdir=tmp_path)
        assert resumed.total_volume == 40

    def test_crashed_sessions_seqnum_stays_burnt(self, tmp_path):
        # Regression: a session that crashed before finalizing must not
        # leave its seqnum reusable — the recovered realizations came
        # from that experiments subsequence.
        from repro.exceptions import ResumeError
        parmonc(lambda rng: rng.random(), maxsv=10, workdir=tmp_path)
        config = RunConfig(maxsv=10, processors=1, res=1, seqnum=7,
                           workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        run_worker(lambda rng: rng.random(), config, 0, 10,
                   send=_killed_before_finals(collector))
        assert manual_average(tmp_path)["processors_recovered"] == 1
        with pytest.raises(ResumeError):
            parmonc(lambda rng: rng.random(), maxsv=10, res=1,
                    seqnum=7, workdir=tmp_path)
        # A fresh seqnum still works and counts everything.
        final = parmonc(lambda rng: rng.random(), maxsv=10, res=1,
                        seqnum=8, workdir=tmp_path)
        assert final.total_volume == 30

    def test_empty_savepoints_rejected(self, tmp_path):
        data = DataDirectory(tmp_path)
        from repro.stats.accumulator import MomentSnapshot
        data.save_processor_snapshot(0, MomentSnapshot.zero(1, 1))
        with pytest.raises(ReproError):
            manual_average(tmp_path)


class TestRunCli:
    def test_load_routine_from_module(self):
        routine = load_routine("math:sqrt")
        assert routine(4.0) == 2.0

    def test_load_routine_bad_spec(self):
        with pytest.raises(ConfigurationError):
            load_routine("no_colon")
        with pytest.raises(ConfigurationError):
            load_routine("definitely_missing_module_xyz:fn")
        with pytest.raises(ConfigurationError):
            load_routine("math:missing_attr")
        with pytest.raises(ConfigurationError):
            load_routine("math:pi")  # not callable

    def test_end_to_end_run(self, tmp_path, capsys):
        (tmp_path / "mymodel.py").write_text(
            "def realization(rng):\n    return rng.random()\n")
        code = run_main(["mymodel:realization", "--maxsv", "100",
                         "--processors", "2",
                         "--workdir", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "total sample volume: 100" in output
        mean = DataDirectory(tmp_path).read_mean_matrix()
        assert 0.3 < mean[0, 0] < 0.7

    def test_failure_exit_code(self, tmp_path, capsys):
        code = run_main(["missing_module_abc:fn", "--maxsv", "10",
                         "--workdir", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_resume_via_cli(self, tmp_path, capsys):
        (tmp_path / "mymodel2.py").write_text(
            "def realization(rng):\n    return rng.random()\n")
        assert run_main(["mymodel2:realization", "--maxsv", "50",
                         "--workdir", str(tmp_path)]) == 0
        assert run_main(["mymodel2:realization", "--maxsv", "50",
                         "--res", "1", "--seqnum", "1",
                         "--workdir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "total sample volume: 100" in output


class TestSchedCli:
    def _write_model(self, directory):
        (directory / "batchmodel.py").write_text(
            "def realization(rng):\n    return rng.random()\n")

    def test_submit_then_sched_end_to_end(self, tmp_path, capsys):
        from repro.cli.sched import sched_main, submit_main
        self._write_model(tmp_path)
        queue = tmp_path / "jobs.jsonl"
        for seqnum in (0, 1):
            assert submit_main(["batchmodel:realization",
                                "--queue", str(queue),
                                "--maxsv", "30", "--processors", "2",
                                "--seqnum", str(seqnum),
                                "--perpass", "0", "--peraver", "0"]) == 0
        out = capsys.readouterr().out
        assert "queued job-0 (#0)" in out
        assert "queued job-1 (#1)" in out
        report_path = tmp_path / "sla.json"
        assert sched_main(["--queue", str(queue),
                           "--backend", "sequential",
                           "--sla-report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "batch: 2 jobs, 0 failed, 0 rejected" in out
        import json as _json
        report = _json.loads(report_path.read_text())
        assert len(report["jobs"]) == 2
        assert {record["job"] for record in report["jobs"]} \
            == {"job-0", "job-1"}
        assert all(record["completed"] for record in report["jobs"])
        # Each job got its own session directory next to the queue.
        for name in ("job-0", "job-1"):
            mean = DataDirectory(tmp_path / name).read_mean_matrix()
            assert 0.2 < mean[0, 0] < 0.8

    def test_sched_admission_bound_rejects_excess_jobs(self, tmp_path,
                                                       capsys):
        from repro.cli.sched import sched_main, submit_main
        self._write_model(tmp_path)
        queue = tmp_path / "jobs.jsonl"
        for seqnum in (0, 1, 2):
            submit_main(["batchmodel:realization", "--queue", str(queue),
                         "--maxsv", "10", "--seqnum", str(seqnum)])
        report_path = tmp_path / "sla.json"
        assert sched_main(["--queue", str(queue),
                           "--backend", "sequential", "--max-jobs", "2",
                           "--sla-report", str(report_path)]) == 0
        captured = capsys.readouterr()
        assert "rejected job-2" in captured.err
        import json as _json
        report = _json.loads(report_path.read_text())
        assert report["rejected_jobs"] == ["job-2"]
        assert report["rejected"] == 1

    def test_sched_missing_queue_fails_cleanly(self, tmp_path, capsys):
        from repro.cli.sched import sched_main
        assert sched_main(["--queue", str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_sched_malformed_queue_fails_cleanly(self, tmp_path, capsys):
        from repro.cli.sched import sched_main
        queue = tmp_path / "jobs.jsonl"
        queue.write_text("{not json\n")
        assert sched_main(["--queue", str(queue)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_sched_contains_failures_per_job(self, tmp_path, capsys):
        # One crashing job must not take down its healthy neighbour:
        # the multiprocess worker death fails only its own job, the
        # batch finishes with exit code 1 and a FAILED line.
        from repro.cli.sched import sched_main, submit_main
        self._write_model(tmp_path)
        (tmp_path / "crashmodel.py").write_text(
            "def realization(rng):\n    raise ValueError('boom')\n")
        queue = tmp_path / "jobs.jsonl"
        submit_main(["crashmodel:realization", "--queue", str(queue),
                     "--maxsv", "5", "--name", "bad"])
        submit_main(["batchmodel:realization", "--queue", str(queue),
                     "--maxsv", "10", "--seqnum", "1", "--name", "good"])
        assert sched_main(["--queue", str(queue),
                           "--backend", "multiprocess",
                           "--start-method", "fork"]) == 1
        out = capsys.readouterr().out
        assert "bad: FAILED" in out
        assert "good: L=10" in out


def _last_job_records(log):
    """Each job's last record in a status log ({} before it exists)."""
    from repro.obs.events import read_events

    if not log.exists():
        return {}
    return {event.fields["job"]: event.fields
            for event in read_events(log, kind="job")}


def _thread_io(tid):
    """A thread's (rchar, wchar) counters; zeros where /proc has none."""
    from pathlib import Path

    io = Path(f"/proc/self/task/{tid}/io")
    if not io.exists():
        return 0, 0
    fields = dict(line.split(": ") for line in io.read_text().splitlines())
    return int(fields["rchar"]), int(fields["wchar"])


class TestOneQueueReader:
    # Batch mode and --serve consume the queue through one reader: the
    # same file admits the same jobs under the same names either way.

    def _setup(self, directory, lines):
        directory.mkdir(exist_ok=True)
        (directory / "batchmodel.py").write_text(
            "def realization(rng):\n    return rng.random()\n")
        queue = directory / "jobs.jsonl"
        queue.write_text("".join(line + "\n" for line in lines))
        return queue

    def _job(self, seqnum, **fields):
        import json as _json
        return _json.dumps(dict({"routine": "batchmodel:realization",
                                 "maxsv": 20, "processors": 2,
                                 "seqnum": seqnum, "perpass": 0,
                                 "peraver": 0}, **fields))

    def test_directives_and_names_agree_across_modes(
            self, tmp_path, capsys, savepoint_content):
        import json as _json
        from repro.cli.sched import sched_main

        lines = [self._job(0), '{"cancel": "nothing"}', self._job(1),
                 '{"shutdown": true}']
        runs = {}
        for mode, extra in (("batch", []), ("service", ["--serve"])):
            queue = self._setup(tmp_path / mode, lines)
            report = tmp_path / mode / "sla.json"
            assert sched_main(["--queue", str(queue), "--backend",
                               "sequential", "--sla-report", str(report)]
                              + extra) == 0
            out = capsys.readouterr().out
            assert f"{mode}: 2 jobs, 0 failed, 0 rejected" in out
            report = _json.loads(report.read_text())
            assert report["rejected_jobs"] == []
            runs[mode] = sorted(record["job"] for record in report["jobs"])
        assert runs["batch"] == runs["service"] == ["job-0", "job-1"]
        for name in ("job-0", "job-1"):
            batch, served = (tmp_path / mode / name
                             for mode in ("batch", "service"))
            assert (DataDirectory(batch).results_dir / "func.dat")\
                .read_bytes() == (DataDirectory(served).results_dir
                                  / "func.dat").read_bytes()
            # savepoint.bin also stamps the wall-clock compute time.
            assert savepoint_content(batch) == savepoint_content(served)
            assert savepoint_content(batch)["volume"] == 20

    def test_idle_turns_read_and_serialize_nothing(self, tmp_path,
                                                   monkeypatch):
        import json as _json
        import threading
        import time

        from repro.cli import sched
        from repro.runtime.scheduler import Scheduler

        # A finished history the idle turns must not revisit.
        jobs = 50
        queue = self._setup(tmp_path, [
            self._job(0, maxsv=1, processors=1, use_files=False)
            for _ in range(jobs)])
        log = sched.status_path(queue)
        codes = []
        server = threading.Thread(target=lambda: codes.append(
            sched.sched_main(["--serve", "--queue", str(queue),
                              "--backend", "sequential"])))
        server.start()
        try:
            deadline = time.monotonic() + 60.0
            while [record["status"] for record in _last_job_records(
                    log).values()].count("done") < jobs:
                assert time.monotonic() < deadline, "queue never drained"
                time.sleep(0.01)
            calls = {"dumps": 0, "steps": 0}
            turned = threading.Event()
            dumps, step = _json.dumps, Scheduler.step

            def counting(key, function):
                def spy(*args, **kwargs):
                    calls[key] += 1
                    return function(*args, **kwargs)
                return spy

            def counted_step(self, *args, **kwargs):
                # Each loop turn is one step, then the queue reader.
                calls["steps"] += 1
                if calls["steps"] > 5:
                    turned.set()
                return step(self, *args, **kwargs)

            monkeypatch.setattr(_json, "dumps", counting("dumps", dumps))
            size, before = log.stat().st_size, _thread_io(server.native_id)
            monkeypatch.setattr(Scheduler, "step", counted_step)
            assert turned.wait(60.0)
            after = _thread_io(server.native_id)
            monkeypatch.undo()
            assert calls["dumps"] == 0 and log.stat().st_size == size
            # Neither the queue nor anything else is read or written.
            assert after == before
        finally:
            with queue.open("a") as stream:
                stream.write('{"shutdown": true}\n')
            server.join(120.0)
        assert codes == [0]

    def test_batch_admits_a_last_line_without_newline(self, tmp_path,
                                                      capsys):
        from repro.cli.sched import sched_main, status_path

        queue = self._setup(tmp_path, [self._job(0)])
        with queue.open("a") as stream:
            stream.write(self._job(1))
        assert sched_main(["--queue", str(queue),
                           "--backend", "sequential"]) == 0
        assert "batch: 2 jobs, 0 failed, 0 rejected" \
            in capsys.readouterr().out
        # The batch logs its records like the service does.
        assert _last_job_records(status_path(queue)) == {
            "job-0": {"job": "job-0", "status": "done", "error": None},
            "job-1": {"job": "job-1", "status": "done", "error": None}}
        assert DataDirectory(tmp_path / "job-1").read_mean_matrix() \
            .shape == (1, 1)

    def test_batch_skips_a_malformed_line_and_runs_the_rest(self, tmp_path,
                                                            capsys):
        from repro.cli.sched import sched_main

        queue = self._setup(tmp_path, [self._job(0), "{torn",
                                       self._job(1)])
        assert sched_main(["--queue", str(queue),
                           "--backend", "sequential"]) == 0
        captured = capsys.readouterr()
        assert f"{queue}:2: skipping malformed entry" in captured.err
        assert "batch: 2 jobs, 0 failed, 0 rejected" in captured.out
        for name in ("job-0", "job-1"):
            assert DataDirectory(tmp_path / name).read_mean_matrix() \
                .shape == (1, 1)

    def test_status_log_records_each_state_change(self, tmp_path, capsys):
        from repro.cli.sched import sched_main, status_path
        from repro.obs.events import read_events

        queue = self._setup(tmp_path, [self._job(0), self._job(1)])
        assert sched_main(["--queue", str(queue), "--backend",
                           "sequential", "--max-jobs", "1"]) == 0
        events = list(read_events(status_path(queue)))
        first, last = events[0], events[-1]
        assert (first.kind, first.fields) == ("service", {"serving": True})
        assert (last.kind, last.fields) == ("service", {"serving": False})
        jobs = {}
        for event in events[1:-1]:
            assert event.kind == "job" and first.ts <= event.ts <= last.ts
            jobs.setdefault(event.fields["job"], []).append(event)
        [rejected] = jobs.pop("job-1")
        assert rejected.fields["status"] == "rejected"
        assert "capacity" in rejected.fields["error"]
        # One record per observed change, stamped at the transition.
        states = [event.fields["status"] for event in jobs.pop("job-0")]
        assert states[0] == "queued" and states[-1] == "done"
        assert states == [state for state in ("queued", "running",
                                              "draining", "done")
                          if state in states]
        assert jobs == {}

    def test_status_bytes_per_job_do_not_grow_with_the_queue(
            self, tmp_path, capsys, monkeypatch):
        # Status cost is linear in jobs: a 200-job batch writes as many
        # bytes per job as a 20-job one (names and stamps a few digits
        # longer).  A whole-file rewrite per change wrote ~9x as many.
        import sys
        import threading

        from repro.cli.sched import sched_main

        tid = threading.get_native_id()
        if _thread_io(tid) == (0, 0):
            pytest.skip("no per-thread I/O counters on this platform")
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        per_job = {}
        for jobs in (20, 200):
            queue = self._setup(tmp_path / str(jobs), [
                self._job(0, maxsv=1, processors=1, use_files=False)
                for _ in range(jobs)])
            before = _thread_io(tid)[1]
            assert sched_main(["--queue", str(queue),
                               "--backend", "sequential"]) == 0
            per_job[jobs] = (_thread_io(tid)[1] - before) / jobs
        assert 0 < per_job[200] <= 1.1 * per_job[20]

    def test_wait_reads_each_jobs_last_record(self, tmp_path, capsys):
        from repro.cli.sched import _wait_for, status_path
        from repro.obs.events import EventLog

        queue = tmp_path / "jobs.jsonl"
        log = EventLog(path=status_path(queue))
        # No log yet: not yet, so a zero timeout gives up.
        assert _wait_for(queue, "a", timeout=0.0) == 1
        assert "timed out waiting for a" in capsys.readouterr().err
        log.append("service", serving=True)
        log.append("job", job="a", status="running", error=None)
        log.append("job", job="b", status="rejected", error="bad field")
        log.append("job", job="a", status="done", error=None)
        log.flush()
        assert _wait_for(queue, "a", timeout=0.0) == 0
        assert capsys.readouterr().out == "a: done\n"
        assert _wait_for(queue, "b", timeout=0.0) == 1
        assert capsys.readouterr().err == "b: rejected — bad field\n"
        # A malformed line before the end counts as not yet.
        with status_path(queue).open("a") as stream:
            stream.write("{torn\n")
        log.append("job", job="c", status="failed", error="boom")
        log.flush()
        assert _wait_for(queue, "a", timeout=0.0) == 1
        assert "timed out" in capsys.readouterr().err

    def test_wait_decodes_each_record_once(self, tmp_path, monkeypatch,
                                           capsys):
        # 1 000 jobs' records, then three polls: the second sees one
        # more record and a torn line, the third that line completed.
        # Each record is decoded once, not once per poll.
        import repro.cli.sched as sched
        import repro.obs.events as events
        from repro.obs.events import EventLog

        queue = tmp_path / "jobs.jsonl"
        log = EventLog(path=sched.status_path(queue))
        for index in range(1000):
            log.append("job", job=f"j{index}", status="running",
                       error=None)
        log.flush()
        done = json.dumps({"ts": 1.0, "kind": "job", "job": "j7",
                           "status": "done", "error": None}) + "\n"
        appends = iter([
            json.dumps({"ts": 1.0, "kind": "job", "job": "j8",
                        "status": "done", "error": None}) + "\n"
            + done[:20],
            done[20:]])
        polls = []

        def sleep(seconds):
            polls.append(seconds)
            with sched.status_path(queue).open("a") as stream:
                stream.write(next(appends))

        decoded = []
        loads = json.loads
        monkeypatch.setattr(sched.time, "sleep", sleep)
        monkeypatch.setattr(events.json, "loads", lambda text: (
            decoded.append(text), loads(text))[1])
        assert sched._wait_for(queue, "j7", timeout=None) == 0
        assert capsys.readouterr().out == "j7: done\n"
        assert len(polls) == 2
        assert len(decoded) == len(set(decoded)) == 1002

    def test_wait_follows_a_restarted_service(self, tmp_path, monkeypatch,
                                              capsys):
        # parmonc-sched unlinks its log and starts a new one when it
        # restarts; the new log is read from its start, whether or not
        # it is shorter than what the waiter had read of the old one.
        import repro.cli.sched as sched

        queue = tmp_path / "jobs.jsonl"
        path = sched.status_path(queue)
        old = "".join(json.dumps({"ts": 0.0, "kind": "job", "job": f"j{i}",
                                  "status": "running", "error": None})
                      + "\n" for i in range(50))
        path.write_text(old)
        new = (json.dumps({"ts": 0.0, "kind": "service", "serving": True})
               + "\n" + json.dumps({"ts": 0.1, "kind": "job", "job": "j3",
                                    "status": "done", "error": None})
               + "\n")
        assert len(new) < len(old)
        polls = []

        def sleep(seconds):
            polls.append(seconds)
            assert len(polls) < 5, "the new log was not read"
            if len(polls) == 1:
                path.unlink()
                path.write_text(new)

        monkeypatch.setattr(sched.time, "sleep", sleep)
        assert sched._wait_for(queue, "j3", timeout=None) == 0
        assert capsys.readouterr().out == "j3: done\n"
        assert len(polls) == 1
