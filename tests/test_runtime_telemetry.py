"""End-to-end telemetry: every backend leaves a coherent run record."""

from __future__ import annotations

import json
import os

import pytest

from repro import parmonc
from repro.exceptions import BackendError
from repro.obs.events import read_events
from repro.obs.render import load_metrics
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.multiprocess import MultiprocessBackend
from repro.runtime.simcluster import SimclusterBackend


def tiny(rng):
    return rng.random()


def exits_cleanly_midway(rng):
    """A worker bug: the process vanishes without a final message."""
    os._exit(0)


def crashes_hard(rng):
    os._exit(3)


def artifacts(workdir):
    directory = workdir / "parmonc_data" / "telemetry"
    return directory / "events.jsonl", directory


class TestSequentialTelemetry:
    def test_disabled_by_default(self, tmp_path):
        result = parmonc(tiny, maxsv=20, processors=2, workdir=tmp_path)
        assert result.telemetry is None
        assert not (tmp_path / "parmonc_data" / "telemetry").exists()

    def test_record_and_summary(self, tmp_path):
        result = parmonc(tiny, maxsv=30, processors=3, workdir=tmp_path,
                         telemetry=True)
        summary = result.telemetry
        assert summary["workers"] == 3
        assert summary["realizations"] == 30
        events_path, directory = artifacts(tmp_path)
        payload = load_metrics(directory)
        assert payload["metrics"]["gauges"]["run.volume"] == 30
        workers = payload["workers"]
        assert sum(w["realizations"] for w in workers.values()) == 30
        kinds = {e.kind for e in read_events(events_path)}
        assert {"session_start", "worker_start", "message", "save",
                "worker_final", "span", "session_end"} <= kinds

    def test_telemetry_does_not_change_estimates(self, tmp_path):
        plain = parmonc(tiny, maxsv=50, processors=2,
                        workdir=tmp_path / "plain")
        traced = parmonc(tiny, maxsv=50, processors=2,
                         workdir=tmp_path / "traced", telemetry=True)
        assert plain.estimates.mean[0, 0] == traced.estimates.mean[0, 0]

    def test_fresh_session_clears_previous_artifacts(self, tmp_path):
        parmonc(tiny, maxsv=10, processors=1, workdir=tmp_path,
                telemetry=True)
        events_path, _ = artifacts(tmp_path)
        first = len(list(read_events(events_path)))
        parmonc(tiny, maxsv=10, processors=1, workdir=tmp_path,
                telemetry=True)  # res=0 again: a new simulation
        assert len(list(read_events(events_path))) == first

    def test_resumed_session_appends(self, tmp_path):
        parmonc(tiny, maxsv=10, processors=1, workdir=tmp_path,
                telemetry=True)
        events_path, _ = artifacts(tmp_path)
        first = len(list(read_events(events_path)))
        parmonc(tiny, maxsv=5, processors=1, res=1, seqnum=1,
                workdir=tmp_path, telemetry=True)
        events = list(read_events(events_path))
        assert len(events) > first
        assert len([e for e in events if e.kind == "session_start"]) == 2


class TestMultiprocessTelemetry:
    def test_full_record(self, tmp_path):
        config = RunConfig(maxsv=60, processors=3, workdir=tmp_path,
                           perpass=0.0, telemetry=True)
        result = Engine(MultiprocessBackend(), config).run(tiny)
        events_path, directory = artifacts(tmp_path)
        payload = load_metrics(directory)
        workers = payload["workers"]
        assert len(workers) == 3
        assert (sum(w["realizations"] for w in workers.values())
                == result.total_volume == 60)
        assert all(w["messages"] >= 1 for w in workers.values())
        histogram = payload["metrics"]["histograms"][
            "collector.save_seconds"]
        assert histogram["count"] == result.saves_performed
        finals = [e for e in read_events(events_path, kind="worker_final")]
        assert sorted(e.fields["rank"] for e in finals) == [0, 1, 2]
        assert payload["metrics"]["counters"]["collector.messages"] \
            == result.messages_received

    def test_every_due_pass_is_sent_or_superseded(self, tmp_path):
        # perpass=0 makes a pass due after each realization: the
        # latest-wins outbox sends it or counts it superseded, and the
        # final always goes out — whatever the timing.
        config = RunConfig(maxsv=400, processors=2, workdir=tmp_path,
                           perpass=0.0, peraver=0.0, telemetry=True)
        result = Engine(MultiprocessBackend(), config).run(tiny)
        workers = load_metrics(artifacts(tmp_path)[1])["workers"]
        assert len(workers) == 2
        for stats in workers.values():
            assert stats["messages"] + stats["superseded"] \
                == stats["realizations"] + 1
        assert result.telemetry["superseded"] \
            == sum(w["superseded"] for w in workers.values())

    def test_timestamps_are_run_relative(self, tmp_path):
        config = RunConfig(maxsv=20, processors=2, workdir=tmp_path,
                           telemetry=True)
        result = Engine(MultiprocessBackend(), config).run(tiny)
        events_path, _ = artifacts(tmp_path)
        stamps = [e.ts for e in read_events(events_path)]
        assert min(stamps) >= 0.0
        assert max(stamps) < result.elapsed + 5.0

    def test_clean_exit_without_final_raises(self, tmp_path):
        # Each exit is judged as soon as its pipe is drained, so the
        # first clean exit fails the job and the other worker is
        # released, not judged — as with a crash.
        config = RunConfig(maxsv=10, processors=2, workdir=tmp_path,
                           telemetry=True)
        with pytest.raises(BackendError,
                           match=r"rank [01] \(exitcode 0\)") as caught:
            Engine(MultiprocessBackend(), config).run(exits_cleanly_midway)
        events_path, _ = artifacts(tmp_path)
        [died] = read_events(events_path, kind="worker_died")
        assert died.fields["exitcode"] == 0
        assert f"rank {died.fields['rank']} (exitcode 0)" \
            in str(caught.value)

    def test_nonzero_exit_raises_quickly(self, tmp_path):
        config = RunConfig(maxsv=10, processors=1, workdir=tmp_path)
        with pytest.raises(BackendError, match="exitcode 3"):
            Engine(MultiprocessBackend(), config).run(crashes_hard)


class TestSimclusterTelemetry:
    def test_virtual_clock_stamps(self, tmp_path):
        config = RunConfig(maxsv=40, processors=4, workdir=tmp_path,
                           perpass=0.0, telemetry=True)
        result = Engine(SimclusterBackend(), config).run(tiny)
        assert result.virtual_time > result.elapsed  # tau ~ seconds each
        events_path, directory = artifacts(tmp_path)
        payload = load_metrics(directory)
        gauges = payload["metrics"]["gauges"]
        assert gauges["run.virtual_seconds"] == pytest.approx(
            result.virtual_time)
        (end,) = read_events(events_path, kind="session_end")
        assert end.fields["t_comp"] == pytest.approx(result.virtual_time)
        # Every event is stamped in virtual seconds within the run.
        for event in read_events(events_path):
            assert 0.0 <= event.ts <= result.virtual_time + 1e-9

    def test_worker_stats_cover_every_rank(self, tmp_path):
        config = RunConfig(maxsv=40, processors=4, workdir=tmp_path,
                           telemetry=True)
        result = Engine(SimclusterBackend(), config).run(tiny)
        payload = load_metrics(artifacts(tmp_path)[1])
        workers = payload["workers"]
        assert len(workers) == 4
        assert (sum(w["realizations"] for w in workers.values())
                == result.session_volume)
        # Virtual rates: realizations take tau ~ seconds of virtual time.
        assert all(0 < w["realizations_per_second"] < 10
                   for w in workers.values())


class TestReportView:
    def test_report_telemetry_flag(self, tmp_path, capsys):
        from repro.cli.report import main as report_main
        parmonc(tiny, maxsv=20, processors=2, workdir=tmp_path,
                telemetry=True)
        assert report_main(["--workdir", str(tmp_path),
                            "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "PARMONC run summary" in out
        assert "per-worker stats" in out

    def test_report_telemetry_flag_degrades_gracefully(self, tmp_path,
                                                       capsys):
        parmonc(tiny, maxsv=20, processors=2, workdir=tmp_path)
        assert report_main_ok(tmp_path)
        out = capsys.readouterr().out
        assert "telemetry:" in out  # explains there is nothing to show


def report_main_ok(workdir) -> bool:
    from repro.cli.report import main as report_main
    return report_main(["--workdir", str(workdir), "--telemetry"]) == 0
