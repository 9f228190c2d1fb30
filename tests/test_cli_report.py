"""Tests for the parmonc-report command and run histories."""

from __future__ import annotations

import numpy as np
import pytest

from repro import parmonc
from repro.cli.report import main as report_main, render_report
from repro.exceptions import ReproError
from repro.runtime.bootstrap import start_session
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.worker import run_worker


class TestRenderReport:
    def test_summary_of_completed_run(self, tmp_path):
        parmonc(lambda rng: rng.random(), maxsv=120, processors=3,
                workdir=tmp_path, seqnum=4)
        text = render_report(tmp_path)
        assert "total_sample_volume" in text
        assert "120" in text
        assert "seqnum" in text
        assert "resumable: yes" in text
        assert "next free seqnum is 5" in text

    def test_matrix_preview_truncated(self, tmp_path):
        parmonc(lambda rng: np.full((20, 10), rng.random()),
                nrow=20, ncol=10, maxsv=10, workdir=tmp_path)
        text = render_report(tmp_path, rows=3)
        assert "shape 20x10" in text
        assert "more rows" in text
        assert "..." in text

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ReproError):
            render_report(tmp_path)

    def test_pending_manaver_recovery_flagged(self, tmp_path):
        config = RunConfig(maxsv=12, processors=2, workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data)
        # Killed before the finals: at perpass=0 each repeats its
        # rank's last pass, so the subtotals hold all 12.
        for rank in range(2):
            run_worker(lambda rng: rng.random(), config, rank, 6,
                       send=lambda m: m.final or collector.receive(m, 0.0))
        text = render_report(tmp_path)
        assert "await `manaver` recovery" in text
        assert "12 realizations" in text

    def test_registry_shown(self, tmp_path):
        parmonc(lambda rng: 1.0, maxsv=5, workdir=tmp_path)
        parmonc(lambda rng: 1.0, maxsv=5, res=1, seqnum=1,
                workdir=tmp_path)
        text = render_report(tmp_path)
        assert "experiments started (2)" in text


class TestReportCli:
    def test_exit_codes(self, tmp_path, capsys):
        assert report_main(["--workdir", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err
        parmonc(lambda rng: 1.0, maxsv=5, workdir=tmp_path)
        assert report_main(["--workdir", str(tmp_path)]) == 0
        assert "PARMONC run summary" in capsys.readouterr().out


class TestRunHistory:
    def test_history_records_save_points(self, tmp_path):
        result = parmonc(lambda rng: rng.random(), maxsv=500,
                         processors=2, peraver=0.0, workdir=tmp_path)
        assert len(result.history) >= 2
        times, volumes, errors = zip(*result.history)
        # Volume is non-decreasing across save-points...
        assert all(b >= a for a, b in zip(volumes, volumes[1:]))
        # ...and the last entry covers the whole sample.
        assert volumes[-1] == 500

    def test_error_decays_along_history(self, tmp_path):
        result = parmonc(lambda rng: rng.random(), maxsv=4000,
                         processors=2, peraver=0.0, workdir=tmp_path)
        _, volumes, errors = zip(*result.history)
        early = next(e for v, e in zip(volumes, errors) if v >= 100)
        late = errors[-1]
        assert late < early

    def test_in_memory_runs_have_empty_history(self, tmp_path):
        result = parmonc(lambda rng: rng.random(), maxsv=100,
                         workdir=tmp_path, use_files=False)
        assert result.history == ()
