"""Tests for the parmonc() public entry point."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import parmonc, rnd128
from repro.exceptions import ConfigurationError, ResumeError
from repro.rng.multiplier import LeapSet
from repro.runtime.files import DataDirectory, write_genparam_file


def half(rng):
    return rng.random()


class TestBasicApi:
    def test_scalar_problem(self, tmp_path):
        result = parmonc(half, maxsv=1000, workdir=tmp_path)
        assert result.total_volume == 1000
        assert 0.4 < result.estimates.mean[0, 0] < 0.6

    def test_paper_style_signature(self, tmp_path):
        # Mirrors the C example: parmoncc(difftraj, &nrow, &ncol,
        # &maxsv, &res, &seqnum, &perpass, &peraver).
        def matrix_realization(rng):
            return np.array([[rng.random(), rng.random()]] * 3)

        result = parmonc(matrix_realization, 3, 2, 300, 0, 0, 1.0, 5.0,
                         processors=2, workdir=tmp_path)
        assert result.estimates.shape == (3, 2)
        assert result.total_volume == 300

    def test_zero_argument_routine_with_global_rnd128(self, tmp_path):
        def paper_style():
            a = rnd128()
            return a * a

        result = parmonc(paper_style, maxsv=500, processors=2,
                         workdir=tmp_path)
        # Must equal the explicit-rng version exactly.
        explicit = parmonc(lambda rng: rng.random() ** 2, maxsv=500,
                           processors=2, workdir=tmp_path / "b")
        assert result.estimates.mean[0, 0] == explicit.estimates.mean[0, 0]

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parmonc(half, maxsv=10, backend="quantum", workdir=tmp_path)

    def test_invalid_config_propagates(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parmonc(half, maxsv=0, workdir=tmp_path)

    def test_use_files_false_keeps_directory_clean(self, tmp_path):
        parmonc(half, maxsv=10, workdir=tmp_path, use_files=False)
        assert list(tmp_path.iterdir()) == []


class TestGenparamIntegration:
    def test_genparam_file_overrides_defaults(self, tmp_path):
        leaps = LeapSet(experiment_exponent=30, processor_exponent=20,
                        realization_exponent=10)
        write_genparam_file(tmp_path, 30, 20, 10, leaps.multipliers())
        # The custom hierarchy only supports 2**10 processors... and
        # realization streams only 2**10 long; verify it is honoured by
        # checking that a capacity violation is detected.
        with pytest.raises(ConfigurationError):
            parmonc(half, maxsv=10, processors=2 ** 10 + 1,
                    workdir=tmp_path)

    def test_explicit_leaps_beat_genparam_file(self, tmp_path):
        write_genparam_file(
            tmp_path, 30, 20, 10,
            LeapSet(30, 20, 10).multipliers())
        result = parmonc(half, maxsv=10, processors=2,
                         leaps=LeapSet(), workdir=tmp_path)
        assert result.config.leaps.experiment_exponent == 115


class TestResumptionViaApi:
    def test_res1_accumulates(self, tmp_path):
        first = parmonc(half, maxsv=400, processors=2, workdir=tmp_path)
        second = parmonc(half, maxsv=600, res=1, seqnum=1, processors=2,
                         workdir=tmp_path)
        assert first.total_volume == 400
        assert second.total_volume == 1000
        assert second.sessions == 2

    def test_res1_requires_previous(self, tmp_path):
        with pytest.raises(ResumeError):
            parmonc(half, maxsv=10, res=1, seqnum=1, workdir=tmp_path)

    def test_res1_same_seqnum_rejected(self, tmp_path):
        parmonc(half, maxsv=10, workdir=tmp_path, seqnum=0)
        with pytest.raises(ResumeError):
            parmonc(half, maxsv=10, res=1, seqnum=0, workdir=tmp_path)

    def test_res0_clears_previous_state(self, tmp_path):
        parmonc(half, maxsv=400, processors=2, workdir=tmp_path)
        fresh = parmonc(half, maxsv=100, processors=2, workdir=tmp_path,
                        res=0)
        assert fresh.total_volume == 100
        assert fresh.sessions == 1

    def test_registry_records_experiments(self, tmp_path):
        parmonc(half, maxsv=10, workdir=tmp_path)
        parmonc(half, maxsv=10, res=1, seqnum=3, workdir=tmp_path)
        registry = DataDirectory(tmp_path).read_registry()
        assert len(registry) == 2
        assert "seqnum=3" in registry[1]


class TestCrossBackendEquivalence:
    def test_all_backends_identical_estimates(self, tmp_path):
        results = {}
        for backend in ("sequential", "multiprocess", "simcluster"):
            results[backend] = parmonc(
                half, maxsv=120, processors=3, backend=backend,
                workdir=tmp_path / backend)
        reference = results["sequential"].estimates
        for backend in ("multiprocess", "simcluster"):
            assert np.array_equal(results[backend].estimates.mean,
                                  reference.mean), backend
            assert np.array_equal(results[backend].estimates.abs_error,
                                  reference.abs_error), backend

    def test_estimates_independent_of_processor_count(self, tmp_path):
        # Different M partitions the same maxsv across different
        # processor streams, so the *sample* differs — but volumes and
        # convergence behaviour must match; with the same M the result
        # is identical regardless of backend (checked above).  Here:
        # same M, different perpass must be bit-identical.
        fast = parmonc(half, maxsv=200, processors=2, perpass=0.0,
                       workdir=tmp_path / "a")
        slow = parmonc(half, maxsv=200, processors=2, perpass=100.0,
                       workdir=tmp_path / "b")
        assert np.array_equal(fast.estimates.mean, slow.estimates.mean)


def test_import_and_a_plain_run_need_no_scipy():
    # pyproject.toml declares numpy alone.  scipy serves two features
    # (stats.compare, the Black-Scholes oracle) and the RNG test
    # battery, each importing it on use.
    source = str(Path(__file__).parent.parent / "src")
    code = (
        "import sys, repro, repro.cli.sched\n"
        "assert 'scipy' not in sys.modules, 'import repro pulled scipy'\n"
        "result = repro.parmonc(lambda rng: rng.random(), maxsv=64,\n"
        "                       processors=2, use_files=False)\n"
        "assert result.total_volume == 64\n"
        "result.estimates.confidence_interval(0.95)\n"
        "assert 'scipy' not in sys.modules, 'a plain run pulled scipy'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
