"""Tests for the parmonc-rngtest certification command."""

from __future__ import annotations

from repro.cli.rngtest import certify, main as rngtest_main
from repro.rng.multiplier import LeapSet
from repro.runtime.files import write_genparam_file


class TestCertify:
    def test_default_generator_passes(self, default_certification):
        code, report = default_certification
        assert code == 0, report
        for section in ("defaults: leaps 2^115/2^98/2^43",
                        "general sequence", "12/12 tests passed",
                        "two-level chi-square", "spectral test",
                        "worst merit", "certification: PASSED"):
            assert section in report

    def test_honours_genparam_file(self, tmp_path):
        leaps = LeapSet(experiment_exponent=40, processor_exponent=30,
                        realization_exponent=20)
        write_genparam_file(tmp_path, 40, 30, 20, leaps.multipliers())
        passed, report = certify(draws=20_000, substreams=12,
                                 workdir=tmp_path)
        assert "parmonc_genparam.dat" in report
        assert "2^40/2^30/2^20" in report
        assert passed, report


class TestCli:
    def test_alpha_propagates(self, tmp_path, capsys):
        # An alpha outside (0, 1) reaches the battery and is refused
        # there, before any test runs.
        code = rngtest_main(["--draws", "20000", "--substreams", "12",
                             "--alpha", "1.5",
                             "--workdir", str(tmp_path)])
        assert code == 2
        assert "significance level must be in (0, 1), got 1.5" \
            in capsys.readouterr().err
