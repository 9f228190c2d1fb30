"""Cross-module integration tests: the full PARMONC workflow."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MonteCarloRun, parmonc, minutes
from repro.apps.integration import make_realization, product_of_powers
from repro.cli.manaver import manual_average
from repro.rng.streams import StreamTree
from repro.runtime.bootstrap import start_session
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory
from repro.runtime.worker import run_worker


class TestPaperWorkflow:
    """The §4 usage pattern, end to end on a cheap workload."""

    def test_c_example_analogue(self, tmp_path):
        # int main() { parmoncc(difftraj, &nrow, &ncol, &maxsv, &res,
        #   &seqnum, &perpass, &peraver); } with res=1 resuming session 1.
        def difftraj(rng):
            return np.array([[rng.random(), rng.random()]] * 4)

        parmonc(difftraj, 4, 2, 100, 0, 0, minutes(10) / 600,
                minutes(20) / 600, processors=2, workdir=tmp_path)
        result = parmonc(difftraj, 4, 2, 100, 1, 2, minutes(10) / 600,
                         minutes(20) / 600, processors=2,
                         workdir=tmp_path)
        assert result.total_volume == 200
        data = DataDirectory(tmp_path)
        assert data.read_log()["seqnum"] == "2"
        assert data.read_mean_matrix().shape == (4, 2)

    def test_three_session_chain_equals_one_shot(self, tmp_path):
        # Sessions with seqnums 0,1,2 of 40 realizations each must merge
        # to exactly the one-shot union of the three experiment samples.
        realization = make_realization(product_of_powers())
        run = MonteCarloRun(realization, workdir=tmp_path / "chain",
                            processors=2)
        run.run(maxsv=40)
        run.resume(maxsv=40)
        chained = run.resume(maxsv=40)
        tree = StreamTree()
        from repro.stats.accumulator import MomentAccumulator
        reference = MomentAccumulator(1, 1)
        for seqnum in (0, 1, 2):
            for rank in (0, 1):
                for index in range(20):
                    reference.add(realization(tree.rng(seqnum, rank,
                                                       index)))
        assert chained.total_volume == 120
        assert chained.estimates.mean[0, 0] == pytest.approx(
            reference.estimates().mean[0, 0], rel=1e-12)
        assert chained.estimates.variance[0, 0] == pytest.approx(
            reference.estimates().variance[0, 0], rel=1e-9)

    def test_crash_manaver_resume_loses_nothing(self, tmp_path):
        def value(rng):
            return rng.random()

        # Session 1 completes normally.
        parmonc(value, maxsv=30, processors=3, workdir=tmp_path)
        # Session 2 is killed before its finals reach rank 0 (the last
        # one would commit the run): every realization is in a subtotal.
        config = RunConfig(maxsv=30, processors=3, res=1, seqnum=1,
                           workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        for rank in range(3):
            run_worker(value, config, rank, 10,
                       send=lambda m: m.final or collector.receive(m, 0.0))
        # Recovery + session 3.
        summary = manual_average(tmp_path)
        assert summary["volume"] == 60
        assert summary["base_included"]
        assert summary["processors_recovered"] == 3
        final = parmonc(value, maxsv=30, res=1, seqnum=2, processors=3,
                        workdir=tmp_path)
        assert final.total_volume == 90


class TestStatisticalValidity:
    def test_confidence_interval_coverage(self, tmp_path):
        # Run 60 independent experiments (different seqnums) estimating
        # E X**2 = 1/3 and check the 3-sigma intervals cover the truth
        # at roughly the promised 99.7% rate (allow down to 90% for 60
        # trials).
        covered = 0
        trials = 60
        for seqnum in range(trials):
            result = parmonc(lambda rng: rng.random() ** 2, maxsv=400,
                             seqnum=seqnum, processors=2,
                             workdir=tmp_path, use_files=False)
            estimates = result.estimates
            if abs(estimates.mean[0, 0] - 1.0 / 3.0) \
                    <= estimates.abs_error[0, 0]:
                covered += 1
        assert covered >= int(0.9 * trials)

    def test_error_shrinks_like_inverse_sqrt_volume(self, tmp_path):
        errors = {}
        for volume in (400, 1600, 6400):
            result = parmonc(lambda rng: rng.random(), maxsv=volume,
                             processors=2, workdir=tmp_path,
                             use_files=False)
            errors[volume] = result.estimates.abs_error[0, 0]
        assert errors[400] / errors[1600] == pytest.approx(2.0, rel=0.15)
        assert errors[1600] / errors[6400] == pytest.approx(2.0, rel=0.15)

    def test_different_experiments_give_independent_samples(self, tmp_path):
        # Estimates from different seqnums must differ (disjoint
        # subsequences) while agreeing within statistical error.
        results = [
            parmonc(lambda rng: rng.random(), maxsv=2000, seqnum=s,
                    processors=2, workdir=tmp_path, use_files=False)
            for s in (0, 1)]
        means = [r.estimates.mean[0, 0] for r in results]
        assert means[0] != means[1]
        combined_error = sum(r.estimates.abs_error[0, 0] for r in results)
        assert abs(means[0] - means[1]) < combined_error


class TestFilesMatchResults:
    def test_func_dat_equals_returned_estimates(self, tmp_path):
        result = parmonc(lambda rng: rng.random(), maxsv=500,
                         processors=2, workdir=tmp_path)
        stored = DataDirectory(tmp_path).read_mean_matrix()
        assert np.allclose(stored, result.estimates.mean, rtol=1e-12)

    def test_log_volume_matches(self, tmp_path):
        result = parmonc(lambda rng: rng.random(), maxsv=321,
                         processors=2, workdir=tmp_path)
        log = DataDirectory(tmp_path).read_log()
        assert int(log["total_sample_volume"]) == result.total_volume

    def test_ci_file_errors_match(self, tmp_path):
        result = parmonc(lambda rng: rng.random(), maxsv=200,
                         workdir=tmp_path)
        ci_path = (DataDirectory(tmp_path).results_dir / "func_ci.dat")
        row = ci_path.read_text().splitlines()[1].split()
        assert float(row[2]) == pytest.approx(
            result.estimates.mean[0, 0], rel=1e-12)
        assert float(row[3]) == pytest.approx(
            result.estimates.abs_error[0, 0], rel=1e-9)
