"""Tests for fault injection on the simulated cluster."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, DurationModel
from repro.exceptions import ConfigurationError
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.simcluster import SimclusterBackend


def run_with_failures(maxsv, processors, failures, *, perpass=0.0,
                      tau=1.0):
    spec = ClusterSpec(duration_model=DurationModel(mean=tau),
                       failures=failures)
    config = RunConfig(maxsv=maxsv, processors=processors,
                       perpass=perpass, peraver=3600.0)
    backend = SimclusterBackend(spec)
    result = Engine(backend, config, use_files=False).run(
        lambda rng: rng.random())
    return result.cluster, backend.engine.job_context(None).collector


class TestFailureInjection:
    def test_failed_node_stops_contributing(self):
        result, collector = run_with_failures(40, 4, {3: 2.5})
        assert result.failed_ranks == (3,)
        # Rank 3 computed only ~2 realizations before dying at t=2.5.
        assert result.per_rank_volumes[3] <= 3
        # Survivors completed their quotas.
        for rank in (0, 1, 2):
            assert result.per_rank_volumes[rank] == 10

    def test_perpass_zero_loses_at_most_in_flight_work(self):
        # With a pass after every realization, only the realization in
        # flight at the failure can be lost.
        result, _ = run_with_failures(40, 4, {3: 5.5}, perpass=0.0)
        assert result.lost_realizations <= 1

    def test_rare_passes_lose_a_window_of_work(self):
        # With perpass = 4 s and tau = 1 s, up to ~4 realizations sit
        # undelivered when the node dies.
        result, _ = run_with_failures(400, 4, {3: 50.5}, perpass=4.0)
        assert result.lost_realizations >= 2

    def test_collector_keeps_predeath_subtotals(self):
        result, collector = run_with_failures(40, 4, {3: 5.5})
        delivered = collector.worker_volume(3)
        assert delivered >= 4  # passes before death survive
        assert collector.total_volume \
            == result.total_volume - result.lost_realizations

    def test_estimates_remain_unbiased_after_failure(self):
        _, collector = run_with_failures(400, 4, {3: 10.5})
        estimates = collector.estimates()
        assert abs(estimates.mean[0, 0] - 0.5) \
            < 5 * estimates.abs_error[0, 0]

    def test_multiple_failures(self):
        result, _ = run_with_failures(60, 6, {2: 1.5, 4: 3.5, 5: 0.0})
        assert result.failed_ranks == (2, 4, 5)
        assert result.per_rank_volumes[5] == 0

    def test_immediate_failure_contributes_nothing(self):
        result, collector = run_with_failures(30, 3, {2: 0.0})
        assert result.per_rank_volumes[2] == 0
        assert collector.worker_volume(2) == 0

    def test_collector_failure_rejected(self):
        with pytest.raises(ConfigurationError):
            run_with_failures(10, 2, {0: 1.0})

    def test_unknown_rank_rejected(self):
        with pytest.raises(ConfigurationError):
            run_with_failures(10, 2, {5: 1.0})

    def test_negative_failure_time_rejected(self):
        with pytest.raises(ConfigurationError):
            run_with_failures(10, 2, {1: -1.0})

    def test_no_failures_unchanged(self):
        clean, _ = run_with_failures(40, 4, {})
        assert clean.failed_ranks == ()
        assert clean.lost_realizations == 0
        assert clean.total_volume == 40
