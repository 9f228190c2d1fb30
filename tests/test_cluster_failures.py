"""Tests for fault injection on the simulated cluster."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, DurationModel
from repro.cluster.network import NetworkModel
from repro.exceptions import ConfigurationError
from repro.obs.events import read_events
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.messages import message_bytes
from repro.runtime.simcluster import SimclusterBackend


class _KeepsCollector(SimclusterBackend):
    """Takes the job's collector at admission: a finished job lets go
    of its run, so the helper keeps what the assertions read."""

    collector = None

    def open_job(self, job) -> None:
        super().open_job(job)
        self.collector = job.collector


def run_with_failures(maxsv, processors, failures, *, perpass=0.0,
                      tau=1.0):
    spec = ClusterSpec(duration_model=DurationModel(mean=tau),
                       failures=failures)
    config = RunConfig(maxsv=maxsv, processors=processors,
                       perpass=perpass, peraver=3600.0)
    backend = _KeepsCollector(spec)
    result = Engine(backend, config, use_files=False).run(
        lambda rng: rng.random())
    return result.cluster, backend.collector


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

    def test_failure_after_the_node_finished_never_fires(self, tmp_path):
        # Rank 1 finishes its 10 realizations at t = 10, long before
        # its failure time: nothing failed.
        spec = ClusterSpec(duration_model=DurationModel(mean=1.0),
                           failures={1: 100.0})
        config = RunConfig(maxsv=40, processors=4, perpass=0.0,
                           peraver=3600.0, workdir=tmp_path, telemetry=True)
        result = Engine(SimclusterBackend(spec), config).run(
            lambda rng: rng.random())
        clean, _ = run_with_failures(40, 4, {})
        assert result.cluster.t_comp == clean.t_comp
        assert result.cluster.failed_ranks == ()
        assert result.cluster.lost_realizations == 0
        events = tmp_path / "parmonc_data" / "telemetry" / "events.jsonl"
        assert list(read_events(events, kind="node_failed")) == []

    def test_no_failures_unchanged(self):
        clean, _ = run_with_failures(40, 4, {})
        assert clean.failed_ranks == ()
        assert clean.lost_realizations == 0
        assert clean.total_volume == 40


class TestFailureTelemetry:
    @pytest.mark.parametrize("policy", ["fail", "reassign"])
    def test_a_failure_is_reported_when_its_last_pass_lands(self, tmp_path,
                                                             policy):
        # Rank 1's node passes its 2nd realization at t = 2 over a
        # 0.75 s wire and fails at t = 2.5.  The simulator logs the
        # failure at its instant; the exit is reported once that pass
        # has landed, and the job logs it as it logs any exit.
        network = NetworkModel(latency=0.75)
        spec = ClusterSpec(duration_model=DurationModel(mean=1.0),
                           network=network, failures={1: 2.5})
        config = RunConfig(maxsv=20, processors=2, perpass=0.0,
                           peraver=3600.0, workdir=tmp_path, telemetry=True,
                           on_worker_death=policy)
        result = Engine(SimclusterBackend(spec), config).run(
            lambda rng: rng.random())
        events = tmp_path / "parmonc_data" / "telemetry" / "events.jsonl"
        [failed] = read_events(events, kind="node_failed")
        [died] = read_events(events, kind="worker_died")
        assert failed.ts == 2.5
        assert failed.fields == {"rank": 1, "computed_volume": 2}
        landed = 2.0 + network.transfer_time(message_bytes(1, 1)) \
            + spec.collector_service_time
        assert died.ts == pytest.approx(landed, abs=1e-9)
        assert died.fields == {"rank": 1, "exitcode": None, "volume": 2}
        assert result.recovered_ranks == (
            (1,) if policy == "reassign" else ())
