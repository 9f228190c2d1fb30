"""Tests for repro.cluster.simulation: the PARMONC protocol in virtual time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.machine import DurationModel
from repro.cluster.network import NetworkModel
from repro.cluster.simulation import ClusterSimulation, ClusterSpec
from repro.exceptions import ConfigurationError
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.job import JobSpec
from repro.runtime.messages import message_bytes
from repro.runtime.scheduler import Scheduler
from repro.runtime.sequential import run_sequential
from repro.runtime.simcluster import SimclusterBackend, run_simcluster
from repro.stats.accumulator import MomentSnapshot


def simulate(maxsv, processors, *, tau=1.0, perpass=0.0, spec_kwargs=None,
             config_kwargs=None, routine=None):
    spec_kwargs = dict(spec_kwargs or {})
    spec_kwargs.setdefault("duration_model", DurationModel(mean=tau))
    spec = ClusterSpec(**spec_kwargs)
    config = RunConfig(maxsv=maxsv, processors=processors,
                       perpass=perpass, peraver=3600.0,
                       **(config_kwargs or {}))
    collector = Collector(config, MomentSnapshot.zero(config.nrow,
                                                      config.ncol), None)
    simulation = ClusterSimulation(config, spec, collector, routine=routine)
    return simulation.run(), collector


class TestTimingModel:
    def test_single_processor_analytic_time(self):
        # M=1, fixed tau, local messages: T_comp = L * tau + service.
        result, _ = simulate(10, 1, tau=2.0)
        assert result.t_comp == pytest.approx(20.0, abs=0.1)

    def test_linear_speedup(self):
        # The paper's headline: T_comp inversely proportional to M.
        times = {m: simulate(128, m, tau=4.0)[0].t_comp
                 for m in (1, 2, 4, 8)}
        for m in (2, 4, 8):
            assert times[1] / times[m] == pytest.approx(m, rel=0.02)

    def test_t_comp_linear_in_volume(self):
        t_small = simulate(100, 4, tau=1.0)[0].t_comp
        t_large = simulate(300, 4, tau=1.0)[0].t_comp
        assert t_large / t_small == pytest.approx(3.0, rel=0.02)

    def test_compute_span_below_t_comp(self):
        result, _ = simulate(50, 2, tau=1.0)
        assert result.compute_span <= result.t_comp

    def test_collector_bottleneck_shows_up(self):
        # With a pathological 2-second service time per message and
        # per-realization messaging, the collector serializes the run.
        fast, _ = simulate(64, 8, tau=1.0)
        slow, _ = simulate(64, 8, tau=1.0,
                           spec_kwargs={"collector_service_time": 2.0})
        assert slow.t_comp > 4 * fast.t_comp
        assert slow.collector_utilization > 0.9

    def test_perpass_reduces_messages(self):
        every, _ = simulate(64, 4, tau=1.0, perpass=0.0)
        rare, _ = simulate(64, 4, tau=1.0, perpass=8.0)
        assert rare.messages_sent < every.messages_sent
        # Both runs still deliver the whole sample.
        assert every.total_volume == rare.total_volume == 64

    def test_heterogeneous_speeds_unequal_volumes_equal_quota(self):
        # Static quotas: every worker still completes its share, but the
        # slow worker dominates T_comp.
        result, _ = simulate(
            40, 4, tau=1.0,
            spec_kwargs={"speed_factors": (1.0, 1.0, 1.0, 0.25)})
        assert result.per_rank_volumes == {0: 10, 1: 10, 2: 10, 3: 10}
        assert result.t_comp == pytest.approx(40.0, rel=0.05)

    def test_time_limit_truncates(self):
        result, collector = simulate(
            10_000, 2, tau=1.0, config_kwargs={"time_limit": 25.0})
        assert result.total_volume == pytest.approx(50, abs=4)
        assert collector.complete


class TestProtocolFidelity:
    def test_strict_mode_message_count(self):
        # perpass=0: one message per realization plus one final per
        # worker — the §4 "strictest conditions".
        result, _ = simulate(30, 3, tau=1.0, perpass=0.0)
        assert result.messages_sent == 30 + 3

    def test_collector_sees_all_volume(self):
        result, collector = simulate(55, 5, tau=1.0)
        assert collector.total_volume == 55
        assert result.total_volume == 55

    def test_executed_realizations_produce_estimates(self):
        result, collector = simulate(
            50, 2, tau=1.0, routine=lambda rng: rng.random())
        estimates = collector.estimates()
        assert estimates.volume == 50
        assert 0.2 < estimates.mean[0, 0] < 0.8

    def test_executed_realizations_match_sequential(self):
        from repro.runtime.sequential import run_sequential
        config = RunConfig(maxsv=40, processors=4)
        reference = run_sequential(lambda rng: rng.random() ** 2, config,
                                   use_files=False)
        _, collector = simulate(40, 4, tau=1.0,
                                routine=lambda rng: rng.random() ** 2)
        assert np.array_equal(collector.estimates().mean,
                              reference.estimates.mean)

    def test_mean_queue_delay_nonnegative(self):
        result, _ = simulate(20, 2, tau=1.0)
        assert result.mean_queue_delay >= 0.0

    def test_duration_seed_reproducibility(self):
        kwargs = {"spec_kwargs": {"seed": 7},
                  "tau": 1.0}
        first, _ = simulate(40, 4, **kwargs)
        second, _ = simulate(40, 4, **kwargs)
        assert first.t_comp == second.t_comp

    def test_stochastic_durations_change_t_comp(self):
        spec_a = {"seed": 1, "duration_model": DurationModel(
            mean=1.0, distribution="exponential")}
        spec_b = {"seed": 2, "duration_model": DurationModel(
            mean=1.0, distribution="exponential")}
        result_a, _ = simulate(40, 4, spec_kwargs=spec_a)
        result_b, _ = simulate(40, 4, spec_kwargs=spec_b)
        assert result_a.t_comp != result_b.t_comp


class TestSpecValidation:
    def test_speed_factor_length_mismatch(self):
        spec = ClusterSpec(speed_factors=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            spec.processors_for(3)

    def test_processors_for_defaults(self):
        processors = ClusterSpec().processors_for(3)
        assert [p.rank for p in processors] == [0, 1, 2]
        assert all(p.speed_factor == 1.0 for p in processors)


def _square(rng):
    return rng.random() ** 2


def _config(maxsv, processors, seqnum, **extras):
    return RunConfig(maxsv=maxsv, processors=processors, perpass=0.0,
                     peraver=0.0, seqnum=seqnum, **extras)


def _shared(spec, jobs, workers=None, **backend):
    """Run ``{name: config}`` on one simulated cluster under the real
    scheduler; returns each job's result by name."""
    scheduler = Scheduler(SimclusterBackend(spec, **backend),
                          workers=workers)
    for name, config in jobs.items():
        scheduler.submit(JobSpec(routine=_square, config=config,
                                 name=name, use_files=False))
    return {job.id: job.result for job in scheduler.run()}


def _same_estimates(result, reference):
    return all(getattr(result.estimates, field).tobytes()
               == getattr(reference.estimates, field).tobytes()
               for field in ("mean", "variance", "abs_error"))


class TestSharedCluster:
    """Jobs share one simulated cluster — one event queue, one collector
    server — under the real scheduler, each keeping its own books."""

    TAU, SERVICE = 1.0, 200e-6

    def test_two_jobs_take_turns_on_one_worker_slot(self):
        jobs = {"a": _config(4, 2, 0), "b": _config(2, 1, 1)}
        results = _shared(
            ClusterSpec(duration_model=DurationModel(mean=self.TAU)),
            jobs, workers=1)
        a, b = results["a"], results["b"]
        assert a.per_rank_volumes == {0: 2, 1: 2}
        assert b.per_rank_volumes == {0: 2}
        assert (a.total_volume, b.total_volume) == (4, 2)
        # a's rank 0 runs first on rank 0's own node (no wire): two
        # realizations, then its last pass and its final, served one
        # after the other.  The auction then favours b, which has not
        # been dispatched yet: b waited exactly that long, in virtual
        # seconds, and its own rank 0 takes as long again.
        assert a.sla["wait_seconds"] == 0.0
        assert b.sla["wait_seconds"] == pytest.approx(
            2 * self.TAU + 2 * self.SERVICE)
        assert b.virtual_time == pytest.approx(
            4 * self.TAU + 4 * self.SERVICE)
        # a's rank 1 goes last and crosses the wire.
        wire = NetworkModel().transfer_time(message_bytes(1, 1))
        assert a.virtual_time == pytest.approx(
            6 * self.TAU + 6 * self.SERVICE + wire)
        for name, config in jobs.items():
            assert _same_estimates(results[name], run_sequential(
                _square, config, use_files=False))

    def test_a_recovering_job_leaves_its_neighbour_untouched(self):
        # Rank 1 of every job fails 2.5 s after its job starts: a's rank
        # 1 dies with 2 of its 10 delivered and is reassigned, b's rank
        # 1 finished its 2 at t = 2 s.
        spec = ClusterSpec(duration_model=DurationModel(mean=self.TAU),
                           failures={1: 2.5})
        jobs = {"a": _config(30, 3, 0, on_worker_death="reassign"),
                "b": _config(6, 3, 1)}
        results = _shared(spec, jobs)
        a, b = results["a"], results["b"]
        assert a.recovered_ranks == (1,)
        assert a.per_rank_volumes[1] == 2 and a.per_rank_volumes[3] == 8
        assert a.total_volume == 30
        assert _same_estimates(a, run_simcluster(
            _square, jobs["a"], spec=spec, use_files=False))
        assert b.recovered_ranks == ()
        assert b.total_volume == 6
        assert _same_estimates(b, run_sequential(_square, jobs["b"],
                                                 use_files=False))

    def test_a_solo_run_turns_the_loop_once_per_final(self):
        # Engine.run drives serve(), whose poll timeout is 0.05 s: a
        # batch admits nothing further, so the virtual clock runs from
        # final to final instead of 0.05 s per empty turn.
        polls = []

        class Counting(SimclusterBackend):
            def poll(self, timeout):
                polls.append(timeout)
                return super().poll(timeout)

        result = Engine(Counting(), _config(50, 2, 0),
                        use_files=False).run(_square)
        assert result.virtual_time > 25 * 7.7  # the paper's default tau
        assert len(polls) == 2

    def test_self_scheduled_jobs_each_start_their_own_sample(self):
        # The dynamic-scheduling counter is each job's: a shared one
        # would stop both jobs at 60 realizations between them.
        spec = ClusterSpec(duration_model=DurationModel(mean=self.TAU),
                           speed_factors=(3.0, 1.0, 1.0))
        jobs = {"a": _config(60, 3, 0), "b": _config(40, 3, 1)}
        results = _shared(spec, jobs, scheduling="dynamic")
        for name, config in jobs.items():
            solo = run_simcluster(_square, config, spec=spec,
                                  use_files=False, scheduling="dynamic")
            assert results[name].total_volume == config.maxsv
            assert results[name].per_rank_volumes == solo.per_rank_volumes
            assert _same_estimates(results[name], solo)
