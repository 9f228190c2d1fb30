"""Tests for repro.cluster.simulation: the PARMONC protocol in virtual time."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cluster.machine import DurationModel
from repro.cluster.network import NetworkModel
from repro.cluster.simulation import ClusterSpec, proportional_quotas
from repro.exceptions import ConfigurationError
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.job import JobSpec
from repro.runtime.messages import message_bytes
from repro.runtime.scheduler import Scheduler
from repro.runtime.sequential import SequentialBackend
from repro.runtime.simcluster import SimclusterBackend


class _KeepsCollector(SimclusterBackend):
    """Takes the job's collector at admission: a finished job lets go
    of its run, so the helper keeps what the assertions read."""

    collector = None

    def open_job(self, job) -> None:
        super().open_job(job)
        self.collector = job.collector


def simulate(maxsv, processors, *, tau=1.0, perpass=0.0, spec_kwargs=None,
             config_kwargs=None, routine=None):
    spec_kwargs = dict(spec_kwargs or {})
    spec_kwargs.setdefault("duration_model", DurationModel(mean=tau))
    spec = ClusterSpec(**spec_kwargs)
    config = RunConfig(maxsv=maxsv, processors=processors,
                       perpass=perpass, peraver=3600.0,
                       **(config_kwargs or {}))
    backend = _KeepsCollector(spec,
                              execute_realizations=routine is not None)
    result = Engine(backend, config, use_files=False).run(routine)
    return result.cluster, backend.collector


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
        config = RunConfig(maxsv=40, processors=4)
        reference = Engine(SequentialBackend(), config, use_files=False) \
            .run(lambda rng: rng.random() ** 2)
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
            assert _same_estimates(results[name], Engine(
                SequentialBackend(), config, use_files=False).run(_square))

    def test_a_recovering_job_leaves_its_neighbour_untouched(self):
        # Rank 1 of every job fails 2.5 s after its job starts: a's rank
        # 1 dies with 2 of its 10 delivered and reruns, b's rank 1
        # finished its 2 at t = 2 s.
        spec = ClusterSpec(duration_model=DurationModel(mean=self.TAU),
                           failures={1: 2.5})
        jobs = {"a": _config(30, 3, 0, on_worker_death="reassign"),
                "b": _config(6, 3, 1)}
        results = _shared(spec, jobs)
        a, b = results["a"], results["b"]
        assert a.recovered_ranks == (1,)
        assert a.per_rank_volumes == {0: 10, 1: 10, 2: 10}
        assert a.total_volume == 30
        assert _same_estimates(a, Engine(
            SequentialBackend(), jobs["a"], use_files=False).run(_square))
        assert b.recovered_ranks == ()
        assert b.total_volume == 6
        assert _same_estimates(b, Engine(
            SequentialBackend(), jobs["b"], use_files=False).run(_square))

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
            solo = Engine(SimclusterBackend(spec, scheduling="dynamic"),
                          config, use_files=False).run(_square)
            assert results[name].total_volume == config.maxsv
            assert results[name].per_rank_volumes == solo.per_rank_volumes
            assert _same_estimates(results[name], solo)


_SPEEDS = (2.0, 1.0, 1.0, 0.5)


def _one_loop(fanout, perpass, routine, scheduling, failures, distribution,
              maxsv=40, speeds=_SPEEDS, on_worker_death="fail"):
    """One job on a simulated cluster of its own, through the one loop."""
    spec = ClusterSpec(
        duration_model=DurationModel(mean=1.0, distribution=distribution),
        speed_factors=speeds, failures=failures or None)
    config = RunConfig(maxsv=maxsv, processors=4, perpass=perpass,
                       peraver=3600.0, reduction_fanout=fanout,
                       on_worker_death=on_worker_death)
    quotas = (proportional_quotas(maxsv, speeds)
              if scheduling == "proportional" else None)
    routine = _square if routine == "square" else None
    backend = SimclusterBackend(
        spec, execute_realizations=routine is not None, quotas=quotas,
        scheduling="dynamic" if scheduling == "dynamic" else "static")
    return Engine(backend, config, use_files=False).run(routine)


def _hexed(value):
    """``value`` with every float spelled exactly, as ``float.hex``."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(_hexed(item) for item in value)
    return value


def _digest(estimates):
    return hashlib.sha256(b"".join(
        getattr(estimates, field).tobytes()
        for field in ("mean", "variance", "abs_error", "rel_error"))
    ).hexdigest()


#: ``(fanout, perpass, routine, scheduling, failures, distribution)``,
#: then the job's accounting and its estimates' digest, as the
#: simulator's former private event loop produced them.
_ACCOUNTING = [
    pytest.param(
        (None, 0.0, None, "static", {}, "fixed"),
        {"t_comp": "0x1.4001d7fe509fdp+4", "total_volume": 40,
         "per_rank_volumes": {0: 10, 1: 10, 2: 10, 3: 10}, "messages_sent": 44,
         "collector_utilization": "0x1.cd5cf143484b8p-12",
         "mean_queue_delay": "0x1.a83bb6e301dd1p-13",
         "compute_span": "0x1.4000000000000p+4", "failed_ranks": (),
         "lost_realizations": 0, "collector_served": 44,
         "combined_messages": 0},
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        id="flat-p0-accounted-static-healthy-fixed"),
    pytest.param(
        (None, 0.0, "square", "static", {}, "exponential"),
        {"t_comp": "0x1.bf03ccd36a9e2p+4", "total_volume": 40,
         "per_rank_volumes": {0: 10, 1: 10, 2: 10, 3: 10}, "messages_sent": 44,
         "collector_utilization": "0x1.4a475bb287de9p-12",
         "mean_queue_delay": "0x1.310a508148000p-16",
         "compute_span": "0x1.bf01f4d519fe5p+4", "failed_ranks": (),
         "lost_realizations": 0, "collector_served": 44,
         "combined_messages": 0},
        "3e45b4def034b38e361a0d03c13707175325b9b6c9e7f49e37b8345cd76db510",
        id="flat-p0-square-static-healthy-exponential"),
    pytest.param(
        (None, 3.0, "square", "static", {1: 5.5}, "fixed"),
        {"t_comp": "0x1.4001d7fe509fdp+4", "total_volume": 35,
         "per_rank_volumes": {0: 10, 1: 5, 2: 10, 3: 10}, "messages_sent": 13,
         "collector_utilization": "0x1.109fa5d64da13p-13",
         "mean_queue_delay": "0x1.1248c4b6a1d8ap-14",
         "compute_span": "0x1.4000000000000p+4", "failed_ranks": (1,),
         "lost_realizations": 2, "collector_served": 13,
         "combined_messages": 0},
        "8d601d115b970ac81016c5946c445fc369ecf6a016245881563c2857e826ae84",
        id="flat-p3-square-static-failing-fixed"),
    pytest.param(
        (None, 3.0, None, "dynamic", {}, "exponential"),
        {"t_comp": "0x1.4b80363d2cb4dp+3", "total_volume": 40,
         "per_rank_volumes": {0: 16, 1: 8, 2: 13, 3: 3}, "messages_sent": 12,
         "collector_utilization": "0x1.e5dad538499eap-13",
         "mean_queue_delay": "0x1.a36e2eb1c0000p-15",
         "compute_span": "0x1.4b7c86408b754p+3", "failed_ranks": (),
         "lost_realizations": 0, "collector_served": 12,
         "combined_messages": 0},
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        id="flat-p3-accounted-dynamic-healthy-exponential"),
    pytest.param(
        (None, 0.0, "square", "dynamic", {1: 5.5}, "exponential"),
        {"t_comp": "0x1.4b80363d2cb4dp+3", "total_volume": 39,
         "per_rank_volumes": {0: 17, 1: 6, 2: 13, 3: 3}, "messages_sent": 42,
         "collector_utilization": "0x1.a91f7a91406a7p-11",
         "mean_queue_delay": "0x1.4809ae95e30c3p-16",
         "compute_span": "0x1.4b7c86408b754p+3", "failed_ranks": (1,),
         "lost_realizations": 0, "collector_served": 42,
         "combined_messages": 0},
        "15a2110a14bc7365ea3a7084933bc4437880ef92ea32768390c165d1855ee0ce",
        id="flat-p0-square-dynamic-failing-exponential"),
    pytest.param(
        (None, 0.0, "square", "proportional", {}, "fixed"),
        {"t_comp": "0x1.200a3db55c069p+3", "total_volume": 40,
         "per_rank_volumes": {0: 18, 1: 9, 2: 9, 3: 4}, "messages_sent": 44,
         "collector_utilization": "0x1.0048715469fd3p-10",
         "mean_queue_delay": "0x1.12171370d6346p-12",
         "compute_span": "0x1.2000000000000p+3", "failed_ranks": (),
         "lost_realizations": 0, "collector_served": 44,
         "combined_messages": 0},
        "837b5c48b4f7ea9acb45d8425edd0e27a6947dcdd2174cdcc77765771da56c17",
        id="flat-p0-square-proportional-healthy-fixed"),
    pytest.param(
        (None, 3.0, None, "proportional", {1: 5.5}, "exponential"),
        {"t_comp": "0x1.65842c56801e4p+3", "total_volume": 38,
         "per_rank_volumes": {0: 18, 1: 7, 2: 9, 3: 4}, "messages_sent": 9,
         "collector_utilization": "0x1.51e018b68b190p-13",
         "mean_queue_delay": "0x0.0p+0",
         "compute_span": "0x1.658288e8516c8p+3", "failed_ranks": (1,),
         "lost_realizations": 1, "collector_served": 9,
         "combined_messages": 0},
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        id="flat-p3-accounted-proportional-failing-exponential"),
    pytest.param(
        (2, 0.0, "square", "static", {}, "fixed"),
        {"t_comp": "0x1.4002de4589e6cp+4", "total_volume": 40,
         "per_rank_volumes": {0: 10, 1: 10, 2: 10, 3: 10}, "messages_sent": 44,
         "collector_utilization": "0x1.3a8fd13a4976cp-12",
         "mean_queue_delay": "0x1.310a508149746p-16",
         "compute_span": "0x1.4000000000000p+4", "failed_ranks": (),
         "lost_realizations": 0, "collector_served": 30,
         "combined_messages": 30},
        "3e45b4def034b38e361a0d03c13707175325b9b6c9e7f49e37b8345cd76db510",
        id="tree2-p0-square-static-healthy-fixed"),
    pytest.param(
        (2, 3.0, None, "static", {1: 5.5}, "exponential"),
        {"t_comp": "0x1.f0ea48c309c6dp+4", "total_volume": 37,
         "per_rank_volumes": {0: 10, 1: 7, 2: 10, 3: 10}, "messages_sent": 11,
         "collector_utilization": "0x1.0e1a158d1ad9fp-14",
         "mean_queue_delay": "0x0.0p+0",
         "compute_span": "0x1.f0e76a7d7fe01p+4", "failed_ranks": (1,),
         "lost_realizations": 1, "collector_served": 10,
         "combined_messages": 10},
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        id="tree2-p3-accounted-static-failing-exponential"),
    pytest.param(
        (2, 0.0, None, "dynamic", {}, "fixed"),
        {"t_comp": "0x1.4005bc8b13cd6p+3", "total_volume": 40,
         "per_rank_volumes": {0: 17, 1: 9, 2: 9, 3: 5}, "messages_sent": 44,
         "collector_utilization": "0x1.2594aa2fa4442p-11",
         "mean_queue_delay": "0x1.7d4ce4a19ae8cp-16",
         "compute_span": "0x1.4000000000000p+3", "failed_ranks": (),
         "lost_realizations": 0, "collector_served": 28,
         "combined_messages": 28},
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
        id="tree2-p0-accounted-dynamic-healthy-fixed"),
    pytest.param(
        (2, 3.0, "square", "dynamic", {1: 5.5}, "fixed"),
        {"t_comp": "0x1.4005bcad6fe53p+3", "total_volume": 39,
         "per_rank_volumes": {0: 19, 1: 5, 2: 10, 3: 5}, "messages_sent": 12,
         "collector_utilization": "0x1.a366a9cde3110p-13",
         "mean_queue_delay": "0x1.179ec9cbd8000p-15",
         "compute_span": "0x1.4000000000000p+3", "failed_ranks": (1,),
         "lost_realizations": 2, "collector_served": 10,
         "combined_messages": 10},
        "80fd35f6bf3f7cc24a67ca8c7cfdf6906d1e52c9e5faf8ff74da7da7d97ea5bf",
        id="tree2-p3-square-dynamic-failing-fixed"),
    pytest.param(
        (2, 0.0, "square", "proportional", {1: 5.5}, "exponential"),
        {"t_comp": "0x1.658845736539ep+3", "total_volume": 38,
         "per_rank_volumes": {0: 18, 1: 7, 2: 9, 3: 4}, "messages_sent": 41,
         "collector_utilization": "0x1.64a158e810aa3p-11",
         "mean_queue_delay": "0x0.0p+0",
         "compute_span": "0x1.658288e8516c8p+3", "failed_ranks": (1,),
         "lost_realizations": 0, "collector_served": 38,
         "combined_messages": 38},
        "f654bc81ab516c84c62e542a3c9c9bd05a0eee6149dc13aa7c3ca014b3aa749c",
        id="tree2-p0-square-proportional-failing-exponential"),
    pytest.param(
        (2, 3.0, "square", "proportional", {}, "exponential"),
        {"t_comp": "0x1.57633bb518a78p+3", "total_volume": 40,
         "per_rank_volumes": {0: 18, 1: 9, 2: 9, 3: 4}, "messages_sent": 11,
         "collector_utilization": "0x1.5fc6f9af2fabcp-13",
         "mean_queue_delay": "0x0.0p+0",
         "compute_span": "0x1.575d7f2a04da2p+3", "failed_ranks": (),
         "lost_realizations": 0, "collector_served": 9,
         "combined_messages": 9},
        "837b5c48b4f7ea9acb45d8425edd0e27a6947dcdd2174cdcc77765771da56c17",
        id="tree2-p3-square-proportional-healthy-exponential"),
]


class TestOneLoopAccounting:
    """A job alone on its cluster is accounted for, field for field and
    float for float, as it was when the simulator ran its own loop."""

    @pytest.mark.parametrize("setup, expected, digest", _ACCOUNTING)
    def test_accounting_is_unchanged(self, setup, expected, digest):
        result = _one_loop(*setup)
        assert _hexed(dataclasses.asdict(result.cluster)) == expected
        assert _digest(result.estimates) == digest

    def test_reassign_recovers_the_whole_sample(self):
        # The former loop ignored the policy and kept 68 of the 120;
        # the scheduler reruns ranks 1 and 2 whole on their own streams,
        # which ends on the fault-free sample.
        result = _one_loop(None, 0.0, "square", "static", {1: 3.0, 2: 7.0},
                           "fixed", maxsv=120, speeds=None,
                           on_worker_death="reassign")
        assert _hexed(dataclasses.asdict(result.cluster)) == {
            "t_comp": "0x1.e00361246e5a8p+5", "total_volume": 120,
            "per_rank_volumes": {0: 30, 1: 30, 2: 30, 3: 30},
            "messages_sent": 132,
            "collector_utilization": "0x1.cd5c5a376ee8ap-12",
            "mean_queue_delay": "0x1.f11edfdb70b27p-14",
            "compute_span": "0x1.e001a36e2eb1cp+5", "failed_ranks": (1, 2),
            "lost_realizations": 0, "collector_served": 132,
            "combined_messages": 0}
        assert _same_estimates(result, Engine(
            SequentialBackend(), result.config, use_files=False).run(_square))
        assert result.recovered_ranks == (1, 2)

    def test_a_rerun_loses_what_the_failed_node_never_passed(self):
        # By t = 5.5 s rank 1's node computed 5 and passed 3 (perpass
        # 2.5 s): it reruns once, and those 2 stay counted lost.
        result = _one_loop(None, 2.5, "square", "static", {1: 5.5}, "fixed",
                           speeds=None, on_worker_death="reassign")
        assert result.cluster.lost_realizations == 2
        assert result.recovered_ranks == (1,)
