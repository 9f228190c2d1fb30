"""Tests for dynamic self-scheduling on the simulated cluster."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterSpec, DurationModel
from repro.exceptions import ConfigurationError
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.simcluster import run_simcluster
from repro.cluster.simulation import ClusterSimulation
from repro.stats.accumulator import MomentSnapshot


def run_dynamic(maxsv, processors, *, speed_factors=None, tau=1.0,
                routine=None, execute=False, scheduling="dynamic"):
    spec = ClusterSpec(duration_model=DurationModel(mean=tau),
                       speed_factors=speed_factors)
    return run_simcluster(
        routine, RunConfig(maxsv=maxsv, processors=processors,
                           perpass=0.0, peraver=600.0),
        spec=spec, use_files=False, execute_realizations=execute,
        scheduling=scheduling)


class TestDynamicScheduling:
    def test_exact_total_volume(self):
        result = run_dynamic(97, 4)
        assert result.session_volume == 97

    def test_fast_nodes_take_more_work(self):
        result = run_dynamic(100, 2, speed_factors=(4.0, 1.0))
        assert result.per_rank_volumes[0] == pytest.approx(80, abs=3)
        assert result.per_rank_volumes[1] == pytest.approx(20, abs=3)

    def test_makespan_matches_combined_throughput(self):
        # 100 realizations over throughput 4+1 per second => ~20 s.
        result = run_dynamic(100, 2, speed_factors=(4.0, 1.0))
        assert result.virtual_time == pytest.approx(20.0, rel=0.05)

    def test_beats_static_dealing_on_heterogeneous_cluster(self):
        static = run_dynamic(100, 2, speed_factors=(4.0, 1.0),
                             scheduling="static")
        dynamic = run_dynamic(100, 2, speed_factors=(4.0, 1.0))
        # Static even split bottlenecks on the slow node (50 s).
        assert static.virtual_time == pytest.approx(50.0, rel=0.05)
        assert dynamic.virtual_time < 0.5 * static.virtual_time

    def test_homogeneous_cluster_splits_evenly(self):
        result = run_dynamic(100, 4)
        volumes = list(result.per_rank_volumes.values())
        assert max(volumes) - min(volumes) <= 1

    def test_estimates_are_genuine_with_execution(self):
        result = run_dynamic(200, 2, speed_factors=(3.0, 1.0),
                             routine=lambda rng: rng.random(),
                             execute=True)
        assert result.estimates.volume == 200
        assert 0.4 < result.estimates.mean[0, 0] < 0.6

    def test_stochastic_durations_still_exact_volume(self):
        spec = ClusterSpec(duration_model=DurationModel(
            mean=1.0, distribution="exponential"), seed=5)
        result = run_simcluster(
            None, RunConfig(maxsv=150, processors=3, perpass=0.0,
                            peraver=600.0),
            spec=spec, use_files=False, execute_realizations=False,
            scheduling="dynamic")
        assert result.session_volume == 150

    def test_invalid_scheduling_rejected(self):
        config = RunConfig(maxsv=10, processors=1)
        collector = Collector(config, MomentSnapshot.zero(1, 1), None)
        with pytest.raises(ConfigurationError):
            ClusterSimulation(config, ClusterSpec(), collector,
                              scheduling="magic")

    def test_dynamic_with_quotas_rejected(self):
        config = RunConfig(maxsv=10, processors=2)
        collector = Collector(config, MomentSnapshot.zero(1, 1), None)
        with pytest.raises(ConfigurationError):
            ClusterSimulation(config, ClusterSpec(), collector,
                              quotas=[5, 5], scheduling="dynamic")

    def test_dynamic_streams_stay_disjoint(self):
        # Every rank uses its own realization substream indices, so two
        # dynamic runs with different speed splits still draw each
        # realization from a well-defined stream: rerunning is exact.
        first = run_dynamic(120, 2, speed_factors=(2.0, 1.0),
                            routine=lambda rng: rng.random(),
                            execute=True)
        second = run_dynamic(120, 2, speed_factors=(2.0, 1.0),
                             routine=lambda rng: rng.random(),
                             execute=True)
        assert np.array_equal(first.estimates.mean, second.estimates.mean)


class TestDynamicUnderTimeLimit:
    """Self-scheduled quotas and a virtual-seconds job limit both live
    in the backend (``plan(job)``, ``done``); the run loop must carry
    them through untouched.  Values pinned at the commit that folded
    the single-run driver into ``Scheduler.step()``."""

    def test_run_is_pinned(self, tmp_path):
        from repro.runtime.files import DataDirectory

        config = RunConfig(maxsv=200, processors=3, perpass=0.0,
                           peraver=0.0, time_limit=25.0, workdir=tmp_path)
        spec = ClusterSpec(duration_model=DurationModel(mean=1.0),
                           speed_factors=(3.0, 1.0, 1.0))
        result = run_simcluster(lambda rng: rng.random() ** 2, config,
                                spec=spec, scheduling="dynamic")
        assert result.virtual_time == 25.33373333333331
        assert result.per_rank_volumes == {0: 76, 1: 25, 2: 25}
        assert result.total_volume == result.session_volume == 126
        snapshot, meta = DataDirectory(tmp_path).load_savepoint()
        assert snapshot.to_dict() == {
            "sum1": [[41.482141291514345]],
            "sum2": [[25.743100670817917]],
            "volume": 126, "compute_time": 0.0}
        assert meta.used_seqnums == (0,)
        assert meta.sessions == 1
