"""Combined cluster-model features: the interactions must compose."""

from __future__ import annotations


from repro.cluster import (
    Accelerator,
    ClusterSpec,
    DurationModel,
    proportional_quotas,
)
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.simcluster import SimclusterBackend


def simulate(config_kwargs, spec_kwargs, **sim_kwargs):
    config = RunConfig(**{"perpass": 0.0, "peraver": 3600.0,
                          **config_kwargs})
    spec_kwargs.setdefault("duration_model", DurationModel(mean=1.0))
    spec = ClusterSpec(**spec_kwargs)
    routine = sim_kwargs.pop("routine", None)
    backend = SimclusterBackend(
        spec, execute_realizations=routine is not None, **sim_kwargs)
    result = Engine(backend, config, use_files=False).run(routine)
    return result.cluster, backend.engine.job_context(None).collector


class TestFeatureCombinations:
    def test_failure_plus_heterogeneous_speeds(self):
        result, collector = simulate(
            {"maxsv": 60, "processors": 3},
            {"speed_factors": (2.0, 1.0, 1.0),
             "failures": {1: 5.5}})
        assert result.failed_ranks == (1,)
        # The fast node and the surviving slow node complete.
        assert result.per_rank_volumes[0] == 20
        assert result.per_rank_volumes[2] == 20
        assert collector.worker_volume(1) <= 6

    def test_failure_of_gpu_node(self):
        # Rank 0 is the collector and cannot fail; put the GPU on
        # rank 1 and kill it mid-run.
        gpu = Accelerator(batch=8, speedup=10.0)
        result, collector = simulate(
            {"maxsv": 64, "processors": 2},
            {"accelerators": (None, gpu), "failures": {1: 1.5}})
        # The GPU node dies early; its delivered volume is a multiple
        # of the batch width (whole batches only).
        assert collector.worker_volume(1) % 8 == 0
        assert result.per_rank_volumes[0] == 32

    def test_dynamic_scheduling_with_accelerator(self):
        gpu = Accelerator(batch=16, speedup=20.0)
        result, _ = simulate(
            {"maxsv": 200, "processors": 2},
            {"accelerators": (gpu, None)},
            scheduling="dynamic")
        assert result.total_volume == 200
        # The GPU node grabs the lion's share.
        assert result.per_rank_volumes[0] > 4 * result.per_rank_volumes[1]

    def test_time_limit_with_proportional_quotas(self):
        result, _ = simulate(
            {"maxsv": 100, "processors": 2, "time_limit": 10.0},
            {"speed_factors": (3.0, 1.0)},
            quotas=proportional_quotas(100, (3.0, 1.0)))
        # The limit binds before the quotas complete.
        assert result.total_volume < 100
        assert result.per_rank_volumes[0] > result.per_rank_volumes[1]

    def test_failures_with_stochastic_durations_reproducible(self):
        kwargs = ({"maxsv": 60, "processors": 3},
                  {"duration_model": DurationModel(
                      mean=1.0, distribution="exponential"),
                   "failures": {2: 3.5}, "seed": 11})
        first, _ = simulate(*kwargs)
        second, _ = simulate(*kwargs)
        assert first.t_comp == second.t_comp
        assert first.lost_realizations == second.lost_realizations

    def test_executed_routine_with_failures_keeps_stream_purity(self):
        def routine(rng):
            return rng.random()

        _, collector_a = simulate(
            {"maxsv": 60, "processors": 3},
            {"failures": {2: 5.5}}, routine=routine)
        _, collector_b = simulate(
            {"maxsv": 60, "processors": 3},
            {"failures": {2: 5.5}}, routine=routine)
        import numpy as np
        assert np.array_equal(collector_a.estimates().mean,
                              collector_b.estimates().mean)
