"""Tests for the GPU/hybrid cluster extension (§5 future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    Accelerator,
    ClusterSpec,
    DurationModel,
    Processor,
    proportional_quotas,
)
from repro.exceptions import ConfigurationError
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.simcluster import SimclusterBackend


def simulate(maxsv, processors, *, accelerators=None, quotas=None,
             tau=1.0, routine=None, execute=False):
    spec = ClusterSpec(duration_model=DurationModel(mean=tau),
                       accelerators=accelerators)
    backend = SimclusterBackend(spec, execute_realizations=execute,
                                quotas=quotas)
    return Engine(backend, RunConfig(maxsv=maxsv, processors=processors,
                                     perpass=0.0, peraver=600.0),
                  use_files=False).run(routine)


class TestAccelerator:
    def test_chunk_duration_formula(self):
        gpu = Accelerator(batch=100, speedup=50.0, launch_overhead=0.5)
        assert gpu.chunk_duration(100, 10.0) == pytest.approx(
            0.5 + 100 * 10.0 / 50.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Accelerator(batch=0)
        with pytest.raises(ConfigurationError):
            Accelerator(speedup=0.0)
        with pytest.raises(ConfigurationError):
            Accelerator(launch_overhead=-1.0)
        with pytest.raises(ConfigurationError):
            Accelerator().chunk_duration(0, 1.0)

    def test_processor_batch_property(self):
        assert Processor(0).batch == 1
        assert Processor(0, accelerator=Accelerator(batch=32)).batch == 32

    def test_cpu_node_rejects_multi_chunk(self):
        import numpy.random as npr
        with pytest.raises(ConfigurationError):
            Processor(0).chunk_duration(2, DurationModel(mean=1.0),
                                        npr.default_rng(0))


class TestProportionalQuotas:
    def test_exact_total_and_proportion(self):
        quotas = proportional_quotas(120, (2.0, 1.0, 1.0, 0.5))
        assert sum(quotas) == 120
        assert quotas == [53, 27, 27, 13] or quotas[0] > quotas[3]

    def test_largest_remainder_rounds_fairly(self):
        quotas = proportional_quotas(10, (1.0, 1.0, 1.0))
        assert sum(quotas) == 10
        assert sorted(quotas) == [3, 3, 4]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            proportional_quotas(-1, (1.0,))
        with pytest.raises(ConfigurationError):
            proportional_quotas(10, ())
        with pytest.raises(ConfigurationError):
            proportional_quotas(10, (1.0, 0.0))


class TestHybridSimulation:
    def test_gpu_node_faster_than_cpu_node(self):
        cpu = simulate(256, 1, tau=1.0)
        gpu = simulate(256, 1, tau=1.0,
                       accelerators=(Accelerator(batch=64, speedup=50.0,
                                                 launch_overhead=1e-3),))
        assert gpu.virtual_time < cpu.virtual_time / 20

    def test_batching_tradeoff(self):
        # Tiny batches drown in launch overhead.
        small = simulate(256, 1, tau=1.0,
                         accelerators=(Accelerator(batch=1, speedup=50.0,
                                                   launch_overhead=1.0),))
        big = simulate(256, 1, tau=1.0,
                       accelerators=(Accelerator(batch=256, speedup=50.0,
                                                 launch_overhead=1.0),))
        assert big.virtual_time < small.virtual_time / 10

    def test_hybrid_needs_proportional_dealing(self):
        accelerators = (Accelerator(batch=64, speedup=50.0), None)
        even = simulate(512, 2, tau=1.0, accelerators=accelerators)
        weighted = simulate(
            512, 2, tau=1.0, accelerators=accelerators,
            quotas=proportional_quotas(512, (50.0, 1.0)))
        # Even dealing bottlenecks on the CPU node; proportional dealing
        # approaches the combined-throughput ideal.
        assert weighted.virtual_time < even.virtual_time / 5

    def test_estimates_unaffected_by_hardware(self):
        def routine(rng):
            return rng.random()
        cpu = simulate(128, 2, tau=1.0, routine=routine, execute=True)
        gpu = simulate(128, 2, tau=1.0, routine=routine, execute=True,
                       accelerators=(Accelerator(batch=16),
                                     Accelerator(batch=16)))
        assert np.array_equal(cpu.estimates.mean, gpu.estimates.mean)

    def test_quota_override_shapes_volumes(self):
        result = simulate(100, 3, quotas=[70, 20, 10])
        assert result.per_rank_volumes == {0: 70, 1: 20, 2: 10}

    def test_quota_validation(self):
        with pytest.raises(ConfigurationError):
            simulate(100, 2, quotas=[50, 49])
        with pytest.raises(ConfigurationError):
            simulate(100, 2, quotas=[100])

    def test_accelerator_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            simulate(10, 2, accelerators=(Accelerator(),))

    def test_gpu_messages_per_batch(self):
        # perpass=0 on a GPU node means one pass per *batch*, not per
        # realization — the natural GPU port semantics.
        result = simulate(256, 1, tau=1.0,
                          accelerators=(Accelerator(batch=64),))
        assert result.messages_received == 256 // 64 + 1
