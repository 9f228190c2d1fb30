"""§5 future work: PARMONC on GPU and hybrid clusters, modelled.

The paper closes with "it is desirable to adapt the PARMONC to modern
powerful GPU computer clusters and, also, to hybrid computer clusters".
This bench runs that adaptation on the simulator: nodes with batch
accelerators (kernel-launch overhead + per-realization speedup), pure
GPU clusters, and mixed CPU+GPU clusters with throughput-proportional
work dealing.  The protocol is untouched — cumulative moment passes per
batch — demonstrating that the PARMONC design carries over.
"""

from __future__ import annotations

import pytest

from repro.cluster import Accelerator, ClusterSpec, DurationModel, \
    proportional_quotas
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.simcluster import SimclusterBackend

TAU = 7.7
GPU = Accelerator(batch=256, speedup=50.0, launch_overhead=5e-3)


def run(maxsv, processors, accelerators=None, quotas=None):
    spec = ClusterSpec(duration_model=DurationModel(mean=TAU),
                       accelerators=accelerators)
    return Engine(
        SimclusterBackend(spec, execute_realizations=False, quotas=quotas),
        RunConfig(maxsv=maxsv, processors=processors, perpass=0.0,
                  peraver=600.0),
        use_files=False).run(None)


def test_gpu_cluster_scaling(benchmark, reporter):
    """A pure GPU cluster keeps the Fig. 2 linearity, rescaled."""
    def sweep():
        rows = {}
        for m in (1, 2, 4, 8):
            rows[m] = run(8192 * m, m, accelerators=(GPU,) * m)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reporter.line(f"GPU cluster (batch {GPU.batch}, {GPU.speedup:.0f}x, "
                  f"{GPU.launch_overhead * 1e3:.0f} ms launch), weak "
                  f"scaling: L = 8192 per node")
    reporter.line("   M       L    T_comp (s)   per-realization (ms)")
    per_node_time = None
    for m, result in rows.items():
        per_real = result.virtual_time / (8192 * m) * m * 1e3
        reporter.line(f"{m:4d}  {8192 * m:6d}  {result.virtual_time:10.1f}"
                      f"   {per_real:10.2f}")
        if per_node_time is None:
            per_node_time = result.virtual_time
        # Weak scaling: constant time per node as M grows.
        assert result.virtual_time == pytest.approx(per_node_time,
                                                    rel=0.02)
    reporter.line("weak scaling flat: the asynchronous protocol carries "
                  "over to GPU nodes unchanged  [future work modelled]")


def test_gpu_vs_cpu_throughput(benchmark, reporter):
    def compare():
        cpu = run(2048, 8)
        gpu = run(2048, 8, accelerators=(GPU,) * 8)
        return cpu, gpu

    cpu, gpu = benchmark.pedantic(compare, rounds=1, iterations=1)
    gain = cpu.virtual_time / gpu.virtual_time
    reporter.line("8 CPU nodes vs 8 GPU nodes, L = 2048, tau = 7.7s")
    reporter.line(f"CPU cluster T_comp : {cpu.virtual_time:10.1f} s")
    reporter.line(f"GPU cluster T_comp : {gpu.virtual_time:10.1f} s")
    reporter.line(f"gain               : {gain:10.1f}x "
                  f"(device speedup {GPU.speedup:.0f}x)")
    assert gain == pytest.approx(GPU.speedup, rel=0.15)
    reporter.line("cluster-level gain tracks the device speedup; batch "
                  "moment passes add negligible overhead")


def test_hybrid_cluster_dealing(benchmark, reporter):
    """Mixed CPU+GPU: proportional dealing recovers combined throughput."""
    accelerators = (GPU, GPU, None, None, None, None)

    def compare():
        maxsv = 4096
        even = run(maxsv, 6, accelerators=accelerators)
        weights = [GPU.speedup, GPU.speedup, 1.0, 1.0, 1.0, 1.0]
        weighted = run(maxsv, 6, accelerators=accelerators,
                       quotas=proportional_quotas(maxsv, weights))
        return even, weighted

    even, weighted = benchmark.pedantic(compare, rounds=1, iterations=1)
    combined_throughput = (2 * GPU.speedup + 4) / TAU
    ideal = 4096 / combined_throughput
    reporter.line("hybrid cluster: 2 GPU + 4 CPU nodes, L = 4096")
    reporter.line(f"even dealing         : T_comp = "
                  f"{even.virtual_time:9.1f} s (CPU-bound)")
    reporter.line(f"proportional dealing : T_comp = "
                  f"{weighted.virtual_time:9.1f} s")
    reporter.line(f"combined-throughput ideal: {ideal:9.1f} s")
    assert weighted.virtual_time < even.virtual_time / 10
    assert weighted.virtual_time == pytest.approx(ideal, rel=0.1)
    reporter.line("hybrid deployment works with throughput-proportional "
                  "work dealing; the estimator handles unequal volumes "
                  "by formula (5)  [future work modelled]")


def test_batch_size_tradeoff(benchmark, reporter):
    """The GPU port's one tuning knob: batch width vs launch overhead."""
    def sweep():
        rows = {}
        for batch in (1, 16, 256, 4096):
            accelerator = Accelerator(batch=batch, speedup=50.0,
                                      launch_overhead=0.1)
            rows[batch] = run(8192, 1, accelerators=(accelerator,))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reporter.line("batch-width ablation, 1 GPU node, L = 8192, "
                  "launch overhead 100 ms")
    reporter.line("  batch    T_comp (s)    device efficiency")
    asymptote = 8192 * TAU / 50.0
    for batch, result in rows.items():
        efficiency = asymptote / result.virtual_time
        reporter.line(f"{batch:7d}  {result.virtual_time:10.1f}   "
                      f"{efficiency:10.3f}")
    assert rows[1].virtual_time > 1.5 * rows[4096].virtual_time
    assert asymptote / rows[4096].virtual_time > 0.95
    reporter.line("small batches drown in launch overhead; large batches "
                  "reach the device's asymptotic throughput  [mapped]")
