"""PARMONC on GPU and hybrid clusters — the paper's §5 future work.

Models the adaptation the paper proposes: nodes with batch accelerators
(kernel launch overhead + per-realization speedup) running the same
asynchronous moment-exchange protocol, including a mixed CPU+GPU
deployment with throughput-proportional work dealing.

Run:  python examples/hybrid_gpu_cluster.py
"""

from repro import parmonc
from repro.cluster import (
    Accelerator,
    ClusterSpec,
    DurationModel,
    proportional_quotas,
)
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


def main():
    print(f"workload: tau = {TAU}s per realization on CPU; "
          f"GPU = batch {GPU.batch}, {GPU.speedup:.0f}x, "
          f"{GPU.launch_overhead * 1e3:.0f}ms launch\n")

    cpu = run(2048, 8)
    gpu = run(2048, 8, accelerators=(GPU,) * 8)
    print(f"8 CPU nodes : T_comp = {cpu.virtual_time:9.1f} s")
    print(f"8 GPU nodes : T_comp = {gpu.virtual_time:9.1f} s "
          f"({cpu.virtual_time / gpu.virtual_time:.0f}x)\n")

    accelerators = (GPU, GPU, None, None, None, None)
    even = run(4096, 6, accelerators=accelerators)
    weights = [GPU.speedup, GPU.speedup, 1.0, 1.0, 1.0, 1.0]
    quotas = proportional_quotas(4096, weights)
    balanced = run(4096, 6, accelerators=accelerators, quotas=quotas)
    print("hybrid cluster (2 GPU + 4 CPU nodes), L = 4096:")
    print(f"  even dealing         : T_comp = {even.virtual_time:9.1f} s"
          f"  (CPU nodes are the bottleneck)")
    print(f"  proportional dealing : T_comp = "
          f"{balanced.virtual_time:9.1f} s  (quotas = {quotas})")
    ideal = 4096 / ((2 * GPU.speedup + 4) / TAU)
    print(f"  combined-throughput ideal: {ideal:9.1f} s")
    print("\nunequal per-node volumes merge exactly (formula (5)); the")
    print("PARMONC protocol needs no changes for hybrid deployment.")


if __name__ == "__main__":
    main()
