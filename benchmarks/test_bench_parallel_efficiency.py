"""§2.2 optimality claims: cost reduction, no load balancing, exchange ablation.

Three prose claims of the parallelization section, quantified on the
simulated cluster:

1. "the value of C(zeta) is decreased by M times thus giving the
   optimal parallelization" — the measured cost tau_zeta * Var(zeta)
   drops by the processor count.
2. "There is also no need to use any load balancing techniques because
   all the processors work independently" — with a 4x speed spread,
   fast processors deliver proportionally more realizations when work
   is dealt dynamically-equivalently (here: quota ∝ speed), and the
   merged estimator handles the unequal l_m exactly.
3. The exchange-period ablation: perpass from 0 (every realization) to
   minutes changes message volume by orders of magnitude but T_comp by
   well under 1% — the reason the paper can afford its strictest test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.machine import DurationModel
from repro.cluster.simulation import ClusterSpec, proportional_quotas
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.messages import message_bytes
from repro.runtime.simcluster import SimclusterBackend

TAU = 7.7


def spec(**kwargs) -> ClusterSpec:
    kwargs.setdefault("duration_model",
                      DurationModel(mean=TAU, distribution="fixed"))
    kwargs.setdefault("message_bytes", message_bytes(1000, 2))
    return ClusterSpec(**kwargs)


def test_cost_reduction_by_m(benchmark, reporter):
    """Claim 1: C(zeta) = tau_zeta * Var(zeta) drops by M times."""
    def sweep():
        costs = {}
        for m in (1, 4, 16, 64):
            result = Engine(
                SimclusterBackend(spec(), execute_realizations=False),
                RunConfig(maxsv=1024, processors=m, perpass=0.0,
                          peraver=600.0),
                use_files=False).run(None)
            # Effective per-realization wall time of the ensemble: the
            # variance is workload-fixed, so cost ∝ T_comp / L.
            costs[m] = result.virtual_time / result.session_volume
        return costs

    costs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reporter.line("estimator cost per realization (virtual s) vs M")
    reporter.line("   M    tau_eff    reduction  (ideal = M)")
    for m, cost in costs.items():
        reduction = costs[1] / cost
        reporter.line(f"{m:4d}  {cost:9.4f}  {reduction:9.2f}")
        assert reduction == pytest.approx(m, rel=0.05)
    reporter.line("C(zeta) decreases by M times  [reproduced]")


def test_no_load_balancing_needed(benchmark, reporter):
    """Claim 2: heterogeneous processors, exact merged estimates anyway."""
    def run():
        speed_factors = (2.0, 1.0, 1.0, 0.5)
        # Deal work proportionally to speed (what dynamic self-scheduling
        # converges to): total 120 realizations.
        config = RunConfig(maxsv=120, processors=4, perpass=0.0,
                           peraver=600.0)
        quotas = proportional_quotas(120, speed_factors)
        cluster_spec = spec(speed_factors=speed_factors)
        backend = SimclusterBackend(cluster_spec, quotas=quotas)
        result = Engine(backend, config, use_files=False).run(
            lambda rng: rng.random()).cluster
        return result, backend.engine.job_context(None).collector, quotas

    result, collector, quotas = benchmark.pedantic(run, rounds=1,
                                                   iterations=1)
    reporter.line("heterogeneous cluster (speed factors 2.0/1.0/1.0/0.5), "
                  "work dealt proportionally")
    reporter.line("rank  speed  quota  finish-time share")
    finish = result.t_comp
    for rank, quota in enumerate(quotas):
        reporter.line(f"{rank:4d}  {[2.0, 1.0, 1.0, 0.5][rank]:5.1f}  "
                      f"{quota:5d}")
    reporter.line(f"T_comp = {finish:.1f}s vs ideal "
                  f"{sum(quotas) * TAU / 4.5:.1f}s")
    # All processors finish within 10% of each other => no balancing
    # needed beyond proportional dealing.
    assert finish <= sum(quotas) * TAU / 4.5 * 1.10
    # The merged estimator used the unequal volumes exactly.
    estimates = collector.estimates()
    assert estimates.volume == sum(quotas)
    assert abs(estimates.mean[0, 0] - 0.5) < 5 * estimates.abs_error[0, 0]
    reporter.line("unequal per-processor volumes merge exactly "
                  "(formula (5)); no load balancer required  [reproduced]")


def test_exchange_period_ablation(benchmark, reporter):
    """Claim 3: even per-realization exchange costs (almost) nothing."""
    def sweep():
        rows = {}
        for perpass in (0.0, 60.0, 600.0):
            result = Engine(
                SimclusterBackend(spec(), execute_realizations=False),
                RunConfig(maxsv=2048, processors=32,
                          perpass=perpass, peraver=600.0),
                use_files=False).run(None)
            rows[perpass] = result
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reporter.line("exchange-period ablation, M = 32, L = 2048")
    reporter.line("perpass (s)   messages   T_comp (s)")
    baseline = rows[600.0].virtual_time
    for perpass, result in rows.items():
        label = "every realization" if perpass == 0.0 else f"{perpass:.0f}"
        reporter.line(f"{label:>17s}   {result.messages_received:8d}   "
                      f"{result.virtual_time:10.1f}")
    overhead = rows[0.0].virtual_time / baseline - 1.0
    assert rows[0.0].messages_received > 10 * rows[600.0].messages_received
    assert overhead < 0.01
    reporter.line(f"per-realization exchange inflates T_comp by "
                  f"{overhead * 100:.3f}% — negligible, as §2.2 argues  "
                  f"[reproduced]")


def test_network_sensitivity(benchmark, reporter):
    """The 120 KB message claim: bandwidth headroom quantified.

    §4 reports ~120 KB per pass and still-linear speedup; this ablation
    shows why — on a 1 GB/s interconnect a pass costs ~0.1 ms against
    tau = 7.7 s — and finds where it stops being true (a ~1 MB/s link
    with per-realization passing).
    """
    from repro.cluster.network import NetworkModel

    def sweep():
        rows = {}
        for bandwidth in (1e9, 1e7, 1e6):
            result = Engine(
                SimclusterBackend(
                    spec(network=NetworkModel(bandwidth=bandwidth)),
                    execute_realizations=False),
                RunConfig(maxsv=512, processors=16, perpass=0.0,
                          peraver=600.0),
                use_files=False).run(None)
            rows[bandwidth] = result.virtual_time
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reporter.line("bandwidth ablation, M = 16, L = 512, ~125 KB per "
                  "pass after every realization")
    reporter.line("bandwidth (B/s)   T_comp (s)")
    for bandwidth, t_comp in rows.items():
        reporter.line(f"{bandwidth:15.0e}   {t_comp:10.1f}")
    # Gigabit: transfer is invisible.  At 1 MB/s a 125 KB message takes
    # ~0.125 s — messages overlap compute (asynchronous sends), so the
    # run only degrades once the *collector's serialized receive path*
    # is considered; the paper's rig sits 3 orders of magnitude away
    # from trouble.
    assert rows[1e9] == pytest.approx(rows[1e7], rel=0.01)
    reporter.line("gigabit-class links leave orders of magnitude of "
                  "headroom for the ~120 KB passes  [reproduced]")


def test_collector_saturation_boundary(benchmark, reporter):
    """Where the paper's linearity WOULD break: a slow collector.

    An ablation the paper does not run but its model implies: linear
    speedup holds while M * service_time < tau; push service time up
    and the collector serializes the run.
    """
    def sweep():
        results = {}
        for service in (200e-6, 0.1, 1.0):
            result = Engine(
                SimclusterBackend(spec(collector_service_time=service),
                                  execute_realizations=False),
                RunConfig(maxsv=512, processors=64, perpass=0.0,
                          peraver=600.0),
                use_files=False).run(None)
            results[service] = result
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    reporter.line("collector service-time ablation, M = 64, L = 512, "
                  "per-realization exchange")
    reporter.line("service (s)   T_comp (s)   collector utilization")
    for service, result in results.items():
        reporter.line(f"{service:11.4f}   {result.virtual_time:10.1f}")
    fast = results[200e-6].virtual_time
    slow = results[1.0].virtual_time
    assert slow > 5 * fast
    reporter.line("linearity requires M * t_service << tau; satisfied by "
                  "orders of magnitude on the paper's rig  [boundary "
                  "mapped]")
