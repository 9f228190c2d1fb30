"""Saturation boundary of the flat exchange versus the reduction tree.

The paper's Fig. 2 regime dies at the collector: under per-realization
passes rank 0 serves O(M) workers, so once ``M * service_time``
approaches ``tau`` the exchange queue grows without bound and T_comp
decouples from ``tau * L / M``.  One figure quantifies what the k-ary
tree buys back: the **saturation boundary** — on the deterministic
simulated cluster, the largest M whose exchange overhead stays under
50% of ideal compute time.  Interior reducers coalesce their subtree
into one combined message per busy period, so the collector's load
stops growing with M and the boundary moves by well over an order of
magnitude (the asserted floor is 10x).  A full-hierarchy tree point at
M = 10**5 simulated workers certifies the cost model at the paper's
"practically infinite" processor count.
"""

from __future__ import annotations

import os
import time

from repro.cluster import ClusterSpec
from repro.cluster.machine import DurationModel
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.messages import message_bytes
from repro.runtime.simcluster import SimclusterBackend

SMOKE = bool(os.environ.get("PARMONC_BENCH_SMOKE"))

TAU = 7.7
#: Collector/reducer service time chosen so the flat exchange saturates
#: within a cheap sweep: arrival rate M/tau crosses 1/s near M = 77.
SERVICE = 0.1
FANOUT = 16
QUOTA = 2 if SMOKE else 4
SWEEP_CAP = 1024 if SMOKE else 4096
#: A point is "unsaturated" while exchange overhead stays below 50%.
OVERHEAD_LIMIT = 0.5
FULL_TREE_M = 20_000 if SMOKE else 100_000
#: The scale point carries a larger per-worker quota: the tree cuts the
#: collector's message count, not the bytes, so the trailing wave of
#: subtree-sized combined transfers is a fixed cost that honest
#: accounting amortizes over more compute.
FULL_TREE_QUOTA = 4 if SMOKE else 8


class _KeepsCollector(SimclusterBackend):
    """Takes the job's collector at admission: a finished job lets go
    of its run, so the bench keeps the merged moments it compares."""

    collector = None

    def open_job(self, job) -> None:
        super().open_job(job)
        self.collector = job.collector


def _spec() -> ClusterSpec:
    return ClusterSpec(
        duration_model=DurationModel(mean=TAU, distribution="fixed"),
        message_bytes=message_bytes(1000, 2),
        collector_service_time=SERVICE)


def _simulate(processors: int, fanout: int | None, quota: int = QUOTA):
    config = RunConfig(maxsv=processors * quota, processors=processors,
                       perpass=0.0, peraver=3600.0,
                       reduction_fanout=fanout)
    backend = SimclusterBackend(_spec(), execute_realizations=False)
    return Engine(backend, config, use_files=False).run(None).cluster


def _overhead(processors: int, fanout: int | None,
              quota: int = QUOTA) -> tuple[float, object]:
    """Exchange overhead relative to ideal compute, plus the result."""
    result = _simulate(processors, fanout, quota)
    ideal = TAU * quota
    return result.t_comp / ideal - 1.0, result


def _boundary(fanout: int | None, reporter, label: str) -> int:
    """Largest power-of-two M whose overhead stays under the limit."""
    boundary = 0
    m = 16
    while m <= SWEEP_CAP:
        overhead, result = _overhead(m, fanout)
        reporter.line(
            f"  {label:4s} M={m:6d}  overhead={overhead * 100:8.1f}%  "
            f"served={result.collector_served:7d}  "
            f"combined={result.combined_messages:6d}")
        reporter.metric(f"{label}_overhead_at_{m}", overhead)
        if overhead > OVERHEAD_LIMIT:
            break
        boundary = m
        m *= 2
    return boundary


def test_saturation_boundary_tree_vs_flat(reporter):
    reporter.line("Saturation boundary under per-realization passes "
                  f"(tau={TAU}s, service={SERVICE * 1e3:.0f}ms, "
                  f"quota={QUOTA}/worker)")
    flat = _boundary(None, reporter, "flat")
    tree = _boundary(FANOUT, reporter, "tree")
    ratio = tree / flat
    reporter.line(f"flat boundary: M = {flat}")
    reporter.line(f"tree boundary: M >= {tree} (fanout {FANOUT})")
    reporter.line(f"boundary ratio: {ratio:.0f}x  (floor: 10x)")
    reporter.metric("flat_boundary", flat)
    reporter.metric("tree_boundary", tree)
    reporter.metric("boundary_ratio", ratio)
    assert flat > 0
    assert ratio >= 10.0, (flat, tree)


def test_equal_estimate_bits_at_the_boundary(reporter):
    """The topology buys throughput, never a different estimate."""
    processors = 64

    def run(fanout):
        config = RunConfig(maxsv=processors * QUOTA,
                           processors=processors, perpass=0.0,
                           peraver=3600.0, reduction_fanout=fanout)
        backend = _KeepsCollector(_spec())
        result = Engine(backend, config, use_files=False).run(
            lambda rng: rng.random()).cluster
        merged = backend.collector.merged()
        return result, merged.sum1.tobytes(), merged.sum2.tobytes()

    flat_result, flat_sum1, flat_sum2 = run(None)
    tree_result, tree_sum1, tree_sum2 = run(FANOUT)
    assert (flat_sum1, flat_sum2) == (tree_sum1, tree_sum2)
    assert flat_result.total_volume == tree_result.total_volume
    reporter.line(f"M={processors}: flat and tree merged moments are "
                  f"byte-identical at equal volume "
                  f"({flat_result.total_volume})")
    reporter.line(f"collector served {flat_result.collector_served} "
                  f"(flat) vs {tree_result.collector_served} (tree) "
                  f"messages for the same bits")
    reporter.metric("flat_served", flat_result.collector_served)
    reporter.metric("tree_served", tree_result.collector_served)
    assert tree_result.collector_served < flat_result.collector_served


def test_full_hierarchy_tree_point(reporter):
    """fanout-16 tree at the paper's 10**5-processor scale."""
    started = time.perf_counter()
    overhead, result = _overhead(FULL_TREE_M, FANOUT,
                                 quota=FULL_TREE_QUOTA)
    elapsed = time.perf_counter() - started
    reporter.line(f"tree point at M = {FULL_TREE_M}: "
                  f"overhead = {overhead * 100:.1f}%, "
                  f"collector served {result.collector_served} combined "
                  f"messages for {result.messages_sent} worker passes "
                  f"({elapsed:.1f}s wall)")
    reporter.metric("full_tree_m", FULL_TREE_M)
    reporter.metric("full_tree_overhead", overhead)
    reporter.metric("full_tree_collector_served", result.collector_served)
    reporter.metric("full_tree_messages_sent", result.messages_sent)
    assert result.total_volume == FULL_TREE_M * FULL_TREE_QUOTA
    assert overhead <= OVERHEAD_LIMIT
    # The coalescing claim at scale: rank 0 sees orders of magnitude
    # fewer messages than the workers sent.
    assert result.collector_served * 10 <= result.messages_sent
