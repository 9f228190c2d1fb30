"""Overhead of the distributed TCP backend versus multiprocess.

**End-to-end dispatch overhead** — the same trivial-realization run
(the regime of the paper's Fig. 2 where overhead dominates because tau
is tiny) on the multiprocess backend and on the distributed backend
against one local ``parmonc-pool``.  The estimates must stay
bit-identical; the wall-clock delta is the price of TCP framing,
heartbeats and the asyncio hop.  (Framing throughput itself is
``runtime.wire.mb_per_s`` of ``benchmarks/perf/run.py --trace 1``.)

Wall-clock ratios of separate runs on a shared container are noisy, so
the assertions are correctness (parity, volumes) plus a deliberately
loose regression ceiling; the JSON artifact records the raw seconds.
"""

from __future__ import annotations

import os
import time

from repro.core.parmonc import parmonc
from repro.runtime.pool import PoolServer

SMOKE = bool(os.environ.get("PARMONC_BENCH_SMOKE"))

MAXSV = 2_000 if SMOKE else 20_000
REPEATS = 2 if SMOKE else 3
#: Gross-regression ceiling on distributed/multiprocess wall time for
#: the trivial workload.  Connection setup plus framing should cost a
#: small multiple at worst, even on a noisy shared machine.
END_TO_END_CEILING = 20.0


def trivial(rng):
    return rng.random()


def test_distributed_matches_multiprocess_end_to_end(reporter, tmp_path):
    def run_multiprocess(round_index):
        return parmonc(trivial, maxsv=MAXSV, processors=2,
                       backend="multiprocess", perpass=1e9, peraver=1e9,
                       workdir=tmp_path / f"mp{round_index}")

    def run_distributed(round_index):
        server = PoolServer(port=0, workers=2, start_method="fork")
        host, port = server.start()
        try:
            return parmonc(trivial, maxsv=MAXSV, processors=2,
                           backend="distributed",
                           connect=f"{host}:{port}",
                           perpass=1e9, peraver=1e9,
                           workdir=tmp_path / f"dist{round_index}")
        finally:
            server.stop()

    times = {"multiprocess": [], "distributed": []}
    results = {}
    for index in range(REPEATS):
        for name, runner in (("multiprocess", run_multiprocess),
                             ("distributed", run_distributed)):
            began = time.perf_counter()
            results[name] = runner(index)
            times[name].append(time.perf_counter() - began)

    for name in ("multiprocess", "distributed"):
        assert results[name].total_volume == MAXSV
    assert (results["distributed"].estimates.mean[0, 0]
            == results["multiprocess"].estimates.mean[0, 0])
    assert (results["distributed"].estimates.variance[0, 0]
            == results["multiprocess"].estimates.variance[0, 0])

    best_mp = min(times["multiprocess"])
    best_dist = min(times["distributed"])
    ratio = best_dist / best_mp if best_mp > 0 else float("nan")
    assert ratio < END_TO_END_CEILING
    reporter.metric("maxsv", MAXSV)
    reporter.metric("seconds_multiprocess", best_mp)
    reporter.metric("seconds_distributed", best_dist)
    reporter.metric("distributed_over_multiprocess", ratio)
    reporter.line(f"{MAXSV} trivial realizations, M=2, best of "
                  f"{REPEATS}:")
    reporter.line(f"  multiprocess: {best_mp:.3f} s   "
                  f"distributed (local TCP pool): {best_dist:.3f} s   "
                  f"ratio {ratio:.2f}")
    reporter.line("estimates bit-identical across the wire; the delta "
                  "is pool connection setup + framing + heartbeats")
