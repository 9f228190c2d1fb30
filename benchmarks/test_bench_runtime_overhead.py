"""Library overhead: what the runtime costs per realization.

Not a paper figure — the engineering table a prospective user wants:
per-realization wall cost of each backend on a trivial workload, the
stream-positioning cost, and the savings from batching.  The paper's
workloads (tau ~ seconds) dwarf all of these; the numbers matter for
micro-realizations.
"""

from __future__ import annotations

import pytest

from repro import batched_realization, parmonc
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.sequential import SequentialBackend


def trivial(rng):
    return rng.random()


def test_sequential_overhead(benchmark, reporter):
    config = RunConfig(maxsv=5_000, processors=1, perpass=1e9,
                       peraver=1e9)

    def run():
        return Engine(SequentialBackend(), config,
                      use_files=False).run(trivial)

    result = benchmark(run)
    assert result.total_volume == 5_000
    reporter.line("sequential backend, 5000 trivial realizations per "
                  "round (see timing table; ~15-30 us/realization)")


def test_sequential_with_files_overhead(benchmark, reporter, tmp_path):
    def run():
        config = RunConfig(maxsv=5_000, processors=1, perpass=1e9,
                           peraver=1e9, workdir=tmp_path)
        return Engine(SequentialBackend(), config).run(trivial)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.total_volume == 5_000
    reporter.line("sequential + result files: the save-point cycle "
                  "adds a fixed per-session cost, not per-realization")


def test_multiprocess_overhead(benchmark, reporter, tmp_path):
    def run():
        return parmonc(trivial, maxsv=5_000, processors=2,
                       backend="multiprocess", use_files=False,
                       workdir=tmp_path)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.total_volume == 5_000
    reporter.line("multiprocess backend: process spawn + IPC amortized "
                  "over 5000 realizations")


def test_batching_amortizes_overhead(benchmark, reporter):
    def run():
        wrapped = batched_realization(trivial, 100)
        config = RunConfig(maxsv=50, processors=1, perpass=1e9,
                           peraver=1e9)
        return Engine(SequentialBackend(), config,
                      use_files=False).run(wrapped)

    result = benchmark.pedantic(run, rounds=5, iterations=1)
    assert result.total_volume == 50
    reporter.line("batched(100): the same 5000 draws as the sequential "
                  "bench with 1/100th of the runtime bookkeeping")


def test_telemetry_overhead(benchmark, reporter, tmp_path):
    """Telemetry must be free when off and cheap when on."""
    import time

    def run(telemetry: bool):
        config = RunConfig(maxsv=5_000, processors=1, perpass=1e9,
                           peraver=1e9, telemetry=telemetry)
        return Engine(SequentialBackend(), config,
                      use_files=False).run(trivial)

    samples = {True: [], False: []}
    for _ in range(5):
        for flag in (False, True):
            began = time.perf_counter()
            result = run(flag)
            samples[flag].append(time.perf_counter() - began)
            assert result.total_volume == 5_000
    off, on = min(samples[False]), min(samples[True])
    ratio = on / off if off > 0 else float("nan")
    benchmark(run, False)
    reporter.metric("seconds_telemetry_off", off)
    reporter.metric("seconds_telemetry_on", on)
    reporter.metric("on_off_ratio", ratio)
    reporter.line(f"telemetry off: {off * 1e3:.2f} ms   "
                  f"on: {on * 1e3:.2f} ms   ratio {ratio:.3f} "
                  f"(5000 trivial realizations, best of 5)")
    reporter.line("the disabled path is the default path: every "
                  "instrumentation site hides behind `telemetry is "
                  "not None`")


def test_stream_positioning_overhead(benchmark, reporter):
    from repro.rng.streams import StreamTree
    tree = StreamTree()
    processor = tree.experiment(0).processor(0)

    def position_thousand():
        for index in range(1000):
            processor.realization(index)

    benchmark(position_thousand)
    reporter.line("1000 realization-stream placements per round "
                  "(three modular exponentiations each)")
