"""§2.4 capacity table: period and hierarchy arithmetic.

Regenerates every number of the section: the 2**126 period, the
recommendation to use the first half only, the default leap lengths,
and the "10**3 experiments x 10**5 processors x 10**16 realizations"
capacity claims.
"""

from __future__ import annotations

import pytest

from repro.rng.multiplier import (
    BASE_MULTIPLIER,
    DEFAULT_LEAPS,
    MODULUS,
    PERIOD,
    RECOMMENDED_LIMIT,
)


def compute_table():
    leaps = DEFAULT_LEAPS
    return {
        "modulus": MODULUS,
        "multiplier": BASE_MULTIPLIER,
        "period": PERIOD,
        "recommended": RECOMMENDED_LIMIT,
        "n_e": leaps.experiment_leap,
        "n_p": leaps.processor_leap,
        "n_r": leaps.realization_leap,
        "experiments": leaps.experiment_capacity,
        "processors": leaps.processor_capacity,
        "realizations": leaps.realization_capacity,
        "A_ne": leaps.multipliers()[0],
        "order_check": pow(BASE_MULTIPLIER, PERIOD // 2, MODULUS) != 1,
    }


def test_capacity_table(benchmark, reporter):
    table = benchmark(compute_table)
    reporter.line("§2.4 generator and hierarchy parameters")
    reporter.line(f"modulus            : 2**128")
    reporter.line(f"multiplier A       : 5**101 mod 2**128 = "
                  f"{table['multiplier']}")
    reporter.line(f"period             : 2**126 ~ "
                  f"{float(table['period']):.2e}  (paper: ~10**38)")
    reporter.line(f"recommended use    : first 2**125 numbers")
    reporter.line(f"n_e                : 2**115 ~ "
                  f"{float(table['n_e']):.2e}")
    reporter.line(f"n_p                : 2**98  ~ "
                  f"{float(table['n_p']):.2e}")
    reporter.line(f"n_r                : 2**43  ~ "
                  f"{float(table['n_r']):.2e}  (paper: ~10**13)")
    reporter.line(f"experiments        : 2**10 = {table['experiments']}"
                  f"  (paper: ~10**3)")
    reporter.line(f"processors/exp     : 2**17 = {table['processors']}"
                  f"  (paper: ~10**5)")
    reporter.line(f"realizations/proc  : 2**55 = {table['realizations']}"
                  f"  (paper: ~10**16)")
    # The claims, asserted.
    assert table["period"] == 2 ** 126
    assert table["recommended"] == 2 ** 125
    assert table["experiments"] == 2 ** 10
    assert table["processors"] == 2 ** 17
    assert table["realizations"] == 2 ** 55
    # 2**126 ~ 8.5e37, which the paper rounds to "~10**38".
    assert 5e37 < float(table["period"]) < 2e38
    assert 8e12 < float(table["n_r"]) < 9e12  # "~10**13"
    assert table["order_check"], "multiplier order is the full 2**126"
    reporter.line("all §2.4 capacity figures reproduced exactly")


def test_leap_multiplier_cost(benchmark, reporter):
    """genparam-style multiplier computation is cheap (ms, not hours)."""
    result = benchmark(DEFAULT_LEAPS.multipliers)
    assert len(result) == 3
    reporter.line("computing A(n_e), A(n_p), A(n_r) by modular "
                  "exponentiation: see timing table")


@pytest.mark.parametrize("processors", [1, 512, 2 ** 17])
def test_stream_placement_cost(benchmark, reporter, processors):
    """Positioning the last processor's stream is O(log n) — instant."""
    from repro.rng.streams import StreamTree
    tree = StreamTree()
    generator = benchmark(tree.rng, 0, processors - 1, 0)
    assert generator.state % 2 == 1
    reporter.line(f"stream head for processor {processors - 1}: computed "
                  f"via modular exponentiation (see timing table)")


def test_full_capacity_cluster_run(benchmark, reporter):
    """§1's "practically infinite" processors: a 2**17-processor run.

    The hierarchy's entire per-experiment processor capacity (131072
    streams — the paper's "10**5 processors at most") is exercised in
    one simulated session, one realization per processor, with
    per-realization exchange.  Beyond the arithmetic, this certifies
    the runtime itself scales to the hierarchy bound.
    """
    from repro.cluster import ClusterSpec, DurationModel
    from repro.runtime.config import RunConfig
    from repro.runtime.engine import Engine
    from repro.runtime.simcluster import SimclusterBackend

    processors = 2 ** 17

    def run():
        return Engine(
            SimclusterBackend(
                ClusterSpec(duration_model=DurationModel(mean=7.7)),
                execute_realizations=False),
            RunConfig(maxsv=processors, processors=processors,
                      perpass=0.0, peraver=3600.0),
            use_files=False).run(None)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    reporter.line(f"one session on the full hierarchy width: "
                  f"M = {processors} processors, 1 realization each")
    reporter.line(f"T_comp = {result.virtual_time:.2f} virtual s "
                  f"(compute is 7.7 s; the rest is the exchange tail)")
    reporter.line(f"messages received: {result.messages_received}")
    assert result.session_volume == processors
    assert all(volume == 1
               for volume in result.per_rank_volumes.values())
    # The exchange tail is collector-bound: 2*M messages at 200us each.
    assert result.virtual_time < 7.7 + 2 * processors * 250e-6
    reporter.line("the PARMONC hierarchy and runtime sustain the full "
                  "2**17-processor width  [reproduced]")
