"""``--sweep`` (N sets of all workloads) and ``--compare`` (two sweeps).

A sweep file holds, per workload and end-to-end metric, one value per
set plus each run's own unit quartiles.  The comparison prints one row
per workload x metric: both medians with quartiles, the ratio with its
base, and a verdict against the bound in ``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, so the row cannot tell a regression from noise;
* ``ok``         — neither.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def sweep(spec: dict, sets: int, seed: int, seconds: float,
          out: Path) -> int:
    """Run every workload ``sets`` times, back to back; write ``out``."""
    results: dict = {entry["name"]: {} for entry in spec["workloads"]}
    diagnostics: dict = {workload: [] for workload in results}
    failed = 0
    for index in range(sets):
        for workload, metrics in results.items():
            completed = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(seed + index), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"set {index} {workload}: exit "
                      f"{completed.returncode}", file=sys.stderr)
                failed += 1
                continue
            last = json.loads(lines[-1])
            details = json.loads(lines[-2].removeprefix("DETAILS "))
            diagnostics[workload].append(details)
            for name, metric in last["metrics"].items():
                record = metrics.setdefault(
                    name, {"unit": metric["unit"], "values": [],
                           "runs": []})
                record["values"].append(metric["value"])
                record["runs"].append(details["quartiles"].get(name))
            print(f"set {index} {workload}: " + ", ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in last["metrics"].items()), flush=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"sets": sets, "seed": seed, "seconds": seconds,
         "failed_runs": failed, "results": results,
         "diagnostics": diagnostics}, indent=1) + "\n")
    return 1 if failed else 0


def spread(record: dict) -> tuple[float, float, float]:
    """(q1, median, q3) of a metric's run-to-run distribution.

    With four or more sets these are the quartiles of the set values.
    With fewer, the spread of a run's median is estimated from the
    run's own unit quartiles: for n samples with interquartile range
    IQR, medians of repeated runs have an IQR near 1.25 * IQR / sqrt(n).
    """
    values = record["values"]
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q1, median, q3
    half = 0.0
    for run in record["runs"]:
        if run and run["n"] >= 2:
            half = max(half, 0.625 * (run["q3"] - run["q1"])
                       / run["n"] ** 0.5)
    return median - half, median, median + half


def compare(spec: dict, path_a: Path, path_b: Path) -> int:
    """Print the verdict table; return 1 on any row that is not ``ok``."""
    side_a = json.loads(path_a.read_text())["results"]
    side_b = json.loads(path_b.read_text())["results"]
    print(f"A = {path_a}   B = {path_b}   ratio = B / A")
    print(f"{'workload':20s} {'metric':24s} {'A median [q1, q3]':>36s} "
          f"{'B median [q1, q3]':>36s} {'ratio':>7s} {'bound':>6s} verdict")
    worst = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            try:
                a1, a2, a3 = spread(side_a[workload][name])
                b1, b2, b3 = spread(side_b[workload][name])
            except KeyError:
                print(f"{workload:20s} {name:24s} missing from a file")
                worst = 1
                continue
            ratio = b2 / a2
            worse_by = (ratio - 1.0 if metric["better"] == "lower"
                        else 1.0 - ratio)
            noise = max((a3 - a1) / a2, (b3 - b1) / b2)
            if worse_by > metric["bound"]:
                verdict = "regressed"
            elif noise > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            worst |= verdict != "ok"
            print(f"{workload:20s} {name:24s} "
                  f"{a2:12.6g} [{a1:9.5g}, {a3:9.5g}] "
                  f"{b2:12.6g} [{b1:9.5g}, {b3:9.5g}] "
                  f"{ratio:7.3f} {metric['bound']:6.2f} {verdict}")
    return int(worst)
