"""Smoke tests of the benchmark harness (outside tier-1 ``testpaths``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_bench_smoke.py -q

Every workload runs at ``--seconds 2`` with and without tracing and
must print exactly the metric names ``BENCHMARK.json`` lists; the
calibration kernel must not import ``repro``; never more than two
worker processes may be alive; no process the run started (not even
a zombie) may outlive it; and the correctness gate must trip when one
byte of the sequential reference is perturbed.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def worker_processes(harness_pid: int) -> int:
    """Children of the harness that are forks of it (the workers).

    Set-up probes and multiprocessing's resource tracker are children
    too, but run another command line.
    """
    count = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            command = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue  # the process ended between listing and reading
        parent = int(stat.rsplit(")", 1)[1].split()[1])
        if parent == harness_pid and b"run.py" in command:
            count += 1
    return count


def session_members(session: int) -> list[str]:
    """Command lines of the processes in ``session``, zombies included."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            command = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[3]) == session:
            members.append(command.replace(b"\0", b" ").decode() or "zombie")
    return members


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_the_listed_metrics(workload, trace):
    process = subprocess.Popen(
        [sys.executable, str(PERF / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "2", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True)
    peak = 0
    done = threading.Event()

    def watch() -> None:
        nonlocal peak
        while not done.wait(0.02):
            peak = max(peak, worker_processes(process.pid))

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        stdout, _ = process.communicate(timeout=170)
    finally:
        done.set()
        watcher.join(timeout=5)
        if process.poll() is None:
            process.kill()
    # Checked at once: a process that ends "soon after" still outlived
    # the run (the resource tracker of a traced run used to).
    assert session_members(process.pid) == []
    assert not watcher.is_alive()
    assert process.returncode == 0
    result = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert sorted(metric) == ["unit", "value"]
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert peak <= 2
    if trace:
        trace_file = PERF / "results" / f"trace_{workload}.json"
        spans = json.loads(trace_file.read_text())["spans"]
        assert {"name", "start_ns", "end_ns", "parent"} <= set(spans[0])


def test_calibration_kernel_never_imports_repro():
    tree = ast.parse((PERF / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(name.split(".")[0] == "repro" for name in imported)
    # ... and nothing it imports does either, with repro importable.
    subprocess.run(
        [sys.executable, "-c",
         "import sys, calibrate; calibrate.calibrate((0,)); "
         "assert not [m for m in sys.modules if m.split('.')[0] == 'repro']"],
        check=True, cwd=PERF,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def test_gate_trips_on_one_perturbed_reference_byte(monkeypatch, capsys):
    sys.path.insert(0, str(PERF))
    import run
    run.add_library_to_path()
    import workloads

    honest = workloads.sequential_reference

    def perturbed(seqnum, processors, maxsv):
        reference = bytearray(honest(seqnum, processors, maxsv))
        reference[len(reference) // 2] ^= 1
        return bytes(reference)

    monkeypatch.setattr(workloads, "sequential_reference", perturbed)
    code = run.main(["--workload", "fig2_seq_scalar", "--seed", "5",
                     "--seconds", "2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_benchmark_json_is_within_the_contract():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (SPEC["run_seconds"] + 5) <= 3420
