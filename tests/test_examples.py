"""Smoke tests: every bundled example must run green.

Each example is executed in a subprocess with the repository's Python;
slower examples are exercised with reduced workloads elsewhere, so here
we simply require a clean exit and sane output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    ("quickstart.py", "pi estimate"),
    ("cluster_scaling.py", "speedup"),
    ("hybrid_gpu_cluster.py", "hybrid cluster"),
    ("sde_diffusion.py", "trajectories simulated"),
    ("population_biology.py", "supercritical"),
    ("resume_workflow.py", "manaver recovered"),
]

SLOW_EXAMPLES = [
    ("radiation_transport.py", "pure-absorption"),
    ("variance_reduction.py", "variance reduction"),
    ("convergence_monitoring.py", "save-points"),
    ("quasi_monte_carlo.py", "fibonacci lattice"),
    ("pde_laplace.py", "dirichlet problem"),
    ("chemical_kinetics.py", "coagulation"),
]


def run_example(name: str) -> str:
    # The examples are checked for what they print, not for what would
    # survive a power cut: durability is pinned by the crashpoint suites
    # (which force durable_writes(True)), so the fsyncs are skipped here.
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=420,
        env={**os.environ, "PARMONC_NO_FSYNC": "1"})
    assert result.returncode == 0, (name, result.stderr[-2000:])
    return result.stdout


@pytest.mark.parametrize("name,marker", FAST_EXAMPLES)
def test_fast_example(name, marker):
    output = run_example(name)
    assert marker.lower() in output.lower(), output


@pytest.mark.slow
@pytest.mark.parametrize("name,marker", SLOW_EXAMPLES)
def test_slow_example(name, marker):
    output = run_example(name)
    assert marker.lower() in output.lower(), output


def test_every_example_is_covered():
    on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    listed = {name for name, _ in FAST_EXAMPLES + SLOW_EXAMPLES}
    assert on_disk == listed, (
        "examples on disk and in the smoke-test lists diverge: "
        f"{on_disk ^ listed}")
