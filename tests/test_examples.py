"""Every bundled example runs green and prints what it is about.

Each example runs in a subprocess with the repository's Python, at the
smoke size ``PARMONC_BENCH_SMOKE=1`` selects, so the suite still runs
every example end to end, in-script assertions included.  With
``PARMONC_BENCH_SMOKE`` already set, empty included, the examples take
that value instead: ``PARMONC_BENCH_SMOKE= pytest tests/test_examples.py``
runs them at full size, as the examples CI job does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

EXAMPLES = [
    ("quickstart.py", "pi estimate"),
    ("cluster_scaling.py", "speedup"),
    ("hybrid_gpu_cluster.py", "hybrid cluster"),
    ("sde_diffusion.py", "trajectories simulated"),
    ("population_biology.py", "supercritical"),
    ("resume_workflow.py", "manaver recovered"),
    ("radiation_transport.py", "pure-absorption"),
    ("variance_reduction.py", "variance reduction"),
    ("convergence_monitoring.py", "save-points"),
    ("quasi_monte_carlo.py", "fibonacci lattice"),
    ("pde_laplace.py", "dirichlet problem"),
    ("chemical_kinetics.py", "coagulation"),
]


@pytest.mark.parametrize("name,marker", EXAMPLES)
def test_example(name, marker):
    # The examples are checked for what they print, not for what would
    # survive a power cut: durability is pinned by the crashpoint suites
    # (which force durable_writes(True)), so the fsyncs are skipped here.
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=420,
        env={"PARMONC_BENCH_SMOKE": "1", **os.environ,
             "PARMONC_NO_FSYNC": "1"})
    assert result.returncode == 0, (name, result.stderr[-2000:])
    assert marker.lower() in result.stdout.lower(), result.stdout


def test_every_example_is_covered():
    on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    listed = {name for name, _ in EXAMPLES}
    assert on_disk == listed, (
        "examples on disk and in the smoke-test list diverge: "
        f"{on_disk ^ listed}")
