"""The repository's benchmark: ``python3 benchmarks/perf/run.py``.

One run measures one workload::

    run.py --workload fig2_seq_scalar --seed 7 --seconds 30 --trace 0

and prints, as the last line of standard output, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  ``--sweep N --out f.json`` runs
all workloads N times and ``--compare a.json b.json`` judges two such
files against the bounds in ``BENCHMARK.json``.  README.md explains
the workloads, the metrics and the calibration rule.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Fresh interpreters timed for ``setup_s`` in a full-length run.
SETUP_SAMPLES = 5
#: Units every run measures however short ``--seconds`` is.
MIN_UNITS = 3


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def add_library_to_path() -> None:
    """Make this checkout's ``repro`` (and no other) importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
            f"the library of the checkout it sits in")
    sys.path[:0] = [str(ROOT / "src"), str(PERF)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); degenerate for fewer than two values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


# ---------------------------------------------------------------------------
# Machine calibration

@dataclass
class Timing:
    """One measured call: raw seconds and the machine factors around it."""

    wall: float
    cpu: float
    wall_factor: float
    cpu_factor: float


def cpu_seconds() -> float:
    """User+system CPU of this process and every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Machine:
    """Brackets measured calls with the calibration kernel.

    The calibration after one call doubles as the one before the next,
    so back-to-back units cost one calibration each.
    """

    def __init__(self) -> None:
        from calibrate import calibrate
        self._calibrate = calibrate
        self.all_cpus = tuple(sorted(os.sched_getaffinity(0)))
        self.cpus = self.all_cpus
        self._last = calibrate(self.cpus)
        self.wall_factors: list[float] = []

    def pin(self, cpus: tuple[int, ...]) -> None:
        """Confine this thread, and what it starts, to ``cpus``.

        Calibrations follow: they measure the CPUs the work runs on.
        """
        os.sched_setaffinity(0, set(cpus))
        self.cpus = cpus
        self._last = self._calibrate(cpus)

    def measure(self, call):
        """Run ``call()``; return ``(its result, Timing)``."""
        before = self._last
        cpu = cpu_seconds()
        wall = time.perf_counter()
        result = call()
        wall = time.perf_counter() - wall
        cpu = cpu_seconds() - cpu
        after = self._last = self._calibrate(self.cpus)
        timing = Timing(wall, cpu, (before[0] + after[0]) / 2,
                        (before[1] + after[1]) / 2)
        self.wall_factors.append(timing.wall_factor)
        return result, timing


# ---------------------------------------------------------------------------
# One run

def time_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter to "ready to dispatch"."""
    began = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(PERF / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True)
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - began
        process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"set-up probe failed for {workload}")
    return elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    add_library_to_path()
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    began = time.perf_counter()
    spec = load_spec()
    tracer = Tracer()
    tracer.enabled = trace
    machine = Machine()
    workdir = PERF / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir, tracer)
    units, probes, setups = [], [], []
    layer_metrics: dict[str, float] = {}
    sealed_run_s = 0.0
    try:
        with tracer.span("run", workload=name, seed=seed) as root:
            tracer.thread_root = root
            with tracer.span("setup.references"):
                workload.prepare_references()
            # Single-threaded measurements (set-up probes, layer
            # micro-measurements) run on one CPU, where the
            # calibrations either side of them run too; a single-
            # process workload stays there, the others get every CPU.
            machine.pin(machine.all_cpus[:1])
            if trace:
                layer_metrics = layers.measure_layers(
                    tracer, machine, workdir)
            else:
                samples = SETUP_SAMPLES if seconds >= 20 else 2
                for _ in range(samples):
                    setups.append(machine.measure(
                        lambda: time_setup(name, seed)))
            if workload.transport != "none":
                machine.pin(machine.all_cpus)
            with tracer.span("setup.start"):
                workload.start()
            if trace and hasattr(workload, "sealed_run_seconds"):
                with tracer.span("runtime.distributed.sealed_run"):
                    sealed_run_s, timing = machine.measure(
                        workload.sealed_run_seconds)
                sealed_run_s /= timing.wall_factor
            # Warm-up: lets lazy imports, the first fork and the pool
            # connection finish before anything is timed.
            workload.run_unit(-1)
            workload.cleanup_unit(-1)
            deadline = began + seconds
            while True:
                index = len(units)
                # Traced runs alternate spans on and off, so the cost of
                # tracing is measured within one run.
                tracer.enabled = trace and index % 2 == 0
                with tracer.span("unit", index=index) as span:
                    tracer.thread_root = span
                    outcome, timing = machine.measure(
                        lambda: workload.run_unit(index))
                tracer.thread_root = root
                tracer.enabled = trace
                workload.cleanup_unit(index)
                units.append((outcome, timing, index % 2 == 0))
                if trace:
                    with tracer.span("probe", index=len(probes)):
                        probes.append(machine.measure(
                            lambda: workload.probe(len(probes))))
                typical = statistics.median(t.wall for _, t, _ in units)
                if len(units) >= MIN_UNITS and \
                        time.perf_counter() + 2.0 * typical > deadline:
                    break
            with tracer.span("teardown"):
                workload.stop()
    finally:
        workload.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    report = Report(name, seed, workload, machine, units, probes, setups)
    if trace:
        metrics = report.per_layer(layer_metrics, sealed_run_s)
        report.print_budget()
        tracer.write(PERF / "results" / f"trace_{name}.json",
                     workload=name, seed=seed, budget=report.budget)
    else:
        metrics = report.end_to_end()
    expected = [entry["name"] for entry in
                spec["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(expected):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(expected))}")
    units_of = {entry["name"]: entry["unit"] for entry in
                spec["end_to_end"] + spec["per_layer"]}
    print("DETAILS " + json.dumps(report.details))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {key: {"value": metrics[key], "unit": units_of[key]}
                    for key in expected},
    }))
    return 0 if report.failed == 0 else 1


class Report:
    """Turns a run's raw samples into the named metrics."""

    def __init__(self, name, seed, workload, machine, units, probes,
                 setups) -> None:
        self.workload = workload
        self.units = units
        outcomes = ([outcome for outcome, _, _ in units]
                    + [outcome for outcome, _ in probes])
        self.attempted = sum(o.attempted for o in outcomes)
        self.failed = sum(o.failed for o in outcomes)
        done = [(o, t) for o, t, _ in units if o.realizations]
        #: Per metric: (raw, calibrated) samples.
        self.samples = {
            "realizations_per_s": [
                (o.realizations / t.wall,
                 o.realizations / (t.wall / t.wall_factor))
                for o, t in done],
            "cpu_us_per_realization": [
                (t.cpu / o.realizations * 1e6,
                 t.cpu / t.cpu_factor / o.realizations * 1e6)
                for o, t in done],
            "first_estimate_s": [
                (o.first_estimate_s, o.first_estimate_s / t.wall_factor)
                for o, t in probes if o.first_estimate_s is not None],
            "setup_s": [(seconds, seconds / t.wall_factor)
                        for seconds, t in setups],
        }
        self.budget: dict[str, float] = {}
        factor_q1, factor_p50, factor_q3 = quartiles(machine.wall_factors)
        self.machine_factor = (factor_p50, factor_q3 - factor_q1)
        self.details = {
            "workload": name, "seed": seed, "units": len(units),
            "errors": [e for o in outcomes for e in o.errors][:10],
            "machine_factor_p50": factor_p50,
            "machine_factor_iqr": factor_q3 - factor_q1,
            "raw": {key: statistics.median(raw for raw, _ in values)
                    for key, values in self.samples.items() if values},
            "quartiles": {
                key: dict(zip(("q1", "median", "q3"),
                              quartiles([cal for _, cal in values])),
                          n=len(values))
                for key, values in self.samples.items() if values},
        }

    def _median(self, key: str) -> float:
        values = self.samples[key]
        if not values:
            raise SystemExit(f"no successful sample of {key}")
        return statistics.median(calibrated for _, calibrated in values)

    def end_to_end(self) -> dict[str, float]:
        rss_kb = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        return {
            "realizations_per_s": self._median("realizations_per_s"),
            "cpu_us_per_realization":
                self._median("cpu_us_per_realization"),
            "peak_rss_mb": rss_kb / 1024,
            "setup_s": self._median("setup_s"),
        }

    # -- traced runs -----------------------------------------------------

    def per_layer(self, layers_ns: dict[str, float],
                  sealed_run_s: float) -> dict[str, float]:
        import layers
        workload = self.workload
        outcomes = [o for o, _, _ in self.units]
        realizations = sum(o.realizations for o in outcomes)
        messages = sum(o.messages for o in outcomes)
        saves = sum(o.saves for o in outcomes)
        jobs = sum(len(o.latencies) for o in outcomes)
        metrics = dict(layers_ns)
        metrics["first_estimate_s"] = self._median("first_estimate_s")
        metrics["runtime.distributed.sealed_run_s"] = sealed_run_s
        metrics["runtime.collector.messages_per_realization"] = \
            messages / realizations
        metrics["runtime.collector.saves_per_unit"] = saves / len(outcomes)

        stamps = [s for o in outcomes for s in o.state_times]

        def state_p50(start: str, end: str) -> float:
            waits = [s[end] - s[start] for s in stamps
                     if start in s and end in s]
            return statistics.median(waits) if waits else 0.0

        metrics["runtime.scheduler.queued_wait_p50_s"] = \
            state_p50("queued", "running")
        metrics["runtime.scheduler.running_p50_s"] = \
            state_p50("running", "draining")
        metrics["runtime.scheduler.draining_p50_s"] = \
            state_p50("draining", "done")
        latencies = [x for o in outcomes for x in o.latencies]
        metrics["runtime.scheduler.job_latency_p50_s"] = \
            statistics.median(latencies) if latencies else 0.0
        metrics["runtime.scheduler.job_latency_p90_s"] = \
            percentile(latencies, 0.9) if latencies else 0.0

        def unit_seconds(traced: bool) -> float:
            return statistics.median(
                t.wall / t.wall_factor
                for _, t, was_traced in self.units if was_traced == traced)

        untraced = unit_seconds(False)
        metrics["trace.overhead_ratio"] = unit_seconds(True) / untraced
        per_unit = realizations / len(outcomes)
        self.budget = layers.layer_budget(
            layers_ns, transport=workload.transport,
            parallel_workers=workload.parallel_workers,
            unit_ns=untraced * 1e9, realizations=per_unit,
            messages=messages / len(outcomes),
            saves=saves / len(outcomes), jobs=jobs / len(outcomes),
            writes_files=workload.durable)
        total_ns = untraced * 1e9 / per_unit
        for layer, ns in self.budget.items():
            metrics[f"budget.{layer}_share"] = ns / total_ns
        metrics["raw.realizations_per_s"] = \
            self.details["raw"]["realizations_per_s"]
        metrics["machine_factor_p50"], metrics["machine_factor_iqr"] = \
            self.machine_factor
        return metrics

    def print_budget(self) -> None:
        total = sum(self.budget.values())
        print(f"layer budget of {self.workload.name}, calibrated "
              f"ns per realization (unit = {total:,.0f} ns):")
        for layer, ns in self.budget.items():
            print(f"  {layer:24s} {ns:14,.0f} ns  {ns / total:7.1%}")


# ---------------------------------------------------------------------------
# Leaving no process behind

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent ends.

    A worker orphaned by a set-up probe or by the pool daemon then
    shows up among :func:`children` instead of escaping to init.
    """
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: only direct children can be found


def children() -> list[int]:
    """Process ids whose parent is this process (zombies included)."""
    mine = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended between listing and reading
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            mine.append(int(entry))
    return mine


def kill_children(spare: int | None = None) -> None:
    """Kill and reap every child but ``spare``, and those they leave."""
    for _ in range(100):  # killed parents hand their children to us
        pids = [pid for pid in children() if pid != spare]
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def stop_all_processes() -> None:
    """Stop every process this run started; wait until each has ended.

    multiprocessing's resource tracker (started by the first shared-
    memory segment of a traced run) only ends when its pipe closes,
    which otherwise happens *after* this process is gone; closing it
    here and waiting makes the exit of the harness the end of the run.
    Whatever else is still alive by now is a leak and is killed —
    first, because a forked worker holds the tracker's pipe open too.
    """
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    kill_children(spare=getattr(tracker, "_pid", None))
    try:
        tracker._stop()
    except Exception:
        pass  # another Python's tracker: the sweep below kills it
    kill_children()


# ---------------------------------------------------------------------------
# Command line

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", type=int, metavar="N",
                        help="run every workload N times (seeds seed..)")
    parser.add_argument("--out", type=Path, help="result file of --sweep")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    spec = load_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if args.compare:
        import compare
        return compare.compare(spec, *args.compare)
    if args.sweep:
        import compare
        if args.out is None:
            parser.error("--sweep needs --out")
        return compare.sweep(spec, args.sweep, args.seed, seconds,
                             args.out)
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    return run_workload(args.workload, args.seed, seconds,
                        bool(args.trace))


if __name__ == "__main__":
    adopt_orphans()
    try:
        code = main()
    finally:
        stop_all_processes()
    sys.exit(code)
