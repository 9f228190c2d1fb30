"""Documentation-integrity tests: the docs must track the code.

Stale documentation is a bug class like any other; these tests pin the
load-bearing claims of README, docs/ and pyproject to the actual code.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import re
import tomllib
from pathlib import Path

import pytest


ROOT = Path(__file__).parent.parent


def read(relative: str) -> str:
    return (ROOT / relative).read_text()


class TestConsoleScripts:
    def test_every_declared_script_resolves(self):
        pyproject = tomllib.loads(read("pyproject.toml"))
        scripts = pyproject["project"]["scripts"]
        assert len(scripts) >= 5
        for name, target in scripts.items():
            module_name, _, attribute = target.partition(":")
            module = importlib.import_module(module_name)
            entry = getattr(module, attribute)
            assert callable(entry), name

    def test_readme_mentions_every_script(self):
        pyproject = tomllib.loads(read("pyproject.toml"))
        readme = read("README.md")
        for name in pyproject["project"]["scripts"]:
            assert name in readme, f"README does not mention {name}"

    def test_cli_doc_covers_every_script(self):
        pyproject = tomllib.loads(read("pyproject.toml"))
        cli_doc = read("docs/cli.md")
        for name in pyproject["project"]["scripts"]:
            assert name in cli_doc, f"docs/cli.md misses {name}"


class TestReadmeClaims:
    def test_quickstart_snippet_runs(self, tmp_path, monkeypatch):
        readme = read("README.md")
        match = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
        assert match, "README lost its quickstart snippet"
        snippet = match.group(1)
        monkeypatch.chdir(tmp_path)
        # Shrink the sample volume so the doc snippet stays fast.
        snippet = snippet.replace("200_000", "2_000")
        namespace: dict = {}
        exec(compile(snippet, "README-quickstart", "exec"), namespace)

    def test_architecture_section_names_real_packages(self):
        readme = read("README.md")
        for package in ("repro.rng", "repro.stats", "repro.runtime",
                        "repro.cluster", "repro.core", "repro.cli",
                        "repro.vr", "repro.qmc", "repro.apps"):
            assert package in readme
            importlib.import_module(package)

    def test_listed_examples_exist(self):
        readme = read("README.md")
        for match in re.finditer(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / match.group(1)).exists(), \
                match.group(0)

    def test_docs_files_exist(self):
        for name in ("rng.md", "protocol.md", "simulator.md",
                     "user-guide.md", "api.md", "cli.md",
                     "performance.md"):
            assert (ROOT / "docs" / name).exists(), name


class TestDesignInventory:
    def test_every_bench_in_design_exists(self):
        design = read("DESIGN.md")
        for match in re.finditer(r"benchmarks/(test_bench_\w+\.py)",
                                 design):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), \
                match.group(0)

    def test_experiments_references_real_benches(self):
        experiments = read("EXPERIMENTS.md")
        for match in re.finditer(r"`(test_bench_\w+\.py)", experiments):
            assert (ROOT / "benchmarks" / match.group(1)).exists(), \
                match.group(0)

    def test_design_names_every_subpackage(self):
        design = read("DESIGN.md")
        src = ROOT / "src" / "repro"
        subpackages = [p.name for p in src.iterdir()
                       if p.is_dir() and (p / "__init__.py").exists()]
        for name in subpackages:
            assert f"repro.{name}" in design or f"`{name}" in design, \
                f"DESIGN.md does not mention subpackage {name}"


class TestApiDocIntegrity:
    def test_top_level_items_in_api_doc_exist(self):
        import repro
        api = read("docs/api.md")
        # Every backtick-quoted bare identifier in the top-level table
        # that looks like an exported name must actually be exported.
        for name in ("parmonc", "MonteCarloRun", "batched_realization",
                     "rnd128", "Lcg128", "VectorLcg128", "StreamTree",
                     "RunConfig", "RunResult", "Estimates"):
            assert name in api
            assert hasattr(repro, name), name

    def test_apps_table_matches_modules(self):
        api = read("docs/api.md")
        apps_dir = ROOT / "src" / "repro" / "apps"
        modules = {p.stem for p in apps_dir.glob("*.py")
                   if p.stem != "__init__"}
        for module in modules:
            assert f"`{module}`" in api, \
                f"docs/api.md apps table misses {module}"


class TestOneRunLoop:
    def test_exactly_one_function_polls_the_backend(self):
        # docs/architecture.md: step() is the only loop body.  A second
        # driver calling backend.poll( must not quietly come back.
        functions = re.split(r"\n    def ", read(
            "src/repro/runtime/scheduler.py"))[1:]
        assert [body.split("(")[0] for body in functions
                if "backend.poll(" in body] == ["step"]


class TestOneSameHostPath:
    # docs/reduction.md "Why the ring was removed": the same-host hop is
    # mp.Queue alone, and no option selects anything else.

    def test_no_transport_parameter_anywhere(self):
        from repro import parmonc
        from repro.cli.run import build_parser
        from repro.runtime.config import RunConfig

        assert "transport" not in inspect.signature(parmonc).parameters
        assert "transport" not in {
            field.name for field in dataclasses.fields(RunConfig)}
        with pytest.raises(TypeError):
            RunConfig(transport="shm")
        with pytest.raises(TypeError):
            parmonc(lambda rng: 0.0, transport="shm")
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mod:fn", "--maxsv", "1", "--transport", "shm"])

    def test_nothing_under_src_imports_the_ring(self):
        # runtime/shm.py survives only for the frozen benchmark harness;
        # same check as `grep -rn "runtime.shm\|runtime import shm"`.
        pattern = re.compile(r"runtime.shm|runtime import shm")
        offenders = [
            str(path.relative_to(ROOT))
            for path in (ROOT / "src" / "repro").rglob("*.py")
            if pattern.search(path.read_text())]
        assert offenders == []


class TestOneContextSource:
    # docs/architecture.md "One context source": backends read a job's
    # routine, config, collector, telemetry and deadline through
    # job_context() alone, a pass is tagged where it is built, and one
    # function is the body of every worker process.

    def test_scheduler_and_backends_impersonate_no_job(self):
        from repro.runtime.engine import EngineBackend, create_backend
        from repro.runtime.scheduler import Scheduler

        backend = create_backend("sequential")
        scheduler = Scheduler(backend)
        backend.bind(scheduler)
        assert isinstance(backend, EngineBackend)
        assert vars(backend).keys() >= {"engine"}
        for name in ("routine", "config", "collector", "deadline"):
            assert not hasattr(backend, name), name
            assert not hasattr(scheduler, name), name
        assert not hasattr(scheduler, "telemetry")

    def test_nobody_knows_a_solo_session_shape(self):
        # docs/architecture.md "One way in, one way out".  The
        # scheduler's one remaining look at the anonymous id is
        # sla_report's named-jobs filter; no module gives a solo run
        # its own wire session.
        scheduler = read("src/repro/runtime/scheduler.py")
        assert len(re.findall(r"id is (?:not )?None", scheduler)) == 1
        assert not re.search(r"engine\.(routine|config|collector)\b",
                             read("src/repro/runtime/engine.py"))
        for module in ("distributed", "pool"):
            source = read(f"src/repro/runtime/{module}.py")
            assert not re.search(r"_solo|streaming", source), module

    def test_passes_are_tagged_only_where_they_are_built(self):
        from repro.runtime.messages import message_to_payload

        for module in ("multiprocess", "sequential", "pool"):
            source = read(f"src/repro/runtime/{module}.py")
            assert not re.search(r"import.*\breplace\b|replace\(",
                                 source), module
        assert list(inspect.signature(message_to_payload).parameters) \
            == ["message"]

    def test_exactly_one_worker_process_target(self):
        targets = [
            match
            for path in (ROOT / "src" / "repro").rglob("*.py")
            for match in re.findall(r"\.Process\(\s*target=(\w+)",
                                    path.read_text())]
        assert sorted(set(targets)) == ["run_reducer", "worker_process"]
        assert targets.count("worker_process") == 2  # queue and pool
        definitions = [
            str(path.relative_to(ROOT))
            for path in (ROOT / "src" / "repro").rglob("*.py")
            if re.search(r"^def worker_process\(", path.read_text(), re.M)]
        assert definitions == ["src/repro/runtime/worker.py"]


class TestOneWorkerBody:
    # docs/architecture.md "One worker body, two clocks": WorkerBody is
    # the only code that places a realization's substream, instantiates
    # a worker's statistics, applies the perpass rule or builds a pass;
    # run_worker and the simulated cluster are drivers.

    SOURCES = {
        str(path.relative_to(ROOT / "src" / "repro")): path.read_text()
        for package in ("runtime", "cluster")
        for path in (ROOT / "src" / "repro" / package).glob("*.py")
        if path.name != "shm.py"}  # frozen, for the benchmark harness

    def _sites(self, pattern):
        return {name: len(re.findall(pattern, source))
                for name, source in self.SOURCES.items()
                if re.search(pattern, source)}

    def test_stepping_rule_and_pass_are_written_once(self):
        # Placement: ProcessorStream.realization / .realization_block,
        # called or bound (WorkerTelemetry.realization is a counter).
        assert self._sites(r"stream\w*\.realization(?:_block)?\b"
                           r"|(?<!telemetry)\.realization(?:_block)?\(") \
            == {"runtime/worker.py": 2}
        assert self._sites(r"StatisticSet\.for_run\(") \
            == {"runtime/worker.py": 1}
        assert self._sites(r">=\s*(?:\w+\.)*perpass\b") \
            == {"runtime/worker.py": 1}
        # The decoder in messages.py rebuilds a pass from its bytes;
        # nothing else constructs one.
        assert self._sites(r"(?<![\w`])MomentMessage\(") \
            == {"runtime/worker.py": 1, "runtime/messages.py": 1}

    def test_run_worker_is_one_loop_over_the_body(self):
        from repro.runtime.worker import run_worker

        source = inspect.getsource(run_worker)
        assert len(re.findall(r"^\s+(?:while|for)\b", source, re.M)) == 1
        assert "WorkerBody(" in source
        simulation = self.SOURCES["cluster/simulation.py"]
        assert "WorkerBody(" in simulation
        for name in ("StreamTree", "StatisticSet", "adapt_realization"):
            assert name not in simulation, name


def _square(rng):
    return rng.random() ** 2


class TestOneWayInOneWayOut:
    # docs/architecture.md "The backend contract": a job enters a
    # backend through open_job and leaves it through release_job,
    # exactly once each, however it ends; EngineBackend is the one
    # declaration of both and the loop probes for neither.

    def test_the_loop_reads_declared_attributes_only(self):
        from repro.runtime import engine

        for module in ("scheduler", "job"):
            source = read(f"src/repro/runtime/{module}.py")
            assert not re.search(r"getattr\(\s*(self\._)?backend", source), \
                module
        assert engine.Backend is engine.EngineBackend
        declared = vars(engine.EngineBackend)
        assert {"open_job", "release_job", "supports_shared_jobs",
                "supports_job_reduction", "monitors_staleness"} <= set(
                    declared)

    def test_the_four_probed_hooks_are_gone(self):
        retired = re.compile(r"\b(announce_job|prepare_job|cancel_job)\b")
        offenders = [
            str(path.relative_to(ROOT))
            for path in (ROOT / "src" / "repro").rglob("*.py")
            if retired.search(path.read_text())]
        assert offenders == []

    @staticmethod
    def _service(workers=None):
        from repro.runtime.engine import WorkerDeath
        from repro.runtime.scheduler import Scheduler
        from repro.runtime.sequential import SequentialBackend

        class Recording(SequentialBackend):
            def __init__(self):
                super().__init__()
                self.opened, self.released, self.deaths = [], [], []

            def open_job(self, job):
                self.opened.append((job.id, job.status))
                super().open_job(job)

            def release_job(self, job_id):
                status = self.engine.job_context(job_id).status
                self.released.append((job_id, status))
                super().release_job(job_id)

            def reap(self):
                deaths, self.deaths = self.deaths, []
                return deaths

        backend = Recording()
        return backend, Scheduler(backend, workers=workers), WorkerDeath

    @staticmethod
    def _spec(name, processors=2, **config):
        from repro.runtime.config import RunConfig
        from repro.runtime.job import JobSpec

        return JobSpec(routine=_square, name=name, use_files=False,
                       config=RunConfig(maxsv=4 * processors,
                                        processors=processors, perpass=0.0,
                                        peraver=0.0, **config))

    @staticmethod
    def _finish(scheduler, job):
        for _ in range(1000):
            if job.finished.is_set():
                return
            scheduler.step(poll_timeout=0.0)
        raise AssertionError(f"{job.id} never finished")

    @pytest.mark.parametrize("ending", [
        "done", "failed", "cancelled-queued", "cancelled-running",
        "deadline"])
    def test_opened_once_released_once_however_the_job_ends(self, ending):
        backend, scheduler, WorkerDeath = self._service(
            workers=1 if ending == "deadline" else None)
        config = {"time_limit": 1e-6} if ending == "deadline" else {}
        job = scheduler.submit(self._spec("j", processors=3, **config))
        if ending == "cancelled-queued":
            assert scheduler.cancel(job) is True
        elif ending == "failed":
            # Rank 0 runs in the first turn's poll; rank 2 "dies" before
            # its turn, and the default policy fails the job.
            backend.deaths = [WorkerDeath(2, 3, job="j")]
        elif ending == "cancelled-running":
            scheduler.step(poll_timeout=0.0)
            assert job.status == "running"
            assert scheduler.cancel(job) is True
        self._finish(scheduler, job)
        assert job.status == {
            "done": "done", "failed": "failed", "deadline": "done",
            "cancelled-queued": "cancelled",
            "cancelled-running": "cancelled"}[ending]
        if ending == "cancelled-queued":
            # Never opened, so never released.
            assert backend.opened == backend.released == []
        else:
            assert backend.opened == [("j", "queued")]
            assert [job_id for job_id, _ in backend.released] == ["j"]
            # Released on the way out of RUNNING, before the terminal
            # state wakes anyone who might prune the job.
            assert backend.released[0][1] in ("running", "draining")
            assert not backend._pending
        if ending == "deadline":
            assert job.completed is False
        scheduler.shutdown()
        assert len(backend.released) <= 1
