"""Documentation-integrity tests: the docs must track the code.

Stale documentation is a bug class like any other; these tests pin the
load-bearing claims of README, docs/ and pyproject to the actual code.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
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


SRC = ROOT / "src" / "repro"
EVERYWHERE = "**/*.py"
WORKER_PROCESS = "repro.runtime.worker:worker_process"
RUN_WORKER = "repro.runtime.worker:run_worker"
SCHEDULER = "runtime/scheduler.py"
DISTRIBUTED = "runtime/distributed.py"
POOL = "runtime/pool.py"
MULTIPROCESS = "runtime/multiprocess.py"
WORKER = "runtime/worker.py"
# The frozen benchmark harness's same-host ring still builds passes.
SHM = "runtime/shm.py"


def _sources(where) -> dict[str, str]:
    """``{name: source}`` of each glob under src/repro (a path relative to
    it) and of each ``module:qualname`` (that object's source)."""
    sources = {}
    for each in (where,) if isinstance(where, str) else where:
        if ":" not in each:
            sources.update((str(path.relative_to(SRC)), path.read_text())
                           for path in sorted(SRC.glob(each)))
            continue
        module, _, qualname = each.partition(":")
        target = importlib.import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
        sources[each] = inspect.getsource(target)
    return sources


# One row per source-shape guard: (id, pattern, where, expected, why).
# ``expected`` maps every source the pattern matches to its number of
# matches, so {} means "nowhere".  The sections named are in
# docs/architecture.md unless another document is named.
SOURCE_SHAPES = [
    ("one-run-loop", r"backend\.poll\(",
     (EVERYWHERE, "repro.runtime.scheduler:Scheduler.step"),
     {SCHEDULER: 1, "repro.runtime.scheduler:Scheduler.step": 1},
     "Scheduler.step() is the only loop body: no second driver polls"),
    ("no-ring", r"runtime.shm|runtime import shm", EVERYWHERE, {},
     "docs/reduction.md 'Why the ring was removed': the same-host hop is "
     "one pipe per worker; runtime/shm.py is kept for the benchmark only"),
    ("no-grace-timer", r"\b(?:DrainBuffer|ExitVerdicts)\b", EVERYWHERE, {},
     "'Judged once everything is in': no grace timer, no drain buffer"),
    ("no-death-verdict-reads-a-clock", r"clock\(|time\.|monotonic",
     ("repro.runtime.multiprocess:MultiprocessBackend.reap",
      "repro.runtime.distributed:DistributedBackend.reap",
      "repro.runtime.simcluster:SimclusterBackend.reap"), {},
     "'Judged once everything is in': a death follows message order"),
    ("reap-reads-no-collector", r"final_ranks|\.collector\b",
     ("repro.runtime.multiprocess:MultiprocessBackend.reap",
      "repro.runtime.distributed:DistributedBackend.reap",
      "repro.runtime.simcluster:SimclusterBackend.reap"), {},
     "'Judged once everything is in': the backend decides when an exit "
     "is reported, the job whether it was a death"),
    ("no-done-member", r"\bdef\s+done\b|\.done\b", EVERYWHERE,
     {}, "'Judged once everything is in': a job completes when nothing "
     "is pending or in flight; no backend says it is done"),
    ("no-dead-ranks", r"\bdead_rank[s]\b", EVERYWHERE, {},
     "'Judged once everything is in': the simulated cluster reports a "
     "failed node's exit; the job judges it"),
    ("simulator-reads-no-policy", r"on_worker_death",
     ("runtime/simcluster.py", "cluster/simulation.py"), {},
     "'Judged once everything is in': the death policy is the job's, on "
     "the simulated cluster too"),
    ("collector-keeps-no-liveness",
     r"last_seen|stale_workers|mark_epoch|rerun_rank|_epoch",
     "runtime/collector.py", {},
     "'Fault-tolerant quota reassignment': the job keeps the watermarks; "
     "the collector collects, averages and saves"),
    ("one-anonymous-id-check", r"id is (?:not )?None", SCHEDULER,
     {SCHEDULER: 1},
     "'One way in, one way out': sla_report's named-jobs filter is the "
     "scheduler's one look at the anonymous job id"),
    ("engine-impersonates-no-job", r"engine\.(?:routine|config|collector)\b",
     "runtime/engine.py", {},
     "'One context source': a job's context comes from job_context()"),
    ("no-solo-wire-session", r"_solo|streaming", (DISTRIBUTED, POOL), {},
     "'One way in, one way out': a solo run has no wire session of its own"),
    ("passes-tagged-where-built", r"import.*\breplace\b|replace\(",
     (MULTIPROCESS, "runtime/sequential.py", POOL), {},
     "'One context source': nobody re-tags a pass on its way"),
    ("payload-takes-the-message-only",
     r"^def message_to_payload\(message\b[^,]*\)", "runtime/messages.py",
     {"runtime/messages.py": 1},
     "'One context source': a pass carries its own tags"),
    ("two-child-targets", r"(?:host|self)\.start\(\s*(?:\([^)]*\)|[^,(]+),"
     r"\s*(?:_slot_main|run_reducer)\b", EVERYWHERE,
     {"runtime/host.py": 1, MULTIPROCESS: 1},
     "'One worker host': a child runs the slot loop or a reducer"),
    ("no-other-child-target", r"(?:host|self)\.start\(\s*(?:\([^)]*\)"
     r"|[^,(]+),\s*(?!_slot_main\b|run_reducer\b)\w", EVERYWHERE, {},
     "'One worker host': a child runs the slot loop or a reducer"),
    ("one-worker-process", r"^def worker_process\(", EVERYWHERE, {WORKER: 1},
     "'One context source': one function is every worker's body"),
    ("no-pickle-no-queue",
     r"^\s*(?:import|from)\s+(?:pickle|queue)\b|\bpickle\.|Queue\(",
     (MULTIPROCESS, POOL, "runtime/reduction.py", WORKER), {},
     "'One worker host': no pass is pickled or queued on the way"),
    ("worker-process-writes-its-outbox", r"outbox\.send_bytes",
     WORKER_PROCESS, {WORKER_PROCESS: 1},
     "'One worker host': DATA bodies go into the worker's own pipe"),
    ("worker-process-probes-no-sink", r"hasattr|\.put\b", WORKER_PROCESS, {},
     "'One worker host': the pipe is the one sink"),
    ("one-process-site", r"\.(?:Process|Pipe)\(", EVERYWHERE,
     {"runtime/host.py": 4},
     "'One worker host': one Process; a Pipe each for the wake-up, an "
     "edge and a child"),
    ("forking-backends-own-a-host", r"WorkerHost\(", (MULTIPROCESS, POOL),
     {MULTIPROCESS: 1, POOL: 1},
     "'One worker host': the backend and a pool session start children "
     "through it"),
    ("forking-backends-assign-to-slots", r"host\.assign\(",
     (MULTIPROCESS, POOL), {MULTIPROCESS: 1, POOL: 1},
     "'One worker host': every rank goes to the host's slots"),
    ("slot-loop-lives-in-the-host", r"_slot_main|_Slot\b|worker_process\(",
     (MULTIPROCESS, POOL), {},
     "'One worker host': the slot loop and its books are host.py's"),
    ("assign-starts-slots", r"self\.start\(\s*\w+,\s*_slot_main\b",
     "repro.runtime.host:WorkerHost.assign",
     {"repro.runtime.host:WorkerHost.assign": 1},
     "'One worker host': an assignment forks a slot when none idles"),
    ("slot-runs-the-worker-body", r"worker_process\(",
     "repro.runtime.host:_slot_main", {"repro.runtime.host:_slot_main": 1},
     "'One worker host': a slot runs worker_process per assignment"),
    ("no-ioctl", r"\b(?:fcntl|termios|FIONREAD)\b", EVERYWHERE, {},
     "'One worker host': the latest-wins outbox compares its pipe's "
     "shared counts; no ioctl asks the kernel"),
    ("one-readiness-seam", r"^def _outbox_drained\(", EVERYWHERE,
     {WORKER: 1}, "'One worker host': one place decides a pass is due"),
    ("placement-written-once", r"stream\w*\.realization(?:_block)?\b"
     r"|(?<!telemetry)\.realization(?:_block)?\(",
     ("runtime/*.py", "cluster/*.py"), {WORKER: 2},
     "'One worker body, two clocks': WorkerBody alone places a "
     "realization's substream"),
    ("statistics-built-once", r"StatisticSet\.for_run\(", EVERYWHERE,
     {WORKER: 1},
     "'One worker body, two clocks': WorkerBody alone builds a worker's "
     "statistics"),
    ("perpass-rule-written-once", r">=\s*(?:\w+\.)*perpass\b", EVERYWHERE,
     {WORKER: 1},
     "'One worker body, two clocks': WorkerBody alone applies perpass"),
    ("passes-built-once", r"(?<![\w`])MomentMessage\(", EVERYWHERE,
     {WORKER: 1, "runtime/messages.py": 1, SHM: 1},
     "'One worker body, two clocks': WorkerBody builds a pass and the "
     "decoder rebuilds one from its bytes"),
    ("run-worker-is-one-loop", r"^\s+(?:while|for)\b", RUN_WORKER,
     {RUN_WORKER: 1},
     "'One worker body, two clocks': run_worker only drives the body"),
    ("drivers-step-the-body", r"WorkerBody\(",
     (RUN_WORKER, "cluster/simulation.py"),
     {RUN_WORKER: 1, "cluster/simulation.py": 1},
     "'One worker body, two clocks': both clocks drive one WorkerBody"),
    ("simulation-places-nothing", r"StreamTree|StatisticSet|adapt_realization",
     "cluster/simulation.py", {},
     "'One worker body, two clocks': the simulated cluster is a driver"),
    ("moment-layout-packed-once", r"_BODY\.pack(?:_into)?\(",
     (EVERYWHERE, "repro.runtime.messages:write_moments"),
     {"runtime/messages.py": 1, "repro.runtime.messages:write_moments": 1},
     "'One worker host': one function writes the moment layout"),
    ("packers-share-the-layout", r"write_moments\(",
     ("repro.runtime.messages:pack_moments",
      "repro.runtime.messages:pass_encoder"),
     {"repro.runtime.messages:pack_moments": 1,
      "repro.runtime.messages:pass_encoder": 1},
     "'One worker host': both encoders go through write_moments"),
    ("forked-workers-ship-encoded", r"encoded=True", WORKER_PROCESS,
     {WORKER_PROCESS: 1},
     "'One worker host': a forked worker's pass is one copy"),
    ("workers-never-reencode", r"message_to_payload\(", WORKER, {},
     "'One worker host': a forked worker's pass is one copy"),
    ("snapshots-stay-in-process", r"\.snapshot\(", (WORKER, WORKER_PROCESS),
     {WORKER: 2},
     "'One worker host': the template and the in-process pass snapshot; "
     "the encoder copies the sums"),
    ("run-side-no-queue-no-sleep", r"^\s*(?:import|from)\s+queue\b|sleep\(",
     DISTRIBUTED, {},
     "'The distributed backend': poll() reads the pool sockets itself"),
    ("threads", r"threading\.Thread\(", EVERYWHERE,
     {DISTRIBUTED: 1, POOL: 2, SCHEDULER: 1},
     "'The distributed backend': the run side's heartbeat timer, a pool's "
     "server and session watchers, and the scheduler service"),
    ("thread-targets", r"threading\.Thread\(\s*target=self\."
     r"(?:_beat|_serve|_watch|serve)\b", EVERYWHERE,
     {DISTRIBUTED: 1, POOL: 2, SCHEDULER: 1},
     "'The distributed backend': the run side's heartbeat timer, a pool's "
     "server and session watchers, and the scheduler service"),
    ("tcp-nodelay", r"setsockopt\(\s*socket\.IPPROTO_TCP,\s*"
     r"socket\.TCP_NODELAY,\s*1\)", (DISTRIBUTED, POOL),
     {DISTRIBUTED: 1, POOL: 1},
     "'The distributed backend': small frames leave without waiting"),
    ("no-asyncio", r"asyncio", EVERYWHERE, {},
     "'The distributed backend': one selectors model on both ends"),
    ("no-stream-frame-io", r"^(?:async\s+)?def\s+(?:read|write)_frame\b",
     "runtime/wire.py", {},
     "'The distributed backend': frames are read through FrameDecoder"),
    ("pool-owns-a-frame-decoder", r"FrameDecoder\(\)", POOL, {POOL: 1},
     "'The distributed backend': a session reads the run's decoder"),
    ("pool-feeds-the-decoder", r"\.decoder\.feed\(", POOL, {POOL: 1},
     "'The distributed backend': a session reads the run's decoder"),
    ("pool-reads-into-one-buffer", r"recv_into\(", POOL, {POOL: 1},
     "'The distributed backend': a session reads the run's decoder"),
    ("one-virtual-clock", r"^    def clock\(", EVERYWHERE,
     {"runtime/engine.py": 1, "runtime/simcluster.py": 1},
     "docs/simulator.md 'Many jobs, one cluster': the simulated cluster "
     "is the one backend with its own clock"),
    ("no-single-job-machinery", r"LoadStudyBackend|supports_shared_jobs"
     r"|shared_job_backends|job_labels|per_job", EVERYWHERE, {},
     "docs/simulator.md 'Many jobs, one cluster': no second job table"),
    ("no-second-drivers",
     r"\b(?:ClusterSimulation|run_simcluster|run_sequential)\b",
     EVERYWHERE, {},
     "'One session path': a run is Engine(backend, config).run(routine)"),
    ("only-the-backend-steps-events", r"events\.step\(", EVERYWHERE,
     {"runtime/simcluster.py": 1},
     "'One session path': the event queue steps under Scheduler.step()"),
    ("loop-probes-no-backend", r"getattr\(\s*(?:self\._)?backend",
     (SCHEDULER, "runtime/job.py"), {},
     "'The backend contract': the loop reads declared attributes only"),
    ("one-backend-declaration", r"^(?:class )?Backend\b", "runtime/engine.py",
     {}, "'The backend contract': EngineBackend is the one declaration"),
    ("declared-contract", r"^    (?:def )?(?:open_job|release_job"
     r"|supports_job_reduction|monitors_staleness)\b",
     "repro.runtime.engine:EngineBackend",
     {"repro.runtime.engine:EngineBackend": 4},
     "'The backend contract': EngineBackend declares every hook"),
    ("no-probed-hooks", r"\b(?:announce_job|prepare_job|cancel_job)\b",
     EVERYWHERE, {},
     "'The backend contract': open_job and release_job replace them"),
    ("worker-start-is-the-spawn", r'"worker_start"',
     (EVERYWHERE, "repro.runtime.job:Job.record_spawn"),
     {"runtime/job.py": 1, "repro.runtime.job:Job.record_spawn": 1},
     "docs/scheduler.md 'One dispatch moment': a rank starts when the "
     "scheduler spawns it, on every backend"),
    ("one-backend-queue", r"self\._pending\b", "runtime/*.py",
     {"runtime/sequential.py": 6},
     "docs/scheduler.md 'One dispatch moment': undispatched work waits in "
     "its job; only the sequential backend, which runs ranks in turn "
     "inside poll, queues what it was spawned"),
    ("one-fold", r"\bmerge_\w+\(|\.merge\(",
     ("runtime/collector.py", "cli/manaver.py", "runtime/resume.py",
      "runtime/job.py"),
     {"runtime/collector.py": 1, "cli/manaver.py": 1},
     "docs/protocol.md 'Pluggable statistics': the extras ride inside the "
     "snapshot, so merge_snapshots is the one fold the collector, "
     "manaver and resume call"),
    ("one-savepoint-format",
     r"\bread_artifact\b|\blegacy_savepoint|\bfrom_dict\b"
     r"|[\"'][^\"'\s]*\.json[\"']",
     ("runtime/**/*.py", "repro.runtime.files:DataDirectory._refuse_retired"),
     {"runtime/files.py": 2,
      "repro.runtime.files:DataDirectory._refuse_retired": 2},
     "docs/protocol.md 'One format, refused by name': save-points are read "
     "in the format they are written; a JSON one is only named, to refuse "
     "it"),
    # One match, the whole field block from the docstring to the first
    # method; any other field line (``name: annotation``, maybe with a
    # default) is one more match, and one the block then misses.
    ("estimates-store-two-matrices",
     r'(?<="""\n\n)    mean: np\.ndarray\n    variance: np\.ndarray\n'
     r"    volume: int\n    mean_time: float = 0\.0\n(?=\n    @)"
     r"|^    \w+: [\w.]+(?: = .+)?$",
     "repro.stats.estimators:Estimates",
     {"repro.stats.estimators:Estimates": 1},
     "docs/api.md: the fields of Estimates are mean, variance, volume and "
     "mean_time; abs_error and rel_error are computed when read"),
]


@pytest.mark.parametrize("pattern,where,expected,why", [
    pytest.param(*row, id=name) for name, *row in SOURCE_SHAPES])
def test_source_shape(pattern, where, expected, why):
    regex = re.compile(pattern, re.M)
    sites = {name: count for name, source in _sources(where).items()
             if (count := len(regex.findall(source)))}
    assert sites == expected, why


def test_architecture_contract_block_names_every_backend_method():
    # docs/architecture.md's EngineBackend block: one def per public
    # method, and no method the class no longer has.
    from repro.runtime.engine import EngineBackend

    block = re.search(r"```python\n  class EngineBackend:\n(.*?)```",
                      read("docs/architecture.md"), re.S)
    assert block, "docs/architecture.md lost its EngineBackend block"
    documented = re.findall(r"\bdef (\w+)\(", block.group(1))
    public = {name for name, _ in inspect.getmembers(
        EngineBackend, inspect.isfunction) if not name.startswith("_")}
    assert sorted(documented) == sorted(public)


def _square(rng):
    return rng.random() ** 2


@pytest.mark.parametrize("knob", ["transport", "death_grace"])
def test_retired_knob_is_gone_from_every_surface(knob):
    # docs/reduction.md "Why the ring was removed" (transport) and
    # docs/architecture.md "Judged once everything is in" (death_grace).
    from repro import parmonc
    from repro.cli.run import build_parser
    from repro.cli.sched import build_sched_parser, build_submit_parser
    from repro.runtime.config import RunConfig

    assert knob not in inspect.signature(parmonc).parameters
    assert knob not in {
        field.name for field in dataclasses.fields(RunConfig)}
    with pytest.raises(TypeError):
        RunConfig(**{knob: 1})
    with pytest.raises(TypeError):
        parmonc(_square, **{knob: 1})
    flag = "--" + knob.replace("_", "-")
    for parser, argv in (
            (build_parser(), ["mod:fn", "--maxsv", "1"]),
            (build_submit_parser(), ["mod:fn", "--maxsv", "1"]),
            (build_sched_parser(), [])):
        with pytest.raises(SystemExit):
            parser.parse_args(argv + [flag, "1"])


class TestVerdictsReadNoClock:
    def test_a_job_entry_naming_it_is_an_unknown_key(self, tmp_path,
                                                      capsys):
        from repro import parmonc
        from repro.cli.sched import sched_main, submit_main, validate_entry
        from repro.exceptions import ConfigurationError

        entry = {"routine": "random:random", "maxsv": 1, "death_grace": 1}
        with pytest.raises(ConfigurationError, match="death_grace"):
            validate_entry(entry)
        with pytest.raises(ConfigurationError, match="death_grace"):
            parmonc(jobs=[dict(entry, routine=_square)])
        queue = tmp_path / "queue.jsonl"
        with pytest.raises(SystemExit) as caught:
            submit_main(["random:random", "--queue", str(queue),
                         "--maxsv", "1", "--death-grace", "1"])
        assert caught.value.code == 2
        assert "--death-grace" in capsys.readouterr().err
        assert not queue.exists()
        queue.write_text(json.dumps(entry) + "\n")
        assert sched_main(["--queue", str(queue),
                           "--backend", "sequential"]) == 2
        assert "death_grace" in capsys.readouterr().err


class TestOneContextSource:
    # docs/architecture.md "One context source": backends read a job's
    # routine, config, collector, telemetry and deadline through
    # job_context() alone.

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


class TestOneSessionPath:
    # docs/architecture.md "One session path": the simulator's
    # accounting reaches RunResult.cluster through one hook.

    def test_one_result_hook(self):
        from repro.runtime.engine import EngineBackend

        assert not {"virtual_time", "per_rank_volumes",
                    "session_volume"} & set(vars(EngineBackend))
        assert EngineBackend().cluster_result() is None


class TestOneWayInOneWayOut:
    # docs/architecture.md "The backend contract": a job enters a
    # backend through open_job and leaves it through release_job,
    # exactly once each, however it ends.

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
