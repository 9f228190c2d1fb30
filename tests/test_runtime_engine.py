"""Tests for the single-run path: registry, parity, fault recovery.

One run loop drives every backend, so the headline properties are
(a) the registry is the single source of backend names, (b) all
backends stay bit-identical through the shared loop, and (c)
``on_worker_death="reassign"`` completes a run whose worker died
mid-flight, with the estimate intact.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import struct
import threading
from multiprocessing.connection import wait
from types import SimpleNamespace

import pytest

from repro.cluster.machine import DurationModel
from repro.cluster.simulation import ClusterSpec
from repro.core.parmonc import parmonc
from repro.exceptions import BackendError, ConfigurationError
from repro.obs.events import read_events
from repro.obs.telemetry import RunTelemetry
from repro.runtime import engine as engine_module
from repro.runtime import multiprocess as multiprocess_module
from repro.runtime import worker as worker_module
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.engine import (
    Engine,
    EngineBackend,
    WorkerAssignment,
    WorkerDeath,
    available_backends,
    create_backend,
    register_backend,
    register_lazy_backend,
)
from repro.runtime.host import WorkerHost
from repro.runtime.messages import MomentMessage, message_to_payload
from repro.runtime.multiprocess import MultiprocessBackend
from repro.runtime.sequential import SequentialBackend
from repro.runtime.worker import run_worker, worker_process
from repro.stats.accumulator import MomentAccumulator, MomentSnapshot
from repro.stats.merging import merge_snapshots


def square(rng):
    return rng.random() ** 2


def _uniform(rng):
    return rng.random()


def make_crasher(flag_path):
    """A routine whose 5th call hard-kills its process — once, run-wide.

    The flag file is created with ``O_EXCL``, so across every worker
    process exactly one wins the race and dies; replacements (and the
    surviving workers) see the flag and keep computing.  Requires the
    ``fork`` start method (closure over the path).
    """
    calls = {"n": 0}

    def routine(rng):
        calls["n"] += 1
        if calls["n"] == 5:
            try:
                flag_path.touch(exist_ok=False)
            except FileExistsError:
                pass
            else:
                os._exit(5)
        return rng.random()

    return routine


def make_clean_quitter(flag_path):
    """Like :func:`make_crasher` but exits with code 0 (no final message)."""
    calls = {"n": 0}

    def routine(rng):
        calls["n"] += 1
        if calls["n"] == 3:
            try:
                flag_path.touch(exist_ok=False)
            except FileExistsError:
                pass
            else:
                os._exit(0)
        return rng.random()

    return routine


# ---------------------------------------------------------------------------
# Registry


class TestRegistry:
    def test_builtin_backends_registered_in_order(self):
        assert available_backends() == ("sequential", "multiprocess",
                                        "simcluster", "distributed")

    def test_parmonc_backends_mirror_registry(self):
        from repro.core.parmonc import BACKENDS
        assert BACKENDS == available_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend("sequential", lambda: None)
        # The failed attempt must not corrupt the registry.
        assert isinstance(create_backend("sequential"), SequentialBackend)

    def test_reregistering_same_factory_is_noop(self):
        assert register_backend("sequential",
                                SequentialBackend) is SequentialBackend

    def test_lazy_registration_never_shadows(self):
        register_lazy_backend("sequential", "no.such.module")
        assert isinstance(create_backend("sequential"), SequentialBackend)

    def test_unknown_backend_rejected_with_choices(self):
        with pytest.raises(ConfigurationError, match="sequential"):
            create_backend("quantum")

    def test_parmonc_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            parmonc(square, maxsv=4, workdir=tmp_path, backend="quantum")

    def test_third_party_backend_plugs_in(self):
        class ToyBackend(EngineBackend):
            name = "toy"

            def __init__(self, knob: int = 0) -> None:
                super().__init__()
                self.knob = knob

        register_backend("toy", ToyBackend)
        try:
            assert "toy" in available_backends()
            # Foreign options are filtered; its own knob passes through.
            backend = create_backend("toy", knob=7, start_method="fork")
            assert backend.knob == 7
        finally:
            engine_module._FACTORIES.pop("toy", None)

    def test_option_filtering(self):
        backend = create_backend("multiprocess", start_method="fork",
                                 cluster_spec=ClusterSpec())
        assert isinstance(backend, MultiprocessBackend)

    def test_assignment_validation(self):
        with pytest.raises(ConfigurationError, match="rank"):
            WorkerAssignment(-1, 5)
        with pytest.raises(ConfigurationError, match="quota"):
            WorkerAssignment(0, -5)

    def test_death_describes_detail_over_exitcode(self):
        assert WorkerDeath(1, 3).describe() == "rank 1 (exitcode 3)"
        assert WorkerDeath(2, None, detail="node lost").describe() \
            == "rank 2 (node lost)"


# ---------------------------------------------------------------------------
# Backend parity through the shared engine


class TestBackendParity:
    @pytest.fixture(scope="class")
    def pool(self):
        """One local parmonc-pool for every distributed run here."""
        from repro.runtime.pool import PoolServer
        server = PoolServer(port=0, workers=3, start_method="fork")
        host, port = server.start()
        yield f"{host}:{port}"
        server.stop()

    def _run(self, backend, tmp_path, pool=None, **kwargs):
        if backend == "distributed":
            kwargs["connect"] = pool
        return parmonc(square, maxsv=60, perpass=0.0, peraver=0.0,
                       processors=3, backend=backend,
                       workdir=tmp_path / backend, **kwargs)

    def test_estimates_bit_identical(self, tmp_path, pool):
        results = {name: self._run(name, tmp_path, pool)
                   for name in available_backends()}
        reference = results["sequential"].estimates
        for name, result in results.items():
            assert result.total_volume == 60, name
            assert result.estimates.mean[0, 0] == reference.mean[0, 0], name
            assert (result.estimates.variance[0, 0]
                    == reference.variance[0, 0]), name

    def test_resumed_sessions_bit_identical(self, tmp_path, pool):
        merged = {}
        for name in available_backends():
            self._run(name, tmp_path, pool)
            resumed = parmonc(square, maxsv=60, res=1, seqnum=1,
                              perpass=0.0, peraver=0.0, processors=3,
                              backend=name, workdir=tmp_path / name,
                              **({"connect": pool}
                                 if name == "distributed" else {}))
            assert resumed.sessions == 2
            assert resumed.total_volume == 120
            merged[name] = resumed.estimates.mean[0, 0]
        assert len(set(merged.values())) == 1

    def test_batched_runs_bit_identical(self, tmp_path, pool):
        scalar = self._run("sequential", tmp_path / "scalar")
        for name in available_backends():
            batched = parmonc(square, maxsv=60, perpass=0.0, peraver=0.0,
                              processors=3, backend=name, batch_size=8,
                              workdir=tmp_path / "batched" / name,
                              **({"connect": pool}
                                 if name == "distributed" else {}))
            assert (batched.estimates.mean[0, 0]
                    == scalar.estimates.mean[0, 0]), name


# ---------------------------------------------------------------------------
# Fault-tolerant quota reassignment


class TestMultiprocessReassignment:
    def test_crashed_worker_quota_is_reassigned(self, tmp_path):
        routine = make_crasher(tmp_path / "crashed.flag")
        result = parmonc(routine, maxsv=40, perpass=0.0, peraver=0.0,
                         processors=2, backend="multiprocess",
                         start_method="fork", telemetry=True,
                         on_worker_death="reassign", workdir=tmp_path)
        # Full realization count despite the mid-run crash.
        assert result.total_volume == 40
        assert len(result.recovered_ranks) == 1
        # The estimate stays a genuine uniform mean.
        assert abs(result.estimates.mean[0, 0] - 0.5) \
            < 5 * result.estimates.abs_error_max
        events = list(read_events(tmp_path / "parmonc_data" / "telemetry"
                                  / "events.jsonl"))
        kinds = {event.kind for event in events}
        assert {"worker_died", "worker_recovered"} <= kinds
        recovered = [e for e in events if e.kind == "worker_recovered"]
        assert recovered[0].fields["rank"] == result.recovered_ranks[0]
        assert recovered[0].fields["reassigned"] > 0
        # The replacement runs on a rank beyond the configured M.
        starts = [e for e in events if e.kind == "worker_start"
                  and e.fields.get("recovery")]
        assert starts and starts[0].fields["rank"] >= 2

    def test_kept_volumes_merged_in_rank_order_under_a_real_race(
            self, tmp_path):
        # No seam: the dying rank's latest-wins outbox dropped whatever
        # passes the collector had not read yet, so the volume it kept
        # depends on timing.  The estimate is still, bit for bit, the
        # rank-ordered merge of the volumes the run reports it kept.
        routine = make_crasher(tmp_path / "crashed.flag")
        result = parmonc(routine, maxsv=40, perpass=0.0, peraver=0.0,
                         processors=2, backend="multiprocess",
                         start_method="fork", on_worker_death="reassign",
                         use_files=False)
        assert result.total_volume == 40
        [dead] = result.recovered_ranks
        volumes = result.per_rank_volumes
        assert volumes[dead] <= 4 and sum(volumes.values()) == 40
        config = RunConfig(maxsv=40, processors=2, perpass=0.0)
        pieces = [
            run_worker(_uniform, config, rank, volume,
                       send=lambda message: None).snapshot()
            for rank, volume in sorted(volumes.items())]
        reference = merge_snapshots(pieces).estimates()
        for name in ("mean", "variance", "abs_error", "rel_error"):
            assert getattr(result.estimates, name).tobytes() \
                == getattr(reference, name).tobytes(), name

    def test_default_policy_still_fails(self, tmp_path):
        routine = make_crasher(tmp_path / "crashed.flag")
        with pytest.raises(BackendError, match="exitcode 5"):
            parmonc(routine, maxsv=40, perpass=0.0, peraver=0.0,
                    processors=2, backend="multiprocess",
                    start_method="fork", workdir=tmp_path)

    def test_solo_death_raises_from_the_calling_thread(self, tmp_path):
        # The loop contains failures per job; the single-run facade
        # must still fail where its caller stands: same error text, no
        # service thread, backend shut down exactly once.
        class CountingBackend(MultiprocessBackend):
            shutdowns = 0

            def shutdown(self):
                self.shutdowns += 1
                super().shutdown()

        backend = CountingBackend(start_method="fork")
        # perpass far beyond the run: only final passes cross the pipes.
        config = RunConfig(maxsv=40, processors=2, perpass=3600.0,
                           peraver=0.0, workdir=tmp_path)
        threads_before = set(threading.enumerate())
        with pytest.raises(BackendError) as caught:
            Engine(backend, config).run(
                make_crasher(tmp_path / "crashed.flag"))
        assert re.fullmatch(
            r"worker process\(es\) died before delivering a final "
            r"message: rank [01] \(exitcode 5\)", str(caught.value))
        assert backend.shutdowns == 1
        assert set(threading.enumerate()) <= threads_before

    def test_clean_exit_without_final_is_dead(self, tmp_path):
        # Flat host pipe: the exit is reported once the pipe is drained,
        # so a clean exit whose final is not in is judged dead at once.
        routine = make_clean_quitter(tmp_path / "quit.flag")
        with pytest.raises(BackendError, match="exitcode 0"):
            parmonc(routine, maxsv=4000, perpass=0.5, peraver=0.0,
                    processors=2, backend="multiprocess",
                    start_method="fork", workdir=tmp_path)


def pair(rng):
    return [[rng.random(), rng.random()]]


def _exit_on_rank_one_final(message):
    """Pass encoder for forked workers: rank 1 exits instead of its final."""
    if message.rank == 1 and message.final:
        os._exit(0)
    return message_to_payload(message)


class TestDeathAfterTheWholeQuota:
    def test_rank_dying_before_its_final_still_completes(self, monkeypatch):
        # perpass=0 with every pass forced out of the latest-wins
        # outbox: rank 1's last non-final pass already carries its
        # whole quota, so reassignment retires it and spawns nobody.
        # The job is complete then and must not wait for another pass.
        monkeypatch.setattr(worker_module, "message_to_payload",
                            _exit_on_rank_one_final)
        monkeypatch.setattr(worker_module, "_outbox_drained",
                            lambda outbox: True)
        options = dict(nrow=1, ncol=2, maxsv=8, perpass=0.0, peraver=0.0,
                       processors=2, use_files=False)
        outcome = {}

        def run():
            try:
                outcome["result"] = parmonc(
                    pair, backend="multiprocess", start_method="fork",
                    on_worker_death="reassign", **options)
            except BaseException as error:  # re-raised on the test thread
                outcome["error"] = error

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(60)
        assert not runner.is_alive(), "the job never completed"
        if "error" in outcome:
            raise outcome["error"]
        result = outcome["result"]
        assert result.recovered_ranks == (1,)
        assert result.total_volume == 8
        reference = parmonc(pair, backend="sequential", **options)
        assert result.estimates.mean.tobytes() \
            == reference.estimates.mean.tobytes()
        assert result.estimates.variance.tobytes() \
            == reference.estimates.variance.tobytes()


def _tear_rank_one(routine, config, rank, quota, outbox, **kwargs):
    """Host target: rank 1 dies half-way through writing its first body."""
    if rank != 1:
        return worker_process(routine, config, rank, quota, outbox,
                              **kwargs)
    os.write(outbox.fileno(), struct.pack("!i", 32_048) + b"\0" * 1000)
    os._exit(9)


class TestTornWrite:
    def test_a_worker_torn_mid_write_costs_only_itself(self, tmp_path,
                                                        monkeypatch):
        # A length prefix announcing a 1000x2 pass, 1000 bytes of it,
        # SIGKILL's exit code: the torn pipe is that worker's alone.
        monkeypatch.setattr(multiprocess_module, "worker_process",
                            _tear_rank_one)
        result = parmonc(square, maxsv=30, perpass=0.0, peraver=0.0,
                         processors=3, seqnum=1, backend="multiprocess",
                         start_method="fork", telemetry=True,
                         on_worker_death="reassign", workdir=tmp_path)
        assert result.recovered_ranks == (1,)
        assert result.total_volume == 30
        # Ranks 0 and 2 delivered every pass; rank 1's quota ran on the
        # first fresh rank.
        assert result.per_rank_volumes == {0: 10, 1: 0, 2: 10, 3: 10}
        reference = parmonc(square, maxsv=30, perpass=0.0, peraver=0.0,
                            processors=3, seqnum=1, backend="simcluster",
                            on_worker_death="reassign",
                            cluster_spec=ClusterSpec(
                                duration_model=DurationModel(mean=1.0),
                                failures={1: 0.5}),
                            workdir=tmp_path / "reference")
        assert reference.recovered_ranks == (1,)
        assert result.estimates.mean.tobytes() \
            == reference.estimates.mean.tobytes()
        events = list(read_events(tmp_path / "parmonc_data" / "telemetry"
                                  / "events.jsonl"))
        assert [(e.fields["rank"], e.fields["exitcode"]) for e in events
                if e.kind == "worker_died"] == [(1, 9)]


class TestSimclusterReassignment:
    def _spec(self):
        return ClusterSpec(duration_model=DurationModel(mean=1.0),
                           failures={1: 2.5})

    def test_injected_failure_recovers_deterministically(self, tmp_path):
        result = parmonc(square, maxsv=30, perpass=0.0, peraver=0.0,
                         processors=3, backend="simcluster",
                         cluster_spec=self._spec(),
                         on_worker_death="reassign", workdir=tmp_path)
        assert result.recovered_ranks == (1,)
        # Rank 1 delivered 2 realizations before t=2.5; the remaining 8
        # of its 10-realization quota ran on replacement rank 3.
        assert result.total_volume == 30
        assert result.per_rank_volumes[1] == 2
        assert result.per_rank_volumes[3] == 8
        assert result.virtual_time > 2.5

    def test_default_policy_loses_the_tail(self, tmp_path):
        result = parmonc(square, maxsv=30, perpass=0.0, peraver=0.0,
                         processors=3, backend="simcluster",
                         cluster_spec=self._spec(), workdir=tmp_path)
        assert result.recovered_ranks == ()
        assert result.total_volume < 30

    def test_dynamic_scheduling_cannot_reassign(self, tmp_path):
        from repro.runtime.simcluster import run_simcluster
        config = RunConfig(maxsv=30, processors=3, perpass=0.0,
                           peraver=0.0, workdir=tmp_path,
                           on_worker_death="reassign")
        with pytest.raises(BackendError, match="dynamically scheduled"):
            run_simcluster(square, config, spec=self._spec(),
                           scheduling="dynamic")


# ---------------------------------------------------------------------------
# Dead-worker detection details


def _write_then_exit(bodies, exitcode, outbox):
    """Host target: write some DATA bodies, then exit with ``exitcode``."""
    for body in bodies:
        outbox.send_bytes(body)
    os._exit(exitcode)


class _ScriptedHost:
    """Stands in for the worker host: records ``read`` timeouts."""

    def __init__(self):
        self.timeouts = []

    def read(self, timeout):
        self.timeouts.append(timeout)
        return None


def _snapshot(volume: int) -> MomentSnapshot:
    accumulator = MomentAccumulator(1, 1)
    for _ in range(volume):
        accumulator.add(0.5)
    return accumulator.snapshot()


class TestDeadWorkerDetection:
    FINAL = MomentMessage(rank=0, snapshot=_snapshot(4), sent_at=0.0,
                          final=True)

    def _backend(self, bodies=(), exitcode=0):
        """A backend whose one worker wrote ``bodies`` and has exited."""
        config = RunConfig(maxsv=4, processors=1)
        backend = MultiprocessBackend(start_method="fork")
        # Stands in for the bound scheduler: one anonymous job, read
        # like every job through job_context().
        context = SimpleNamespace(
            config=config, telemetry=None,
            collector=Collector(config, _snapshot(0), data=None))
        backend.bind(SimpleNamespace(job_context=lambda job: context))
        backend._host = host = WorkerHost(multiprocessing.get_context("fork"))
        host.start((None, 0), _write_then_exit, list(bodies), exitcode)
        [(process, _)] = host._children.values()
        wait([process.sentinel])
        return backend

    def test_reap_drains_queued_messages_before_verdict(self):
        backend = self._backend([message_to_payload(self.FINAL)])
        try:
            # The worker is gone, but its exit cannot overtake its
            # pass: nothing to judge until the pipe is drained.
            assert backend.reap() == []
            message = backend.poll(5.0)
            assert message_to_payload(message) \
                == message_to_payload(self.FINAL)
        finally:
            backend.shutdown()

    def test_reap_declares_silent_exited_worker_dead(self):
        backend = self._backend()
        try:
            assert backend.poll(5.0) is None  # the exit, drained
            deaths = backend.reap()
            assert [death.rank for death in deaths] == [0]
            assert deaths[0].exitcode == 0
        finally:
            backend.shutdown()

    def test_poll_blocks_on_the_queue_for_the_full_timeout(self):
        # One same-host channel, the host's pipes: the caller's timeout
        # reaches the host's wait uncapped.
        backend = MultiprocessBackend()
        backend._host = _ScriptedHost()
        assert backend.poll(0.75) is None
        assert backend._host.timeouts == [0.75]

    def test_start_survives_a_reader_forgetting_the_child_at_once(self):
        # A pool session starts workers on its loop thread while its
        # watcher reads: a child that exits at once may be reported,
        # and closed, before start() returns.  Play the watcher inside
        # start()'s wake-up so that happens every time.
        host = WorkerHost(multiprocessing.get_context("fork"))
        reported = []

        class WatcherWakeUp:
            def send_bytes(self, _):
                while not reported:
                    event = host.read(5.0)
                    if event is not None and isinstance(event[1], int):
                        reported.append(event)

        host._wake_writer, wake = WatcherWakeUp(), host._wake_writer
        try:
            pid = host.start("quick", _write_then_exit, [], 0)
            assert reported == [("quick", 0)]
            assert isinstance(pid, int) and host.keys() == []
        finally:
            host._wake_writer = wake
            host.close()

    def test_finalized_worker_is_never_a_suspect(self):
        backend = self._backend([message_to_payload(self.FINAL)])
        try:
            backend.engine.job_context(None).collector.receive(
                backend.poll(5.0), now=0.0)
            assert backend.poll(5.0) is None  # the exit
            assert backend.reap() == []
        finally:
            backend.shutdown()


# ---------------------------------------------------------------------------
# Configuration and CLI plumbing


class TestPolicyConfiguration:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="on_worker_death"):
            RunConfig(maxsv=1, on_worker_death="retry")

    def test_cli_accepts_fault_flags(self):
        from repro.cli.run import build_parser
        args = build_parser().parse_args(
            ["mod:fn", "--maxsv", "10", "--on-worker-death", "reassign"])
        assert args.on_worker_death == "reassign"

    def test_cli_rejects_unknown_policy(self, capsys):
        from repro.cli.run import build_parser
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mod:fn", "--maxsv", "10", "--on-worker-death", "retry"])


# ---------------------------------------------------------------------------
# Collector retire/expect semantics


class TestCollectorRetirement:
    def _collector(self, processors=2):
        config = RunConfig(maxsv=8, processors=processors)
        return Collector(config, _snapshot(0), data=None)

    def test_retire_unknown_rank_rejected(self):
        with pytest.raises(ConfigurationError, match="retire"):
            self._collector().retire_rank(7)

    def test_late_message_from_retired_rank_dropped(self):
        collector = self._collector()
        collector.receive(MomentMessage(rank=1, snapshot=_snapshot(2),
                                        sent_at=0.0, final=False), now=0.0)
        collector.retire_rank(1)
        kept = collector.worker_volume(1)
        accepted = collector.receive(
            MomentMessage(rank=1, snapshot=_snapshot(3), sent_at=1.0,
                          final=True), now=1.0)
        assert accepted is False
        assert collector.late_count == 1
        # The pre-death watermark survives; the late update does not.
        assert collector.worker_volume(1) == kept == 2

    def test_completion_follows_expected_set(self):
        collector = self._collector()
        collector.receive(MomentMessage(rank=0, snapshot=_snapshot(4),
                                        sent_at=0.0, final=True), now=0.0)
        assert not collector.complete
        collector.retire_rank(1)
        collector.expect_rank(5, now=0.0)
        assert not collector.complete
        collector.receive(MomentMessage(rank=5, snapshot=_snapshot(4),
                                        sent_at=1.0, final=True), now=1.0)
        assert collector.complete
        assert collector.expected_ranks == frozenset({0, 5})

    def test_expect_duplicate_rank_rejected(self):
        collector = self._collector()
        with pytest.raises(ConfigurationError, match="already tracked"):
            collector.expect_rank(0)
        collector.retire_rank(1)
        with pytest.raises(ConfigurationError, match="already tracked"):
            collector.expect_rank(1)

    def test_replacement_staleness_anchored_at_spawn_time(self):
        collector = self._collector()
        collector.mark_epoch(0.0)
        collector.retire_rank(1)
        collector.expect_rank(5, now=100.0)
        # Judged from its spawn time, not the session epoch.
        assert 5 not in collector.stale_workers(now=100.5, threshold=1.0)
        assert 5 in collector.stale_workers(now=102.0, threshold=1.0)


class TestRecoveryTelemetry:
    def test_worker_recovered_event_and_counters(self):
        telemetry = RunTelemetry(clock=lambda: 3.0)
        telemetry.worker_recovered(rank=1, replacement=4, reassigned=8,
                                   delivered=2, now=3.0)
        events = [e for e in telemetry.events.events
                  if e.kind == "worker_recovered"]
        assert events[0].fields == {"rank": 1, "replacement": 4,
                                    "reassigned": 8, "delivered": 2}
        snapshot = telemetry.registry.snapshot().to_dict()
        assert snapshot["counters"]["engine.worker_recoveries"] == 1
        assert snapshot["counters"]["engine.reassigned_realizations"] == 8
        summary = telemetry.finalize(elapsed=1.0, volume=10)
        assert summary is not None
        assert (telemetry.registry.snapshot().to_dict()["gauges"]
                ["run.recovered_workers"]) == 1
