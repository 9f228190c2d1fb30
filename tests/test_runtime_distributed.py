"""Tests for the distributed TCP backend and the parmonc-pool daemon.

The headline property is the issue's acceptance criterion: a run
dispatched to local pools over real TCP — including a pool that joins
late and a worker SIGKILLed mid-run — completes with estimates
bit-identical to the sequential backend, because reassignment re-issues
the undelivered remainder on fresh subsequences and merges in rank
order.  (Cross-backend happy-path parity, resume and batched parity run
in ``test_runtime_engine.py::TestBackendParity``.)
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.parmonc import parmonc
from repro.exceptions import ConfigurationError
from repro.obs.events import read_events
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.distributed import (
    DistributedBackend,
    _ExitRecord,
    _PoolLink,
    parse_connect,
)
from repro.runtime.job import JobSpec, JobStatus
from repro.runtime.messages import MomentMessage, message_to_payload
from repro.runtime.pool import PoolServer
from repro.runtime.scheduler import Scheduler
from repro.runtime.wire import FrameKind, encode_frame
from repro.runtime.worker import run_worker
from repro.stats.accumulator import MomentAccumulator
from repro.stats.merging import merge_snapshots
from repro.stats.statistic import payload_map


def square(rng):
    return rng.random() ** 2


#: Directory (via environment, so it crosses the fork into pool worker
#: processes) where the hanging routine leaves its pid; unset = benign.
_HANG_DIR_ENV = "PARMONC_TEST_HANG_DIR"

_CALLS = {"n": 0}


def hang_on_sixth(rng):
    """Uniform squares, except one worker process hangs on its 6th call.

    The pid file is created ``O_EXCL``, so across every worker process
    exactly one wins the race, records its pid for the test to SIGKILL,
    and sleeps forever — after having delivered exactly 5 realizations
    (``perpass=0`` ships after every one).  Everyone else computes on.
    """
    directory = os.environ.get(_HANG_DIR_ENV)
    if directory:
        _CALLS["n"] += 1
        if _CALLS["n"] == 6:
            try:
                fd = os.open(os.path.join(directory, "hang.pid"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                while True:
                    time.sleep(3600)
    return rng.random() ** 2


_WIDE = np.linspace(0.5, 1.5, 2000).reshape(1000, 2)


def wide(rng):
    """The Fig. 2 overhead shape: one draw, a 32 KB moment pass."""
    rng.random()
    return _WIDE


def free_port() -> int:
    """Reserve a port number for a pool that will start later."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestParseConnect:
    def test_comma_separated_string(self):
        assert parse_connect("a:1, b:2") == (("a", 1), ("b", 2))

    def test_iterables_and_pairs(self):
        assert parse_connect([("a", 1), "b:2"]) == (("a", 1), ("b", 2))

    def test_duplicates_collapse(self):
        assert parse_connect("a:1,a:1,b:2") == (("a", 1), ("b", 2))

    @pytest.mark.parametrize("bad", [None, "", "hostonly", "host:xyz"])
    def test_bad_addresses_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            parse_connect(bad)


class TestDistributedRuns:
    def test_statistics_payloads_bit_identical_to_sequential(self, tmp_path):
        sequential = parmonc(square, maxsv=40, perpass=0.0, peraver=0.0,
                             processors=2, backend="sequential",
                             statistics="extrema,histogram",
                             workdir=tmp_path / "seq")
        server = PoolServer(port=0, workers=2, start_method="fork")
        host, port = server.start()
        try:
            distributed = parmonc(square, maxsv=40, perpass=0.0,
                                  peraver=0.0, processors=2,
                                  backend="distributed",
                                  connect=f"{host}:{port}",
                                  statistics="extrema,histogram",
                                  workdir=tmp_path / "dist")
        finally:
            server.stop()
        assert distributed.total_volume == sequential.total_volume == 40
        assert (distributed.estimates.mean[0, 0]
                == sequential.estimates.mean[0, 0])
        assert (distributed.estimates.variance[0, 0]
                == sequential.estimates.variance[0, 0])
        # The wire carries the same versioned payloads the save-points
        # persist — byte-identical statistics, not just close ones.
        assert (payload_map(distributed.statistics)
                == payload_map(sequential.statistics))

    def test_elastic_run_survives_late_join_and_sigkill(self, tmp_path,
                                                        monkeypatch):
        """The acceptance scenario, made deterministic.

        M=2, quota 10 each, one single-slot pool up front: rank 0
        hangs after delivering exactly 5 realizations; rank 1 waits,
        pending.  A second pool then joins late (takes rank 1), the
        hung worker is SIGKILLed (its EXIT arrives after its 5 queued
        passes — drain-before-verdict), and the engine reissues the
        remaining 5 realizations as rank 2 on a fresh subsequence.
        The merged estimate must equal the rank-ordered merge of the
        three pieces, computed locally, bit for bit.
        """
        monkeypatch.setenv(_HANG_DIR_ENV, str(tmp_path))
        late_port = free_port()
        first = PoolServer(port=0, workers=1, start_method="fork")
        host, port = first.start()
        late = PoolServer(port=late_port, workers=1, start_method="fork")
        pid_path = tmp_path / "hang.pid"

        def chaos():
            while not pid_path.exists() or not pid_path.read_text():
                time.sleep(0.05)
            late.start()  # the late joiner picks up pending rank 1
            while not late.sessions_served:  # ... once the run's retry
                time.sleep(0.05)             # loop has found it
            os.kill(int(pid_path.read_text()), signal.SIGKILL)

        agitator = threading.Thread(target=chaos, daemon=True)
        agitator.start()
        try:
            result = parmonc(
                hang_on_sixth, maxsv=20, perpass=0.0, peraver=0.0,
                processors=2, backend="distributed",
                connect=f"{host}:{port},127.0.0.1:{late_port}",
                on_worker_death="reassign", telemetry=True,
                workdir=tmp_path / "run")
        finally:
            agitator.join(timeout=30)
            first.stop()
            late.stop()
        assert result.total_volume == 20
        assert result.recovered_ranks == (0,)
        # Reference: the three pieces the run actually kept, merged in
        # rank order on a local worker loop (no environment -> benign).
        monkeypatch.delenv(_HANG_DIR_ENV)
        config = RunConfig(nrow=1, ncol=1, maxsv=20, perpass=0.0,
                           peraver=0.0, processors=2,
                           workdir=tmp_path / "ref")
        pieces = [
            run_worker(hang_on_sixth, config, rank, quota,
                       send=lambda message: None).snapshot()
            for rank, quota in ((0, 5), (1, 10), (2, 5))]
        reference = merge_snapshots(pieces).estimates()
        assert result.estimates.mean[0, 0] == reference.mean[0, 0]
        assert (result.estimates.variance[0, 0]
                == reference.variance[0, 0])
        events = list(read_events(
            tmp_path / "run" / "parmonc_data" / "telemetry"
            / "events.jsonl"))
        kinds = [event.kind for event in events]
        assert kinds.count("pool_connected") == 2  # one of them mid-run
        assert {"worker_died", "worker_recovered"} <= set(kinds)

    def test_missing_pools_fail_the_run_after_connect_timeout(self,
                                                              tmp_path):
        from repro.exceptions import BackendError
        port = free_port()  # nothing is listening there
        started = time.monotonic()
        with pytest.raises(BackendError, match="no parmonc-pool"):
            parmonc(square, maxsv=4, perpass=0.0, peraver=0.0,
                    processors=1, backend="distributed",
                    connect=f"127.0.0.1:{port}",
                    backend_options={"connect_timeout": 1.0,
                                     "retry_interval": 0.1},
                    workdir=tmp_path)
        assert time.monotonic() - started < 30


class TestPoolReuse:
    """The pool daemon is elastic capacity, not a one-shot server.

    Regression coverage for the historical limitation where a
    ``parmonc-pool`` process served exactly one session and then had to
    be restarted: the same server must now serve back-to-back runs and
    host several concurrent jobs of one scheduler session.
    """

    def test_back_to_back_sessions_without_restart(self, tmp_path):
        server = PoolServer(port=0, workers=2, start_method="fork")
        host, port = server.start()
        try:
            first = parmonc(square, maxsv=20, perpass=0.0, peraver=0.0,
                            processors=2, backend="distributed",
                            connect=f"{host}:{port}",
                            workdir=tmp_path / "one")
            second = parmonc(square, maxsv=20, seqnum=1, perpass=0.0,
                             peraver=0.0, processors=2,
                             backend="distributed",
                             connect=f"{host}:{port}",
                             workdir=tmp_path / "two")
        finally:
            server.stop()
        assert server.sessions_served == 2
        assert first.total_volume == second.total_volume == 20
        # Different seqnums: genuinely independent experiments.
        assert (first.estimates.mean[0, 0]
                != second.estimates.mean[0, 0])

    def test_scheduler_multiplexes_jobs_over_one_session(self, tmp_path):
        from repro.runtime.engine import create_backend
        from repro.runtime.job import JobSpec
        from repro.runtime.scheduler import Scheduler
        from repro.runtime.sequential import run_sequential

        server = PoolServer(port=0, workers=4, start_method="fork")
        host, port = server.start()
        try:
            scheduler = Scheduler(
                create_backend("distributed", connect=f"{host}:{port}"),
                workers=4)
            jobs = [
                scheduler.submit(JobSpec(
                    routine=square,
                    config=RunConfig(maxsv=30, processors=2, perpass=0.0,
                                     peraver=0.0, seqnum=i,
                                     workdir=tmp_path / f"job{i}"),
                    name=f"job{i}", priority=float(i + 1)))
                for i in range(2)]
            scheduler.run()
        finally:
            server.stop()
        # Both experiments travelled through one pool session ...
        assert server.sessions_served == 1
        # ... and each matches its solo sequential reference bit for bit.
        for i, job in enumerate(jobs):
            reference = run_sequential(
                square, RunConfig(maxsv=30, processors=2, perpass=0.0,
                                  peraver=0.0, seqnum=i,
                                  workdir=tmp_path / f"ref{i}"),
                use_files=False)
            assert (job.result.estimates.mean.tobytes()
                    == reference.estimates.mean.tobytes())
            assert (job.result.estimates.abs_error.tobytes()
                    == reference.estimates.abs_error.tobytes())


class TestOneSessionShape:
    """A solo run, a named job of a batch and a job whose pool joins
    after admission all travel ``HELLO {}`` -> ``SUBMIT`` -> ``ASSIGN``:
    same estimates, and the same DATA bodies the workers always built
    (the named job's differing only by its tag in the tail)."""

    RUN = dict(maxsv=12, processors=2, perpass=0.0, peraver=0.0, seqnum=3)

    @staticmethod
    def _masked(body: bytes) -> bytes:
        """A DATA body without its two clock fields (sent_at, compute)."""
        return body[:24] + bytes(16) + body[40:]

    def _reference_bodies(self, job):
        """What ``run_worker`` builds for each pass, encoded locally."""
        from repro.runtime.messages import message_to_payload
        config = RunConfig(**self.RUN)
        bodies = []
        for rank in range(config.processors):
            run_worker(square, config, rank, config.worker_quota(rank),
                       send=lambda message: bodies.append(
                           self._masked(message_to_payload(message))),
                       job=job)
        return sorted(bodies)

    @pytest.fixture
    def bodies(self, monkeypatch):
        """Every DATA body the run side decodes, as it arrived."""
        from repro.runtime import distributed
        seen = []
        decode = distributed.message_from_payload

        def recording(payload):
            seen.append(payload)
            return decode(payload)

        monkeypatch.setattr(distributed, "message_from_payload", recording)
        return seen

    def test_solo_named_and_late_pool_agree_byte_for_byte(self, tmp_path,
                                                          bodies):
        sequential = parmonc(square, **self.RUN, backend="sequential",
                             use_files=False)
        server = PoolServer(port=0, workers=2, start_method="fork")
        address = "%s:%d" % server.start()
        try:
            solo = parmonc(square, **self.RUN, backend="distributed",
                           connect=address, use_files=False)
            solo_bodies = sorted(map(self._masked, bodies))
            del bodies[:]
            [named] = parmonc(
                jobs=[{"routine": square, "name": "named", **self.RUN,
                       "workdir": tmp_path / "named"}],
                backend="distributed", connect=address, workers=2)
            named_bodies = sorted(map(self._masked, bodies))
            del bodies[:]
        finally:
            server.stop()
        # The pool comes up only after the job was admitted and its
        # assignments queued: SUBMIT reaches it ahead of their ASSIGNs
        # like it reaches any other link.
        late_port = free_port()
        backend = DistributedBackend(connect=f"127.0.0.1:{late_port}",
                                     retry_interval=0.05)
        scheduler = Scheduler(backend, workers=2)
        late_server = PoolServer(port=late_port, workers=2,
                                 start_method="fork")
        try:
            late = scheduler.submit(JobSpec(
                routine=square, name="named", use_files=False,
                config=RunConfig(**self.RUN)))
            _drive(scheduler, lambda: late.dispatched == 2)
            assert late_server.sessions_served == 0
            late_server.start()
            _drive(scheduler, lambda: late.status is JobStatus.DONE)
        finally:
            scheduler.shutdown()
            late_server.stop()
        late_bodies = sorted(map(self._masked, bodies))
        for result in (solo, named, late.result):
            assert result.total_volume == 12
            for field in ("mean", "variance", "abs_error", "rel_error"):
                assert (getattr(result.estimates, field).tobytes()
                        == getattr(sequential.estimates, field).tobytes())
        assert solo_bodies == self._reference_bodies(None)
        assert named_bodies == late_bodies == self._reference_bodies(
            "named")
        assert len(solo_bodies) == 12 + 2  # one per realization + finals


def _drive(scheduler, predicate, seconds=60.0):
    """Step a synchronously driven service until ``predicate()`` holds."""
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "service made no progress"
        scheduler.step(poll_timeout=0.05)


def _streaming_spec(name, tmp_path, seqnum=0):
    return JobSpec(
        routine=square, name=name, use_files=False,
        config=RunConfig(maxsv=16, processors=2, perpass=0.0, peraver=0.0,
                         seqnum=seqnum, workdir=tmp_path / name))


class TestTeardownAndLateTraffic:
    """Shutdown, pruning and dispatch are event-driven: none of them
    may wait out a timer or trip over traffic that arrives late."""

    def test_sealed_runs_shut_down_promptly(self, monkeypatch):
        """Twenty back-to-back sealed runs, 32 KB frames still arriving
        as each one tears down: ``shutdown()`` used to sit out its 10 s
        join because a cancellation landing inside ``wait_for`` was
        swallowed and the read loop never looked at the stop flag."""
        shutdowns = []
        original = DistributedBackend.shutdown

        def timed(backend):
            started = time.monotonic()
            original(backend)
            shutdowns.append(time.monotonic() - started)

        monkeypatch.setattr(DistributedBackend, "shutdown", timed)
        server = PoolServer(port=0, workers=2, start_method="fork")
        host, port = server.start()
        try:
            for _ in range(20):
                result = parmonc(wide, nrow=1000, ncol=2, maxsv=128,
                                 perpass=0.0, peraver=0.0, processors=2,
                                 backend="distributed",
                                 connect=f"{host}:{port}", use_files=False)
                assert result.total_volume == 128
        finally:
            server.stop()
        assert len(shutdowns) == 20
        assert max(shutdowns) < 2.0

    def test_exit_of_a_pruned_job_is_stray_not_fatal(self, tmp_path):
        """A pool's EXIT frames trail the final DATA, so they can land
        after the job is DONE and pruned; the reap that meets one must
        drop and count it, not fail the service on an unknown job."""
        server = PoolServer(port=0, workers=2, start_method="fork")
        host, port = server.start()
        backend = DistributedBackend(connect=f"{host}:{port}")
        scheduler = Scheduler(backend, workers=2)
        try:
            first = scheduler.submit(_streaming_spec("first", tmp_path))
            _drive(scheduler, lambda: first.status is JobStatus.DONE)
            assert scheduler.prune() == 1
            second = scheduler.submit(
                _streaming_spec("second", tmp_path, seqnum=1))
            backend._inbox.put(_ExitRecord(
                rank=0, exitcode=0, detail="delivered late", job="first"))
            # Admits and dispatches ``second``; its workers cannot have
            # answered yet, so the empty poll falls through to the reap.
            scheduler.step(poll_timeout=0.0)
            assert scheduler.stray_messages >= 1
            _drive(scheduler, lambda: second.status is JobStatus.DONE)
        finally:
            scheduler.shutdown()
            server.stop()
        assert second.result.total_volume == 16

    def test_assign_ahead_of_its_announcement_waits_for_it(self, tmp_path,
                                                           monkeypatch):
        """An assignment whose job has no wire entry yet stays queued
        until ``open_job`` lands — which itself wakes the dispatcher;
        no wall-clock retry is armed in between."""
        server = PoolServer(port=0, workers=2, start_method="fork")
        host, port = server.start()
        backend = DistributedBackend(connect=f"{host}:{port}")
        scheduler = Scheduler(backend, workers=2)

        def settle():
            """Let every ready callback and task on the loop run."""
            async def turns():
                for _ in range(10):
                    await asyncio.sleep(0)
            asyncio.run_coroutine_threadsafe(
                turns(), backend._loop).result(timeout=10.0)

        try:
            # The first job binds the backend and brings the link up,
            # so the late one meets a connected, idle pool.
            early = scheduler.submit(_streaming_spec("early", tmp_path))
            _drive(scheduler, lambda: early.status is JobStatus.DONE)

            def busy():
                # ``link.active`` belongs to the loop thread, which adds
                # and discards keys as frames arrive: read it there.
                async def keys():
                    return [key for link in backend._links.values()
                            for key in link.active]
                return asyncio.run_coroutine_threadsafe(
                    keys(), backend._loop).result(timeout=10.0)

            _drive(scheduler, lambda: not busy())  # early's EXITs are in
            held, retries = [], []
            open_job, call_later = (backend.open_job,
                                    backend._loop.call_later)

            def spy(delay, callback, *args, **kwargs):
                if callback == backend._dispatch_event.set:
                    retries.append(delay)
                return call_later(delay, callback, *args, **kwargs)

            monkeypatch.setattr(backend, "open_job", held.append)
            monkeypatch.setattr(backend._loop, "call_later", spy)
            late = scheduler.submit(
                _streaming_spec("late", tmp_path, seqnum=1))
            scheduler.step(poll_timeout=0.0)  # admit, spawn: ASSIGNs queued
            assert held == [late]
            settle()
            # The dispatcher ran, found no entry and parked.
            assert len(backend._pending) == 2
            assert not busy()
            open_job(late)
            settle()
            assert not backend._pending  # dispatched by the registration
            _drive(scheduler, lambda: late.status is JobStatus.DONE)
        finally:
            scheduler.shutdown()
            server.stop()
        assert retries == []
        assert late.result.total_volume == 16


class TestOneOrderedInbox:
    """DATA, EXIT and lost-pool records share one inbox, so an exit
    comes off it only behind every pass its worker wrote: ``reap``
    judges with no drain and no clock."""

    @staticmethod
    def _pass(rank, volume, final):
        accumulator = MomentAccumulator(1, 1)
        for _ in range(volume):
            accumulator.add(0.5)
        return MomentMessage(rank=rank, snapshot=accumulator.snapshot(),
                             sent_at=0.0, final=final)

    def test_an_exit_is_judged_behind_its_worker_data(self):
        frames = [
            (FrameKind.DATA, message_to_payload(self._pass(0, 4, True))),
            (FrameKind.EXIT, {"rank": 0, "exitcode": 0}),
            (FrameKind.DATA, message_to_payload(self._pass(1, 2, False))),
            (FrameKind.EXIT, {"rank": 1, "exitcode": 0}),
        ]
        backend = DistributedBackend(connect="127.0.0.1:1")

        async def read_link():
            backend._stop_event = asyncio.Event()
            backend._dispatch_event = asyncio.Event()
            reader = asyncio.StreamReader()
            for kind, payload in frames:
                reader.feed_data(encode_frame(kind, payload))
            reader.feed_eof()
            link = _PoolLink(("pool", 1), reader, None, label="pool")
            link.active.update({(None, 0), (None, 1)})
            with pytest.raises(asyncio.IncompleteReadError):
                await backend._read_loop(link)
            assert link.active == set()

        asyncio.run(read_link())
        config = RunConfig(maxsv=8, processors=2)
        collector = Collector(config, MomentAccumulator(1, 1).snapshot(),
                              data=None)
        backend.engine = SimpleNamespace(
            job_context=lambda job: SimpleNamespace(collector=collector),
            all_complete=False)
        # The scheduler's turn: ingest a message, or reap on an empty poll.
        order, deaths = [], []
        for _ in frames:
            message = backend.poll(0.0)
            if message is None:
                order.append("exit")
                deaths.append([(death.rank, death.exitcode)
                               for death in backend.reap()])
            else:
                order.append((message.rank, message.final))
                collector.receive(message, now=0.0)
        assert order == [(0, True), "exit", (1, False), "exit"]
        assert deaths == [[], [(1, 0)]]
        assert collector.worker_volume(1) == 2  # the watermark it leaves
        assert backend.poll(0.0) is None and backend.reap() == []


class TestCli:
    def test_list_backends(self, capsys):
        from repro.cli.run import main
        assert main(["--list-backends"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["sequential", "multiprocess", "simcluster",
                       "distributed"]

    def test_routine_required_without_list_backends(self, capsys):
        from repro.cli.run import main
        with pytest.raises(SystemExit):
            main(["--maxsv", "10"])
        assert "routine" in capsys.readouterr().err

    def test_report_names_registered_backends(self, tmp_path, capsys):
        from repro.cli.report import main
        parmonc(square, maxsv=6, perpass=0.0, peraver=0.0,
                workdir=tmp_path)
        assert main(["--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ("registered backends: sequential, multiprocess, "
                "simcluster, distributed") in out

    def test_pool_parser_defaults(self):
        from repro.cli.pool import build_parser
        from repro.runtime.pool import DEFAULT_POOL_PORT
        args = build_parser().parse_args([])
        assert args.bind == "127.0.0.1"
        assert args.port == DEFAULT_POOL_PORT
