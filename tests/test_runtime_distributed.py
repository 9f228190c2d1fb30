"""Tests for the distributed TCP backend and the parmonc-pool daemon.

The headline property is the issue's acceptance criterion: a run
dispatched to local pools over real TCP — including a pool that joins
late and a worker SIGKILLed mid-run — completes with estimates
bit-identical to the sequential backend, because reassignment reruns a
dead rank on its own subsequence and merges in rank order.
(Cross-backend happy-path parity, resume and batched parity run in
``test_runtime_engine.py::TestBackendParity``.)
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue
import select
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.core.parmonc import build_job_spec, parmonc
from repro.exceptions import BackendError, ConfigurationError
from repro.obs.events import read_events
from repro.runtime.config import RunConfig
from repro.runtime.distributed import (
    DistributedBackend,
    _PoolLink,
    parse_connect,
)
from repro.runtime.engine import WorkerDeath
from repro.runtime.job import JobSpec, JobStatus
from repro.runtime.messages import (
    MomentMessage,
    message_from_payload,
    message_to_payload,
    payload_is_final,
)
from repro.runtime.pool import PoolServer, _Relay
from repro.runtime.scheduler import Scheduler
from repro.runtime.wire import (
    FrameDecoder,
    FrameKind,
    config_to_payload,
    encode_frame,
    routine_to_payload,
)
from repro.runtime.worker import run_worker
from repro.stats.accumulator import MomentAccumulator
from repro.stats.statistic import payload_map

from test_runtime_engine import assert_same_bytes
from test_runtime_liveness import opened_job


def square(rng):
    return rng.random() ** 2


#: Directory (via environment, so it crosses the fork into pool worker
#: processes) where the hanging routine leaves its pid; unset = benign.
_HANG_DIR_ENV = "PARMONC_TEST_HANG_DIR"

_CALLS = {"n": 0}


def hang_on_sixth(rng):
    """Uniform squares, except one worker process hangs on its 6th call.

    The count is per *process*: on a pool that is per slot, across
    every assignment the slot has run.  The pid file is created
    ``O_EXCL``, so across every worker process exactly one wins the
    race, records its pid for the test to SIGKILL, and sleeps forever —
    after having simulated 5 realizations, of which it delivered as
    many as its last pass out of the latest-wins outbox carried.
    Everyone else computes on.
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


#: Directory (via environment) where the ``noted_*`` routines, and the
#: ones below that use it, leave a file named after the pid of every
#: process that runs them; unset = benign.
_PID_DIR_ENV = "PARMONC_TEST_PID_DIR"

_SLOT_CALLS = {"n": 0}


def _note_pid() -> str | None:
    directory = os.environ.get(_PID_DIR_ENV)
    if directory:
        open(os.path.join(directory, str(os.getpid())), "a").close()
    return directory


def _pids(directory) -> set[int]:
    return {int(name) for name in os.listdir(directory)
            if name.isdigit()}


def noted_square(rng):
    _note_pid()
    return rng.random() ** 2


def noted_wide(rng):
    _note_pid()
    return wide(rng)


def noted_grid(rng):
    """A 3x4 realization."""
    _note_pid()
    return np.array([[rng.random() for _ in range(4)] for _ in range(3)])


def broken(rng):
    _note_pid()
    raise ValueError("this routine always fails")


def _refuse_to_load():
    raise RuntimeError("this routine cannot be rebuilt here")


class Unloadable:
    """A routine that runs here but whose pickle raises on load."""

    def __call__(self, rng):
        return rng.random()

    def __reduce__(self):
        return _refuse_to_load, ()


def exit_on_thirteenth(rng):
    """``os._exit(0)`` on the 13th call of one process, once (O_EXCL).

    With quota 10 per rank on a one-slot pool, the 13th call of the
    slot is the 3rd realization of its second assignment.
    """
    directory = _note_pid()
    if directory:
        _SLOT_CALLS["n"] += 1
        if _SLOT_CALLS["n"] == 13:
            try:
                os.close(os.open(os.path.join(directory, "exited"),
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os._exit(0)
    return rng.random() ** 2


def block_until_killed(rng):
    """Publish this process's pid in ``busy.pid`` and block on signals."""
    directory = _note_pid()
    if directory:
        staged = os.path.join(directory, "busy.tmp")
        with open(staged, "w") as handle:
            handle.write(str(os.getpid()))
        os.rename(staged, os.path.join(directory, "busy.pid"))
        while True:
            signal.pause()
    return rng.random()


def wait_dead(pid: int, timeout: float = 30.0) -> bool:
    """Whether process ``pid`` is gone within ``timeout`` (a pidfd, no
    polling); a pid already reaped counts as gone."""
    try:
        fd = os.pidfd_open(pid)
    except ProcessLookupError:
        return True
    try:
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


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
        hangs after simulating 5 realizations; rank 1 waits, pending.
        A second pool then joins late (takes rank 1), the hung worker
        is SIGKILLed (its EXIT arrives after the passes left in its
        pipe — drain-before-verdict), and the engine reruns rank 0
        whole on its own subsequence.  How much the dead worker
        delivered depends on which passes the latest-wins outbox let
        through; the rerun repeats those bytes, so the merged estimate
        must equal the fault-free sequential one, bit for bit.
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
        assert result.per_rank_volumes == {0: 10, 1: 10}
        # Reference: the fault-free run (no environment -> benign).
        monkeypatch.delenv(_HANG_DIR_ENV)
        assert_same_bytes(result, parmonc(
            hang_on_sixth, maxsv=20, perpass=0.0, peraver=0.0,
            processors=2, backend="sequential", use_files=False))
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
        from repro.runtime.engine import Engine, create_backend
        from repro.runtime.job import JobSpec
        from repro.runtime.scheduler import Scheduler
        from repro.runtime.sequential import SequentialBackend

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
            reference = Engine(
                SequentialBackend(),
                RunConfig(maxsv=30, processors=2, perpass=0.0,
                          peraver=0.0, seqnum=i,
                          workdir=tmp_path / f"ref{i}"),
                use_files=False).run(square)
            assert (job.result.estimates.mean.tobytes()
                    == reference.estimates.mean.tobytes())
            assert (job.result.estimates.abs_error.tobytes()
                    == reference.estimates.abs_error.tobytes())


class TestPoolSlots:
    """A pool session keeps its slots: forked once, handed every ASSIGN
    that finds one idle, replaced only when one dies.  Gated by pid
    files and pidfds, never by a sleep."""

    RUN = dict(perpass=0.0, peraver=0.0)

    SHAPES = (
        dict(routine=noted_square, maxsv=3, seqnum=1),
        dict(routine=noted_wide, nrow=1000, ncol=2, maxsv=24, processors=2,
             seqnum=2, batch_size=5, statistics="extrema", telemetry=True),
        dict(routine=noted_grid, nrow=3, ncol=4, maxsv=30, processors=2,
             seqnum=3, statistics="histogram,covariance"),
    )

    def _service(self, workers):
        server = PoolServer(port=0, workers=workers, start_method="fork")
        backend = DistributedBackend(connect="%s:%d" % server.start())
        return server, Scheduler(backend, workers=workers)

    def _submit(self, scheduler, name, routine, **run):
        return scheduler.submit(build_job_spec(dict(
            routine=routine, name=name, use_files=False, **self.RUN,
            **run)))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_twenty_jobs_through_one_session_fork_workers_slots(
            self, tmp_path, workers):
        # The watcher and the loop thread share the slot books; with
        # threads switching every microsecond, a lost update, or a
        # CANCEL that stops a slot whose rank is done, forks another.
        interval = sys.getswitchinterval()
        server, scheduler = self._service(workers)
        sys.setswitchinterval(1e-6)
        scheduler.start()
        try:
            for index in range(20):
                job = self._submit(scheduler, f"job{index}", square,
                                   maxsv=4 * workers, processors=workers,
                                   seqnum=index)
                assert scheduler.wait(job, timeout=60.0)
                assert job.status is JobStatus.DONE, job.error
                assert job.result.total_volume == 4 * workers
        finally:
            sys.setswitchinterval(interval)
            assert scheduler.shutdown(timeout=60.0) is True
            server.stop()
        assert server.sessions_served == 1
        assert server.slots_started == workers
        assert server.assignments_served == 20 * workers

    def test_stop_returns_once_every_slot_is_stopped(self):
        # A session's watcher stops its slots after the run said BYE;
        # stop() must not return before it has, or a process exiting
        # then leaves slots behind and the dying watcher's traceback.
        before = {child.pid for child in multiprocessing.active_children()}
        threads = set(threading.enumerate())
        server, scheduler = self._service(2)
        scheduler.start()
        try:
            for index in range(3):
                job = self._submit(scheduler, f"job{index}", square,
                                   maxsv=8, processors=2, seqnum=index)
                assert scheduler.wait(job, timeout=60.0)
                assert job.status is JobStatus.DONE, job.error
            # The session's idle slots, alive until it ends.
            slots = {child.pid for child
                     in multiprocessing.active_children()} - before
        finally:
            assert scheduler.shutdown(timeout=60.0) is True
            server.stop()
        assert len(slots) == 2
        assert not [thread.name for thread in threading.enumerate()
                    if thread not in threads and "_watch" in thread.name]
        assert not slots & {child.pid for child
                            in multiprocessing.active_children()}

    def test_jobs_of_changing_shape_share_one_slot(self, tmp_path,
                                                   monkeypatch):
        references = [
            parmonc(shape["routine"], backend="sequential", **self.RUN,
                    **{key: value for key, value in shape.items()
                       if key != "routine"},
                    workdir=tmp_path / f"ref{index}")
            for index, shape in enumerate(self.SHAPES)]
        monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
        server = PoolServer(port=0, workers=1, start_method="fork")
        address = "%s:%d" % server.start()
        try:
            results = parmonc(
                jobs=[{**shape, **self.RUN, "name": f"shape{index}",
                       "workdir": tmp_path / f"job{index}"}
                      for index, shape in enumerate(self.SHAPES)],
                backend="distributed", connect=address, workers=1)
        finally:
            server.stop()
        for result, reference in zip(results, references):
            assert_same_bytes(result, reference)
        # One slot ran all five assignments, its context changing
        # between jobs as the fair share interleaved them.
        assert len(_pids(tmp_path)) == 1
        assert (server.slots_started, server.assignments_served) == (1, 5)

    def test_a_raising_routine_costs_its_slot_and_only_its_job(
            self, tmp_path, monkeypatch):
        reference = parmonc(square, maxsv=16, processors=2, seqnum=1,
                            backend="sequential", use_files=False,
                            **self.RUN)
        monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
        server, scheduler = self._service(workers=1)
        try:
            bad = scheduler.submit(build_job_spec(dict(
                routine=broken, name="bad", maxsv=4, telemetry=True,
                workdir=tmp_path / "bad", **self.RUN)))
            _drive(scheduler, lambda: bad.status == JobStatus.FAILED)
            [bad_slot] = _pids(tmp_path)
            good = self._submit(scheduler, "good", noted_square, maxsv=16,
                                processors=2, seqnum=1)
            _drive(scheduler, lambda: good.status == JobStatus.DONE)
        finally:
            scheduler.shutdown()
            server.stop()
        died = read_events(tmp_path / "bad" / "parmonc_data" / "telemetry"
                           / "events.jsonl", kind="worker_died")
        assert [event.fields["exitcode"] for event in died] == [1]
        assert_same_bytes(good.result, reference)
        # A fresh slot ran both of the good job's ranks.
        assert len(_pids(tmp_path) - {bad_slot}) == 1
        assert server.slots_started == 2

    def test_a_routine_the_pool_cannot_rebuild_fails_only_its_job(self):
        reference = parmonc(square, maxsv=200, seqnum=1, backend="sequential",
                            use_files=False, **self.RUN)
        server, scheduler = self._service(workers=2)
        try:
            good = self._submit(scheduler, "good", square, maxsv=200,
                                seqnum=1)
            # Its ASSIGN is on the session before the bad job's SUBMIT.
            # (Its one rank may also finish within that turn.)
            _drive(scheduler, lambda: good.dispatched > 0)
            bad = self._submit(scheduler, "bad", Unloadable(), maxsv=4,
                               seqnum=2)
            _drive(scheduler, lambda: good.finished.is_set()
                   and bad.finished.is_set())
            third = self._submit(scheduler, "third", square, maxsv=8,
                                 seqnum=3)
            _drive(scheduler, third.finished.is_set)
        finally:
            scheduler.shutdown()
            server.stop()
        assert good.status is JobStatus.DONE, good.error
        assert_same_bytes(good.result, reference)
        assert bad.status is JobStatus.FAILED
        assert "job bad rank 0" in str(bad.error)
        assert third.status is JobStatus.DONE, third.error
        assert server.sessions_served == 1

    def test_exit_mid_assignment_on_a_reused_slot_is_a_death(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
        server = PoolServer(port=0, workers=1, start_method="fork")
        address = "%s:%d" % server.start()
        try:
            result = parmonc(exit_on_thirteenth, maxsv=20, processors=2,
                             backend="distributed", connect=address,
                             on_worker_death="reassign", telemetry=True,
                             workdir=tmp_path / "run", **self.RUN)
        finally:
            server.stop()
        # Rank 0 ran whole on the slot; rank 1 exited 0 on the same slot
        # without its final; a fresh slot reran rank 1 whole.
        assert result.total_volume == 20
        assert result.recovered_ranks == (1,)
        assert result.per_rank_volumes == {0: 10, 1: 10}
        assert server.slots_started == 2
        died = read_events(tmp_path / "run" / "parmonc_data" / "telemetry"
                           / "events.jsonl", kind="worker_died")
        assert [(event.fields["rank"], event.fields["exitcode"])
                for event in died] == [(1, 0)]
        monkeypatch.delenv(_PID_DIR_ENV)
        assert_same_bytes(result, parmonc(
            exit_on_thirteenth, maxsv=20, processors=2,
            backend="sequential", use_files=False, **self.RUN))

    def test_cancel_terminates_only_the_busy_slot(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv(_PID_DIR_ENV, str(tmp_path))
        server, scheduler = self._service(workers=2)
        published = tmp_path / "busy.pid"
        try:
            first = self._submit(scheduler, "first", noted_square, maxsv=8,
                                 processors=2)
            _drive(scheduler, lambda: first.status == JobStatus.DONE)
            slots = _pids(tmp_path)
            # Heartbeats advertise busy slots: two idle ones are no load.
            assert server.busy_workers == 0
            stuck = self._submit(scheduler, "stuck", block_until_killed,
                                 maxsv=8)
            _drive(scheduler, published.exists)
            busy = int(published.read_text())
            assert server.busy_workers == 1
            assert scheduler.cancel(stuck)
            _drive(scheduler, lambda: stuck.status == JobStatus.CANCELLED)
            assert wait_dead(busy)
            last = self._submit(scheduler, "last", noted_square, maxsv=8)
            _drive(scheduler, lambda: last.status == JobStatus.DONE)
        finally:
            scheduler.shutdown()
            server.stop()
        assert len(slots) == 2 and busy in slots
        # The last job ran on the slot that idled through the cancel.
        assert _pids(tmp_path) == slots
        assert server.slots_started == 2

    def test_spawned_slots_decode_their_routine_from_the_wire(self):
        sequential = parmonc(square, maxsv=12, processors=2,
                             backend="sequential", use_files=False,
                             **self.RUN)
        server = PoolServer(port=0, workers=2, start_method="spawn")
        address = "%s:%d" % server.start()
        try:
            distributed = parmonc(square, maxsv=12, processors=2,
                                  backend="distributed", connect=address,
                                  use_files=False, **self.RUN)
        finally:
            server.stop()
        assert_same_bytes(distributed, sequential)
        assert server.slots_started == 2


class TestLatestWinsRelay:
    """A session's relay keeps at most one unsent pass per rank between
    the watcher thread and the event loop; finals and EXITs always go
    out, in read order."""

    KEYS = ((None, 0), ("a", 1), ("a", 2))

    @staticmethod
    def _body(index: int, final: bool) -> bytes:
        """A distinct pass body; only its final flag matters here."""
        return message_to_payload(MomentMessage(
            rank=0, snapshot=MomentAccumulator(1, 1).snapshot(),
            sent_at=float(index), final=final))

    def _assert_relayed(self, reads, frames, superseded):
        """Each key's frames follow its reads in order: every final as
        DATA then EXIT 0, every death as EXIT, every pass that no body of
        its rank followed, and nothing else than superseded passes."""
        per_key = {key: [] for key in reads}
        for kind, payload in frames:
            if kind is FrameKind.DATA:
                key = next(key for key, items in reads.items()
                           if any(item == payload for item in items))
                per_key[key].append(payload)
            else:
                assert kind is FrameKind.EXIT
                per_key[(payload.get("job"), payload["rank"])].append(
                    payload["exitcode"])
        bodies = 0
        for key, items in reads.items():
            sent = iter(per_key[key])
            pending = next(sent, None)
            for index, item in enumerate(items):
                if isinstance(item, int):  # a death's exit code
                    assert pending == item, (key, index)
                    pending = next(sent, None)
                    continue
                bodies += 1
                if payload_is_final(item):
                    assert pending == item, (key, index)
                    assert next(sent, None) == 0, (key, index)
                    pending = next(sent, None)
                elif pending == item:
                    pending = next(sent, None)
                else:  # dropped: only for a body of its rank right behind
                    following = items[index + 1:index + 2]
                    assert following and isinstance(following[0], bytes), \
                        (key, index)
            assert pending is None, key
        data = sum(kind is FrameKind.DATA for kind, _ in frames)
        assert data + superseded == bodies

    def test_generated_schedules_deliver_in_order_and_count(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        steps = st.lists(st.one_of(
            st.tuples(st.just("read"), st.integers(0, 2),
                      st.sampled_from(["pass", "pass", "final", -9, 1])),
            st.tuples(st.just("flush"), st.integers(1, 3))), max_size=40)

        @hypothesis.settings(derandomize=True, print_blob=True,
                             deadline=None, max_examples=400)
        @hypothesis.given(ranks=st.integers(1, 3), schedule=steps)
        def check(ranks, schedule):
            frames, loop = [], []
            relay = _Relay(lambda kind, payload: frames.append(
                (kind, payload)), lambda: loop.append(relay.drain))
            reads = {key: [] for key in self.KEYS[:ranks]}
            count = 0
            for step in schedule:
                if step[0] == "flush":  # the loop runs what it was handed
                    for _ in range(min(step[1], len(loop))):
                        loop.pop(0)()
                    continue
                _, which, what = step
                key = self.KEYS[which % ranks]
                if isinstance(what, str):
                    what = self._body(count, what == "final")
                    count += 1
                reads[key].append(what)
                relay.forward(key, what)
            while loop:
                loop.pop(0)()
            self._assert_relayed(reads, frames, relay.superseded)

        check()

    def test_a_live_loop_and_watcher_lose_no_update(self):
        # The watcher and the loop thread share the unsent passes; with
        # threads switching every microsecond, a lost update drops a
        # final, reorders a rank or miscounts what was superseded.
        handed = queue.SimpleQueue()  # drains, then None to stop
        runner = threading.Thread(target=lambda: [
            drain() for drain in iter(handed.get, None)], daemon=True)
        frames = []
        relay = _Relay(lambda kind, payload: frames.append((kind, payload)),
                       lambda: handed.put(relay.drain))
        reads = {key: [] for key in self.KEYS}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        runner.start()
        try:
            for index in range(3000):
                key = self.KEYS[index % 3]
                body = self._body(index, index >= 2997)
                reads[key].append(body)
                relay.forward(key, body)
            done = threading.Event()
            handed.put(done.set)
            assert done.wait(30.0)
        finally:
            sys.setswitchinterval(interval)
            handed.put(None)
            runner.join(30.0)
        assert not runner.is_alive()
        self._assert_relayed(reads, frames, relay.superseded)

    def test_every_pass_a_slot_wrote_is_sent_or_superseded(self, tmp_path):
        server = PoolServer(port=0, workers=2, start_method="fork")
        address = "%s:%d" % server.start()
        try:
            result = parmonc(wide, nrow=1000, ncol=2, maxsv=64,
                             processors=2, backend="distributed",
                             connect=address, telemetry=True,
                             workdir=tmp_path, perpass=0.0, peraver=0.0)
        finally:
            server.stop()
        finals = list(read_events(tmp_path / "parmonc_data" / "telemetry"
                                  / "events.jsonl", kind="worker_final"))
        written = sum(event.fields["messages"] for event in finals)
        assert len(finals) == 2
        assert (result.messages_received + server.passes_superseded
                == written)


class TestOneSessionShape:
    """A solo run, a named job of a batch and a job whose pool joins
    after admission all travel ``HELLO {}`` -> ``SUBMIT`` -> ``ASSIGN``:
    same estimates, and DATA bodies the workers always built (the named
    job's differing only by its tag in the tail) — of each rank, the
    passes its latest-wins outbox let through, in order, then its
    final."""

    RUN = dict(maxsv=12, processors=2, perpass=0.0, peraver=0.0, seqnum=3)

    @staticmethod
    def _masked(body: bytes) -> bytes:
        """A DATA body without its two clock fields (sent_at, compute)."""
        return body[:24] + bytes(16) + body[40:]

    def _reference_bodies(self, job):
        """What ``run_worker`` builds for each pass, encoded locally."""
        config = RunConfig(**self.RUN)
        bodies = {}
        for rank in range(config.processors):
            run_worker(square, config, rank, config.worker_quota(rank),
                       send=lambda message: bodies.setdefault(
                           message.rank, []).append(
                               self._masked(message_to_payload(message))),
                       job=job)
        return bodies

    def _assert_built_by_run_worker(self, received, job):
        """Each rank's bodies are an in-order subsequence of what
        ``run_worker`` builds, ending with the byte-equal final."""
        by_rank = {}
        for body in received:
            by_rank.setdefault(message_from_payload(body).rank, []).append(
                self._masked(body))
        reference = self._reference_bodies(job)
        assert sorted(by_rank) == sorted(reference)
        for rank, bodies in by_rank.items():
            built = iter(reference[rank])
            assert all(body in built for body in bodies), rank
            assert bodies[-1] == reference[rank][-1], rank

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
            solo_bodies = list(bodies)
            del bodies[:]
            [named] = parmonc(
                jobs=[{"routine": square, "name": "named", **self.RUN,
                       "workdir": tmp_path / "named"}],
                backend="distributed", connect=address, workers=2)
            named_bodies = list(bodies)
            del bodies[:]
        finally:
            server.stop()
        # The pool comes up only after the job was admitted: its ranks
        # wait in the job's pending, never dispatched while no slot is
        # free, and SUBMIT reaches the pool ahead of their ASSIGNs like
        # it reaches any other link.
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
            _drive(scheduler, lambda: late.status is JobStatus.RUNNING)
            scheduler.step(poll_timeout=0.05)
            assert late.dispatched == 0 and len(late.pending) == 2
            assert late_server.sessions_served == 0
            late_server.start()
            _drive(scheduler, lambda: late.status is JobStatus.DONE)
        finally:
            scheduler.shutdown()
            late_server.stop()
        for result in (solo, named, late.result):
            assert result.total_volume == 12
            assert_same_bytes(result, sequential)
        self._assert_built_by_run_worker(solo_bodies, None)
        self._assert_built_by_run_worker(named_bodies, "named")
        self._assert_built_by_run_worker(bodies, "named")


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
            backend._inbox.append(WorkerDeath(
                0, 0, detail="delivered late", job="first"))
            # Admits and dispatches ``second``; its workers cannot have
            # answered yet, so the empty poll falls through to the reap.
            scheduler.step(poll_timeout=0.0)
            assert scheduler.stray_messages >= 1
            _drive(scheduler, lambda: second.status is JobStatus.DONE)
        finally:
            scheduler.shutdown()
            server.stop()
        assert second.result.total_volume == 16

    def test_stopping_a_pool_mid_session_logs_no_error(self, caplog,
                                                        monkeypatch):
        # PoolServer.stop() ends the open session; it must end normally
        # once its slots are stopped: no error logged by the pool, no
        # exception escaping the serving thread or a watcher.
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        server = PoolServer(port=0, workers=1, start_method="fork")
        with caplog.at_level(logging.DEBUG, logger="repro.runtime.pool"), \
                socket.create_connection(server.start()) as run:
            run.sendall(encode_frame(FrameKind.HELLO, {}))
            decoder, frames = FrameDecoder(), []
            while not frames:
                frames = list(decoder.feed(run.recv(65536)))
            assert frames[0][0] is FrameKind.WELCOME
            server.stop()
        assert [record.getMessage() for record in caplog.records
                if record.name == "repro.runtime.pool"
                and record.levelno >= logging.ERROR] == []
        assert uncaught == []

    def test_a_run_that_reads_nothing_gets_no_heartbeat_backlog(self):
        # An idle service reads nothing between jobs.  Once the kernel
        # buffers are full the pool queues no beat behind an unsent
        # one, so its write buffer stays one beat long however long
        # the idle lasts.
        server = PoolServer(port=0, workers=1, start_method="fork",
                            heartbeat_interval=0.001)
        run = socket.socket()
        run.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            run.connect(server.start())
            run.sendall(encode_frame(FrameKind.HELLO, {}))
            decoder, frames = FrameDecoder(), []
            while not frames:
                frames = list(decoder.feed(run.recv(64)))
            assert frames[0][0] is FrameKind.WELCOME
            (session,) = server._sessions
            # Small kernel buffers on both ends, so they fill in moments.
            session.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            beat = len(encode_frame(FrameKind.HEARTBEAT, {
                "busy": 0, "session_busy": 0, "workers": 1}))
            threading.Event().wait(1.0)  # ~1000 beats, none read
            assert len(session.out) <= beat
        finally:
            run.close()
            server.stop()


class TestOneRunThread:
    """The run side of the exchange reads its sockets only when the
    scheduler polls; what must happen between polls happens on the
    heartbeat timer."""

    def test_an_idle_service_keeps_its_session(self):
        # The pool drops a run silent for session_timeout; with no job
        # live the scheduler polls nothing, so only the heartbeat
        # thread keeps the session across the gap.
        server = PoolServer(port=0, workers=2, start_method="fork",
                            heartbeat_interval=0.05, session_timeout=0.5)
        backend = DistributedBackend(connect="%s:%d" % server.start(),
                                     heartbeat_interval=0.05)
        scheduler = Scheduler(backend, workers=2)
        scheduler.start()
        try:
            for index in range(2):
                job = scheduler.submit(build_job_spec(dict(
                    routine=square, name=f"job{index}", maxsv=4,
                    processors=2, seqnum=index, perpass=0.0, peraver=0.0,
                    use_files=False)))
                assert scheduler.wait(job, timeout=60.0)
                assert job.status is JobStatus.DONE, job.error
                if index == 0:
                    # The gap is the subject here, not a synchronisation:
                    # three session timeouts with nothing live.
                    threading.Event().wait(1.5)
        finally:
            assert scheduler.shutdown(timeout=60.0) is True
            server.stop()
        assert server.sessions_served == 1
        assert server.slots_started == 2

    def test_a_pool_restarted_between_jobs_serves_the_next(self):
        # The pool goes away and a new one takes its port while nothing
        # is live.  The next job's spawn reads the old session's end
        # before it picks a pool, so no assignment is written into the
        # dead session and counted lost (on_worker_death is "fail").
        first = PoolServer(port=0, workers=2, start_method="fork")
        host, port = first.start()
        second = PoolServer(port=port, workers=2, start_method="fork")
        backend = DistributedBackend(connect=f"{host}:{port}",
                                     heartbeat_interval=0.05)
        scheduler = Scheduler(backend, workers=2)
        scheduler.start()
        try:
            for index in range(2):
                job = scheduler.submit(build_job_spec(dict(
                    routine=square, name=f"job{index}", maxsv=4,
                    processors=2, seqnum=index, perpass=0.0, peraver=0.0,
                    use_files=False)))
                assert scheduler.wait(job, timeout=60.0)
                assert job.status is JobStatus.DONE, job.error
                if index == 0:
                    first.stop()
                    second.start()
                    # Heartbeats meet the closed session during the gap.
                    threading.Event().wait(0.3)
        finally:
            assert scheduler.shutdown(timeout=60.0) is True
            first.stop()
            second.stop()
        assert (first.sessions_served, second.sessions_served) == (1, 1)

    def test_every_resolved_target_is_tried_on_each_attempt(
            self, monkeypatch):
        # Two names each resolve to a refusing address ahead of their
        # pool's, like localhost's [::1, 127.0.0.1] against a pool bound
        # to 127.0.0.1.  A refused connect goes on to the next target at
        # once, so both pools join long before any redial is due.
        pools = [PoolServer(port=0, workers=1, start_method="fork")
                 for _ in range(2)]
        refusing = socket.socket()
        refusing.bind(("127.0.0.1", 0))  # bound, never listening
        targets = {}
        for name, pool in zip(("pool-a", "pool-b"), pools):
            targets[name] = [
                (socket.AF_INET, socket.SOCK_STREAM, 0, "",
                 refusing.getsockname()),
                (socket.AF_INET, socket.SOCK_STREAM, 0, "", pool.start())]
        lookup = socket.getaddrinfo
        monkeypatch.setattr(socket, "getaddrinfo", lambda host, *args,
                            **kwargs: targets.get(host)
                            or lookup(host, *args, **kwargs))
        backend = DistributedBackend(connect="pool-a:1,pool-b:2",
                                     retry_interval=60.0)
        backend.bind(SimpleNamespace(running=lambda: []))
        try:
            deadline = time.monotonic() + 10.0
            while not (len(backend._links) == 2 and all(
                    link.welcomed for link in backend._links.values())):
                assert time.monotonic() < deadline, backend._links
                backend.poll(0.05)
            assert backend._redial == {}
        finally:
            backend.shutdown()
            refusing.close()
            for pool in pools:
                pool.stop()
        assert [pool.sessions_served for pool in pools] == [1, 1]


class TestOnePoolThread:
    """A pool serves every session from one thread over non-blocking
    sockets: a run that says nothing, or reads nothing, costs only its
    own session, and stopping the pool stops every slot."""

    @staticmethod
    def _hello(run: socket.socket) -> None:
        run.sendall(encode_frame(FrameKind.HELLO, {}))
        decoder, frames = FrameDecoder(), []
        while not frames:
            frames = list(decoder.feed(run.recv(64)))
        assert frames[0][0] is FrameKind.WELCOME

    def test_a_connection_that_never_says_hello_is_dropped(self):
        # The silence watchdog counts from the accept, so a connection
        # that never says HELLO gives back its socket, watcher and host.
        threads = set(threading.enumerate())
        server = PoolServer(port=0, workers=1, start_method="fork",
                            heartbeat_interval=0.05, session_timeout=0.3)
        try:
            with socket.create_connection(server.start()) as silent:
                silent.settimeout(10.0)  # never dropped: fail, not hang
                assert silent.recv(64) == b""
            assert len(server._sessions) == 0
            watchers = [thread for thread in threading.enumerate()
                        if thread not in threads and "_watch" in thread.name]
            for watcher in watchers:
                watcher.join(10.0)
            assert not [watcher for watcher in watchers
                        if watcher.is_alive()]
        finally:
            server.stop()
        assert server.sessions_served == 1

    def test_passes_leave_on_the_relays_wake_not_on_a_timer(self):
        # Neither end beats during the test, so only the relay's wake
        # moves what the watcher read onto the socket; a wake lost to a
        # race would hold a job's final until the next beat.
        server = PoolServer(port=0, workers=2, start_method="fork",
                            heartbeat_interval=3600.0)
        backend = DistributedBackend(connect="%s:%d" % server.start(),
                                     heartbeat_interval=3600.0,
                                     heartbeat_timeout=3600.0)
        scheduler = Scheduler(backend, workers=2)
        scheduler.start()
        try:
            for index in range(20):
                job = scheduler.submit(build_job_spec(dict(
                    routine=wide, nrow=1000, ncol=2, name=f"job{index}",
                    maxsv=32, processors=2, seqnum=index, perpass=0.0,
                    peraver=0.0, use_files=False)))
                assert scheduler.wait(job, timeout=10.0)
                assert job.status is JobStatus.DONE, job.error
        finally:
            assert scheduler.shutdown(timeout=60.0) is True
            server.stop()

    def test_a_stalled_run_does_not_stall_another_session(self):
        # Session A says HELLO and then reads nothing, with small kernel
        # buffers on both ends, so the pool's beats to it fill them and
        # wait in its unsent buffer.  Session B's job runs to DONE.
        server = PoolServer(port=0, workers=2, start_method="fork",
                            heartbeat_interval=0.001)
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            host, port = server.start()
            stalled.connect((host, port))
            self._hello(stalled)
            (session,) = server._sessions
            session.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                    4096)
            deadline = time.monotonic() + 30.0
            while not session.out:  # the kernel took all it will
                assert time.monotonic() < deadline, "A's buffers never filled"
                threading.Event().wait(0.01)
            result = parmonc(square, maxsv=16, processors=2,
                             backend="distributed", connect=f"{host}:{port}",
                             use_files=False, perpass=0.0, peraver=0.0)
            assert result.total_volume == 16
            assert session in server._sessions  # A is still connected
        finally:
            stalled.close()
            server.stop()
        assert server.sessions_served == 2

    def test_a_name_is_served_on_every_address_it_resolves_to(
            self, monkeypatch):
        # As asyncio.start_server did: one listener per address, so a
        # run that dials either address of a dual-stack name finds the
        # pool, on the one port a port-0 pool picked.
        with socket.socket(socket.AF_INET6) as probe:
            try:
                probe.bind(("::1", 0))
            except OSError:
                pytest.skip("no IPv6 loopback")
        resolve = socket.getaddrinfo

        def dual_stack(host, *args, **kwargs):
            if host != "pool.test":
                return resolve(host, *args, **kwargs)
            return [*resolve("127.0.0.1", *args, **kwargs),
                    *resolve("::1", *args, **kwargs)]

        monkeypatch.setattr(socket, "getaddrinfo", dual_stack)
        server = PoolServer(host="pool.test", port=0, workers=1,
                            start_method="fork")
        try:
            port = server.start()[1]
            for address in ("127.0.0.1", "::1"):
                with socket.create_connection((address, port),
                                              timeout=10.0) as run:
                    self._hello(run)
        finally:
            server.stop()
        assert server.address == ("127.0.0.1", port)
        assert server.sessions_served == 2

    def test_a_malformed_frame_gets_an_error_frame_before_the_hangup(self):
        server = PoolServer(port=0, workers=1, start_method="fork",
                            heartbeat_interval=3600.0)
        try:
            with socket.create_connection(server.start()) as run:
                run.settimeout(10.0)
                self._hello(run)
                frame = bytearray(encode_frame(FrameKind.HEARTBEAT, {}))
                frame[-1] ^= 0xFF  # the body no longer matches its CRC
                run.sendall(frame)
                received = bytearray()
                while chunk := run.recv(4096):
                    received += chunk
        finally:
            server.stop()
        (kind, payload), = FrameDecoder().feed(bytes(received))
        assert kind is FrameKind.ERROR
        assert "checksum" in payload["detail"]

    def test_stop_waits_for_a_serve_on_another_thread(self):
        # serve() is the blocking call parmonc-pool makes; stop() from
        # another thread returns once no watcher, and so no slot, runs.
        server = PoolServer(port=0, workers=1, start_method="fork")
        ready = threading.Event()
        serving = threading.Thread(target=server.serve, args=(ready,),
                                   daemon=True)
        serving.start()
        assert ready.wait(10.0)
        with socket.create_connection(server.address) as run:
            self._hello(run)
            (session,) = server._sessions
            server.stop()
            assert not session.watcher.is_alive()
        serving.join(10.0)
        assert not serving.is_alive()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="pidfds and POSIX signals (Linux only)")
    def test_sigint_leaves_no_slot_alive(self, tmp_path):
        # parmonc-pool, interrupted with a session open and one slot
        # busy in a routine that never returns, exits 0 and leaves no
        # worker process behind.
        source = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([
            source, os.path.dirname(os.path.abspath(__file__))]))
        env[_PID_DIR_ENV] = str(tmp_path)
        pool = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.pool", "--port", "0",
             "--workers", "2", "--start-method", "fork"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        published = tmp_path / "busy.pid"
        try:
            host, _, port = pool.stdout.readline().split()[-1].rpartition(
                ":")
            with socket.create_connection((host, int(port))) as run:
                self._hello(run)
                run.sendall(encode_frame(FrameKind.SUBMIT, {
                    "config": config_to_payload(RunConfig(maxsv=8)),
                    "routine": routine_to_payload(block_until_killed)})
                    + encode_frame(FrameKind.ASSIGN,
                                   {"rank": 0, "quota": 8}))
                deadline = time.monotonic() + 30.0
                while not published.exists():
                    assert time.monotonic() < deadline, "no slot got busy"
                    threading.Event().wait(0.01)
                pool.send_signal(signal.SIGINT)
                _, errors = pool.communicate(timeout=60.0)
        finally:
            if pool.poll() is None:
                pool.kill()
                pool.communicate()
        assert pool.returncode == 0, errors
        assert "interrupted" in errors
        slots = _pids(tmp_path)
        assert int(published.read_text()) in slots
        assert [pid for pid in slots if not wait_dead(pid, 5.0)] == []


class TestOneOrderedInbox:
    """DATA, EXIT and lost-pool records share one inbox, so an exit
    comes off it only behind every pass its worker wrote: ``reap``
    reports it with no drain and no clock, and the job judges it."""

    @staticmethod
    def _pass(rank, volume, final):
        accumulator = MomentAccumulator(1, 1)
        for _ in range(volume):
            accumulator.add(0.5)
        return MomentMessage(rank=rank, snapshot=accumulator.snapshot(),
                             sent_at=0.0, final=final)

    def test_an_exit_is_judged_behind_its_worker_data(self):
        # The end of the pool's stream, and the ranks it leaves dead,
        # are pinned by
        # test_a_lost_pool_queues_its_unfinished_ranks_behind_its_data.
        frames = [
            (FrameKind.DATA, message_to_payload(self._pass(0, 4, True))),
            (FrameKind.EXIT, {"rank": 0, "exitcode": 0}),
            (FrameKind.DATA, message_to_payload(self._pass(1, 2, False))),
            (FrameKind.EXIT, {"rank": 1, "exitcode": 0}),
        ]
        backend = DistributedBackend(connect="127.0.0.1:1")
        ours, pools = socket.socketpair()
        pools.sendall(b"".join(encode_frame(*frame) for frame in frames))
        link = _PoolLink(("pool", 1), ours, label="pool", welcomed=True)
        link.active.update({(None, 0), (None, 1)})
        while len(backend._inbox) < len(frames):
            backend._receive(link)
        ours.close()
        pools.close()
        assert link.active == set()
        backend.engine = SimpleNamespace(all_complete=False)
        job = opened_job(RunConfig(maxsv=8, processors=2), backend)
        job.record_spawn(backend.plan(job), None, 0.0)
        # The scheduler's turn: ingest a message, or reap on an empty poll
        # and let the job judge what was reaped.
        order, verdicts = [], []
        for _ in frames:
            message = backend.poll(0.0)
            if message is None:
                exits = backend.reap()
                order.append([(death.rank, death.exitcode)
                              for death in exits])
                try:
                    job.handle_deaths(exits, 0.0, spawn=None)
                except BackendError as error:
                    verdicts.append(str(error))
                else:
                    verdicts.append(None)
            else:
                order.append((message.rank, message.final))
                job.ingest(message, now=0.0)
        assert order == [(0, True), [(0, 0)], (1, False), [(1, 0)]]
        # Rank 0's exit came behind its final: retired, not dead.
        assert verdicts[0] is None
        assert "rank 1 (on pool pool)" in verdicts[1]
        assert job.in_flight == set()
        assert job.collector.worker_volume(1) == 2  # what it left
        assert backend.poll(0.0) is None and backend.reap() == []

    @pytest.mark.parametrize("ending", [
        b"", encode_frame(FrameKind.EXIT, {"exitcode": 0})],
        ids=["closed", "malformed-exit"])
    def test_a_lost_pool_queues_its_unfinished_ranks_behind_its_data(
            self, ending):
        # The pool closes, or sends an EXIT naming no rank, after rank
        # 0's final and EXIT and one pass of rank 1: the loss reports
        # rank 1 dead behind that pass, rank 0 not at all, and the link
        # is dropped and due for a redial.
        backend = DistributedBackend(connect="127.0.0.1:1")
        events, gauges = [], []
        telemetry = SimpleNamespace(
            events=SimpleNamespace(
                append=lambda name, **fields: events.append(name)),
            registry=SimpleNamespace(
                gauge=lambda name: SimpleNamespace(set=gauges.append)))
        backend.engine = SimpleNamespace(
            running=lambda: [SimpleNamespace(telemetry=telemetry)])
        ours, pools = socket.socketpair()
        pools.sendall(b"".join(encode_frame(*frame) for frame in [
            (FrameKind.DATA, message_to_payload(self._pass(0, 4, True))),
            (FrameKind.EXIT, {"rank": 0, "exitcode": 0}),
            (FrameKind.DATA, message_to_payload(self._pass(1, 2, False))),
        ]) + ending)
        pools.close()
        link = _PoolLink(("127.0.0.1", 1), ours, label="p", welcomed=True)
        link.active.update({(None, 0), (None, 1)})
        backend._links[link.address] = link
        backend._selector.register(ours, selectors.EVENT_READ, link)
        while link.address in backend._links:
            backend._receive(link)
        assert ours.fileno() == -1 and link.active == set()
        assert list(backend._redial) == [link.address]
        assert [(type(item).__name__, item.rank)
                for item in backend._inbox] == [
            ("MomentMessage", 0), ("WorkerDeath", 0),
            ("MomentMessage", 1), ("WorkerDeath", 1)]
        lost = backend._inbox[-1]
        assert (lost.exitcode, lost.detail) == (
            None, "pool p connection lost")
        assert events == ["pool_disconnected"] and gauges == [0]
        backend.shutdown()


class _ScriptedPool:
    """A pool on one end of a socket pair: it WELCOMEs with ``workers``
    slots, notes the rank and ``deadline_in`` of each ASSIGN the run
    side writes, and answers only with what the test feeds back."""

    def __init__(self, backend, workers=1):
        self.sock, ours = socket.socketpair()
        self.sock.setblocking(False)
        link = _PoolLink(("127.0.0.1", free_port()), ours)
        backend._links[link.address] = link
        backend._selector.register(ours, selectors.EVENT_READ, link)
        self.sock.sendall(encode_frame(
            FrameKind.WELCOME, {"pool": "scripted", "workers": workers}))
        self._decoder = FrameDecoder()
        self.assigned: list[int] = []
        self.deadlines: list[float | None] = []

    def read(self) -> list[int]:
        """The ranks ASSIGNed so far, in order."""
        while True:
            try:
                data = self.sock.recv(1 << 16)
            except BlockingIOError:
                return self.assigned
            if not data:
                return self.assigned
            for kind, payload in self._decoder.feed(data):
                if kind is FrameKind.ASSIGN:
                    self.assigned.append(payload["rank"])
                    self.deadlines.append(payload.get("deadline_in"))

    def finish(self, job, rank, config):
        """Send the rank's final pass, as its worker builds it, and its
        EXIT."""
        passes = []
        run_worker(square, config, rank, config.worker_quota(rank),
                   send=passes.append, job=job)
        self.sock.sendall(
            encode_frame(FrameKind.DATA, message_to_payload(passes[-1]))
            + encode_frame(FrameKind.EXIT,
                           {"rank": rank, "exitcode": 0, "job": job}))


class TestOneDispatchMoment:
    """The scheduler hands the distributed backend only ranks a pool has
    a free slot for, so the ASSIGN is the rank's start: its
    ``worker_start``, its staleness watermark and its place in flight
    all count from there.  Time is scripted: the run clock moves only
    when the test moves it."""

    @pytest.fixture
    def service(self):
        backend = DistributedBackend(connect=f"127.0.0.1:{free_port()}")
        now = [1000.0]
        backend.clock = lambda: now[0]
        scheduler = Scheduler(backend)
        service = SimpleNamespace(backend=backend, scheduler=scheduler,
                                  now=now, pools=[])
        yield service
        if not scheduler.shutdown(timeout=5.0):
            backend.shutdown()
        for pool in service.pools:
            pool.sock.close()

    @staticmethod
    def _pool(service, workers=1):
        pool = _ScriptedPool(service.backend, workers)
        service.pools.append(pool)
        return pool

    @staticmethod
    def _submit(service, **config):
        config = RunConfig(**{"maxsv": 4, "processors": 2, "perpass": 0.0,
                              "peraver": 0.0, **config})
        job = service.scheduler.submit(JobSpec(
            routine=square, config=config, name="j", use_files=False))
        return job, config

    def test_a_waiting_rank_is_not_in_flight_until_its_assign(self,
                                                              service):
        pool = self._pool(service)
        job, config = self._submit(service, perpass=1.0, telemetry=True)
        service.scheduler.step(0.0)  # admit; the pool's one slot: rank 0
        telemetry = job.telemetry
        assert pool.read() == [0]
        assert [each.rank for each in job.pending] == [1]
        service.now[0] += 5.0  # past 3 * perpass + 1 s of silence
        service.scheduler.step(0.0)
        assert pool.read() == [0]
        assert job.in_flight == {0}
        stale = telemetry.events.by_kind("stale_worker")
        assert [(e.fields["rank"], e.fields["last_seen"])
                for e in stale] == [(0, 0.0)]
        service.now[0] += 1.0
        pool.finish("j", 0, config)
        service.scheduler.step(0.0)  # rank 0's EXIT frees the slot
        assert pool.read() == [0, 1]
        starts = telemetry.events.by_kind("worker_start")
        assert [(e.fields["rank"], e.ts) for e in starts] == [
            (0, 0.0), (1, 6.0)]
        pool.finish("j", 1, config)
        _drive(service.scheduler, job.finished.is_set)
        assert job.status is JobStatus.DONE, job.error
        assert job.result.per_rank_volumes == {0: 2, 1: 2}
        assert job.dispatched == 2

    def test_a_time_limit_drops_the_ranks_that_never_started(self,
                                                             service):
        pool = self._pool(service)
        job, config = self._submit(service, time_limit=10.0)
        service.scheduler.step(0.0)
        assert pool.read() == [0] and pool.deadlines == [10.0]
        service.now[0] += 11.0  # the limit passes while rank 1 waits
        service.scheduler.step(0.0)
        assert not job.pending and job.in_flight == {0}
        pool.finish("j", 0, config)
        _drive(service.scheduler, job.finished.is_set)
        assert pool.read() == [0]
        assert job.status is JobStatus.DONE, job.error
        assert job.completed is False
        assert job.result.per_rank_volumes == {0: 2}

    def test_a_rerun_waits_at_the_head_until_a_slot_is_free(self,
                                                            service):
        first = self._pool(service)
        job, config = self._submit(service, on_worker_death="reassign")
        service.scheduler.step(0.0)
        assert first.read() == [0]
        first.sock.close()  # the pool is lost with rank 0 on it
        service.scheduler.step(0.0)
        assert job.in_flight == set()
        assert [(each.rank, each.recovery) for each in job.pending] == [
            (0, True), (1, False)]
        second = self._pool(service)
        service.scheduler.step(0.0)
        assert second.read() == [0]
        second.finish("j", 0, config)
        service.scheduler.step(0.0)
        assert second.read() == [0, 1]
        second.finish("j", 1, config)
        _drive(service.scheduler, job.finished.is_set)
        assert job.status is JobStatus.DONE, job.error
        assert job.result.recovered_ranks == (0,)
        assert job.result.total_volume == 4


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
