"""The ``parmonc-pool`` worker daemon: remote muscle for a run.

A pool listens on TCP (asyncio) and contributes local worker processes
to any run that connects — the distributed analogue of the paper's MPI
ranks, except that pools may come and go while the run is in flight.
Each connection is a *session* that follows the wire protocol of
:mod:`repro.runtime.wire`; the daemon keeps listening between and
during sessions, so back-to-back runs (and overlapping runs from
different clients) need no restart::

    run                                pool
     | -- HELLO {} -------------------> |   a session opens, empty
     | <---- WELCOME {workers: N} ----- |   advertise capacity
     | -- SUBMIT {config, routine} ---> |   import/unpickle the routine
     | -- ASSIGN {rank, quota} -------> |   fork a worker process
     | <-------- DATA {message} ------- |   every data pass, forwarded
     | <---- EXIT {rank, exitcode} ---- |   after the worker's pipe is
     |                                  |   drained (drain-before-verdict)
     | -- CANCEL {} ------------------> |   job over: stop and forget it
     | <-> HEARTBEAT <->                |   liveness, both directions
     | -- BYE ------------------------> |   session over, workers freed

A session carries any number of jobs, each declared by its own SUBMIT
before its first ASSIGN and forgotten at its CANCEL.  A named job's
frames carry its id in a ``job`` field (the anonymous job of
``parmonc()`` simply omits it); the pool runs every job's workers side
by side, tags their DATA passes and echoes the job on EXIT, so the run
can route messages and deaths back to the right experiment.

Every ASSIGN runs in its own OS process (so a stuck or ``kill -9``-ed
realization routine never takes the daemon down), started by the
:class:`~repro.runtime.host.WorkerHost` the ``multiprocess`` backend
uses.  The worker encodes each
:class:`~repro.runtime.messages.MomentMessage` once, to the binary
DATA body; a watcher thread frames those bytes as they are — the
daemon never decodes or re-encodes a pass — and the host reports the
process's exit only after its pipe is fully drained.  The run side
therefore never sees an EXIT overtake the data that preceded it, which
is what lets the engine's reassignment keep estimates bit-identical.

A pool whose run stops heartbeating (crashed, unplugged) terminates
the session's workers and returns to listening; a run whose pool
vanishes routes the loss through ``on_worker_death``.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import os
import threading
import time

from repro.exceptions import WireError
from repro.runtime.host import WorkerHost
from repro.runtime.wire import (
    FrameKind,
    config_from_payload,
    read_frame,
    routine_from_payload,
    write_frame,
)
from repro.runtime.worker import make_batched, worker_process

__all__ = ["PoolServer", "DEFAULT_POOL_PORT"]

_logger = logging.getLogger(__name__)

#: Default ``parmonc-pool`` listening port (chosen to dodge the common
#: registered services; override with ``--port``).
DEFAULT_POOL_PORT = 9737


def _import_routine(spec: str):
    """``module:function`` resolver for SUBMIT spec payloads."""
    from repro.cli.run import load_routine
    return load_routine(spec)


def _job_of(payload: dict) -> str | None:
    """The job a frame belongs to; the anonymous job's name no ``job``."""
    job = payload.get("job")
    return None if job is None else str(job)


class _Session:
    """One connected run, from HELLO to BYE (or connection loss)."""

    def __init__(self, server: "PoolServer", reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._server = server
        self._reader = reader
        self._writer = writer
        self._loop = asyncio.get_running_loop()
        # Running assignments keyed ``(job, rank)`` (job is None for
        # the anonymous job of a single run), so two jobs of one
        # scheduler can both field a rank 0 here without colliding.
        self._host = WorkerHost(server.context)
        self._closed = False
        self._last_run_heartbeat = time.monotonic()
        self._peer = writer.get_extra_info("peername")
        # ``(routine, config)`` per declared job: SUBMIT adds an
        # entry, CANCEL drops it.
        self._contexts: dict[str | None, tuple] = {}

    async def run(self) -> None:
        heartbeat_task = None
        threading.Thread(target=self._watch, daemon=True).start()
        try:
            kind, _ = await read_frame(self._reader)
            if kind is not FrameKind.HELLO:
                raise WireError(
                    f"expected a HELLO frame, got {kind.name}")
            write_frame(self._writer, FrameKind.WELCOME, {
                "workers": self._server.workers,
                "pid": os.getpid(),
                "pool": "%s:%d" % self._server.address,
            })
            await self._writer.drain()
            _logger.info("session from %s: %d workers offered",
                         self._peer, self._server.workers)
            heartbeat_task = self._loop.create_task(self._heartbeats())
            while True:
                kind, payload = await read_frame(self._reader)
                if kind is FrameKind.ASSIGN:
                    self._start_worker(payload)
                elif kind is FrameKind.SUBMIT:
                    self._submit_job(payload)
                elif kind is FrameKind.CANCEL:
                    self._cancel_job(payload)
                elif kind is FrameKind.HEARTBEAT:
                    self._last_run_heartbeat = time.monotonic()
                elif kind is FrameKind.BYE:
                    _logger.info("session from %s: bye", self._peer)
                    break
                elif kind is FrameKind.ERROR:
                    _logger.warning("session from %s: run error: %s",
                                    self._peer, payload.get("detail"))
                    break
                else:
                    raise WireError(
                        f"unexpected {kind.name} frame from the run")
        except (asyncio.IncompleteReadError, ConnectionError):
            _logger.info("session from %s: connection lost", self._peer)
        except WireError as exc:
            _logger.warning("session from %s: %s", self._peer, exc)
            self._send(FrameKind.ERROR, {"detail": str(exc)})
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            self._shutdown()

    # -- job lifecycle -----------------------------------------------------

    def _submit_job(self, payload: dict) -> None:
        """Adopt one job: the only way the session learns a context."""
        job = _job_of(payload)
        self._contexts[job] = self._adopt_context(payload)
        _logger.info("session from %s: job %s submitted", self._peer, job)

    def _cancel_job(self, payload: dict) -> None:
        """A job is over: terminate its live workers, forget it."""
        job = _job_of(payload)
        self._contexts.pop(job, None)
        keys = [key for key in self._host.keys() if key[0] == job]
        self._host.terminate(keys)
        _logger.info("session from %s: job %s released (%d workers "
                     "terminated)", self._peer, job, len(keys))

    def _adopt_context(self, payload: dict) -> tuple:
        """One ``(routine, config)`` context from a SUBMIT body."""
        try:
            config_payload = payload["config"]
            routine_payload = payload["routine"]
        except KeyError as exc:
            raise WireError(f"submit frame misses {exc}") from exc
        config = config_from_payload(config_payload)
        routine = routine_from_payload(routine_payload, _import_routine)
        batch_size = payload.get("batch_size")
        if batch_size and getattr(routine, "batch_size", None) is None:
            routine = make_batched(routine, int(batch_size))
        return routine, config

    # -- worker lifecycle --------------------------------------------------

    def _start_worker(self, payload: dict) -> None:
        try:
            rank = int(payload["rank"])
            quota = int(payload["quota"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed assign frame: {exc}") from exc
        job = _job_of(payload)
        label = f"rank {rank}" if job is None else f"job {job} rank {rank}"
        if (job, rank) in self._host.keys():
            raise WireError(f"{label} is already assigned on this pool")
        try:
            routine, config = self._contexts[job]
        except KeyError:
            raise WireError(
                f"assign frame names job {job!r}, which no submit "
                f"frame declared (or a cancel already released)"
            ) from None
        pid = self._host.start(
            (job, rank), worker_process, routine, config, rank, quota,
            job=job, deadline_in=payload.get("deadline_in"))
        _logger.info("session from %s: %s started (quota=%d, pid=%s)",
                     self._peer, label, quota, pid)

    def _watch(self) -> None:
        """Frame what the host reads — DATA as it is, EXIT once the
        worker's pipe is drained — until the session ends; then stop
        every worker.  One plain thread per session (pipe reads block).
        """
        host = self._host
        try:
            while (event := host.read()) is not None:
                (job, rank), item = event
                if isinstance(item, bytes):
                    self._send_threadsafe(FrameKind.DATA, item)
                    continue
                exit_payload = {"rank": rank, "exitcode": item}
                if job is not None:
                    exit_payload["job"] = job
                self._send_threadsafe(FrameKind.EXIT, exit_payload)
        finally:
            host.close()

    # -- frame plumbing ----------------------------------------------------

    def _send(self, kind: FrameKind, payload: dict | bytes) -> None:
        if self._closed or self._writer.is_closing():
            return
        try:
            write_frame(self._writer, kind, payload)
        except (ConnectionError, RuntimeError):
            pass

    def _send_threadsafe(self, kind: FrameKind,
                         payload: dict | bytes) -> None:
        try:
            self._loop.call_soon_threadsafe(self._send, kind, payload)
        except RuntimeError:  # loop already closed at teardown
            pass

    @property
    def busy(self) -> int:
        """Worker processes this session is currently running."""
        return len(self._host.keys())

    async def _heartbeats(self) -> None:
        interval = self._server.heartbeat_interval
        while True:
            await asyncio.sleep(interval)
            self._send(FrameKind.HEARTBEAT, {
                # Server-wide occupancy: concurrent sessions share one
                # physical worker budget, so each run sees the true load.
                "busy": self._server.busy_workers,
                "session_busy": len(self._host.keys()),
                "workers": self._server.workers,
            })
            silent = time.monotonic() - self._last_run_heartbeat
            if silent > self._server.session_timeout:
                _logger.warning(
                    "session from %s: run silent for %.1fs, dropping it",
                    self._peer, silent)
                self._writer.close()
                return

    def _shutdown(self) -> None:
        self._closed = True
        self._host.interrupt()  # the watcher stops every worker
        if not self._writer.is_closing():
            self._writer.close()


class PoolServer:
    """A TCP daemon offering local worker processes to remote runs.

    Args:
        host: Interface to bind (default loopback; bind ``0.0.0.0``
            explicitly to serve other hosts — the protocol executes
            user routines, so expose it to trusted networks only).
        port: TCP port (0 picks a free one; see :attr:`address`).
        workers: Worker-process slots to advertise (default: CPU count).
        start_method: ``multiprocessing`` start method for worker
            processes (None = platform default; ``fork`` keeps
            unpickled closures usable).
        heartbeat_interval: Seconds between pool heartbeats to the run.
        session_timeout: Seconds of run silence before the session is
            dropped and its workers reclaimed.
    """

    def __init__(self, host: str = "127.0.0.1",
                 port: int = DEFAULT_POOL_PORT,
                 workers: int | None = None,
                 start_method: str | None = None,
                 heartbeat_interval: float = 1.0,
                 session_timeout: float = 60.0) -> None:
        self._host = host
        self._port = port
        self.workers = workers if workers else (os.cpu_count() or 1)
        self._start_method = start_method
        self.heartbeat_interval = heartbeat_interval
        self.session_timeout = session_timeout
        self._context = None
        self._address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        self._sessions: set[_Session] = set()
        self.sessions_served = 0

    @property
    def context(self):
        """The multiprocessing context worker processes spawn from."""
        if self._context is None:
            self._context = multiprocessing.get_context(self._start_method)
        return self._context

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._address is None:
            raise RuntimeError("the pool is not serving yet")
        return self._address

    async def serve(self, ready: threading.Event | None = None) -> None:
        """Bind and serve sessions until :meth:`stop` is called."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle, self._host, self._port)
        except BaseException as exc:
            self._startup_error = exc
            if ready is not None:
                ready.set()
            raise
        self._address = server.sockets[0].getsockname()[:2]
        _logger.info("parmonc-pool listening on %s:%d with %d workers",
                     self._address[0], self._address[1], self.workers)
        if ready is not None:
            ready.set()
        async with server:
            await self._stop_event.wait()

    @property
    def busy_workers(self) -> int:
        """Worker processes running across *all* live sessions.

        Sessions share the daemon's one physical worker budget; this
        server-wide count is what heartbeats advertise, so concurrent
        runs see each other's load instead of believing the pool idle.
        """
        return sum(session.busy for session in self._sessions)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        session = _Session(self, reader, writer)
        self._sessions.add(session)
        self.sessions_served += 1
        try:
            await session.run()
        finally:
            self._sessions.discard(session)

    # -- thread facade (tests, embedded pools) -----------------------------

    def start(self) -> tuple[str, int]:
        """Serve from a daemon thread; return the bound address."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve_quietly(ready)),
            daemon=True, name="parmonc-pool")
        self._thread.start()
        ready.wait(timeout=10.0)
        if self._startup_error is not None:
            raise RuntimeError(
                f"parmonc-pool failed to bind {self._host}:{self._port}"
            ) from self._startup_error
        return self.address

    async def _serve_quietly(self, ready: threading.Event) -> None:
        try:
            await self.serve(ready)
        except BaseException:
            if self._startup_error is None:
                raise

    def stop(self) -> None:
        """Stop serving and join the background thread, if any."""
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
