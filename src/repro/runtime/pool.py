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
     | -- ASSIGN {rank, quota} -------> |   an idle slot, or fork one
     | <-------- DATA {message} ------- |   each rank's latest data pass
     | <---- EXIT {rank, exitcode} ---- |   after the rank's final pass
     |                                  |   (0), or after a dead slot's
     |                                  |   pipe is drained
     | -- CANCEL {} ------------------> |   job over: stop and forget it
     | <-> HEARTBEAT <->                |   liveness, both directions
     | -- BYE ------------------------> |   session over, slots stopped

A session carries any number of jobs, each declared by its own SUBMIT
before its first ASSIGN and forgotten at its CANCEL.  A named job's
frames carry its id in a ``job`` field (the anonymous job of
``parmonc()`` simply omits it); the pool runs every job's workers side
by side, tags their DATA passes and echoes the job on EXIT, so the run
can route messages and deaths back to the right experiment.

Each session runs its ASSIGNs on the slots of its own
:class:`~repro.runtime.host.WorkerHost`, the slot layer ``multiprocess``
runs on too — at most ``workers`` of them, since the run never keeps
more assignments active on a link — so a stuck or ``kill -9``-ed
routine never takes the daemon down.  A watcher thread hands each DATA
body, as the worker encoded it (the daemon never decodes a pass), to
the session's :class:`_Relay`, and EXIT 0 after a rank's final; a dead
slot's EXIT carries the real exit code and follows its drained pipe.
The relay keeps the worker's latest-wins rule one hop further: at most
one unsent pass per rank waits for the event loop, a newer one takes
its place, and a final never waits behind or gives way to anything.
DATA and EXIT leave in the order the watcher read them, so no EXIT
overtakes the data before it and reassignment keeps estimates
bit-identical.

A pool whose run stops heartbeating (crashed, unplugged) terminates
the session's slots and returns to listening; a run whose pool
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
from repro.runtime.host import WorkerHost, decode_context
from repro.runtime.messages import payload_is_final
from repro.runtime.wire import FrameKind, read_frame, write_frame

__all__ = ["PoolServer", "DEFAULT_POOL_PORT"]

_logger = logging.getLogger(__name__)

#: Default ``parmonc-pool`` listening port (chosen to dodge the common
#: registered services; override with ``--port``).
DEFAULT_POOL_PORT = 9737


def _job_of(payload: dict) -> str | None:
    """The job a frame belongs to; the anonymous job's name no ``job``."""
    job = payload.get("job")
    return None if job is None else str(job)


class _Relay:
    """The frames a session's watcher read, on their way to its loop.

    :meth:`forward` runs on the watcher thread, once per
    ``WorkerHost.read`` event, and queues the event's frames in read
    order; ``call_soon`` hands :meth:`_drain` to the loop thread, which
    writes them with ``send``.  A rank has at most one *unsent*
    non-final pass in the queue: passes are cumulative, so a newer one
    takes its place, and a final drops it — either way it is counted in
    :attr:`superseded`.  A final is never held for replacement, and a
    rank's EXIT is queued behind everything read before it.
    """

    def __init__(self, send, call_soon) -> None:
        self._send = send
        self._call_soon = call_soon
        self._lock = threading.Lock()
        self._queue: list = []   # [kind, payload] in read order
        self._unsent: dict = {}  # (job, rank) -> its queued non-final pass
        #: Passes dropped unsent because a newer one of their rank came.
        self.superseded = 0

    def forward(self, key, item) -> None:
        """Queue a rank's DATA body, or its slot's exit code, as frames."""
        job, rank = key
        with self._lock:
            # Whatever comes, it is the rank's last entry in the queue.
            waiting = self._unsent.pop(key, None)
            if isinstance(item, bytes):
                if waiting is not None:  # never sent, and stale now
                    self.superseded += 1
                    waiting[1] = None
                if not payload_is_final(item):
                    if waiting is None:
                        waiting = [FrameKind.DATA, None]
                        self._push(waiting)
                    waiting[1] = item
                    self._unsent[key] = waiting
                    return
                self._push([FrameKind.DATA, item])
                item = 0
            exit_payload = {"rank": rank, "exitcode": item}
            if job is not None:
                exit_payload["job"] = job
            self._push([FrameKind.EXIT, exit_payload])

    def _push(self, entry: list) -> None:
        if not self._queue:
            self._call_soon(self._drain)
        self._queue.append(entry)

    def _drain(self) -> None:
        """Loop side: write every queued frame still owed, in order."""
        with self._lock:
            queue, self._queue = self._queue, []
            self._unsent.clear()  # every unsent pass is in ``queue``
        for kind, payload in queue:
            if payload is not None:
                self._send(kind, payload)


class _Session:
    """One connected run, from HELLO to BYE (or connection loss)."""

    def __init__(self, server: "PoolServer", reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._server = server
        self._reader = reader
        self._writer = writer
        self._loop = asyncio.get_running_loop()
        #: The session's slots: the loop thread assigns, the watcher reads.
        self.host = WorkerHost(server.context)
        #: What the watcher read, on its way to the run.
        self.relay = _Relay(self._send, self._call_soon)
        self._closed = False
        self._last_run_heartbeat = time.monotonic()
        self._peer = writer.get_extra_info("peername")
        # The SUBMIT body per declared job, from SUBMIT to CANCEL.
        self._contexts: dict[str | None, dict] = {}

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
                    self._assign(payload)
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
        """Adopt one job — the only way the session learns a context —
        decoded once here, so a bad routine fails the SUBMIT, not a slot."""
        job = _job_of(payload)
        decode_context(payload)
        self._contexts[job] = payload
        _logger.info("session from %s: job %s submitted", self._peer, job)

    def _cancel_job(self, payload: dict) -> None:
        """A job is over: stop the slots still running it, forget it
        (a rank whose final is in left its slot idle)."""
        job = _job_of(payload)
        self._contexts.pop(job, None)
        keys = self.host.cancel(job)
        _logger.info("session from %s: job %s released (%d slots "
                     "terminated)", self._peer, job, len(keys))

    def _assign(self, payload: dict) -> None:
        """Hand one ASSIGN to an idle slot, forking one if none is."""
        try:
            rank = int(payload["rank"])
            quota = int(payload["quota"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed assign frame: {exc}") from exc
        job = _job_of(payload)
        label = f"rank {rank}" if job is None else f"job {job} rank {rank}"
        if (job, rank) in self.host.running():
            raise WireError(f"{label} is already assigned on this pool")
        submit = self._contexts.get(job)
        if submit is None:
            raise WireError(
                f"assign frame names job {job!r}, which no submit "
                f"frame declared (or a cancel already released)")
        pid = self.host.assign(job, rank, quota, submit,
                               deadline_in=payload.get("deadline_in"))
        _logger.info("session from %s: %s assigned (quota=%d, pid=%s)",
                     self._peer, label, quota, pid)

    def _watch(self) -> None:
        """Relay what the host reads until the session ends; then stop
        every slot.  One plain thread per session (pipe reads block).
        A slot is idle before its rank's final goes out to the run."""
        host = self.host
        try:
            while (event := host.read()) is not None:
                self.relay.forward(*event)
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

    def _call_soon(self, callback) -> None:
        try:
            self._loop.call_soon_threadsafe(callback)
        except RuntimeError:  # loop already closed at teardown
            pass

    async def _heartbeats(self) -> None:
        interval = self._server.heartbeat_interval
        while True:
            await asyncio.sleep(interval)
            self._send(FrameKind.HEARTBEAT, {
                # Server-wide occupancy: concurrent sessions share one
                # physical worker budget, so each run sees the true load.
                "busy": self._server.busy_workers,
                "session_busy": len(self.host.running()),
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
        self.host.interrupt()  # the watcher stops every slot
        if not self._writer.is_closing():
            self._writer.close()


class PoolServer:
    """A TCP daemon offering local worker processes to remote runs.

    Args:
        host: Interface to bind (default loopback; bind ``0.0.0.0``
            explicitly to serve other hosts — the protocol executes
            user routines, so expose it to trusted networks only).
        port: TCP port (0 picks a free one; see :attr:`address`).
        workers: Slots a session keeps, advertised to every run
            (default: CPU count).
        start_method: ``multiprocessing`` start method for slot
            processes (None = platform default).
        heartbeat_interval: Seconds between pool heartbeats to the run.
        session_timeout: Seconds of run silence before the session is
            dropped and its slots reclaimed.
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
        self._ended = [0, 0, 0]  # the counters below, of ended sessions

    @property
    def slots_started(self) -> int:
        """Slot processes forked, across every session."""
        return self._ended[0] + sum(
            session.host.slots_started for session in tuple(self._sessions))

    @property
    def assignments_served(self) -> int:
        """ASSIGN frames handed to slots, across every session."""
        return self._ended[1] + sum(session.host.assignments_served
                                    for session in tuple(self._sessions))

    @property
    def passes_superseded(self) -> int:
        """Passes a session dropped unsent because a newer one of their
        rank came first, across every session."""
        return self._ended[2] + sum(session.relay.superseded
                                    for session in tuple(self._sessions))

    @property
    def context(self):
        """The multiprocessing context slot processes start from."""
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
        """Slots running an assignment across *all* live sessions: the
        one physical budget concurrent runs share, so heartbeats show
        each run the others' load (an idle slot is none)."""
        return sum(len(session.host.running())
                   for session in self._sessions)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        session = _Session(self, reader, writer)
        self._sessions.add(session)
        self.sessions_served += 1
        try:
            await session.run()
        finally:
            self._ended[0] += session.host.slots_started
            self._ended[1] += session.host.assignments_served
            self._ended[2] += session.relay.superseded
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
