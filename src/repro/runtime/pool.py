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
     | <-------- DATA {message} ------- |   every data pass, forwarded
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

A session keeps *slots*: child processes started once, through the
:class:`~repro.runtime.host.WorkerHost` the ``multiprocess`` backend
uses, at the first ASSIGN no idle slot can take — the run never keeps
more than ``workers`` assignments active on a link, so that is as many
slots as a session ever holds.  A slot loops over assignments read
from its own control pipe: the ASSIGN body as JSON, carrying the job's
SUBMIT body too unless that is the one the slot decoded last, and
runs each through :func:`~repro.runtime.worker.worker_process`.  So
every ASSIGN runs outside the daemon (a stuck or ``kill -9``-ed
realization routine never takes the daemon down), in a slot that is
replaced when it dies.  The worker encodes each
:class:`~repro.runtime.messages.MomentMessage` once, to the binary
DATA body; a watcher thread frames those bytes as they are — the
daemon never decodes or re-encodes a pass, it only reads whether a
body is its rank's final.  The final ends the assignment: the watcher
marks the slot idle, then sends EXIT 0.  A slot that dies instead is
reported by the host only after its pipe is fully drained, and its
EXIT carries the real exit code.  The run side therefore never sees an
EXIT overtake the data that preceded it, which is what lets the
engine's reassignment keep estimates bit-identical.

A pool whose run stops heartbeating (crashed, unplugged) terminates
the session's slots and returns to listening; a run whose pool
vanishes routes the loss through ``on_worker_death``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import multiprocessing
import os
import threading
import time

from repro.exceptions import WireError
from repro.runtime.host import WorkerHost
from repro.runtime.messages import payload_is_final
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


def _decode_context(payload: dict) -> tuple:
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


def _slot_main(control, outbox) -> None:
    """A slot: run every assignment ``control`` delivers into ``outbox``.

    Keeps the context it decoded last.  The session terminates it at
    its end; if the daemon dies instead, the pipe closes and the slot
    returns — a copy of the write end outside the daemon is held only
    by a slot of another session forked later, whose own pipe closes
    first.
    """
    context = None
    while True:
        try:
            assignment = json.loads(control.recv_bytes())
        except EOFError:
            return
        if "submit" in assignment:
            context = _decode_context(assignment["submit"])
        routine, config = context
        worker_process(routine, config, int(assignment["rank"]),
                       int(assignment["quota"]), outbox,
                       job=_job_of(assignment),
                       deadline_in=assignment.get("deadline_in"))


class _Slot:
    """One slot's books, kept under its session's lock."""

    __slots__ = ("control", "assignment", "submit")

    def __init__(self, control) -> None:
        #: Write end of the slot's control pipe; None once it is stopped.
        self.control = control
        #: ``(job, rank)`` it runs, None while idle.
        self.assignment = None
        #: The SUBMIT body it decoded last.
        self.submit = None


class _Session:
    """One connected run, from HELLO to BYE (or connection loss)."""

    def __init__(self, server: "PoolServer", reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._server = server
        self._reader = reader
        self._writer = writer
        self._loop = asyncio.get_running_loop()
        self._host = WorkerHost(server.context)
        # Slots by host key.  The loop thread hands them assignments,
        # the watcher takes them back; the books and the host's pipe
        # ends change only under this lock.
        self._slots: dict[int, _Slot] = {}
        self._lock = threading.Lock()
        self._slot_keys = itertools.count()
        self._closed = False
        self._last_run_heartbeat = time.monotonic()
        self._peer = writer.get_extra_info("peername")
        # The SUBMIT body per declared job: SUBMIT adds an entry,
        # CANCEL drops it.
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
        """Adopt one job: the only way the session learns a context.

        Decoded here once, so a routine this host cannot resolve fails
        the SUBMIT rather than a slot.
        """
        job = _job_of(payload)
        _decode_context(payload)
        self._contexts[job] = payload
        _logger.info("session from %s: job %s submitted", self._peer, job)

    def _cancel_job(self, payload: dict) -> None:
        """A job is over: stop the slots still running it, forget it.

        A rank whose final is in left its slot idle, so a job that
        drained stops nothing; a stopped slot gets no more work.
        """
        job = _job_of(payload)
        self._contexts.pop(job, None)
        with self._lock:
            keys = [key for key, slot in self._slots.items()
                    if slot.assignment is not None
                    and slot.assignment[0] == job]
            for key in keys:
                self._retire(self._slots[key])
            self._host.terminate(keys)
        _logger.info("session from %s: job %s released (%d slots "
                     "terminated)", self._peer, job, len(keys))

    # -- slot lifecycle ----------------------------------------------------

    def _assign(self, payload: dict) -> None:
        """Hand one ASSIGN to an idle slot, forking one if none is."""
        try:
            rank = int(payload["rank"])
            quota = int(payload["quota"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed assign frame: {exc}") from exc
        job = _job_of(payload)
        label = f"rank {rank}" if job is None else f"job {job} rank {rank}"
        with self._lock:
            if any(slot.assignment == (job, rank)
                   for slot in self._slots.values()):
                raise WireError(f"{label} is already assigned on this pool")
            try:
                submit = self._contexts[job]
            except KeyError:
                raise WireError(
                    f"assign frame names job {job!r}, which no submit "
                    f"frame declared (or a cancel already released)"
                ) from None
            slot = next((slot for slot in self._slots.values()
                         if slot.assignment is None
                         and slot.control is not None), None)
            if slot is None:
                slot = self._start_slot()
            body = (payload if slot.submit is submit
                    else {**payload, "submit": submit})
            slot.submit, slot.assignment = submit, (job, rank)
            try:
                slot.control.send_bytes(json.dumps(body).encode("utf-8"))
            except OSError:
                pass  # the slot just died: its exit reports the rank
        self._server.assignments_served += 1
        _logger.info("session from %s: %s assigned (quota=%d)",
                     self._peer, label, quota)

    def _start_slot(self) -> _Slot:
        """Fork one slot reading its own control pipe (lock held)."""
        reader, control = self._host.pipe()
        key = next(self._slot_keys)
        slot = self._slots[key] = _Slot(control)
        pid = self._host.start(key, _slot_main, reader)
        self._host.release(reader)  # the slot holds the read end now
        self._server.slots_started += 1
        _logger.info("session from %s: slot %d started (pid=%s)",
                     self._peer, key, pid)
        return slot

    def _retire(self, slot: _Slot) -> None:
        """Close a slot's control pipe: it takes no assignment again."""
        if slot.control is not None:
            self._host.release(slot.control)
            slot.control = None

    def _watch(self) -> None:
        """Frame what the host reads until the session ends; then stop
        every slot.  One plain thread per session (pipe reads block).

        DATA goes out as it is.  An assignment is over at its rank's
        final pass — the slot is idle before the run can answer that
        pass, with a CANCEL or the next ASSIGN, and EXIT 0 follows it —
        or when its slot died and the host drained the slot's pipe:
        then EXIT carries the real code.
        """
        host = self._host
        try:
            while (event := host.read()) is not None:
                key, item = event
                if isinstance(item, bytes):
                    over = None
                    if payload_is_final(item):
                        with self._lock:
                            slot = self._slots[key]
                            over, slot.assignment = slot.assignment, None
                    self._send_threadsafe(FrameKind.DATA, item)
                    exitcode = 0
                else:
                    with self._lock:
                        slot = self._slots.pop(key)
                        self._retire(slot)
                    over, exitcode = slot.assignment, item
                if over is None:
                    continue  # a slot that died idle reports nothing
                job, rank = over
                exit_payload = {"rank": rank, "exitcode": exitcode}
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
        """Slots of this session running an assignment."""
        with self._lock:
            return sum(slot.assignment is not None
                       for slot in self._slots.values())

    async def _heartbeats(self) -> None:
        interval = self._server.heartbeat_interval
        while True:
            await asyncio.sleep(interval)
            self._send(FrameKind.HEARTBEAT, {
                # Server-wide occupancy: concurrent sessions share one
                # physical worker budget, so each run sees the true load.
                "busy": self._server.busy_workers,
                "session_busy": self.busy,
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
        self._host.interrupt()  # the watcher stops every slot
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
        #: Slot processes forked, and ASSIGN frames handed to slots,
        #: across every session: a slot is forked only when none idles.
        self.slots_started = 0
        self.assignments_served = 0

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
        """Slots running an assignment across *all* live sessions.

        Sessions share the daemon's one physical worker budget; this
        server-wide count is what heartbeats advertise, so concurrent
        runs see each other's load instead of believing the pool idle.
        An idle slot is no load.
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
