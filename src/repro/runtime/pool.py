"""The ``parmonc-pool`` worker daemon: remote muscle for a run.

A pool listens on TCP and contributes local worker processes to any
run that connects — the distributed analogue of the paper's MPI ranks,
except that pools may come and go while the run is in flight.  Each
connection is a *session* that follows the wire protocol of
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

A session carries any number of jobs, each declared by a SUBMIT before
its first ASSIGN and forgotten at its CANCEL.  One serving thread does
every socket's work, as ``DistributedBackend.poll`` does on the run
side: a :mod:`selectors` wait, each session's ``FrameDecoder``, and on
a timer the heartbeats and the silence watchdog.  Each session's
watcher thread reads its ``WorkerHost``'s slot pipes into its
:class:`_Relay`, which keeps the latest-wins rule one hop further.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import selectors
import socket
import threading
import time
from contextlib import ExitStack, suppress

from repro.exceptions import WireError
from repro.runtime.host import WorkerHost, decode_context
from repro.runtime.messages import payload_is_final
from repro.runtime.wire import FrameDecoder, FrameKind, encode_frame

__all__ = ["PoolServer", "DEFAULT_POOL_PORT"]

_logger = logging.getLogger(__name__)

#: Default ``parmonc-pool`` listening port (chosen to dodge the common
#: registered services; override with ``--port``).
DEFAULT_POOL_PORT = 9737

#: Bytes one ``recv_into`` may take off a session socket.
_RECV_BYTES = 64 * 1024

#: A session socket's selector events, with nothing / something unsent.
_EVENTS = (selectors.EVENT_READ, selectors.EVENT_READ | selectors.EVENT_WRITE)


def _job_of(payload: dict) -> str | None:
    """The job a frame belongs to; the anonymous job's name no ``job``."""
    job = payload.get("job")
    return None if job is None else str(job)


class _Relay:
    """The frames a session's watcher read, on their way to the run.

    :meth:`forward` (the watcher thread) queues each ``WorkerHost.read``
    event's frames in read order and calls ``wake`` when the queue stops
    being empty; :meth:`drain` (the serving thread, once the socket took
    all it was given) writes them with ``send``.  A rank has at most
    one *unsent* non-final pass queued: a newer one takes its place, a
    final drops it (both counted in :attr:`superseded`), and a final or
    an EXIT is never held or dropped.
    """

    def __init__(self, send, wake) -> None:
        self._send = send
        self._wake = wake
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
            self._wake()
        self._queue.append(entry)

    def drain(self) -> None:
        """Write every queued frame still owed, in order."""
        with self._lock:
            queue, self._queue = self._queue, []
            self._unsent.clear()  # every unsent pass is in ``queue``
        for kind, payload in queue:
            if payload is not None:
                self._send(kind, payload)


class _Session:
    """One connected run, from its accept to BYE or connection loss."""

    def __init__(self, server: "PoolServer", sock: socket.socket,
                 peer) -> None:
        self._server = server
        self.sock = sock
        self._peer = peer
        self.decoder = FrameDecoder()
        self.out = bytearray()  # what the socket has not taken yet
        self.welcomed = False
        self.last_heard = time.monotonic()  # the run's last bytes
        self.host = WorkerHost(server.context)
        self.relay = _Relay(self._send, server._wake)
        # The SUBMIT body per declared job, from SUBMIT to CANCEL, or
        # why its routine cannot be rebuilt here.
        self._contexts: dict[str | None, dict | Exception] = {}
        self.watcher = threading.Thread(target=self._watch, daemon=True)
        self.watcher.start()

    def handle(self, kind: FrameKind, payload) -> str | None:
        """Act on one frame from the run; say why if it ends the session."""
        if not self.welcomed:
            if kind is not FrameKind.HELLO:
                raise WireError(f"expected a HELLO frame, got {kind.name}")
            self.welcomed = True
            self._send(FrameKind.WELCOME, {
                "workers": self._server.workers, "pid": os.getpid(),
                "pool": "%s:%d" % self._server.address})
            _logger.info("session from %s: %d workers offered",
                         self._peer, self._server.workers)
        elif kind is FrameKind.ASSIGN:
            self._assign(payload)
        elif kind is FrameKind.SUBMIT:
            self._submit_job(payload)
        elif kind is FrameKind.CANCEL:
            self._cancel_job(payload)
        elif kind is FrameKind.BYE:
            return "bye"
        elif kind is FrameKind.ERROR:
            _logger.warning("session from %s: run error: %s",
                            self._peer, payload.get("detail"))
            return "run error"
        elif kind is not FrameKind.HEARTBEAT:
            raise WireError(f"unexpected {kind.name} frame from the run")

    def _submit_job(self, payload: dict) -> None:
        """Adopt one job — the only way the session learns a context —
        decoded once here.  A routine the pool cannot rebuild is kept
        as its error: it fails that job's ranks, not a slot or the
        session."""
        job = _job_of(payload)
        try:
            decode_context(payload)
            self._contexts[job] = payload
        except WireError as exc:  # its config or routine cannot be rebuilt
            _logger.warning("session from %s: job %s cannot run here: %s",
                            self._peer, job, exc)
            self._contexts[job] = exc
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
        if isinstance(submit, Exception):  # a dead rank, as a slot's would be
            self.relay.forward((job, rank), 1)
            return
        pid = self.host.assign(job, rank, quota, submit,
                               deadline_in=payload.get("deadline_in"))
        _logger.info("session from %s: %s assigned (quota=%d, pid=%s)",
                     self._peer, label, quota, pid)

    def _watch(self) -> None:
        """Relay what the host reads until the session ends; then stop
        every slot.  A slot is idle before its rank's final goes out."""
        host = self.host
        try:
            while (event := host.read()) is not None:
                self.relay.forward(*event)
        finally:
            host.close()

    def _send(self, kind: FrameKind, payload: dict | bytes) -> None:
        """Queue one frame; :meth:`flush` writes it."""
        self.out += encode_frame(kind, payload)

    def flush(self) -> None:
        """Write what the socket takes now; the rest waits for
        EVENT_WRITE.  A broken connection ends the session."""
        try:
            if self.out:
                with suppress(BlockingIOError):
                    del self.out[:self.sock.send(self.out)]
        except OSError:
            self._server._end(self, "connection lost")
            return
        selector, events = self._server._selector, _EVENTS[bool(self.out)]
        if selector.get_key(self.sock).events != events:
            selector.modify(self.sock, events, self)


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
        self.heartbeat_interval = heartbeat_interval
        self.session_timeout = session_timeout
        #: The multiprocessing context slot processes start from.
        self.context = multiprocessing.get_context(start_method)
        self._address: tuple[str, int] | None = None
        self._selector = selectors.DefaultSelector()
        # A relay wakes only once drained since, so the pair never fills.
        self._wake_r, self._wake_w = socket.socketpair()
        self._buffer = memoryview(bytearray(_RECV_BYTES))
        self._stopping = False
        self._served = threading.Event()  # the serving loop has ended
        self._sessions: set[_Session] = set()
        self._watchers: list[threading.Thread] = []  # not seen to end
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
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._address is None:
            raise RuntimeError("the pool is not serving yet")
        return self._address

    def serve(self, ready=None) -> None:
        """Bind, ``ready.set()``, serve until :meth:`stop`; no slot runs
        after.  Blocks: :meth:`start` runs it on a thread instead."""
        self._serve(self._bind(), ready)

    @property
    def busy_workers(self) -> int:
        """Slots running an assignment across *all* live sessions: the
        one physical budget concurrent runs share, so heartbeats show
        each run the others' load (an idle slot is none)."""
        return sum(len(session.host.running())
                   for session in self._sessions)

    def _bind(self) -> list[socket.socket]:
        """One listener per address the host resolves to (``""``: every
        interface); with port 0, all on the port the first one got."""
        listeners, port = [], self._port
        with ExitStack() as opened:  # all of them, or none
            for family, *_, address in dict.fromkeys(socket.getaddrinfo(
                    self._host or None, self._port, type=socket.SOCK_STREAM,
                    flags=socket.AI_PASSIVE)):
                listeners.append(opened.enter_context(socket.create_server(
                    (address[0], port, *address[2:]), family=family)))
                listeners[-1].setblocking(False)
                port = listeners[0].getsockname()[1]
            opened.pop_all()
        self._address = listeners[0].getsockname()[:2]
        _logger.info("parmonc-pool listening on %s:%d with %d workers",
                     self._address[0], self._address[1], self.workers)
        return listeners

    def _serve(self, listeners: list, ready=None) -> None:
        """The serving thread: accept, read, write, beat, watch."""
        for listener in listeners:
            self._selector.register(listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        if ready is not None:
            ready.set()
        beat = time.monotonic() + self.heartbeat_interval
        try:
            while not self._stopping:
                for key, events in self._selector.select(
                        max(beat - time.monotonic(), 0.0)):
                    if key.fileobj is self._wake_r:
                        self._wake_r.recv(4096)  # readable: no wait
                    elif key.data is None:  # a listener
                        self._accept(key.fileobj)
                    elif key.data in self._sessions:  # not ended meanwhile
                        if events & selectors.EVENT_WRITE:
                            key.data.flush()
                        if events & selectors.EVENT_READ:
                            self._receive(key.data)
                if time.monotonic() >= beat:
                    beat = time.monotonic() + self.heartbeat_interval
                    self._heartbeats()
                for session in tuple(self._sessions):
                    if not session.out:  # else its relay keeps superseding
                        session.relay.drain()
                        session.flush()
        finally:
            for session in tuple(self._sessions):
                self._end(session, "pool stopping")
            for resource in (*listeners, self._selector, self._wake_r,
                             self._wake_w):
                resource.close()
            for watcher in self._watchers:
                watcher.join()
            self._served.set()

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, peer = listener.accept()
        except OSError:  # the peer gave up first, or no descriptor is free
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        session = _Session(self, sock, peer)
        self._selector.register(sock, selectors.EVENT_READ, session)
        self._sessions.add(session)
        self._watchers = [watcher for watcher in self._watchers
                          if watcher.is_alive()] + [session.watcher]
        self.sessions_served += 1

    def _receive(self, session: _Session) -> None:
        """Take what one read brings from a run, frame by frame."""
        size = 0
        with suppress(OSError):  # a reset ends the stream, as a close does
            size = session.sock.recv_into(self._buffer)
        if not size:
            self._end(session, "connection lost")
            return
        session.last_heard = time.monotonic()
        try:
            for kind, payload in session.decoder.feed(self._buffer[:size]):
                if (ended := session.handle(kind, payload)) is not None:
                    self._end(session, ended)
                    return
            session.flush()
        except Exception as exc:  # it ends the session, not the daemon
            _logger.warning("session from %s: %s", session._peer, exc,
                            exc_info=not isinstance(exc, WireError))
            session._send(FrameKind.ERROR, {"detail": str(exc)})
            with suppress(OSError):  # say why, waiting a second at most
                session.sock.settimeout(1.0)
                session.sock.sendall(session.out)
            self._end(session, "protocol error")

    def _heartbeats(self) -> None:
        """Beat the welcomed sessions; drop the ones silent too long."""
        for session in tuple(self._sessions):
            silent = time.monotonic() - session.last_heard
            if silent > self.session_timeout:
                _logger.warning(
                    "session from %s: run silent for %.1fs, dropping it",
                    session._peer, silent)
                self._end(session, "dropped")
            elif session.welcomed and not session.out:
                # No beat queues behind an unsent one; "busy" is server-
                # wide, as sessions share one physical worker budget.
                session._send(FrameKind.HEARTBEAT, {
                    "busy": self.busy_workers,
                    "session_busy": len(session.host.running()),
                    "workers": self.workers})
                session.flush()

    def _end(self, session: _Session, reason: str) -> None:
        """Hang up; the session's watcher stops every slot."""
        if session not in self._sessions:
            return
        _logger.info("session from %s: %s", session._peer, reason)
        self._sessions.discard(session)
        self._ended[0] += session.host.slots_started
        self._ended[1] += session.host.assignments_served
        self._ended[2] += session.relay.superseded
        self._selector.unregister(session.sock)
        session.sock.close()
        session.host.interrupt()

    def _wake(self) -> None:
        """Break the serving thread's wait: a relay has frames, or stop."""
        with suppress(OSError):  # the serving thread is gone
            self._wake_w.send(b"\0")

    def start(self) -> tuple[str, int]:
        """Serve from a daemon thread; return the bound address."""
        try:
            listeners = self._bind()
        except OSError as exc:
            raise RuntimeError(
                f"parmonc-pool failed to bind {self._host}:{self._port}"
            ) from exc
        threading.Thread(target=self._serve, args=(listeners,), daemon=True,
                         name="parmonc-pool").start()
        return self.address

    def stop(self) -> None:
        """Stop serving and wait, 10 s at most, for the serving loop to
        end: it joins every watcher, so no slot runs after."""
        self._stopping = True
        self._wake()
        if self._address is not None:  # serve() or start() bound
            self._served.wait(10.0)
