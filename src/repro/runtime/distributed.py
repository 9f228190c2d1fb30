"""Distributed backend: quota dispatched to TCP worker pools.

Where the multiprocess backend forks workers locally, this backend
connects to one or more ``parmonc-pool`` daemons
(:mod:`repro.runtime.pool`) and dispatches the work plan over the wire
protocol of :mod:`repro.runtime.wire`.  To the
:class:`~repro.runtime.engine.Engine` it is just another
:class:`~repro.runtime.engine.EngineBackend` — same ``spawn/poll/reap``
contract, same collector, bit-identical estimates: serial, multicore
and multi-node runs share one user-facing API.

Elasticity: every address is redialled every ``retry_interval``, so a
pool that comes up mid-run adds its slots to ``free_slots()``, and gets
whatever is still pending, recovery assignments included: the backend
keeps no queue, so an ASSIGN is a rank's start.  A worker crash (an
EXIT with a nonzero code) or a vanished pool (socket close, missed
heartbeats, ``kill -9``) marks its unfinished ranks dead, and the
engine's ``on_worker_death`` policy decides: ``"reassign"`` reruns each
dead rank on its own subsequence, possibly on another pool.

The run side is one thread, the scheduler's, like rank 0's loop in the
paper.  With its inbox empty, :meth:`~DistributedBackend.poll` waits on
the pool sockets itself (one :mod:`selectors` wait, a bounded
``recv_into``, each link's :class:`~repro.runtime.wire.FrameDecoder`);
connects, handshakes, redials and the silence watchdog run in the same
call, and ``spawn``/``release_job`` write with ``sendall``.  DATA, EXIT
and lost-pool records share one ordered inbox, and a pool sends a
worker's EXIT only after draining its pipe, so when ``poll`` meets an
exit every pass of that worker is in the collector: its job judges the
rank dead exactly when it is still in flight, with no clock.
Heartbeats and name lookups, which may block, have the one other thread
(``_beat``).
"""

from __future__ import annotations

import errno
import logging
import selectors
import socket
import struct
import threading
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field

from repro.exceptions import BackendError, ConfigurationError, WireError
from repro.runtime.engine import (
    EngineBackend,
    WorkerDeath,
    register_backend,
)
from repro.runtime.messages import MomentMessage
from repro.runtime.wire import (
    FrameDecoder,
    FrameKind,
    config_to_payload,
    encode_frame,
    message_from_payload,
    routine_to_payload,
)

__all__ = ["DistributedBackend", "parse_connect"]

_logger = logging.getLogger(__name__)

#: Bytes one ``recv_into`` may take off a pool socket: a 32 KB moment
#: pass and its header fit, and a bigger buffer only costs memory.
_RECV_BYTES = 64 * 1024


def parse_connect(connect) -> tuple[tuple[str, int], ...]:
    """Normalize ``--connect`` input to ``((host, port), ...)``.

    Accepts a comma-separated string (``"host:9737,other:9737"``), an
    iterable of such strings, or an iterable of ``(host, port)`` pairs.
    """
    if connect is None:
        raise ConfigurationError(
            "the distributed backend needs at least one parmonc-pool "
            "address; pass connect='host:port[,host:port...]'")
    if isinstance(connect, str):
        items = [part.strip() for part in connect.split(",")]
    else:
        items = list(connect)
    addresses: list[tuple[str, int]] = []
    for item in items:
        if isinstance(item, str):
            if not item:
                continue
            host, _, port = item.rpartition(":")
            if not host:
                raise ConfigurationError(
                    f"pool address {item!r} is not host:port")
            try:
                addresses.append((host, int(port)))
            except ValueError:
                raise ConfigurationError(
                    f"pool address {item!r} has a non-numeric port"
                ) from None
        else:
            host, port = item
            addresses.append((str(host), int(port)))
    if not addresses:
        raise ConfigurationError(
            "the distributed backend needs at least one parmonc-pool "
            "address")
    return tuple(dict.fromkeys(addresses))


@dataclass(eq=False)
class _PoolLink:
    """One pool connection, from its connect to its loss.

    The loop thread owns it; the heartbeat thread only writes through
    :meth:`send`.  It takes work once ``welcomed`` (the HELLO/WELCOME
    handshake is done).  ``active`` holds ``(job, rank)`` keys, ``job``
    None for a single run's anonymous job, so two jobs can both run a
    rank 0 on one pool.
    """

    address: tuple[str, int]
    sock: socket.socket
    capacity: int = 1
    label: str = ""
    welcomed: bool = False
    active: set = field(default_factory=set)
    #: Job ids this pool holds context for: a SUBMIT went out and no
    #: CANCEL has followed it.
    announced: set = field(default_factory=set)
    #: Monotonic time of the pool's last bytes (the silence watchdog).
    last_seen: float = field(default_factory=time.monotonic)
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    target: int = 0  # the index of its address in the name's lookup
    lock: threading.Lock = field(default_factory=threading.Lock)

    def send(self, data: bytes) -> None:
        """Write whole frames, one writer at a time (raises OSError)."""
        with self.lock:
            self.sock.sendall(data)


def _tagged(job: str | None, **fields) -> dict:
    """A control-frame body; the anonymous job's carries no ``job`` key."""
    if job is not None:
        fields["job"] = job
    return fields


@register_backend("distributed")
class DistributedBackend(EngineBackend):
    """Dispatch quota to remote ``parmonc-pool`` worker daemons.

    Args:
        connect: Pool address(es) — ``"host:port"``, a comma-separated
            list, or an iterable of addresses.  Unreachable pools are
            retried while the run polls, so an address may name a pool
            that only comes up mid-run.
        routine_spec: Optional ``module:function`` string shipped
            instead of a pickle, letting pools import the routine by
            name (the ``parmonc-run`` path).
        heartbeat_interval: Seconds between run-side heartbeats.
        heartbeat_timeout: Seconds of pool silence before its
            connection is declared lost (pools heartbeat every second
            by default, so this tolerates several missed beats); also
            how long a pool may take to accept a frame.
        connect_timeout: Seconds the run tolerates having *no* pool
            connected while work is outstanding before failing.
        retry_interval: Seconds between reconnection attempts.
    """

    name = "distributed"
    monitors_staleness = True

    def __init__(self, connect=None, routine_spec: str | None = None,
                 heartbeat_interval: float = 1.0,
                 heartbeat_timeout: float = 10.0,
                 connect_timeout: float = 30.0,
                 retry_interval: float = 0.5) -> None:
        super().__init__()
        self._addresses = parse_connect(connect)
        self._routine_spec = routine_spec
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._connect_timeout = connect_timeout
        self._retry_interval = retry_interval
        # Messages and exits (an EXIT frame or a lost connection, as a
        # WorkerDeath) in arrival order, with a None for each welcome
        # (it wakes the loop to the pool's slots), and the exits poll()
        # met, awaiting reap().
        self._inbox: deque = deque()
        self._exited: list[WorkerDeath] = []
        # Per running job, the ``(SUBMIT body, deadline)`` its
        # assignments are shipped with.
        self._entries: dict[str | None, tuple[dict, float | None]] = {}
        # Connecting and connected pools; the other addresses, with
        # the monotonic time of their next connect.
        self._links: dict[tuple[str, int], _PoolLink] = {}
        self._redial: dict[tuple[str, int], float] = {}
        # What each address resolved to, and the addresses to look up
        # again (never resolved, or every target failed its connect).
        self._targets: dict[tuple[str, int], list] = {}
        self._unresolved = set(self._addresses)
        self._welcomed_once: set[tuple[str, int]] = set()
        self._selector = selectors.DefaultSelector()
        self._buffer = memoryview(bytearray(_RECV_BYTES))
        self._stopping = threading.Event()
        self._beats: threading.Thread | None = None
        self._last_pool_seen = time.monotonic()

    # -- Backend protocol --------------------------------------------------

    def bind(self, engine) -> None:
        """Go online: start dialling the pools and beating."""
        super().bind(engine)
        self._last_pool_seen = time.monotonic()
        self._resolve()
        for address in self._addresses:
            self._dial(address)
        self._beats = threading.Thread(
            target=self._beat, daemon=True, name="parmonc-heartbeats")
        self._beats.start()

    def free_slots(self) -> int:
        """Free slots over the welcomed pools, once the sockets were
        served (an idle service hears here of pools lost or back)."""
        self._pump(0.0)
        return sum(link.capacity - len(link.active)
                   for link in self._links.values() if link.welcomed)

    def spawn(self, assignments) -> None:
        """Write the ASSIGNs (and SUBMITs) in one write per pool: each
        rank has a slot, as :meth:`free_slots` counted.  A pool that
        will not take the write is lost with every rank it holds."""
        writes: dict[_PoolLink, list[bytes]] = {}
        for assignment in assignments:
            link = self._pick_pool()
            job = assignment.job
            entry, deadline = self._entries[job]
            payload = _tagged(job, rank=assignment.rank,
                              quota=assignment.quota)
            if deadline is not None:
                payload["deadline_in"] = max(deadline - self.clock(), 0.0)
            frames = writes.setdefault(link, [])
            if job not in link.announced:
                link.announced.add(job)
                frames.append(encode_frame(FrameKind.SUBMIT, entry))
            frames.append(encode_frame(FrameKind.ASSIGN, payload))
            link.active.add((job, assignment.rank))
        for link, frames in writes.items():
            self._send(link, b"".join(frames))

    def poll(self, timeout: float) -> MomentMessage | None:
        if not self._inbox:
            self._pump(timeout)
            if not self._inbox:
                return None
        item = self._inbox.popleft()
        if isinstance(item, WorkerDeath):
            self._exited.append(item)
            return None
        return item

    def reap(self) -> list[WorkerDeath]:
        """Report the exits and lost pools :meth:`poll` met: each came
        off the inbox behind everything its worker wrote, so its job
        judges it with every pass of that worker in."""
        exits, self._exited = self._exited, []
        if not exits:
            self._check_pool_starvation()
        return exits

    def shutdown(self) -> None:
        """Stop beating, say BYE to every pool and hang up."""
        self._stopping.set()
        if self._beats is not None:
            self._beats.join()
            self._beats = None
        bye = encode_frame(FrameKind.BYE, {})
        for link in list(self._links.values()):
            if link.welcomed:
                with suppress(OSError):
                    link.send(bye)
            self._close(link)
        self._redial.clear()
        self._selector.close()

    def open_job(self, job) -> None:
        """Register the job's wire entry, shipped as a SUBMIT ahead of
        the job's first ASSIGN on each link.  Named jobs travel as
        pickles; ``routine_spec`` names the anonymous job's routine (a
        per-job ``module:function`` spec has no CLI path yet)."""
        routine = job.routine
        spec = self._routine_spec if job.id is None else None
        entry = _tagged(job.id, config=config_to_payload(job.config),
                        routine=routine_to_payload(routine, spec=spec))
        batch_size = getattr(routine, "batch_size", None)
        if spec is not None and batch_size is not None:
            # The spec names the *scalar* routine; the pool re-wraps
            # it with make_batched so the batched fast path still runs.
            entry["batch_size"] = batch_size
        self._entries[job.id] = (entry, job.deadline)

    def release_job(self, job_id: str | None) -> None:
        """Forget the job here and on every pool that heard of it.  A
        job's SUBMIT and ASSIGN frames go out in one write, so on any one
        link CANCEL is the last frame of the job."""
        self._entries.pop(job_id, None)
        cancel = encode_frame(FrameKind.CANCEL, _tagged(job_id))
        for link in list(self._links.values()):
            if job_id in link.announced:
                link.announced.discard(job_id)
                self._send(link, cancel)

    # -- telemetry, the no-pool guard, reads ------------------------------

    def _notice(self, name: str, **fields) -> None:
        """Record a pool event in every running job's telemetry."""
        workers = sum(link.capacity for link in self._links.values()
                      if link.welcomed)
        for job in self.engine.running():
            telemetry = job.telemetry
            if telemetry is not None:
                telemetry.events.append(name, ts=self.clock(), **fields)
                telemetry.registry.gauge("pool.workers").set(workers)

    def _check_pool_starvation(self) -> None:
        if (any(link.welcomed for link in self._links.values())
                or self.engine.all_complete):
            return
        silent = time.monotonic() - self._last_pool_seen
        if silent > self._connect_timeout:
            addresses = ", ".join("%s:%d" % addr for addr in self._addresses)
            raise BackendError(
                f"no parmonc-pool reachable at [{addresses}] for "
                f"{silent:.1f}s with work outstanding (connect_timeout="
                f"{self._connect_timeout}s); are the pools running?")

    def _pump(self, timeout: float) -> None:
        """Serve the pool sockets until the inbox holds something or
        ``timeout`` seconds have passed: dial the addresses that are
        due, read what is readable, drop the pools gone silent."""
        deadline = time.monotonic() + timeout
        while True:
            now = time.monotonic()
            for address, due in list(self._redial.items()):
                if due <= now:
                    self._dial(address)
            wait = min([deadline, *self._redial.values()]) - now
            for key, _ in self._selector.select(max(wait, 0.0)):
                link = key.data
                if self._links.get(link.address) is not link:
                    continue  # lost while an earlier one was served
                if key.events == selectors.EVENT_WRITE:  # connecting
                    self._connected(link)
                else:
                    self._receive(link)
            now = time.monotonic()
            for link in list(self._links.values()):
                silent = now - link.last_seen
                if silent > self._heartbeat_timeout:
                    self._lose(link, f"silent for {silent:.1f}s")
            if self._inbox or now >= deadline:
                return

    def _receive(self, link: _PoolLink) -> None:
        """Take what one read brings from a pool, frame by frame."""
        try:
            size = link.sock.recv_into(self._buffer)
        except OSError as exc:
            self._lose(link, exc)
            return
        if not size:
            self._lose(link, "connection closed")
            return
        self._last_pool_seen = link.last_seen = time.monotonic()
        try:
            for kind, payload in link.decoder.feed(self._buffer[:size]):
                if kind is FrameKind.DATA and link.welcomed:
                    self._inbox.append(message_from_payload(payload))
                elif kind is FrameKind.EXIT and link.welcomed:
                    rank = int(payload["rank"])
                    job = payload.get("job")
                    job = None if job is None else str(job)
                    link.active.discard((job, rank))
                    self._inbox.append(WorkerDeath(
                        rank, payload.get("exitcode"),
                        detail=f"on pool {link.label}", job=job))
                elif kind is FrameKind.ERROR:
                    raise WireError(payload.get("detail", "pool error"))
                elif not link.welcomed:
                    self._welcome(link, kind, payload)
                elif kind is not FrameKind.HEARTBEAT:
                    raise WireError(f"unexpected {kind.name} frame from "
                                    f"pool {link.label}")
        except (WireError, KeyError, TypeError, ValueError) as exc:
            self._lose(link, exc)  # a malformed frame loses the pool

    # -- links and frames --------------------------------------------------

    def _resolve(self) -> None:
        """Look up the pool names due for it, at bind and then on the
        heartbeat thread: a slow resolver never stalls :meth:`poll`."""
        for address in list(self._unresolved):
            with suppress(OSError):
                self._targets[address] = socket.getaddrinfo(
                    *address, type=socket.SOCK_STREAM)
                self._unresolved.discard(address)

    def _dial(self, address: tuple[str, int], target: int = 0) -> None:
        """Start a non-blocking connect to one of the address's resolved
        targets; :meth:`_pump` sees it finish.  A failed connect goes on
        to the next target, and past the last one waits for a redial."""
        self._redial.pop(address, None)
        targets = self._targets.get(address, [])
        if target >= len(targets):
            self._unresolved.add(address)  # the heartbeat thread looks
            self._redial[address] = time.monotonic() + self._retry_interval
            return
        family, kind, proto, _, sockaddr = targets[target]
        try:
            sock = socket.socket(family, kind, proto)
        except OSError:
            self._dial(address, target + 1)
            return
        sock.setblocking(False)
        link = self._links[address] = _PoolLink(address, sock,
                                                target=target)
        self._selector.register(sock, selectors.EVENT_WRITE, link)
        if sock.connect_ex(sockaddr) not in (0, errno.EINPROGRESS):
            self._lose(link)

    def _connected(self, link: _PoolLink) -> None:
        """The connect finished: say HELLO, or try the next target."""
        sock = link.sock
        if sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
            self._lose(link)
            return
        # Blocking, so a send is one syscall, with a kernel send timeout:
        # a pool that takes no frame in heartbeat_timeout raises EAGAIN.
        sock.setblocking(True)
        seconds = self._heartbeat_timeout
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, struct.pack(
            "ll", int(seconds), int(seconds % 1 * 1e6)))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.modify(sock, selectors.EVENT_READ, link)
        self._send(link, encode_frame(FrameKind.HELLO, {}))

    def _welcome(self, link: _PoolLink, kind: FrameKind, payload) -> None:
        """The handshake's answer; the link takes work from now on."""
        if kind is not FrameKind.WELCOME:
            raise WireError(f"expected WELCOME, pool sent {kind.name}")
        link.capacity = max(int(payload.get("workers", 1)), 1)
        link.label = str(payload.get("pool") or "%s:%d" % link.address)
        link.welcomed = True
        self._inbox.append(None)
        again = link.address in self._welcomed_once
        self._welcomed_once.add(link.address)
        self._notice("pool_reconnected" if again else "pool_connected",
                     pool=link.label, workers=link.capacity)

    def _send(self, link: _PoolLink, data: bytes) -> None:
        """Write frames to a pool; one that will not take them is lost."""
        try:
            link.send(data)
        except OSError as exc:
            self._lose(link, exc)

    def _close(self, link: _PoolLink) -> None:
        del self._links[link.address]
        self._selector.unregister(link.sock)
        with link.lock:
            link.sock.close()

    def _lose(self, link: _PoolLink, reason=None) -> None:
        """Hang up.  A link never welcomed (a failed connect, unlogged,
        or a refused handshake) dials the name's next target.  A
        welcomed pool is dialled again ``retry_interval`` after its last
        bytes, and an exit of each rank it ran is queued behind
        everything it sent (their jobs spare the ones whose final is
        in)."""
        self._close(link)
        if not link.welcomed:
            if reason is not None:
                _logger.warning("pool %s:%d rejected the handshake: %s",
                                *link.address, reason)
            self._dial(link.address, link.target + 1)
            return
        self._redial[link.address] = link.last_seen + self._retry_interval
        _logger.warning("pool %s lost: %s", link.label, reason)
        for job, rank in sorted(link.active, key=lambda key: (
                key[0] is not None, key[0] or "", key[1])):
            self._inbox.append(WorkerDeath(
                rank, detail=f"pool {link.label} connection lost", job=job))
        link.active.clear()
        self._notice("pool_disconnected", pool=link.label)

    def _beat(self) -> None:
        """Heartbeat every welcomed pool until :meth:`shutdown`.

        The scheduler stops polling while no job is live, yet an idle
        service's sessions must outlive the pools' ``session_timeout``:
        heartbeats are timers, so they get the one thread besides the
        loop's.  It reads no socket and never touches job state.  A pool
        that will not take a beat has its socket shut down, for the
        loop's next read to report lost.  After the beats it looks up
        the names :meth:`_dial` asks for, the other call that may block.
        """
        beat = encode_frame(FrameKind.HEARTBEAT, {})
        while not self._stopping.wait(self._heartbeat_interval):
            for link in list(self._links.values()):  # the loop edits it
                try:
                    if link.welcomed:
                        link.send(beat)
                except OSError:
                    with link.lock, suppress(OSError):
                        link.sock.shutdown(socket.SHUT_RDWR)
            self._resolve()

    def _pick_pool(self) -> _PoolLink:
        """The first least-loaded welcomed pool (one with a free slot)."""
        return min((link for link in self._links.values() if link.welcomed),
                   key=lambda link: len(link.active) / link.capacity)
