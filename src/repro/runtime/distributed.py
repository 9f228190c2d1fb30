"""Distributed backend: quota dispatched to TCP worker pools.

The run side of the distributed deployment.  Where the multiprocess
backend forks workers locally, this backend connects to one or more
``parmonc-pool`` daemons (:mod:`repro.runtime.pool`) and dispatches the
work plan over the wire protocol of :mod:`repro.runtime.wire`.  From the
:class:`~repro.runtime.engine.Engine`'s point of view it is just another
:class:`~repro.runtime.engine.EngineBackend` — same
``spawn/poll/reap`` contract, same collector, bit-identical estimates — which is the
ParaMonte-style promise: serial, multicore and multi-node runs share one
user-facing API.

Elasticity falls out of two existing mechanisms:

* **late joiners** — every configured address is retried in the
  background, so a pool that comes up mid-run starts a session and
  immediately receives whatever assignments are still pending
  (including recovery assignments for other pools' dead workers);
* **departures** — a worker crash surfaces as an EXIT frame with a
  nonzero code, and a vanished pool (socket close, missed heartbeats,
  ``kill -9`` of the daemon) marks all its unfinished ranks dead.  Both
  route through the engine's ``on_worker_death`` policy, so with
  ``"reassign"`` the undelivered quota is reissued on fresh
  subsequences — possibly to a different pool.

All socket work happens on an asyncio loop in a private daemon thread;
the engine-facing methods communicate with it through thread-safe
queues.  DATA, EXIT and lost-pool records share one ordered inbox, and
a pool sends a worker's EXIT only after draining its pipe, so by the
time :meth:`~DistributedBackend.poll` meets an exit every pass of that
worker has been handed to the collector: the verdict is the multiprocess
backend's — dead exactly when the rank's final is not in — with no
clock.
"""

from __future__ import annotations

import asyncio
import logging
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import BackendError, ConfigurationError, WireError
from repro.runtime.engine import (
    EngineBackend,
    WorkerDeath,
    register_backend,
)
from repro.runtime.messages import MomentMessage
from repro.runtime.wire import (
    FrameKind,
    config_to_payload,
    message_from_payload,
    read_frame,
    routine_to_payload,
    write_frame,
)

__all__ = ["DistributedBackend", "parse_connect"]

_logger = logging.getLogger(__name__)


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


@dataclass
class _PoolLink:
    """One live pool connection (asyncio-thread state only).

    ``active`` holds ``(job, rank)`` keys — ``job`` is None for a
    single run's anonymous job — so two jobs of one scheduler can both
    run a rank 0 on the same pool without colliding.
    """

    address: tuple[str, int]
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    capacity: int = 1
    label: str = ""
    active: set = field(default_factory=set)
    #: Job ids this pool holds context for: a SUBMIT went out and no
    #: CANCEL has followed it.
    announced: set = field(default_factory=set)
    #: Monotonic time of the pool's last frame (the silence watchdog).
    last_seen: float = field(default_factory=time.monotonic)


def _tagged(job: str | None, **fields) -> dict:
    """A control-frame body; the anonymous job's carries no ``job`` key."""
    if job is not None:
        fields["job"] = job
    return fields


def _sorted_keys(keys) -> list[tuple[str | None, int]]:
    """``(job, rank)`` keys in a stable order (None jobs first)."""
    return sorted(keys, key=lambda key: (key[0] is not None,
                                         key[0] or "", key[1]))


@dataclass(frozen=True)
class _ExitRecord:
    """An EXIT frame or a lost connection, queued behind its DATA."""

    rank: int
    exitcode: int | None
    detail: str
    job: str | None = None


@register_backend("distributed")
class DistributedBackend(EngineBackend):
    """Dispatch quota to remote ``parmonc-pool`` worker daemons.

    Args:
        connect: Pool address(es) — ``"host:port"``, a comma-separated
            list, or an iterable of addresses.  Unreachable pools are
            retried in the background, so an address may name a pool
            that only comes up mid-run.
        routine_spec: Optional ``module:function`` string shipped
            instead of a pickle, letting pools import the routine by
            name (the ``parmonc-run`` path).
        heartbeat_interval: Seconds between run-side heartbeats.
        heartbeat_timeout: Seconds of pool silence before its
            connection is declared lost (pools heartbeat every second
            by default, so this tolerates several missed beats).
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
        # Engine-thread <- network-thread channels: messages and exit
        # records in arrival order, and telemetry notices.
        self._inbox: queue_module.Queue = queue_module.Queue()
        self._notices: queue_module.Queue = queue_module.Queue()
        self._exited: list[_ExitRecord] = []  # awaiting a verdict
        # Network-thread state; the engine thread changes it only
        # through _on_loop, so its changes land in the order it made
        # them.  Undispatched assignments, and per running job the
        # ``(SUBMIT body, deadline)`` the dispatcher ships them with.
        self._pending: deque = deque()
        self._entries: dict[str | None, tuple[dict, float | None]] = {}
        self._links: dict[tuple[str, int], _PoolLink] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._loop_ready = threading.Event()
        self._dispatch_event: asyncio.Event | None = None
        self._stop_event: asyncio.Event | None = None
        # Crude cross-thread mirrors for the no-pool guard (single
        # writer each; reads tolerate slight staleness).
        self._connected_pools = 0
        self._last_pool_seen = time.monotonic()

    # -- Backend protocol --------------------------------------------------

    def bind(self, engine) -> None:
        """Go online: start dialling the pools."""
        super().bind(engine)
        self._last_pool_seen = time.monotonic()
        self._thread = threading.Thread(
            target=self._network_main, daemon=True,
            name="parmonc-distributed")
        self._thread.start()
        if not self._loop_ready.wait(timeout=10.0) or self._loop is None:
            raise BackendError(
                "the distributed backend's network thread failed to start")

    def spawn(self, assignments) -> None:
        for assignment in assignments:
            if assignment.quota is None:
                raise BackendError(
                    "the distributed backend needs a static quota per "
                    "assignment")
        self._on_loop(self._enqueue, assignments)
        return None

    def poll(self, timeout: float) -> MomentMessage | None:
        self._flush_notices()
        try:
            item = self._inbox.get(timeout=timeout)
        except queue_module.Empty:
            return None
        if isinstance(item, _ExitRecord):
            self._exited.append(item)
            return None
        return item

    def reap(self) -> list[WorkerDeath]:
        """Judge the exits and lost pools :meth:`poll` met.

        Each came off the inbox behind everything its worker wrote, so
        a rank is dead exactly when its final is not in; a lost pool's
        ranks that finished are not re-killed.
        """
        self._flush_notices()
        dead: list[WorkerDeath] = []
        for record in self._exited:
            try:
                context = self.engine.job_context(record.job)
            except BackendError:
                # The scheduler pruned the job after DONE; its workers'
                # late EXIT frames are stray traffic, like late DATA.
                self.engine.stray_messages += 1
                continue
            if record.rank not in context.collector.final_ranks:
                dead.append(WorkerDeath(record.rank, record.exitcode,
                                        detail=record.detail,
                                        job=record.job))
        self._exited.clear()
        if not dead:
            self._check_pool_starvation()
        return dead

    def shutdown(self) -> None:
        if self._loop is not None:
            self._on_loop(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._flush_notices()

    def open_job(self, job) -> None:
        """Register the job's wire entry.

        The dispatcher ships it as a SUBMIT ahead of the job's first
        ASSIGN on each link — the one way a pool learns a job.  Named
        jobs travel as pickles; ``routine_spec`` names the anonymous
        job's routine (a per-job ``module:function`` spec has no CLI
        path yet).
        """
        routine = job.routine
        spec = self._routine_spec if job.id is None else None
        entry = _tagged(job.id, config=config_to_payload(job.config),
                        routine=routine_to_payload(routine, spec=spec))
        batch_size = getattr(routine, "batch_size", None)
        if spec is not None and batch_size is not None:
            # The spec names the *scalar* routine; the pool re-wraps
            # it with make_batched so the batched fast path still runs.
            entry["batch_size"] = batch_size
        self._on_loop(self._register, job.id, entry, job.deadline)

    def release_job(self, job_id: str | None) -> None:
        """Forget the job here and on every pool that heard of it."""
        self._on_loop(self._forget, job_id)

    # -- engine-thread helpers ---------------------------------------------

    def _flush_notices(self) -> None:
        """Replay network-thread observability into run telemetry.

        The :class:`~repro.obs.events.EventLog` is not thread-safe, so
        the network thread only queues notices; they land in telemetry
        here, on the engine thread, during poll/reap.
        """
        while True:
            try:
                item = self._notices.get_nowait()
            except queue_module.Empty:
                return
            for job in self.engine.running():
                telemetry = job.telemetry
                if telemetry is None:
                    continue
                if item[0] == "gauge":
                    telemetry.registry.gauge("pool.workers").set(item[1])
                else:
                    _, name, fields = item
                    telemetry.events.append(name, ts=self.clock(),
                                            **fields)

    def _check_pool_starvation(self) -> None:
        if self._connected_pools > 0:
            return
        if not self._pending and self.engine.all_complete:
            return
        silent = time.monotonic() - self._last_pool_seen
        if silent > self._connect_timeout:
            addresses = ", ".join("%s:%d" % addr
                                  for addr in self._addresses)
            raise BackendError(
                f"no parmonc-pool reachable at [{addresses}] for "
                f"{silent:.1f}s with work outstanding (connect_timeout="
                f"{self._connect_timeout}s); are the pools running?")

    def _on_loop(self, callback, *args) -> None:
        """Run ``callback`` on the network thread, in call order."""
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:  # the loop is closed: the session is over
            pass

    def _notice(self, name: str, **fields) -> None:
        self._notices.put(("event", name, fields))
        self._notices.put(
            ("gauge", sum(link.capacity for link in self._links.values())))

    # -- network thread ----------------------------------------------------

    def _register(self, job, entry: dict, deadline: float | None) -> None:
        self._entries[job] = (entry, deadline)
        self._dispatch_event.set()

    def _enqueue(self, assignments) -> None:
        self._pending.extend(assignments)
        self._dispatch_event.set()

    def _forget(self, job) -> None:
        """Drop the job's entry and pending work, then CANCEL it.

        Purge and frames happen in one loop turn and the dispatcher
        writes a job's SUBMIT and ASSIGN without yielding in between,
        so on any one link CANCEL is the last frame of the job.
        """
        self._entries.pop(job, None)
        self._pending = deque(assignment for assignment in self._pending
                              if assignment.job != job)
        for link in self._links.values():
            if job not in link.announced:
                continue
            link.announced.discard(job)
            try:
                write_frame(link.writer, FrameKind.CANCEL, _tagged(job))
            except (ConnectionError, RuntimeError):
                continue

    def _network_main(self) -> None:
        try:
            asyncio.run(self._network())
        except Exception:
            _logger.exception("distributed network thread crashed")
            self._loop_ready.set()

    async def _network(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._dispatch_event = asyncio.Event()
        self._stop_event = asyncio.Event()
        self._loop_ready.set()
        tasks = [self._loop.create_task(self._maintain(address))
                 for address in self._addresses]
        tasks.append(self._loop.create_task(self._dispatch()))
        await self._stop_event.wait()
        # BYE and close first: every read loop then ends on its own
        # (stop flag, or end of stream), so teardown never depends on
        # a cancellation landing at the right await.
        for link in list(self._links.values()):
            try:
                write_frame(link.writer, FrameKind.BYE, {})
                await link.writer.drain()
            except (ConnectionError, RuntimeError):
                pass
            link.writer.close()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._links.clear()
        self._connected_pools = 0

    async def _maintain(self, address: tuple[str, int]) -> None:
        """Keep one pool address connected; retry forever in background."""
        host, port = address
        connected_before = False
        while not self._stop_event.is_set():
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                await asyncio.sleep(self._retry_interval)
                continue
            link = _PoolLink(address, reader, writer)
            try:
                await self._handshake(link)
            except (WireError, ConnectionError, OSError,
                    asyncio.IncompleteReadError, asyncio.TimeoutError) as exc:
                _logger.warning("pool %s:%d rejected the handshake: %s",
                                host, port, exc)
                writer.close()
                await asyncio.sleep(self._retry_interval)
                continue
            self._links[address] = link
            self._connected_pools = len(self._links)
            self._last_pool_seen = time.monotonic()
            self._notice(
                "pool_reconnected" if connected_before else "pool_connected",
                pool=link.label, workers=link.capacity)
            connected_before = True
            self._dispatch_event.set()
            heartbeats = self._loop.create_task(self._send_heartbeats(link))
            try:
                await self._read_loop(link)
            except (WireError, OSError,
                    asyncio.IncompleteReadError) as exc:
                if not self._stop_event.is_set():
                    _logger.warning("pool %s lost: %s", link.label, exc)
            finally:
                heartbeats.cancel()
                self._links.pop(address, None)
                self._connected_pools = len(self._links)
                self._abandon(link)
                writer.close()
            await asyncio.sleep(self._retry_interval)

    async def _handshake(self, link: _PoolLink) -> None:
        write_frame(link.writer, FrameKind.HELLO, {})
        await link.writer.drain()
        kind, welcome = await asyncio.wait_for(
            read_frame(link.reader), timeout=self._heartbeat_timeout)
        if kind is FrameKind.ERROR:
            raise WireError(welcome.get("detail", "pool refused the run"))
        if kind is not FrameKind.WELCOME:
            raise WireError(f"expected WELCOME, pool sent {kind.name}")
        link.capacity = max(int(welcome.get("workers", 1)), 1)
        link.label = str(welcome.get("pool")
                         or "%s:%d" % link.address)

    async def _read_loop(self, link: _PoolLink) -> None:
        while not self._stop_event.is_set():
            kind, payload = await read_frame(link.reader)
            self._last_pool_seen = link.last_seen = time.monotonic()
            if kind is FrameKind.DATA:
                self._inbox.put(message_from_payload(payload))
            elif kind is FrameKind.EXIT:
                rank = int(payload["rank"])
                job = payload.get("job")
                job = None if job is None else str(job)
                link.active.discard((job, rank))
                self._inbox.put(_ExitRecord(
                    rank=rank, exitcode=payload.get("exitcode"),
                    detail=f"on pool {link.label}", job=job))
                self._dispatch_event.set()
            elif kind is FrameKind.HEARTBEAT:
                continue
            elif kind is FrameKind.ERROR:
                raise WireError(payload.get("detail", "pool error"))
            else:
                raise WireError(
                    f"unexpected {kind.name} frame from pool {link.label}")

    async def _send_heartbeats(self, link: _PoolLink) -> None:
        """Beat towards the pool; hang up on one that has gone silent."""
        while True:
            await asyncio.sleep(self._heartbeat_interval)
            silent = time.monotonic() - link.last_seen
            if silent > self._heartbeat_timeout:
                _logger.warning("pool %s silent for %.1fs, dropping it",
                                link.label, silent)
                link.writer.close()  # ends the read loop: pool lost
                return
            try:
                write_frame(link.writer, FrameKind.HEARTBEAT, {})
                await link.writer.drain()
            except (ConnectionError, RuntimeError):
                return

    async def _dispatch(self) -> None:
        """Feed pending assignments to pools with free worker slots."""
        while True:
            await self._dispatch_event.wait()
            self._dispatch_event.clear()
            while self._pending:
                assignment = self._pending[0]
                job = assignment.job
                known = self._entries.get(job)
                if known is None:
                    break  # its open_job has not landed; landing wakes us
                link = self._pick_pool()
                if link is None:
                    break  # every slot busy; an EXIT will wake us
                self._pending.popleft()
                entry, deadline = known
                payload = _tagged(job, rank=assignment.rank,
                                  quota=assignment.quota)
                if deadline is not None:
                    payload["deadline_in"] = max(
                        deadline - time.monotonic(), 0.0)
                key = (job, assignment.rank)
                try:
                    # No await between the two frames and the
                    # bookkeeping: _forget sees the link either before
                    # both or after both.
                    if job not in link.announced:
                        write_frame(link.writer, FrameKind.SUBMIT, entry)
                        link.announced.add(job)
                    write_frame(link.writer, FrameKind.ASSIGN, payload)
                    link.active.add(key)
                    await link.writer.drain()
                except (ConnectionError, RuntimeError):
                    link.active.discard(key)
                    if self._entries.get(job) is known:
                        # Not released while the drain was pending.
                        self._pending.appendleft(assignment)
                    break

    def _pick_pool(self) -> _PoolLink | None:
        """The least-loaded connected pool with a free slot, if any."""
        best: _PoolLink | None = None
        best_load = 1.0
        for link in self._links.values():
            load = len(link.active) / link.capacity
            if load < 1.0 and (best is None or load < best_load):
                best, best_load = link, load
        return best

    def _abandon(self, link: _PoolLink) -> None:
        """A pool vanished: mark its unfinished ranks dead, requeue none.

        The collector may already hold final messages for some of these
        ranks; :meth:`reap` checks ``final_ranks`` before judging, so
        completed workers are not re-killed.
        """
        if self._stop_event.is_set():
            return
        for job, rank in _sorted_keys(link.active):
            self._inbox.put(_ExitRecord(
                rank=rank, exitcode=None,
                detail=f"pool {link.label} connection lost", job=job))
        link.active.clear()
        self._notice("pool_disconnected", pool=link.label)
