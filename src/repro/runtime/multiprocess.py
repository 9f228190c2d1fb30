"""Multiprocess backend: real OS processes and asynchronous messaging.

The moral equivalent of the paper's MPI deployment on one machine: every
worker is a separate process, messages travel through an OS queue, and
the collector (this process) receives them asynchronously — slower
workers simply deliver fewer realizations by the time any given
averaging happens, exercising the unequal-``l_m`` branch of formula (5).

Two scaling knobs reshape the exchange without changing a single
estimate bit (see ``docs/reduction.md``):

* ``config.reduction_fanout`` inserts interior **reducer processes**
  (:mod:`repro.runtime.reduction`): workers report to their subtree's
  reducer, reducers coalesce and forward combined messages upstream,
  and rank 0 serves O(fanout) peers instead of O(M) workers.
* ``config.transport == "shm"`` moves same-host passes off
  pickle-over-``mp.Queue`` onto per-worker shared-memory ring buffers
  (:mod:`repro.runtime.shm`): zero-copy fixed-layout payloads with a
  queue fallback for anything that does not fit a slot.

Worker telemetry (when enabled) piggybacks on the moment messages, so
rank 0 needs no extra IPC channel to know every worker's realization
rate, message count and bytes shipped.

Dead children are detected here and *reported* to the engine, which
applies the run's :attr:`~repro.runtime.config.RunConfig
.on_worker_death` policy — abort (default) or reassign the undelivered
quota to a replacement process on a fresh subsequence.  Dead *reducers*
are handled in place: a reducer holds no state that is not cumulative
in its children's next passes, so under ``"reassign"`` the backend
respawns the node on the same queues and rings and the subtree simply
reattaches.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
from dataclasses import replace

from repro.exceptions import BackendError
from repro.obs.telemetry import WorkerTelemetry
from repro.runtime.config import RunConfig
from repro.runtime.engine import (
    DrainBuffer,
    Engine,
    EngineBackend,
    WorkerDeath,
    register_backend,
)
from repro.runtime.messages import CombinedMessage, MomentMessage
from repro.runtime.reduction import ReducerNode, plan_reduction, run_reducer
from repro.runtime.result import RunResult
from repro.runtime.shm import ShmRing, ShmSender, attach_ring, segment_name, \
    sweep_orphans
from repro.runtime.worker import RealizationRoutine, run_worker

__all__ = ["MultiprocessBackend", "run_multiprocess"]

_JOIN_SECONDS = 10.0

#: Reducers exit within one idle-wait of the shutdown sentinel; anything
#: slower is wedged and gets terminated.
_REDUCER_JOIN_SECONDS = 2.0

#: Respawn budget per reducer node (mirrors the engine's worker budget).
_REDUCER_RESPAWN_FACTOR = 4


def _worker_entry(routine: RealizationRoutine, config: RunConfig,
                  rank: int, quota: int, outbox, deadline: float | None,
                  ring_name: str | None = None,
                  job: str | None = None) -> None:
    """Worker process body: run the loop, shipping messages upstream.

    ``outbox`` is wherever this worker's messages go — the backend's
    queue (flat plan) or its reducer's inbox (tree plan).  With a ring
    name the worker writes the shared-memory fast path and uses the
    queue only as overflow.  A job id tags every message on the child
    side, so the scheduler can route interleaved traffic from several
    jobs sharing one queue; ``job=None`` (the classic path) leaves the
    messages byte-identical to the historical format.
    """
    telemetry = WorkerTelemetry(rank) if config.telemetry else None
    if job is None:
        send = outbox.put
    else:
        def send(message, _put=outbox.put, _job=job):
            _put(replace(message, job=_job))
    if ring_name is None:
        run_worker(routine, config, rank, quota, send=send,
                   deadline=deadline, telemetry=telemetry)
        return
    ring = attach_ring(ring_name)
    try:
        run_worker(routine, config, rank, quota,
                   send=ShmSender(ring, send),
                   deadline=deadline, telemetry=telemetry)
    finally:
        ring.close()


def _reducer_entry(node: ReducerNode, inbox, upstream,
                   ring_names: tuple[str, ...]) -> None:
    """Reducer process body: attach the subtree's rings and run the loop."""
    rings = [attach_ring(name) for name in ring_names]
    try:
        run_reducer(node, inbox, upstream, rings)
    finally:
        for ring in rings:
            ring.close()


@register_backend("multiprocess")
class MultiprocessBackend(EngineBackend):
    """One OS process per worker, a shared queue back to the collector.

    Args:
        start_method: Optional multiprocessing start method override
            ("fork" keeps closures, "spawn" requires a picklable
            module-level routine).
    """

    name = "multiprocess"
    monitors_staleness = True
    supports_shared_jobs = True
    #: Shared-pool jobs may carry their own ``reduction_fanout``: the
    #: backend plans a private k-ary tree per job at admission and
    #: tears it down at completion (``prepare_job``/``release_job``).
    supports_job_reduction = True

    def __init__(self, start_method: str | None = None) -> None:
        super().__init__()
        self._start_method = start_method
        self._context = None
        self._outbox = None
        self._processes: list = []
        # Keyed (job, rank); job is None for a single run's anonymous job.
        self._live: dict = {}
        self._suspects: dict = {}
        # Reduction topology, one entry per job that runs a tree, under
        # its job id (None for a single run's anonymous job).  Reducer
        # inboxes/processes are keyed (owner, node_id).
        self._plans: dict = {}
        self._leaf_parents: dict = {}
        self._rings: dict[int, ShmRing] = {}
        self._root_rings: dict[int, ShmRing] = {}
        self._reducer_inboxes: dict[tuple, object] = {}
        self._reducers: dict[tuple, object] = {}
        self._reducer_respawns = 0
        self._respawn_budget = 0
        # The fetch closures read self._outbox / self._root_rings at
        # call time (both are created lazily on first spawn; tests swap
        # the queue out).  Rings drain ahead of the queue inside the
        # shared buffer, keeping the drain-before-verdict contract over
        # both channels.
        self._drained = DrainBuffer(
            lambda: self._outbox.get_nowait(),
            rings=lambda: self._root_rings.values())

    # -- topology ---------------------------------------------------------

    @property
    def _shm(self) -> bool:
        return self.config.transport == "shm"

    def _ensure_context(self) -> None:
        """Create the multiprocessing context and outbox once."""
        if self._context is not None:
            return
        self._context = (
            multiprocessing.get_context(self._start_method)
            if self._start_method else multiprocessing.get_context())
        self._outbox = self._context.Queue()
        if self._shm:
            # Reclaim segments a SIGKILLed earlier run left behind.
            sweep_orphans()

    def _upstream_of(self, owner, node: ReducerNode):
        """Where a reducer forwards to: its parent's inbox or rank 0."""
        if node.parent is not None:
            return self._reducer_inboxes[(owner, node.parent)]
        return self._outbox

    def _start_reducer(self, owner, node: ReducerNode) -> int:
        ring_names = (tuple(self._rings[rank].name
                            for rank in node.worker_ranks)
                      if self._shm else ())
        process = self._context.Process(
            target=_reducer_entry,
            args=(node, self._reducer_inboxes[(owner, node.node_id)],
                  self._upstream_of(owner, node), ring_names),
            daemon=True)
        process.start()
        self._reducers[(owner, node.node_id)] = process
        return process.pid

    # -- job-scoped trees -------------------------------------------------

    def prepare_job(self, job) -> None:
        """Set up one job's exchange: its rings and its reduction tree.

        Called by the scheduler at admission.  Rings exist only under
        ``transport="shm"`` (a single run; shared-pool jobs are
        queue-only).  A job whose ``reduction_fanout`` is None — or
        already covers its worker count — keeps the flat exchange.
        """
        self._ensure_context()
        ranks = range(job.config.processors)
        if self._shm:
            for rank in ranks:
                self._rings[rank] = ShmRing.create(
                    segment_name(f"r{rank}"), self.config.shape)
        plan = plan_reduction(ranks, job.config.reduction_fanout)
        if plan.flat:
            return
        self._plans[job.id] = plan
        self._leaf_parents[job.id] = dict(plan.leaf_parents)
        self._respawn_budget += _REDUCER_RESPAWN_FACTOR * len(plan.nodes)
        for node in plan.nodes:
            self._reducer_inboxes[(job.id, node.node_id)] = \
                self._context.Queue()
        for node in plan.nodes:
            self._start_reducer(job.id, node)

    def release_job(self, job: str | None) -> None:
        """Tear down a finished/cancelled job's reduction tree.

        The reducers normally retire themselves once every subtree
        rank's final pass is forwarded; the sentinel covers cancelled
        jobs and the join puts a bound on wedged nodes.
        """
        plan = self._plans.pop(job, None)
        self._leaf_parents.pop(job, None)
        if plan is None:
            return
        for node in plan.nodes:
            inbox = self._reducer_inboxes.get((job, node.node_id))
            if inbox is not None:
                try:
                    inbox.put_nowait(None)
                except (queue_module.Full, ValueError):  # pragma: no cover
                    pass
        for node in plan.nodes:
            process = self._reducers.pop((job, node.node_id), None)
            if process is None:
                continue
            process.join(timeout=_REDUCER_JOIN_SECONDS)
            if process.is_alive():
                process.terminate()
        for node in plan.nodes:
            inbox = self._reducer_inboxes.pop((job, node.node_id), None)
            if inbox is not None:
                inbox.close()

    def cancel_job(self, job: str | None) -> None:
        """Terminate a cancelled job's live workers immediately."""
        for key, process in list(self._live.items()):
            if key[0] == job:
                process.terminate()
                self._live.pop(key, None)
                self._suspects.pop(key, None)

    def spawn(self, assignments) -> list[dict]:
        extras = []
        for assignment in assignments:
            rank = assignment.rank
            job = assignment.job
            context = self.engine.job_context(job)
            if self._shm and rank not in self._rings:
                # A recovery rank beyond the planned tree: it reports
                # straight to rank 0 on a fresh ring.
                self._rings[rank] = ShmRing.create(
                    segment_name(f"r{rank}"), self.config.shape)
            parent = self._leaf_parents.get(job, {}).get(rank)
            outbox = (self._reducer_inboxes[(job, parent)]
                      if parent is not None else self._outbox)
            ring_name = None
            if self._shm:
                ring_name = self._rings[rank].name
                if parent is None:
                    self._root_rings[rank] = self._rings[rank]
            process = self._context.Process(
                target=_worker_entry,
                args=(context.routine, context.config, rank,
                      assignment.quota, outbox, context.deadline,
                      ring_name, job),
                daemon=True)
            process.start()
            self._processes.append(process)
            self._live[(job, rank)] = process
            extras.append({"pid": process.pid})
        return extras

    # -- message path -----------------------------------------------------

    def poll(self, timeout: float
             ) -> MomentMessage | CombinedMessage | None:
        message = self._drained.pop()
        if message is not None:
            return message
        if self._root_rings and self._drained.drain():
            return self._drained.pop()
        try:
            # With live rings the blocking wait is capped so ring
            # traffic is never starved behind an idle queue.
            return self._outbox.get(
                timeout=min(timeout, 0.005) if self._root_rings
                else timeout)
        except queue_module.Empty:
            return None

    # -- health -----------------------------------------------------------

    def _check_reducers(self, now: float) -> None:
        """Respawn (or fail on) reducer processes that died.

        A reducer is a stateless relay over cumulative snapshots: the
        respawned process reattaches to the same inbox, upstream queue
        and rings, rebuilds its latest-per-rank view from its
        children's next passes, and the subtree continues.  Anything
        the dead node absorbed but never forwarded is covered by the
        normal worker grace path (an eaten final leads to a quota
        reassignment; late subtree duplicates drop at the collector).
        """
        for key, process in list(self._reducers.items()):
            owner, node_id = key
            exitcode = process.exitcode
            if exitcode is None:
                continue
            del self._reducers[key]
            if exitcode == 0:
                continue  # subtree complete; the node retired itself
            plan = self._plans.get(owner)
            if plan is None:
                continue  # the owning job's tree was already released
            context = self.engine.job_context(owner)
            if context.config.on_worker_death != "reassign":
                raise BackendError(
                    f"reducer {node_id} died (exitcode {exitcode}) "
                    f"before its subtree finished")
            if self._respawn_budget <= 0:
                raise BackendError(
                    f"reducer {node_id} died but the respawn budget is "
                    f"exhausted")
            self._respawn_budget -= 1
            self._reducer_respawns += 1
            pid = self._start_reducer(owner, plan.node(node_id))
            telemetry = context.telemetry
            if telemetry is not None:
                telemetry.registry.counter("reduction.respawns").inc()
                telemetry.events.append(
                    "reducer_respawned", ts=now, node=node_id,
                    exitcode=exitcode, pid=pid)
                telemetry.events.flush()

    def _sample_rings(self) -> None:
        """Ring telemetry: occupancy high-water and queue fallbacks."""
        telemetry = (self.engine.telemetry
                     if self.engine is not None else None)
        if telemetry is None or not self._rings:
            return
        registry = telemetry.registry
        occupancy = max(ring.occupancy() for ring in self._rings.values())
        gauge = registry.gauge("transport.ring_occupancy")
        gauge.set(occupancy)
        peak = registry.gauge("transport.ring_occupancy_peak")
        peak.set(max(peak.value, occupancy))
        registry.gauge("transport.ring_fallbacks").set(
            sum(ring.fallbacks for ring in self._rings.values()))

    def reap(self) -> list[WorkerDeath]:
        """Report children that died short of their final message.

        A worker that exited with a nonzero code (or a signal) is dead
        on sight.  A worker that exited *cleanly* but whose final
        message has not arrived gets ``config.death_grace`` seconds —
        its last message may still be crossing the queue's feeder
        thread (or sitting in a dead reducer's inbox) — and is declared
        dead only if the silence persists.

        Before judging anyone, the rings and the outbox are drained
        into the shared :class:`~repro.runtime.engine.DrainBuffer`: a
        slow-but-delivered message must reach the collector before its
        sender can be declared dead, and must never burn grace time
        while it sits in the channel.  Dead reducers are respawned (or
        fail the run) here too — before the worker verdicts, so a
        respawned subtree gets to deliver pending finals first.
        """
        if self._drained.drain():
            # Let the engine ingest the buffered messages first; death
            # verdicts resume on the next empty poll.
            return []
        now = self.clock()
        self._check_reducers(now)
        self._sample_rings()
        dead: list[WorkerDeath] = []
        dead_keys: list = []
        for key, process in list(self._live.items()):
            job, rank = key
            context = self.engine.job_context(job)
            if process.exitcode is None \
                    or rank in context.collector.final_ranks:
                self._suspects.pop(key, None)
                if process.exitcode is not None:
                    del self._live[key]  # finalized and exited: done
                continue
            if process.exitcode != 0:
                dead.append(WorkerDeath(rank, process.exitcode, job=job))
                dead_keys.append(key)
            else:
                first_seen = self._suspects.setdefault(key, now)
                if now - first_seen >= context.config.death_grace:
                    dead.append(WorkerDeath(rank, process.exitcode,
                                            job=job))
                    dead_keys.append(key)
        for key in dead_keys:
            self._live.pop(key, None)
            self._suspects.pop(key, None)
        return dead

    # -- teardown ---------------------------------------------------------

    def shutdown(self) -> None:
        for process in self._processes:
            process.join(timeout=_JOIN_SECONDS)
            if process.is_alive():
                process.terminate()
        for inbox in self._reducer_inboxes.values():
            try:
                inbox.put_nowait(None)  # the reducer stop sentinel
            except (queue_module.Full, ValueError):  # pragma: no cover
                pass
        for process in self._reducers.values():
            process.join(timeout=_REDUCER_JOIN_SECONDS)
            if process.is_alive():
                process.terminate()
        if self._outbox is not None:
            self._outbox.close()
        for inbox in self._reducer_inboxes.values():
            inbox.close()
        # The backend is the single owner of every segment: close the
        # mapping and unlink so nothing survives in /dev/shm (a crash
        # before this point is covered by the bootstrap sweep).
        for ring in self._rings.values():
            ring.close()
            ring.unlink()
        self._rings.clear()
        self._root_rings.clear()


def run_multiprocess(routine: RealizationRoutine, config: RunConfig,
                     use_files: bool = True,
                     start_method: str | None = None) -> RunResult:
    """Run one session with one OS process per simulated processor.

    Args:
        routine: User realization routine; must survive the chosen
            multiprocessing start method ("fork" keeps closures, "spawn"
            requires a picklable module-level routine).
        config: The run configuration; ``config.reduction_fanout`` and
            ``config.transport`` select the exchange topology and the
            same-host transport (estimates are bit-identical across
            all combinations).
        use_files: Write result files and save-points.
        start_method: Optional multiprocessing start method override.

    Raises:
        BackendError: If a worker dies without delivering its final
            message and ``config.on_worker_death`` is ``"fail"`` —
            whether it crashed (nonzero exit, signal) or exited cleanly
            without finishing its quota.
    """
    return Engine(MultiprocessBackend(start_method=start_method), config,
                  use_files=use_files).run(routine)
