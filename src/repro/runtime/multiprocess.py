"""Multiprocess backend: real OS processes and asynchronous messaging.

The moral equivalent of the paper's MPI deployment on one machine: every
worker is a separate process, messages travel through an OS queue, and
the collector (this process) receives them asynchronously — slower
workers simply deliver fewer realizations by the time any given
averaging happens, exercising the unequal-``l_m`` branch of formula (5).

``config.reduction_fanout`` reshapes the exchange without changing a
single estimate bit (see ``docs/reduction.md``): it inserts interior
**reducer processes** (:mod:`repro.runtime.reduction`) — workers report
to their subtree's reducer, reducers coalesce and forward combined
messages upstream, and rank 0 serves O(fanout) peers instead of O(M)
workers.

Worker telemetry (when enabled) piggybacks on the moment messages, so
rank 0 needs no extra IPC channel to know every worker's realization
rate, message count and bytes shipped.

Dead children are detected here and *reported* to the engine, which
applies the run's :attr:`~repro.runtime.config.RunConfig
.on_worker_death` policy — abort (default) or reassign the undelivered
quota to a replacement process on a fresh subsequence.  Dead *reducers*
are handled in place: a reducer holds no state that is not cumulative
in its children's next passes, so under ``"reassign"`` the backend
respawns the node on the same queues and the subtree simply reattaches.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module

from repro.exceptions import BackendError
from repro.runtime.config import RunConfig
from repro.runtime.engine import (
    DrainBuffer,
    Engine,
    EngineBackend,
    ExitVerdicts,
    WorkerDeath,
    register_backend,
)
from repro.runtime.messages import CombinedMessage, MomentMessage
from repro.runtime.reduction import ReducerNode, plan_reduction, run_reducer
from repro.runtime.result import RunResult
from repro.runtime.worker import RealizationRoutine, worker_process

__all__ = ["MultiprocessBackend", "run_multiprocess"]

#: Reducers exit within one idle-wait of the shutdown sentinel; anything
#: slower is wedged and gets terminated.
_REDUCER_JOIN_SECONDS = 2.0

#: Respawn budget per reducer node (mirrors the engine's worker budget).
_REDUCER_RESPAWN_FACTOR = 4


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
    #: tears it down at release (``open_job``/``release_job``).
    supports_job_reduction = True

    def __init__(self, start_method: str | None = None) -> None:
        super().__init__()
        self._start_method = start_method
        self._context = None
        self._outbox = None
        # Workers of running jobs, keyed (job, rank); job is None for a
        # single run's anonymous job.
        self._live: dict = {}
        self._verdicts = ExitVerdicts()
        # Reduction topology, one entry per job that runs a tree, under
        # its job id (None for a single run's anonymous job).  Reducer
        # inboxes/processes are keyed (owner, node_id).
        self._plans: dict = {}
        self._leaf_parents: dict = {}
        self._reducer_inboxes: dict[tuple, object] = {}
        self._reducers: dict[tuple, object] = {}
        self._reducer_respawns = 0
        self._respawn_budget = 0
        # The fetch closure reads self._outbox at call time (it is
        # created lazily on first spawn; tests swap it out).
        self._drained = DrainBuffer(lambda: self._outbox.get_nowait())

    # -- topology ---------------------------------------------------------

    def _ensure_context(self) -> None:
        """Create the multiprocessing context and outbox once."""
        if self._context is not None:
            return
        self._context = (
            multiprocessing.get_context(self._start_method)
            if self._start_method else multiprocessing.get_context())
        self._outbox = self._context.Queue()

    def _upstream_of(self, owner, node: ReducerNode):
        """Where a reducer forwards to: its parent's inbox or rank 0."""
        if node.parent is not None:
            return self._reducer_inboxes[(owner, node.parent)]
        return self._outbox

    def _start_reducer(self, owner, node: ReducerNode) -> int:
        process = self._context.Process(
            target=run_reducer,
            args=(node, self._reducer_inboxes[(owner, node.node_id)],
                  self._upstream_of(owner, node)),
            daemon=True)
        process.start()
        self._reducers[(owner, node.node_id)] = process
        return process.pid

    # -- job-scoped trees -------------------------------------------------

    def open_job(self, job) -> None:
        """Set up one job's reduction tree.

        A job whose ``reduction_fanout`` is None — or already covers
        its worker count — keeps the flat exchange.
        """
        self._ensure_context()
        plan = plan_reduction(range(job.config.processors),
                              job.config.reduction_fanout)
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

    def release_job(self, job_id: str | None) -> None:
        """Stop the job's workers, tear down its tree, forget both.

        A worker whose final pass is in is left to exit on its own —
        its queue feeder may still hold the shared outbox's write lock,
        which a signal would leave locked for every other job's
        workers — and so are reducers, which retire themselves once
        every subtree rank's final pass is forwarded; the sentinel
        covers jobs that did not drain and the join puts a bound on
        wedged nodes.
        """
        keys = [key for key in self._live if key[0] == job_id]
        if keys:
            finals = self.engine.job_context(job_id).collector.final_ranks
            for key in keys:
                process = self._live.pop(key)
                self._verdicts.forget(key)
                if key[1] not in finals:
                    process.terminate()
        plan = self._plans.pop(job_id, None)
        self._leaf_parents.pop(job_id, None)
        if plan is None:
            return
        for node in plan.nodes:
            inbox = self._reducer_inboxes.get((job_id, node.node_id))
            if inbox is not None:
                try:
                    inbox.put_nowait(None)  # the reducer stop sentinel
                except (queue_module.Full, ValueError):  # pragma: no cover
                    pass
        for node in plan.nodes:
            process = self._reducers.pop((job_id, node.node_id), None)
            if process is None:
                continue
            process.join(timeout=_REDUCER_JOIN_SECONDS)
            if process.is_alive():
                process.terminate()
        for node in plan.nodes:
            inbox = self._reducer_inboxes.pop((job_id, node.node_id), None)
            if inbox is not None:
                inbox.close()

    def spawn(self, assignments) -> list[dict]:
        extras = []
        for assignment in assignments:
            rank = assignment.rank
            job = assignment.job
            context = self.engine.job_context(job)
            # A recovery rank beyond the planned tree has no parent and
            # reports straight to rank 0.
            parent = self._leaf_parents.get(job, {}).get(rank)
            outbox = (self._reducer_inboxes[(job, parent)]
                      if parent is not None else self._outbox)
            process = self._context.Process(
                target=worker_process,
                args=(context.routine, context.config, rank,
                      assignment.quota, outbox, job, context.deadline),
                daemon=True)
            process.start()
            self._live[(job, rank)] = process
            extras.append({"pid": process.pid})
        return extras

    # -- message path -----------------------------------------------------

    def poll(self, timeout: float
             ) -> MomentMessage | CombinedMessage | None:
        message = self._drained.pop()
        if message is not None:
            return message
        try:
            return self._outbox.get(timeout=timeout)
        except queue_module.Empty:
            return None

    # -- health -----------------------------------------------------------

    def _check_reducers(self, now: float) -> None:
        """Respawn (or fail on) reducer processes that died.

        A reducer is a stateless relay over cumulative snapshots: the
        respawned process reattaches to the same inbox and upstream
        queue, rebuilds its latest-per-rank view from its children's
        next passes, and the subtree continues.  Anything
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

    def reap(self) -> list[WorkerDeath]:
        """Report children that died short of their final message.

        Verdicts are the shared :class:`~repro.runtime.engine
        .ExitVerdicts`: a nonzero exit (or a signal) is dead on sight;
        a *clean* exit whose final message has not arrived gets
        ``config.death_grace`` seconds — its last message may still be
        crossing the queue's feeder thread (or sitting in a dead
        reducer's inbox).

        Before judging anyone, the outbox is drained into the shared
        :class:`~repro.runtime.engine.DrainBuffer`: a slow-but-delivered
        message must reach the collector before its sender can be
        declared dead, and must never burn grace time while it sits in
        the channel.  Dead reducers are respawned (or
        fail the run) here too — before the worker verdicts, so a
        respawned subtree gets to deliver pending finals first.
        """
        if self._drained.drain():
            # Let the engine ingest the buffered messages first; death
            # verdicts resume on the next empty poll.
            return []
        now = self.clock()
        self._check_reducers(now)
        dead: list[WorkerDeath] = []
        for key, process in list(self._live.items()):
            exitcode = process.exitcode
            if exitcode is None:
                continue
            job, rank = key
            context = self.engine.job_context(job)
            verdict = self._verdicts.judge(
                key, final=rank in context.collector.final_ranks,
                crashed=exitcode != 0, now=now,
                grace=context.config.death_grace)
            if verdict is None:
                continue
            del self._live[key]  # finalized and exited, or dead: done
            if verdict:
                dead.append(WorkerDeath(rank, exitcode, job=job))
        return dead

    # -- teardown ---------------------------------------------------------

    def shutdown(self) -> None:
        # Every job that left RUNNING was released by the loop; what is
        # left belongs to jobs an error cut short.
        for job in {key[0] for key in self._live} | set(self._plans):
            self.release_job(job)
        if self._outbox is not None:
            self._outbox.close()


def run_multiprocess(routine: RealizationRoutine, config: RunConfig,
                     use_files: bool = True,
                     start_method: str | None = None) -> RunResult:
    """Run one session with one OS process per simulated processor.

    Args:
        routine: User realization routine; must survive the chosen
            multiprocessing start method ("fork" keeps closures, "spawn"
            requires a picklable module-level routine).
        config: The run configuration; ``config.reduction_fanout``
            selects the exchange topology (estimates are bit-identical
            across fanouts).
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
