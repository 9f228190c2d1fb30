"""Multiprocess backend: real OS processes and asynchronous messaging.

The moral equivalent of the paper's MPI deployment on one machine: every
worker is a process started by the one
:class:`~repro.runtime.host.WorkerHost`, writing each pass's DATA body
into its own pipe for the collector (this process) to read — slower
workers simply deliver fewer realizations by the time any given
averaging happens, exercising the unequal-``l_m`` branch of formula
(5).  ``config.reduction_fanout`` inserts interior **reducer
processes** (:mod:`repro.runtime.reduction`, ``docs/reduction.md``) on
edge pipes without changing a single estimate bit, so rank 0 serves
O(fanout) peers instead of O(M).

Dead children are *reported* to the engine, which applies the run's
:attr:`~repro.runtime.config.RunConfig.on_worker_death` policy — abort
(default) or reassign the undelivered quota to a replacement on a fresh
subsequence.  Dead *reducers* hold nothing that is not cumulative in
their children's next passes, so under ``"reassign"`` they are
respawned in place, on the same edges.
"""

from __future__ import annotations

import multiprocessing

from repro.exceptions import BackendError
from repro.runtime.engine import (
    EngineBackend,
    ExitVerdicts,
    WorkerDeath,
    register_backend,
)
from repro.runtime.host import WorkerHost
from repro.runtime.messages import (
    CombinedMessage,
    MomentMessage,
    combined_from_payload,
    message_from_payload,
)
from repro.runtime.reduction import ReducerNode, plan_reduction, run_reducer
from repro.runtime.worker import worker_process

__all__ = ["MultiprocessBackend"]

#: Respawn budget per reducer node (mirrors the engine's worker budget).
_REDUCER_RESPAWN_FACTOR = 4


@register_backend("multiprocess")
class MultiprocessBackend(EngineBackend):
    """One OS process per worker, one pipe from each to the collector.

    Host keys are ``(job, rank)`` for workers and ``(job, node_id)``
    for reducers; job is None for a single run's anonymous job.

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
        self._host: WorkerHost | None = None
        self._exits: dict[tuple, int] = {}  # awaiting a verdict
        self._verdicts = ExitVerdicts()
        # Per job running a tree: its plan, and one edge pipe per
        # planned child, keyed by worker rank or child node id.
        self._plans: dict = {}
        self._edges: dict = {}
        self._respawn_budget = 0

    # -- job-scoped trees -------------------------------------------------

    def _start_reducer(self, owner, node: ReducerNode) -> int:
        edges = self._edges[owner]
        return self._host.start(
            (owner, node.node_id), run_reducer, node,
            [edges[child][0] for child in node.worker_ranks + node.children],
            outbox=edges[node.node_id][1] if node.parent is not None
            else None)

    def open_job(self, job) -> None:
        """Plan the job's reduction tree: every edge, then every node
        (none when ``reduction_fanout`` keeps the flat exchange)."""
        if self._host is None:
            self._host = WorkerHost(
                multiprocessing.get_context(self._start_method))
        plan = plan_reduction(range(job.config.processors),
                              job.config.reduction_fanout)
        if plan.flat:
            return
        self._plans[job.id] = plan
        self._edges[job.id] = {
            child: self._host.pipe() for node in plan.nodes
            for child in node.worker_ranks + node.children}
        self._respawn_budget += _REDUCER_RESPAWN_FACTOR * len(plan.nodes)
        for node in plan.nodes:
            self._start_reducer(job.id, node)

    def release_job(self, job_id: str | None) -> None:
        """Stop every worker and reducer of the job, reap them, forget it."""
        if self._host is None:
            return
        self._host.stop([key for key in self._host.keys()
                         if key[0] == job_id])
        for key in [key for key in self._exits if key[0] == job_id]:
            del self._exits[key]
            self._verdicts.forget(key)
        self._plans.pop(job_id, None)
        for edge in self._edges.pop(job_id, {}).values():
            self._host.release(*edge)

    def spawn(self, assignments) -> list[dict]:
        extras = []
        for assignment in assignments:
            rank, job = assignment.rank, assignment.job
            context = self.engine.job_context(job)
            # A planned rank writes into its reducer's edge; a recovery
            # rank beyond the plan reports straight to rank 0.
            edge = self._edges.get(job, {}).get(rank)
            pid = self._host.start(
                (job, rank), worker_process, context.routine,
                context.config, rank, assignment.quota,
                outbox=None if edge is None else edge[1], job=job,
                deadline=context.deadline)
            if edge is not None:
                self._host.release(edge[1])  # the worker's alone now
            extras.append({"pid": pid})
        return extras

    # -- message path -----------------------------------------------------

    def poll(self, timeout: float
             ) -> MomentMessage | CombinedMessage | None:
        event = self._host.read(timeout)
        if event is None:
            return None
        key, item = event
        if isinstance(item, int):
            self._exits[key] = item
            return None
        if isinstance(key[1], str):  # a root reducer's forward
            return combined_from_payload(item)
        return message_from_payload(item)

    # -- health -----------------------------------------------------------

    def _respawn_reducer(self, owner, node_id: str, exitcode: int,
                         now: float) -> None:
        """Respawn a dead reducer on the same edges, or fail the run.

        What it absorbed but never forwarded is the worker grace path's
        (an eaten final leads to a quota reassignment)."""
        if exitcode == 0:
            return  # subtree complete; the node retired itself
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
        pid = self._start_reducer(owner, self._plans[owner].node(node_id))
        telemetry = context.telemetry
        if telemetry is not None:
            telemetry.registry.counter("reduction.respawns").inc()
            telemetry.events.append(
                "reducer_respawned", ts=now, node=node_id,
                exitcode=exitcode, pid=pid)
            telemetry.events.flush()

    def reap(self) -> list[WorkerDeath]:
        """Judge the exits the host reported — each after its pipe was
        drained — with the shared :class:`~repro.runtime.engine
        .ExitVerdicts`: a nonzero exit is dead on sight, a clean one
        without its final pass gets ``config.death_grace`` seconds (in a
        tree that pass may still sit in a reducer).  Dead reducers go
        first, so a respawned subtree can deliver pending finals."""
        now = self.clock()
        dead: list[WorkerDeath] = []
        for key in sorted(self._exits, key=lambda k: isinstance(k[1], int)):
            job, who = key
            if isinstance(who, str):  # a reducer's node id
                self._respawn_reducer(job, who, self._exits.pop(key), now)
                continue
            context = self.engine.job_context(job)
            verdict = self._verdicts.judge(
                key, final=who in context.collector.final_ranks,
                crashed=self._exits[key] != 0, now=now,
                grace=context.config.death_grace)
            if verdict is not None:
                exitcode = self._exits.pop(key)
                if verdict:
                    dead.append(WorkerDeath(who, exitcode, job=job))
        return dead

    def shutdown(self) -> None:
        # Every job that left RUNNING was released by the loop; the host
        # stops what belongs to jobs an error cut short.
        if self._host is not None:
            self._host.close()
