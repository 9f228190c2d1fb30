"""Multiprocess backend: real OS processes and asynchronous messaging.

The moral equivalent of the paper's MPI deployment on one machine:
every rank runs on a slot of the :class:`~repro.runtime.host.WorkerHost`
and writes each pass's DATA body into its own pipe for the collector
(this process) to read — slower workers simply deliver fewer
realizations by the time any given averaging happens, exercising the
unequal-``l_m`` branch of formula (5).  A job reaches the slots as the
SUBMIT body the distributed backend sends, built once per job; a
closure runs on pinned slots.  ``config.reduction_fanout`` inserts
**reducer processes** (:mod:`repro.runtime.reduction`) on edge pipes
without changing a single estimate bit, so rank 0 serves O(fanout)
peers instead of O(M).

Exited children are *reported* to their job, which judges whether the
exit was a death and applies the run's
:attr:`~repro.runtime.config.RunConfig.on_worker_death` policy — abort
(default) or rerun the dead rank, whole quota, on its own subsequence.
A worker's exit is reported once everything it wrote is in: its slot's
pipe drained, or — for a clean exit in a tree — the root reducer above
it exited.  Crashed *reducers* hold nothing that is not
cumulative in their children's next passes, so under ``"reassign"``
they are respawned in place, on the same edges, within their job's
budget; otherwise the death is reported with the error that fails
that job alone.  One that exited 0 has retired, and the backend lets
go of its upstream edge.
"""

from __future__ import annotations

import multiprocessing

from repro.exceptions import BackendError, ConfigurationError
from repro.runtime.engine import (
    EngineBackend,
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
from repro.runtime.wire import config_to_payload, routine_to_payload

__all__ = ["MultiprocessBackend"]

#: Respawn budget per reducer node (mirrors the engine's worker budget).
_REDUCER_RESPAWN_FACTOR = 4


@register_backend("multiprocess")
class MultiprocessBackend(EngineBackend):
    """Every rank on a slot of one worker host, read through its pipe.

    Host events are keyed ``(job, rank)`` or ``(job, node_id)`` (a
    reducer's); job is None for a single run's anonymous job.

    Args:
        start_method: Optional multiprocessing start method override
            ("fork" keeps closures, "spawn" requires a picklable
            module-level routine).
    """

    name = "multiprocess"
    monitors_staleness = True
    #: Jobs may carry their own ``reduction_fanout``: a private k-ary
    #: tree per job, planned at ``open_job``, torn down at release.
    supports_job_reduction = True

    def __init__(self, start_method: str | None = None) -> None:
        super().__init__()
        self._host = WorkerHost(multiprocessing.get_context(start_method))
        self._exits: dict[tuple, int] = {}  # awaiting a verdict
        # Per job: its SUBMIT body, or the pair pinned slots inherit.
        self._contexts: dict = {}
        # Per tree job: its plan, an edge pipe per planned child (by
        # rank or node id), what is left of its reducers' respawns.
        self._plans: dict = {}
        self._edges: dict = {}
        self._respawn_budget: dict = {}

    @property
    def slots_started(self) -> int:
        """Slot processes forked so far."""
        return self._host.slots_started

    @property
    def assignments_served(self) -> int:
        """Ranks handed to slots so far."""
        return self._host.assignments_served

    # -- job-scoped trees -------------------------------------------------

    def _start_reducer(self, owner, node: ReducerNode) -> int:
        edges = self._edges[owner]
        return self._host.start(
            (owner, node.node_id), run_reducer, node,
            [edges[child][0] for child in node.worker_ranks + node.children],
            outbox=edges[node.node_id][1] if node.parent is not None
            else None)

    def open_job(self, job) -> None:
        """Encode the job for its slots, once; plan its reduction tree:
        every edge, then every node (none when ``reduction_fanout``
        keeps the flat exchange)."""
        try:
            self._contexts[job.id] = {
                "config": config_to_payload(job.config),
                "routine": routine_to_payload(job.routine)}
        except ConfigurationError:  # a closure: pinned slots inherit it
            self._contexts[job.id] = (job.routine, job.config)
        plan = plan_reduction(range(job.config.processors),
                              job.config.reduction_fanout)
        if plan.flat:
            return
        self._plans[job.id] = plan
        self._edges[job.id] = {
            child: self._host.pipe() for node in plan.nodes
            for child in node.worker_ranks + node.children}
        self._respawn_budget[job.id] = \
            _REDUCER_RESPAWN_FACTOR * len(plan.nodes)
        for node in plan.nodes:
            self._start_reducer(job.id, node)

    def release_job(self, job_id: str | None) -> None:
        """Stop the job's busy and pinned slots and its reducers, reap
        them, forget the job; its idle slots serve the next one."""
        self._host.stop(self._host.cancel(job_id) + [
            key for key in self._host.keys()
            if key[0] == job_id and isinstance(key[1], str)])
        for key in [key for key in self._exits if key[0] == job_id]:
            del self._exits[key]
        for books in (self._contexts, self._plans, self._respawn_budget):
            books.pop(job_id, None)
        for edge in self._edges.pop(job_id, {}).values():
            self._host.release(*edge)

    def spawn(self, assignments) -> list[dict]:
        extras = []
        for assignment in assignments:
            rank, job = assignment.rank, assignment.job
            context = self.engine.job_context(job)
            # A planned rank writes into its reducer's edge; a rerun
            # reports straight to rank 0 (the dead worker's edge has no
            # write end left).
            edge = (None if assignment.recovery
                    else self._edges.get(job, {}).get(rank))
            pid = self._host.assign(
                job, rank, assignment.quota,
                self._contexts[job] if edge is None
                else (context.routine, context.config),
                outbox=None if edge is None else edge[1],
                deadline=context.deadline)
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

    def _reducer_exited(self, owner, node_id: str, exitcode: int) -> None:
        """Retire a reducer that exited 0 — closing a non-root's upstream
        edge, so its parent can retire in turn — respawn a crashed one
        on the same edges, or raise why its job fails.  What a crashed
        one absorbed but never forwarded is judged with the workers it
        came from, once the root above them exited."""
        node = self._plans[owner].node(node_id)
        if exitcode == 0:
            if node.parent is not None:
                self._host.release(self._edges[owner][node_id][1])
            return
        context = self.engine.job_context(owner)
        if context.config.on_worker_death != "reassign":
            raise BackendError(
                f"reducer {node_id} died (exitcode {exitcode}) "
                f"before its subtree finished")
        if self._respawn_budget[owner] <= 0:
            raise BackendError(
                f"reducer {node_id} died but the respawn budget is "
                f"exhausted")
        self._respawn_budget[owner] -= 1
        pid = self._start_reducer(owner, node)
        telemetry = context.telemetry
        if telemetry is not None:
            telemetry.registry.counter("reduction.respawns").inc()
            telemetry.events.append(
                "reducer_respawned", ts=self.clock(), node=node_id,
                exitcode=exitcode, pid=pid)
            telemetry.events.flush()

    def _root_runs_above(self, job, rank: int) -> bool:
        """Whether a root reducer whose subtree holds ``rank`` still
        runs (its last passes may still be in the tree)."""
        plan = self._plans.get(job)
        running = self._host.keys()
        return plan is not None and any(
            rank in root.subtree_ranks and (job, root.node_id) in running
            for root in plan.roots)

    def reap(self) -> list[WorkerDeath]:
        """Report the exits the host reported, each after its pipe was
        drained.  Reducers go first, so a respawned one is running again
        before the workers below it are looked at; one that cannot be
        is reported as a death carrying its job's error.  A worker's clean
        exit in a tree waits for the root reducer above it; its job then
        judges it."""
        reported: list[WorkerDeath] = []
        for key in sorted(self._exits, key=lambda k: isinstance(k[1], int)):
            job, who = key
            if isinstance(who, str):  # a reducer's node id
                exitcode = self._exits.pop(key)
                try:
                    self._reducer_exited(job, who, exitcode)
                except BackendError as error:  # fails its job alone
                    ranks = self._plans[job].node(who).subtree_ranks
                    reported.append(WorkerDeath(min(ranks), exitcode, job=job,
                                            error=error))
                continue
            if self._exits[key] == 0 and self._root_runs_above(job, who):
                continue
            reported.append(WorkerDeath(who, self._exits.pop(key), job=job))
        return reported

    def shutdown(self) -> None:
        # Every job that left RUNNING was released by the loop; the host
        # stops the idle slots and what jobs an error cut short left.
        self._host.close()
