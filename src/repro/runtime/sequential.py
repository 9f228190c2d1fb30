"""Sequential backend: M logical processors multiplexed on one thread.

The reference backend — bit-for-bit deterministic, no IPC, useful for
tests and for single-machine production runs: a single run is
``Engine(SequentialBackend(), config).run(routine)``.  Workers run one
after another; because every worker draws from its own RNG
subsequence, the merged estimate is *identical* to what the parallel
backends produce for the same configuration.
"""

from __future__ import annotations

import time
from collections import Counter, deque

from repro.obs.telemetry import WorkerTelemetry
from repro.runtime.engine import (
    EngineBackend,
    WorkerAssignment,
    register_backend,
)
from repro.runtime.messages import MomentMessage
from repro.runtime.worker import run_worker

__all__ = ["SequentialBackend"]


@register_backend("sequential")
class SequentialBackend(EngineBackend):
    """Run every worker inline, one after another, on this thread.

    Messages bypass :meth:`poll` entirely: the worker's ``send`` feeds
    the scheduler's ``ingest`` directly, so the collector sees each
    data pass the instant it is shipped and the hot loop pays no
    queueing.  The one backend with a queue: its spawn is a rank's
    start, and :meth:`poll` runs the queued ranks in turn.
    """

    name = "sequential"

    def __init__(self) -> None:
        super().__init__()
        self._pending: deque[WorkerAssignment] = deque()
        self._queued: Counter = Counter()  # per job, its share of _pending

    def spawn(self, assignments) -> None:
        self._pending.extend(assignments)
        self._queued.update(assignment.job for assignment in assignments)
        return None

    def release_job(self, job_id: str | None) -> None:
        """Drop the job's not-yet-run assignments, if it has any."""
        if self._queued.pop(job_id, 0):
            self._pending = deque(assignment for assignment in self._pending
                                  if assignment.job != job_id)

    def poll(self, timeout: float) -> MomentMessage | None:
        """Run the next queued worker to completion; always returns None."""
        if not self._pending:
            return None
        assignment = self._pending.popleft()
        self._queued[assignment.job] -= 1
        engine = self.engine
        context = engine.job_context(assignment.job)
        telemetry = context.telemetry
        # A worker whose turn comes after its job's time limit honours
        # the limit like any dispatched worker does: it simulates
        # nothing and ships its final pass, which releases its slot.
        expired = (context.deadline is not None
                   and time.monotonic() >= context.deadline)

        def send(message: MomentMessage) -> None:
            engine.ingest(message, time.monotonic())

        worker_telemetry = (WorkerTelemetry(assignment.rank)
                            if telemetry is not None else None)
        worker_started = time.monotonic()
        accumulator = run_worker(
            context.routine, context.config, assignment.rank,
            0 if expired else assignment.quota, send=send,
            deadline=context.deadline, telemetry=worker_telemetry,
            job=assignment.job)
        if telemetry is not None:
            telemetry.tracer.record("worker.run", worker_started,
                                    time.monotonic(), rank=assignment.rank,
                                    volume=accumulator.volume)
        return None

