"""Sequential backend: M logical processors multiplexed on one thread.

The reference backend — bit-for-bit deterministic, no IPC, useful for
tests and for single-machine production runs.  Workers run one after
another; because every worker draws from its own RNG subsequence, the
merged estimate is *identical* to what the parallel backends produce for
the same configuration.
"""

from __future__ import annotations

import time
from collections import deque

from repro.obs.telemetry import WorkerTelemetry
from repro.runtime.config import RunConfig
from repro.runtime.engine import (
    Engine,
    EngineBackend,
    WorkerAssignment,
    register_backend,
)
from repro.runtime.messages import MomentMessage
from repro.runtime.result import RunResult
from repro.runtime.worker import RealizationRoutine, run_worker

__all__ = ["SequentialBackend", "run_sequential"]


@register_backend("sequential")
class SequentialBackend(EngineBackend):
    """Run every worker inline, one after another, on this thread.

    Messages bypass :meth:`poll` entirely: the worker's ``send`` feeds
    the scheduler's ``ingest`` directly, so the collector sees each
    data pass the instant it is shipped and the hot loop pays no
    queueing.
    """

    name = "sequential"
    supports_shared_jobs = True

    def __init__(self) -> None:
        super().__init__()
        self._pending: deque[WorkerAssignment] = deque()

    def spawn(self, assignments) -> None:
        self._pending.extend(assignments)
        return None

    def release_job(self, job_id: str | None) -> None:
        """Drop the job's not-yet-run assignments."""
        self._pending = deque(assignment for assignment in self._pending
                              if assignment.job != job_id)

    def poll(self, timeout: float) -> MomentMessage | None:
        """Run the next queued worker to completion; always returns None."""
        if not self._pending:
            return None
        assignment = self._pending.popleft()
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


def run_sequential(routine: RealizationRoutine, config: RunConfig,
                   use_files: bool = True) -> RunResult:
    """Run one session on the sequential backend.

    Args:
        routine: User realization routine (``fn(rng)`` or ``fn()``).
        config: The run configuration.
        use_files: Write ``parmonc_data`` result files and save-points;
            disable for throwaway in-memory estimation.

    Returns:
        The session's :class:`~repro.runtime.result.RunResult`.
    """
    return Engine(SequentialBackend(), config, use_files=use_files) \
        .run(routine)
