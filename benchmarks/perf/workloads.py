"""The four benchmark workloads.

Each workload is a closed loop of fixed-work *units*; ``run.py`` times
the units, this module only knows how to set a workload up, run one
unit, run one first-estimate probe and check results against the
sequential reference.  ``--seed`` picks the ``seqnum`` (which RNG
substreams are drawn) and, for the job mix, where the 6:2 pattern
starts; the amount of work is the same for every seed.

Why these four (the full argument is in README.md):

* ``fig2_seq_scalar`` — the paper's Fig. 2 condition on the scalar
  path; only placement, draws, fold, worker loop and collector work.
* ``exchange_mp1_queue`` — the default cross-process exchange; pickle,
  pipe hop and collector dominate.
* ``exchange_tcp_pool`` — the same messages through JSON frames and
  asyncio sockets; the workload a queue-side gain must *not* move.
* ``sched_stream_mix`` — the live scheduler service with durable
  files; the only workload where storage and scheduling cost show.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import parmonc
from repro.runtime.config import RunConfig
from repro.runtime.distributed import DistributedBackend
from repro.runtime.job import JobSpec, JobStatus
from repro.runtime.multiprocess import MultiprocessBackend
from repro.runtime.pool import PoolServer
from repro.runtime.scheduler import Scheduler
from repro.runtime.storage import durable_writes

from fig2_routine import NCOL, NROW, overhead

#: ``nproc`` is 2 on the reference machine: never more worker processes.
WORKERS = 2

#: Seconds a single job may take before the unit counts it as missing.
JOB_TIMEOUT_S = 60.0


def estimate_bytes(result) -> bytes:
    """Everything a user reads off a result, as comparable bytes."""
    estimates = result.estimates
    return b"".join((
        int(result.total_volume).to_bytes(8, "little"),
        estimates.mean.tobytes(), estimates.variance.tobytes(),
        estimates.abs_error.tobytes(), estimates.rel_error.tobytes()))


def sequential_reference(seqnum: int, processors: int, maxsv: int) -> bytes:
    """Estimates of the sequential backend for the same experiment."""
    return estimate_bytes(parmonc(
        overhead, nrow=NROW, ncol=NCOL, maxsv=maxsv, seqnum=seqnum,
        processors=processors, backend="sequential", perpass=0.0,
        peraver=0.0, use_files=False))


@dataclass
class UnitOutcome:
    """What one unit (or probe) did, for the harness to account."""

    realizations: int = 0
    attempted: int = 0
    failed: int = 0
    messages: int = 0
    saves: int = 0
    #: Submit -> DONE seconds per job (scheduler-driven workloads).
    latencies: list = field(default_factory=list)
    #: Per job ``{state: monotonic stamp}`` (scheduler-driven workloads).
    state_times: list = field(default_factory=list)
    #: Submit/call -> first ``RunResult.history`` entry, probes only.
    first_estimate_s: float | None = None
    errors: list = field(default_factory=list)

    def merge(self, other: "UnitOutcome") -> None:
        """Fold another outcome's counts and samples into this one."""
        for key in ("realizations", "attempted", "failed", "messages",
                    "saves"):
            setattr(self, key, getattr(self, key) + getattr(other, key))
        self.latencies += other.latencies
        self.state_times += other.state_times
        self.errors += other.errors


class Workload:
    """Base: one ``parmonc()`` call per unit (sequential, multiprocess)."""

    name = ""
    backend = ""
    processors = 1
    unit_realizations = 0
    #: Whether timed units write result files (with fsync).
    durable = False
    #: How a worker's message reaches the collector, and on how many
    #: processes the worker-side layers run at once (layer budget).
    transport = "none"
    parallel_workers = 1

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        self.seqnum = seed % 512
        self.workdir = workdir
        self.tracer = tracer
        self._reference: bytes | None = None
        self._probe_reference: bytes | None = None

    @property
    def probe_realizations(self) -> int:
        return 4 * self.processors

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Bring up long-lived resources (none for one-call workloads)."""

    def stop(self) -> None:
        """Release what :meth:`start` brought up."""

    def prepare_references(self) -> None:
        """Compute the sequential references once, in set-up."""
        self._reference = sequential_reference(
            self.seqnum, self.processors, self.unit_realizations)
        self._probe_reference = sequential_reference(
            self.seqnum, self.processors, self.probe_realizations)

    # -- units -----------------------------------------------------------

    def _call(self, maxsv: int, **files) -> object:
        with self.tracer.span("core.parmonc", maxsv=maxsv):
            return parmonc(overhead, nrow=NROW, ncol=NCOL, maxsv=maxsv,
                           seqnum=self.seqnum, processors=self.processors,
                           backend=self.backend, perpass=0.0, peraver=0.0,
                           **files)

    def run_unit(self, index: int) -> UnitOutcome:
        outcome = UnitOutcome(attempted=1)
        try:
            result = self._call(self.unit_realizations, use_files=False)
        except Exception as error:  # a failed unit is a counted failure
            outcome.failed = 1
            outcome.errors.append(repr(error))
            return outcome
        self._account(outcome, result, self._reference)
        return outcome

    def probe(self, index: int) -> UnitOutcome:
        """Time from the call to the first saved estimate.

        ``RunResult.history`` is only kept for runs that write result
        files, so the probe writes them — without fsync, to keep disk
        latency out of the three ``use_files=False`` workloads.
        """
        outcome = UnitOutcome(attempted=1)
        target = self.workdir / f"probe{index}"
        try:
            with durable_writes(self.durable):
                called = time.monotonic()
                result = self._call(self.probe_realizations,
                                    use_files=True, workdir=target)
        except Exception as error:
            outcome.failed = 1
            outcome.errors.append(repr(error))
            return outcome
        finally:
            shutil.rmtree(target, ignore_errors=True)
        self._account(outcome, result, self._probe_reference)
        self._first_estimate(outcome, result, called)
        return outcome

    def cleanup_unit(self, index: int) -> None:
        """Untimed housekeeping after a unit (nothing by default)."""

    # -- accounting ------------------------------------------------------

    @staticmethod
    def _account(outcome: UnitOutcome, result, reference: bytes) -> None:
        outcome.realizations += result.total_volume
        outcome.messages += result.messages_received
        outcome.saves += result.saves_performed
        if estimate_bytes(result) != reference:
            outcome.failed += 1
            outcome.errors.append(
                "estimates differ from the sequential reference")

    @staticmethod
    def _first_estimate(outcome: UnitOutcome, result, called: float) -> None:
        if result.history:
            outcome.first_estimate_s = result.history[0][0] - called
        else:
            outcome.failed += 1
            outcome.errors.append("probe produced no history entry")


class Fig2SeqScalar(Workload):
    name = "fig2_seq_scalar"
    backend = "sequential"
    processors = 1
    unit_realizations = 32_768


class ExchangeMp1Queue(Workload):
    """One worker process feeding the collector through the queue.

    One worker, not two: with M=2 there are three busy processes
    (two workers and the collector) on two vCPUs, and which of them
    the OS starves drifts over tens of seconds (17% unit IQR, 0.4
    lag-1 autocorrelation, against 9% and none with M=1).
    """

    name = "exchange_mp1_queue"
    backend = "multiprocess"
    processors = 1
    transport = "queue"
    unit_realizations = 8_192


class _ServiceWorkload(Workload):
    """Units are jobs submitted to one live :class:`Scheduler`."""

    parallel_workers = WORKERS

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        super().__init__(seed, workdir, tracer)
        self.scheduler: Scheduler | None = None
        self._serial = 0

    def _make_backend(self):
        raise NotImplementedError

    def start(self) -> None:
        self.scheduler = Scheduler(self._make_backend(), workers=WORKERS)
        self.scheduler.start()

    def stop(self) -> None:
        if self.scheduler is not None:
            self.scheduler.shutdown(timeout=JOB_TIMEOUT_S)
            self.scheduler = None

    def _spec(self, maxsv: int, processors: int, seqnum: int, *,
              perpass: float, peraver: float,
              workdir: Path | None) -> JobSpec:
        self._serial += 1
        config = RunConfig(
            nrow=NROW, ncol=NCOL, maxsv=maxsv, seqnum=seqnum,
            processors=processors, perpass=perpass, peraver=peraver,
            workdir=workdir if workdir is not None else self.workdir)
        return JobSpec(routine=overhead, config=config,
                       name=f"{self.name}-{self._serial}",
                       use_files=workdir is not None)

    def _run_job(self, spec: JobSpec, outcome: UnitOutcome,
                 reference: bytes):
        """Submit one job, wait for it, account for it; returns the job."""
        outcome.attempted += 1
        submitted = time.monotonic()
        with self.tracer.span("runtime.scheduler.submit", job=spec.name):
            job = self.scheduler.submit(spec)
        with self.tracer.span("runtime.scheduler.wait", job=spec.name):
            finished = self.scheduler.wait(job, JOB_TIMEOUT_S)
        latency = time.monotonic() - submitted
        if not finished or job.status != JobStatus.DONE:
            outcome.failed += 1
            outcome.errors.append(
                f"{spec.name}: {job.status} {job.error!r}")
            return job
        outcome.latencies.append(latency)
        outcome.state_times.append(dict(job.state_times))
        self._account(outcome, job.result, reference)
        return job

    def probe(self, index: int) -> UnitOutcome:
        outcome = UnitOutcome()
        target = self.workdir / f"probe{index}"
        spec = self._spec(self.probe_realizations, self.processors,
                          self.seqnum, perpass=0.0, peraver=0.0,
                          workdir=target)
        try:
            with durable_writes(self.durable):
                called = time.monotonic()
                job = self._run_job(spec, outcome, self._probe_reference)
        finally:
            shutil.rmtree(target, ignore_errors=True)
        if job.result is not None:
            self._first_estimate(outcome, job.result, called)
        return outcome


class ExchangeTcpPool(_ServiceWorkload):
    """One job per unit over a loopback ``parmonc-pool`` daemon.

    The session stays open for the whole run, and finished jobs are
    never pruned: the pool's EXIT frames arrive after a job is DONE and
    the backend looks the job up again when it reaps them.  A sealed
    ``parmonc(backend="distributed")`` call per unit would mostly
    measure ``DistributedBackend.shutdown``: at the parent commit it
    waits out a 10 s thread-join timeout on most runs of 32 or more
    realizations (README, "Findings"), which the traced run records
    separately as ``runtime.distributed.sealed_run_s``.
    """

    name = "exchange_tcp_pool"
    backend = "distributed"
    processors = 2
    unit_realizations = 128
    transport = "tcp"

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        super().__init__(seed, workdir, tracer)
        self.pool: PoolServer | None = None
        self.address = ""

    def _make_backend(self):
        return DistributedBackend(connect=self.address)

    def start(self) -> None:
        self.pool = PoolServer(port=0, workers=WORKERS)
        host, port = self.pool.start()
        self.address = f"{host}:{port}"
        super().start()

    def stop(self) -> None:
        super().stop()
        if self.pool is not None:
            self.pool.stop()
            self.pool = None

    def run_unit(self, index: int) -> UnitOutcome:
        outcome = UnitOutcome()
        spec = self._spec(self.unit_realizations, self.processors,
                          self.seqnum, perpass=0.0, peraver=0.0,
                          workdir=None)
        self._run_job(spec, outcome, self._reference)
        return outcome

    def sealed_run_seconds(self) -> float:
        """One classic ``parmonc()`` call against the same pool."""
        began = time.perf_counter()
        self._call(self.unit_realizations, use_files=False,
                   connect=self.address)
        return time.perf_counter() - began


class SchedStreamMix(_ServiceWorkload):
    """40 jobs per unit (6 small : 2 large) from 4 closed-loop clients.

    Shorter units do not repeat better: with 16 jobs a run holds 18
    units instead of 8, but the unit-to-unit IQR stays at 10% (the
    noise is drift, not sampling) and the ramp-up and drain of the four
    clients become 12% of the unit.
    """

    name = "sched_stream_mix"
    backend = "multiprocess"
    processors = 2
    durable = True
    jobs_per_unit = 40
    clients = 4
    small = (64, 1)     # (maxsv, processors)
    large = (512, 2)
    #: The library's defaults: each worker ships only its final pass.
    perpass, peraver = 1.0, 5.0
    transport = "queue"

    def __init__(self, seed: int, workdir: Path, tracer) -> None:
        super().__init__(seed, workdir, tracer)
        # The 6:2 pattern repeats through the batch; the seed only
        # rotates it, because a shuffled order changes the makespan.
        shapes = [self.large if (slot + seed) % 8 >= 6 else self.small
                  for slot in range(self.jobs_per_unit)]
        #: The unit's fixed, seed-ordered batch: (maxsv, M, seqnum).
        self.batch = [(maxsv, processors, self.seqnum + slot)
                      for slot, (maxsv, processors) in enumerate(shapes)]
        self.unit_realizations = sum(maxsv for maxsv, _, _ in self.batch)
        self._references: list[bytes] = []

    def _make_backend(self):
        return MultiprocessBackend()

    def prepare_references(self) -> None:
        self._references = [
            sequential_reference(seqnum, processors, maxsv)
            for maxsv, processors, seqnum in self.batch]
        self._probe_reference = sequential_reference(
            self.seqnum, self.processors, self.probe_realizations)

    def run_unit(self, index: int) -> UnitOutcome:
        root = self.workdir / f"unit{index}"
        slots = iter(range(self.jobs_per_unit))
        lock = threading.Lock()
        parts = [UnitOutcome() for _ in range(self.clients)]

        def client(part: UnitOutcome) -> None:
            while True:
                with lock:
                    slot = next(slots, None)
                    if slot is None:
                        return
                    maxsv, processors, seqnum = self.batch[slot]
                    spec = self._spec(maxsv, processors, seqnum,
                                      perpass=self.perpass,
                                      peraver=self.peraver,
                                      workdir=root / f"job{slot}")
                self._run_job(spec, part, self._references[slot])

        outcome = UnitOutcome()
        with durable_writes(self.durable):
            threads = [threading.Thread(target=client, args=(part,))
                       for part in parts]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if not self.scheduler.drain(JOB_TIMEOUT_S):
                outcome.failed += 1
                outcome.errors.append("drain timed out")
        for part in parts:
            outcome.merge(part)
        return outcome

    def cleanup_unit(self, index: int) -> None:
        """Untimed: free the unit's disk space and the job tables."""
        shutil.rmtree(self.workdir / f"unit{index}", ignore_errors=True)
        self.scheduler.prune()


WORKLOADS = {cls.name: cls for cls in (
    Fig2SeqScalar, ExchangeMp1Queue, ExchangeTcpPool, SchedStreamMix)}
