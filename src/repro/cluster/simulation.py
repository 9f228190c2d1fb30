"""The PARMONC protocol on a simulated cluster.

Reproduces the paper's deployment mechanics in virtual time: ``M``
processors simulate realizations asynchronously; each completed
realization may trigger a cumulative moment pass to the 0-th processor
(``perpass = 0`` sends after *every* realization, the strictest Fig. 2
condition); messages cross a modelled network and queue FIFO at the
collector.  ``T_comp`` — the figure's y-axis — is the virtual time at
which the collector has received, averaged and saved the complete
sample.

Every simulated processor *is* the real worker
(:class:`~repro.runtime.worker.WorkerBody`, the object
:func:`~repro.runtime.worker.run_worker` drives on the real clock),
stepped from the event queue; what is modelled here is everything
around it — durations, the network, the collector's service, failures,
scheduling and accelerators.  Realizations can be *executed* (the user
routine actually runs, with its RNG substream, so the run produces
genuine estimates) or merely *accounted* (zero-matrix placeholders;
only timing matters, which is how the 512-processor sweeps stay cheap).

Any number of jobs can share one simulated cluster: one event queue —
the virtual clock — one modelled collector server and one duration
sampler.  A job's workers start when they are dispatched; its time
limit, injected failures and ``T_comp`` count from the job's own start.
This module holds the model only: the ``simcluster`` backend
(:mod:`repro.runtime.simcluster`) steps the event queue under the real
scheduler's loop, for one job alone as for many, and a job's
:class:`ClusterResult` reaches its ``RunResult.cluster``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.cluster.events import EventQueue
from repro.cluster.machine import Accelerator, DurationModel, Processor
from repro.cluster.network import CollectorService, NetworkModel
from repro.obs.telemetry import RunTelemetry, WorkerTelemetry
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.messages import (
    _HEADER_BYTES,
    CombinedMessage,
    MomentMessage,
)
from repro.runtime.reduction import Coalescer, ReducerNode, plan_reduction
from repro.runtime.worker import RealizationRoutine, WorkerBody

__all__ = ["ClusterSpec", "ClusterResult", "proportional_quotas"]


def proportional_quotas(total: int, weights: list[float] | tuple[float, ...]
                        ) -> list[int]:
    """Deal ``total`` realizations proportionally to throughput weights.

    The largest-remainder method: exact total, deviations of at most one
    realization per rank.  This is what a dynamic self-scheduling
    PARMONC deployment converges to on a heterogeneous or hybrid
    cluster, expressed as static quotas for the simulator.
    """
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    if not weights or any(w <= 0 for w in weights):
        raise ConfigurationError(
            "weights must be non-empty and strictly positive")
    scale = total / float(sum(weights))
    shares = [w * scale for w in weights]
    quotas = [int(share) for share in shares]
    remainders = sorted(range(len(weights)),
                        key=lambda i: shares[i] - quotas[i], reverse=True)
    for i in remainders[:total - sum(quotas)]:
        quotas[i] += 1
    return quotas


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware model of the simulated cluster.

    Attributes:
        duration_model: Per-realization compute-time sampler (the
            paper's ``tau ~ 7.7 s``).
        network: Transfer cost model for worker-to-collector messages.
        collector_service_time: Seconds the 0-th processor spends
            ingesting one message.
        reducer_service_time: Seconds an interior reducer node spends
            ingesting one child message when the run configures a
            reduction tree (``config.reduction_fanout``); None charges
            the collector's service time.  Reducers coalesce: each one
            forwards a single combined message upstream per busy
            period, so under load the collector serves O(fanout)
            streams of combined messages instead of O(M) worker
            passes — the topology this model exists to study at 10^5
            simulated workers.
        speed_factors: Optional per-rank relative speeds (heterogeneous
            cluster); length must equal the run's processor count.
        accelerators: Optional per-rank batch accelerators (§5's GPU /
            hybrid clusters); None entries are plain CPU nodes.  Length
            must equal the run's processor count when given.
        message_bytes: Wire size per pass; None derives it from the
            matrix shape via :func:`repro.runtime.messages.message_bytes`
            (the paper's 1000 x 2 problem gives ~125 KB).
        failures: Optional fault injection — ``{rank: fail_time}``,
            applied to every job: the node running its rank ``rank``
            fails ``fail_time`` seconds after the job starts.  A failed
            node stops silently: no further computation, passes or
            final message.  Work it completed after its last data pass
            is lost; everything already passed survives at the
            collector (the §2.2 motivation for periodic passes).  A
            rank rerun after its failure (``"reassign"``) runs on a
            fresh unit-speed node that does not fail.
        seed: Seed of the simulator's own duration sampler — *not* part
            of the Monte Carlo sample.
    """

    duration_model: DurationModel = field(default_factory=DurationModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    collector_service_time: float = 200e-6
    reducer_service_time: float | None = None
    speed_factors: tuple[float, ...] | None = None
    accelerators: tuple[Accelerator | None, ...] | None = None
    message_bytes: int | None = None
    failures: dict[int, float] | None = None
    seed: int = 2011

    def processors_for(self, count: int) -> list[Processor]:
        """Instantiate ``count`` processors with speeds and accelerators."""
        if self.speed_factors is not None \
                and len(self.speed_factors) != count:
            raise ConfigurationError(
                f"speed_factors has {len(self.speed_factors)} entries "
                f"for {count} processors")
        if self.accelerators is not None \
                and len(self.accelerators) != count:
            raise ConfigurationError(
                f"accelerators has {len(self.accelerators)} entries "
                f"for {count} processors")
        processors = []
        for rank in range(count):
            factor = (self.speed_factors[rank]
                      if self.speed_factors is not None else 1.0)
            accelerator = (self.accelerators[rank]
                           if self.accelerators is not None else None)
            processors.append(Processor(rank, factor, accelerator))
        return processors


@dataclass(frozen=True)
class ClusterResult:
    """Timing and accounting of one simulated job.

    Times count from the job's start (0 for a job alone on its cluster).

    Attributes:
        t_comp: Virtual seconds until the collector finished receiving,
            averaging and saving the full sample (Fig. 2's ``T_comp``).
        total_volume: Realizations delivered in this session.
        per_rank_volumes: Final volume per rank (of its rerun, for a
            rank rerun after its node failed).
        messages_sent: Worker data passes (including finals).
        collector_utilization: Busy fraction of the collector server
            over ``[0, t_comp]``.
        mean_queue_delay: Mean seconds a message waited before service.
        compute_span: Virtual time the last worker finished computing
            (``t_comp`` minus trailing exchange overhead).
        failed_ranks: Nodes that died mid-run (fault injection).
        lost_realizations: Realizations a failed node computed but never
            delivered to the collector.
        collector_served: Messages the 0-th processor's server actually
            ingested — equals ``messages_sent`` on the flat exchange,
            and the (much smaller) combined-message count under a
            reduction tree.
        combined_messages: Reducer forwards delivered to the collector
            (0 on the flat exchange).

    The collector server is the cluster's, so when jobs share a cluster
    ``collector_utilization`` and ``collector_served`` count all of them.
    """

    t_comp: float
    total_volume: int
    per_rank_volumes: dict[int, int]
    messages_sent: int
    collector_utilization: float
    mean_queue_delay: float
    compute_span: float
    failed_ranks: tuple[int, ...] = ()
    lost_realizations: int = 0
    collector_served: int = 0
    combined_messages: int = 0


class _Cluster:
    """What every job on one simulated cluster shares.

    The event queue (the virtual clock), the 0-th processor's collector
    server, the duration sampler, and ``outbox``: every pass and reducer
    forward the collector server has finished, in that order, for the
    driver of the queue to hand on.
    """

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.events = EventQueue()
        self.service = CollectorService(spec.collector_service_time)
        self.durations = np.random.default_rng(spec.seed)
        self.outbox: deque[MomentMessage | CombinedMessage] = deque()


class _ReducerStation:
    """One interior reducer node of the simulated reduction tree.

    A FIFO single-server (like the collector's model) around the same
    :class:`~repro.runtime.reduction.Coalescer` the real reducer
    process runs: child passes are absorbed as they are admitted, and
    one combined message is flushed upstream whenever the server goes
    idle — the coalescing that keeps upstream load bounded: under
    saturation a busy period absorbs many child passes and emits a
    single forward.
    """

    def __init__(self, simulation: "_SimulatedJob", node: ReducerNode,
                 service_time: float) -> None:
        self._simulation = simulation
        self.node = node
        self.service = CollectorService(service_time)
        self._coalescer = Coalescer(node)

    def admit(self, item: MomentMessage | CombinedMessage,
              arrival: float) -> None:
        """Queue one child message; schedules the flush at completion."""
        completion = self.service.admit(arrival)
        self._coalescer.admit(item)
        self._simulation._events.schedule(completion, self.flush)

    def flush(self, now: float) -> None:
        """Forward the pending batch if the server just went idle.

        While more child messages are in service the flush defers to
        their completion events — that is the coalescing window.
        """
        if self.service.busy_until > now + 1e-15:
            return
        combined = self._coalescer.take(now)
        if combined is not None:
            self._simulation._forward(self.node, combined, now)


class _SimulatedJob:
    """One job's workers on a :class:`_Cluster`, stamping ``job`` on
    every pass; ``routine``, ``quotas`` and ``scheduling`` are
    :class:`~repro.runtime.simcluster.SimclusterBackend`'s (a None
    routine only accounts), and ``telemetry`` is stamped in virtual time.

    The job starts when it is built: its time limit, injected failures
    and ``T_comp`` count from there.  Its passes land on the cluster's
    ``outbox``; its collector is only read, for the failure accounting.
    """

    def __init__(self, cluster: _Cluster, config: RunConfig,
                 collector: Collector,
                 routine: RealizationRoutine | None = None,
                 quotas: list[int] | None = None,
                 scheduling: str = "static",
                 telemetry: RunTelemetry | None = None,
                 job: str | None = None) -> None:
        if scheduling not in ("static", "dynamic"):
            raise ConfigurationError(
                f"scheduling must be 'static' or 'dynamic', "
                f"got {scheduling!r}")
        if scheduling == "dynamic" and quotas is not None:
            raise ConfigurationError(
                "dynamic scheduling and explicit quotas are mutually "
                "exclusive")
        spec = cluster.spec
        self._config = config
        self._spec = spec
        self._collector = collector
        self._routine = routine
        self._job = job
        self._events = events = cluster.events
        self._service = cluster.service
        self._durations = cluster.durations
        self._outbox = cluster.outbox
        self._clock = lambda: events.now
        self._telemetry = telemetry
        self._start = start = events.now
        self._deadline = (start + config.time_limit
                          if config.time_limit is not None else None)
        self._processors = spec.processors_for(config.processors)
        self._workers: dict[int, WorkerBody] = {}
        # The cost model charges what a pass actually carries (unless
        # the spec fixes a size), as the first worker built reports it:
        # for a moments-only run exactly the paper's Fig. 2 accounting.
        self._nbytes = 0
        # The reduction topology (flat unless config.reduction_fanout):
        # worker passes route through simulated reducer stations that
        # coalesce before the collector's server ever sees them.
        self._reducers: dict[str, _ReducerStation] = {}
        self._leaf_parents: dict[int, str] = {}
        if config.reduction_fanout is not None:
            plan = plan_reduction(range(config.processors),
                                  config.reduction_fanout)
            reducer_service = (spec.reducer_service_time
                               if spec.reducer_service_time is not None
                               else spec.collector_service_time)
            self._reducers = {
                node.node_id: _ReducerStation(self, node, reducer_service)
                for node in plan.nodes}
            self._leaf_parents = dict(plan.leaf_parents)
        self._combined_delivered = 0
        self._scheduling = scheduling
        self._total_started = 0
        failures = spec.failures or {}
        if 0 in failures:
            raise ConfigurationError(
                "failing the 0-th processor kills the collector; model "
                "collector-side crashes with manaver recovery instead")
        for rank, fail_time in failures.items():
            if not 0 <= rank < config.processors:
                raise ConfigurationError(
                    f"failure injected for unknown rank {rank}")
            if fail_time < 0.0:
                raise ConfigurationError(
                    f"failure time must be >= 0, got {fail_time}")
        # Injected failures, until their rank reruns: each kills the
        # rank's first node only.
        self._failures = {rank: start + fail_time
                          for rank, fail_time in failures.items()}
        self._lost = 0
        self._finaled: set[int] = set()
        if quotas is None:
            quotas = [config.worker_quota(rank)
                      for rank in range(config.processors)]
        else:
            if len(quotas) != config.processors:
                raise ConfigurationError(
                    f"{len(quotas)} quotas given for "
                    f"{config.processors} processors")
            if any(q < 0 for q in quotas) or sum(quotas) != config.maxsv:
                raise ConfigurationError(
                    f"quotas must be non-negative and sum to maxsv="
                    f"{config.maxsv}, got sum {sum(quotas)}")
        self._quotas: dict[int, int | None] = dict(enumerate(quotas))
        self._messages_sent = 0
        self._queue_delay_total = 0.0
        self._last_completion = start
        self._last_compute = start
        #: Ranks whose injected failure fired.
        self._failed: set[int] = set()
        self._stopped = False
        self._result: ClusterResult | None = None

    def _start_realization(self, rank: int, now: float) -> None:
        """Schedule the completion of rank's next realization chunk.

        CPU nodes complete one realization per event; accelerated nodes
        complete up to their batch width per kernel launch.
        """
        deadline = self._deadline
        if deadline is not None and now >= deadline:
            self._send(rank, now, final=True)
            return
        if self._scheduling == "dynamic":
            remaining = self._config.maxsv - self._total_started
        else:
            remaining = (self._quotas[rank]
                         - self._workers[rank].accumulator.volume)
        if remaining <= 0:
            self._send(rank, now, final=True)
            return
        processor = self._processors[rank]
        chunk = min(processor.batch, remaining)
        self._total_started += chunk
        duration = processor.chunk_duration(
            chunk, self._spec.duration_model, self._durations)
        self._events.schedule(
            now + duration,
            lambda when, r=rank, c=chunk, s=now:
                self._complete_chunk(r, c, when, started=s))

    def _dead(self, rank: int, now: float) -> bool:
        """Whether rank has failed by simulation time ``now``."""
        fail_time = self._failures.get(rank)
        if fail_time is not None and now >= fail_time:
            self._note_failure(rank, fail_time)
            return True
        return False

    def _note_failure(self, rank: int, fail_time: float) -> None:
        """Record an injected node failure once; log it stamped at its
        fail time."""
        if rank in self._failed:
            return
        self._failed.add(rank)
        if self._telemetry is not None:
            self._telemetry.events.append(
                "node_failed", ts=fail_time, rank=rank,
                delivered_volume=self._collector.worker_volume(rank),
                computed_volume=self._workers[rank].accumulator.volume)

    def _complete_chunk(self, rank: int, chunk: int, now: float,
                        started: float) -> None:
        """A chunk finished: step the worker through it, maybe pass data."""
        if self._stopped or self._dead(rank, now):
            # The job was released, or the node died while computing:
            # the in-flight chunk (and everything since its last pass)
            # is lost.
            return
        worker = self._workers[rank]
        done = 0
        while done < chunk:
            done += worker.step(chunk - done)[0]
        self._last_compute = max(self._last_compute, now)
        if self._telemetry is not None:
            # The virtual clock stands still while a routine runs, so
            # the worker counted its steps at zero seconds: the chunk's
            # modelled duration is charged here.
            worker.telemetry.add_realizations(0, now - started)
            self._telemetry.tracer.record("worker.chunk", started, now,
                                          rank=rank, chunk=chunk)
        if worker.pass_due(now):
            self._send(rank, now, final=False)
        self._start_realization(rank, now)

    def _send(self, rank: int, now: float, final: bool) -> None:
        """Ship rank's cumulative snapshot towards the collector."""
        if self._dead(rank, now):
            return
        if final:
            self._finaled.add(rank)
        message = self._workers[rank].message(now, final)
        self._messages_sent += 1
        node_id = self._leaf_parents.get(rank)
        if node_id is not None:
            # Tree topology: the pass crosses the wire to the subtree's
            # reducer, which coalesces before anything reaches rank 0.
            arrival = now + self._spec.network.transfer_time(
                self._nbytes, local=False)
            self._reducers[node_id].admit(message, arrival)
            if self._telemetry is not None:
                self._telemetry.tracer.record(
                    "message.transfer", now, arrival, rank=rank,
                    bytes=self._nbytes, final=final, via=node_id)
            return
        arrival = now + self._spec.network.transfer_time(
            self._nbytes, local=(rank == 0))
        completion = self._service.admit(arrival)
        self._queue_delay_total += completion \
            - self._service.service_time - arrival
        if self._telemetry is not None:
            self._telemetry.tracer.record(
                "message.transfer", now, completion, rank=rank,
                bytes=self._nbytes, final=final,
                queue_delay=max(
                    completion - self._service.service_time - arrival, 0.0))
        self._events.schedule(
            completion,
            lambda when, m=message: self._deliver(m, when))

    def _deliver(self, message: MomentMessage, now: float) -> None:
        """The collector server finished a pass: hand it on."""
        self._outbox.append(message)
        self._last_completion = max(self._last_completion, now)

    def _forward(self, node: ReducerNode, combined: CombinedMessage,
                 now: float) -> None:
        """Route a reducer's combined forward one hop upstream.

        The wire charges one framing header plus the coalesced
        payloads; the receiving server (parent reducer or the
        collector) charges a single service — the per-message fixed
        cost the tree amortizes.
        """
        nbytes = (_HEADER_BYTES
                  + len(combined.entries) * max(self._nbytes
                                                - _HEADER_BYTES, 0))
        arrival = now + self._spec.network.transfer_time(nbytes,
                                                         local=False)
        if node.parent is not None:
            self._reducers[node.parent].admit(combined, arrival)
            return
        completion = self._service.admit(arrival)
        self._queue_delay_total += completion \
            - self._service.service_time - arrival
        if self._telemetry is not None:
            self._telemetry.tracer.record(
                "message.transfer", now, completion, node=node.node_id,
                bytes=nbytes, entries=len(combined.entries),
                queue_delay=max(
                    completion - self._service.service_time - arrival, 0.0))
        self._events.schedule(
            completion,
            lambda when, m=combined: self._deliver_combined(m, when))

    def _deliver_combined(self, combined: CombinedMessage,
                          now: float) -> None:
        """The collector server finished a reducer forward: hand it on."""
        self._combined_delivered += 1
        self._outbox.append(combined)
        self._last_completion = max(self._last_completion, now)

    # ------------------------------------------------------------------

    def add_worker(self, rank: int, quota: int | None) -> None:
        """Start ``rank``'s worker at the current virtual time.

        A rank that already ran reruns after its node failed: from
        realization 0 of its own stream, on a fresh unit-speed node.
        What the failed node computed past its last pass is lost.
        """
        failed = self._workers.get(rank)
        if failed is not None:
            self._note_failure(rank, self._failures.pop(rank))
            self._lost += (failed.accumulator.volume
                           - self._collector.worker_volume(rank))
            self._processors[rank] = Processor(rank, 1.0, None)
        clock = self._clock
        worker = WorkerBody(
            self._routine, self._config, rank, clock=clock,
            telemetry=(WorkerTelemetry(rank, clock=clock)
                       if self._telemetry is not None else None),
            job=self._job, nbytes=self._spec.message_bytes)
        self._workers[rank] = worker
        self._nbytes = worker.nbytes
        self._quotas[rank] = quota
        self._result = None
        self._start_realization(rank, self._events.now)

    def dead_ranks(self) -> list[int]:
        """Started ranks an injected failure kept from finalizing and
        that have not been rerun.

        Ask when the cluster is idle: every live worker has finalized,
        and everything a dead one sent has landed.
        """
        return sorted(rank for rank in self._failures
                      if rank in self._workers
                      and rank not in self._finaled)

    def stop(self) -> None:
        """Compute nothing further; passes already sent still land."""
        self._stopped = True

    def finish(self) -> ClusterResult:
        """Settle the books once every started worker is done.

        Idempotent between topology changes: calling it twice returns
        the same (cached) result; :meth:`add_worker` invalidates the
        cache so a recovered run re-accounts.
        """
        if self._result is not None:
            return self._result
        per_rank = {rank: worker.accumulator.volume
                    for rank, worker in self._workers.items()}
        for rank, fail_time in self._failures.items():
            if rank in per_rank and rank not in self._finaled:
                self._note_failure(rank, fail_time)
        if not all(rank in self._finaled for rank in per_rank
                   if rank not in self._failures):
            raise ConfigurationError(
                "simulation drained its event queue before every "
                "surviving worker finalized — this indicates an "
                "internal protocol bug")
        t_comp = self._last_completion - self._start
        lost = self._lost + sum(
            per_rank[rank] - self._collector.worker_volume(rank)
            for rank in self._failures if rank in per_rank)
        mean_delay = (self._queue_delay_total / self._messages_sent
                      if self._messages_sent else 0.0)
        self._result = ClusterResult(
            t_comp=t_comp,
            total_volume=sum(per_rank.values()),
            per_rank_volumes=per_rank,
            messages_sent=self._messages_sent,
            collector_utilization=self._service.utilization(t_comp),
            mean_queue_delay=mean_delay,
            compute_span=self._last_compute - self._start,
            failed_ranks=tuple(sorted(self._failed)),
            lost_realizations=lost,
            collector_served=self._service.served,
            combined_messages=self._combined_delivered)
        return self._result
