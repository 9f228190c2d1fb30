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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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

__all__ = ["ClusterSpec", "ClusterResult", "ClusterSimulation",
           "proportional_quotas"]


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
        failures: Optional fault injection — ``{rank: fail_time}``.  A
            failed node stops silently: no further computation, passes
            or final message.  Work it completed after its last data
            pass is lost; everything already passed survives at the
            collector (the §2.2 motivation for periodic passes).
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
    """Timing and accounting of one simulated run.

    Attributes:
        t_comp: Virtual seconds until the collector finished receiving,
            averaging and saving the full sample (Fig. 2's ``T_comp``).
        total_volume: Realizations delivered in this session.
        per_rank_volumes: Final volume per worker.
        messages_sent: Worker data passes (including finals).
        collector_utilization: Busy fraction of the collector server
            over ``[0, t_comp]``.
        mean_queue_delay: Mean seconds a message waited before service.
        compute_span: Virtual time the last worker finished computing
            (``t_comp`` minus trailing exchange overhead).
        failed_ranks: Nodes that died mid-run (fault injection).
        lost_realizations: Realizations computed but never delivered to
            the collector before their node failed.
        collector_served: Messages the 0-th processor's server actually
            ingested — equals ``messages_sent`` on the flat exchange,
            and the (much smaller) combined-message count under a
            reduction tree.
        combined_messages: Reducer forwards delivered to the collector
            (0 on the flat exchange).
        per_job: Per-job accounting when the simulation labelled its
            workers (``job_labels`` / ``add_worker(job=...)``): for
            each label, the ranks it owned, the realizations they
            computed (``volume``), the realizations that reached the
            collector (``delivered``) and the data passes they sent —
            the observables a scheduling-policy study at 10^5 simulated
            workers compares across tenants.  Empty when no worker was
            labelled.
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
    per_job: dict[str, dict] = field(default_factory=dict)


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

    def __init__(self, simulation: "ClusterSimulation", node: ReducerNode,
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


class ClusterSimulation:
    """Discrete-event execution of one PARMONC session.

    Args:
        config: Run configuration (processors, maxsv quotas, perpass,
            seqnum, shape, optional time_limit in *virtual* seconds).
        spec: Cluster hardware model.
        collector: The collector to feed; construct it with ``data=None``
            for pure timing studies or with a data directory for full
            runs.
        routine: Optional realization routine.  When given, every
            realization executes with its proper RNG substream and the
            collector accumulates genuine moments; when None, zero
            placeholder matrices keep the books.
        quotas: Optional per-rank realization quotas overriding the
            config's even split — use :func:`proportional_quotas` for
            heterogeneous/hybrid clusters.  Must sum to ``maxsv``.
        scheduling: ``"static"`` (default) deals fixed quotas;
            ``"dynamic"`` is self-scheduling — every worker keeps
            simulating until ``maxsv`` realizations have been *started*
            cluster-wide, so faster nodes naturally contribute more.
            This is the paper's actual §2.2 argument for needing no
            load balancer; quotas must not be given in this mode.
        telemetry: Optional :class:`~repro.obs.telemetry.RunTelemetry`
            stamped in *virtual* time: every realization chunk and
            message transfer becomes a span, worker stats piggyback on
            the simulated messages, and fault injections land in the
            event log — the Fig. 2 scaling study yields a full trace
            for free.
        job_labels: Optional per-rank job names (length must equal the
            processor count); labelled ranks are accounted per job on
            :attr:`ClusterResult.per_job`, so multi-tenant scheduling
            policies can be studied in virtual time.  The labels are
            bookkeeping only — they do not change execution.
    """

    def __init__(self, config: RunConfig, spec: ClusterSpec,
                 collector: Collector,
                 routine: RealizationRoutine | None = None,
                 quotas: list[int] | None = None,
                 scheduling: str = "static",
                 telemetry: RunTelemetry | None = None,
                 job_labels: Sequence[str | None] | None = None) -> None:
        if scheduling not in ("static", "dynamic"):
            raise ConfigurationError(
                f"scheduling must be 'static' or 'dynamic', "
                f"got {scheduling!r}")
        if scheduling == "dynamic" and quotas is not None:
            raise ConfigurationError(
                "dynamic scheduling and explicit quotas are mutually "
                "exclusive")
        self._config = config
        self._spec = spec
        self._collector = collector
        self._routine = routine
        self._events = EventQueue()
        self._duration_rng = np.random.default_rng(spec.seed)
        self._processors = spec.processors_for(config.processors)
        self._service = CollectorService(spec.collector_service_time)
        self._telemetry = telemetry
        self._workers = [self._worker(rank)
                         for rank in range(config.processors)]
        # The cost model charges what a pass actually carries (unless
        # the spec fixes a size): the moment payload plus every
        # declared extra statistic.  For the default moments-only run
        # this is exactly the paper's Fig. 2 accounting.
        self._nbytes = self._workers[0].nbytes
        # The reduction topology (flat unless config.reduction_fanout):
        # worker passes route through simulated reducer stations that
        # coalesce before the collector's server ever sees them.
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
        self._failures = dict(spec.failures or {})
        if 0 in self._failures:
            raise ConfigurationError(
                "failing the 0-th processor kills the collector; model "
                "collector-side crashes with manaver recovery instead")
        for rank, fail_time in self._failures.items():
            if not 0 <= rank < config.processors:
                raise ConfigurationError(
                    f"failure injected for unknown rank {rank}")
            if fail_time < 0.0:
                raise ConfigurationError(
                    f"failure time must be >= 0, got {fail_time}")
        self._finaled: set[int] = set()
        if quotas is None:
            self._quotas = [config.worker_quota(rank)
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
            self._quotas = list(quotas)
        if job_labels is not None and len(job_labels) != config.processors:
            raise ConfigurationError(
                f"job_labels has {len(job_labels)} entries for "
                f"{config.processors} processors")
        self._job_labels: list[str | None] = (
            list(job_labels) if job_labels is not None
            else [None] * config.processors)
        self._rank_messages = [0] * config.processors
        self._messages_sent = 0
        self._queue_delay_total = 0.0
        self._last_completion = 0.0
        self._last_compute = 0.0
        self._failures_logged: set[int] = set()
        self._result: ClusterResult | None = None

    @property
    def now(self) -> float:
        """Current virtual time (drives the telemetry clock)."""
        return self._events.now

    def _worker(self, rank: int) -> WorkerBody:
        """The real worker body for ``rank``, on the virtual clock."""
        def clock() -> float:
            return self._events.now
        return WorkerBody(
            self._routine, self._config, rank, clock=clock,
            telemetry=(WorkerTelemetry(rank, clock=clock)
                       if self._telemetry is not None else None),
            nbytes=self._spec.message_bytes)

    # ------------------------------------------------------------------

    def _start_realization(self, rank: int, now: float) -> None:
        """Schedule the completion of rank's next realization chunk.

        CPU nodes complete one realization per event; accelerated nodes
        complete up to their batch width per kernel launch.
        """
        deadline = self._config.time_limit
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
            chunk, self._spec.duration_model, self._duration_rng)
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
        """Log an injected node failure once, stamped at its fail time."""
        if self._telemetry is None or rank in self._failures_logged:
            return
        self._failures_logged.add(rank)
        self._telemetry.events.append(
            "node_failed", ts=fail_time, rank=rank,
            delivered_volume=self._collector.worker_volume(rank),
            computed_volume=self._workers[rank].accumulator.volume)

    def _complete_chunk(self, rank: int, chunk: int, now: float,
                        started: float) -> None:
        """A chunk finished: step the worker through it, maybe pass data."""
        if self._dead(rank, now):
            # The node died while computing: the in-flight chunk (and
            # everything since its last pass) is lost.
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
        worker = self._workers[rank]
        message = worker.message(now, final)
        self._messages_sent += 1
        self._rank_messages[rank] += 1
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
                if final:
                    self._telemetry.events.append(
                        "worker_final", ts=now, rank=rank,
                        volume=worker.accumulator.volume,
                        messages=worker.telemetry.messages,
                        bytes=worker.telemetry.bytes_sent)
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
            if final:
                self._telemetry.events.append(
                    "worker_final", ts=now, rank=rank,
                    volume=worker.accumulator.volume,
                    messages=worker.telemetry.messages,
                    bytes=worker.telemetry.bytes_sent)
        self._events.schedule(
            completion,
            lambda when, m=message: self._deliver(m, when))

    def _deliver(self, message: MomentMessage, now: float) -> None:
        """Collector finished ingesting a message."""
        self._collector.receive(message, now)
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
        """Collector finished ingesting a reducer forward."""
        self._combined_delivered += 1
        self._collector.receive_combined(combined, now)
        self._last_completion = max(self._last_completion, now)

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Seed every configured worker's first realization at t = 0.

        The incremental half of :meth:`run`, used by the engine-driven
        backend (which owns the ``worker_start`` telemetry events
        itself): after seeding, drive the clock with
        :meth:`run_until_idle` and settle accounts with :meth:`finish`.
        """
        for rank in range(self._config.processors):
            self._start_realization(rank, 0.0)

    def run_until_idle(self) -> float:
        """Dispatch events until the queue drains; return virtual now."""
        return self._events.run()

    def add_worker(self, rank: int, quota: int,
                   job: str | None = None) -> None:
        """Attach a fresh worker mid-simulation (quota reassignment).

        The new node is a plain unit-speed processor drawing from the
        ``rank``-th "processors" subsequence — a substream no failed
        node ever touched — and starts computing at the current virtual
        time.  ``job`` labels the worker for the
        :attr:`ClusterResult.per_job` breakdown (e.g. the failed
        worker's job, so the recovery volume is charged to the right
        tenant).
        """
        if self._scheduling != "static":
            raise ConfigurationError(
                "workers can only be added under static scheduling")
        if rank != len(self._processors):
            raise ConfigurationError(
                f"worker ranks must stay contiguous: expected "
                f"{len(self._processors)}, got {rank}")
        self._processors.append(Processor(rank, 1.0, None))
        self._workers.append(self._worker(rank))
        self._quotas.append(quota)
        self._job_labels.append(job)
        self._rank_messages.append(0)
        self._result = None
        self._start_realization(rank, self._events.now)

    def dead_ranks(self) -> tuple[int, ...]:
        """Injected failures that kept their node from finalizing."""
        return tuple(sorted(rank for rank in self._failures
                            if rank not in self._finaled))

    def finish(self) -> ClusterResult:
        """Settle the books once the event queue has drained.

        Idempotent between topology changes: calling it twice returns
        the same (cached) result; :meth:`add_worker` invalidates the
        cache so a recovered run re-accounts.
        """
        if self._result is not None:
            return self._result
        for rank, fail_time in self._failures.items():
            self._note_failure(rank, fail_time)
        survivors = [rank for rank in range(len(self._processors))
                     if rank not in self._failures]
        if not all(rank in self._finaled for rank in survivors):
            raise ConfigurationError(
                "simulation drained its event queue before every "
                "surviving worker finalized — this indicates an "
                "internal protocol bug")
        t_comp = self._last_completion
        per_rank = {rank: worker.accumulator.volume
                    for rank, worker in enumerate(self._workers)}
        total = sum(per_rank.values())
        lost = sum(per_rank[rank] - self._collector.worker_volume(rank)
                   for rank in self._failures)
        mean_delay = (self._queue_delay_total / self._messages_sent
                      if self._messages_sent else 0.0)
        per_job: dict[str, dict] = {}
        for rank, label in enumerate(self._job_labels):
            if label is None:
                continue
            entry = per_job.setdefault(
                label, {"ranks": [], "volume": 0, "delivered": 0,
                        "messages": 0})
            entry["ranks"].append(rank)
            entry["volume"] += per_rank[rank]
            entry["delivered"] += self._collector.worker_volume(rank)
            entry["messages"] += self._rank_messages[rank]
        for entry in per_job.values():
            entry["ranks"] = tuple(entry["ranks"])
        self._result = ClusterResult(
            t_comp=t_comp,
            total_volume=total,
            per_rank_volumes=per_rank,
            messages_sent=self._messages_sent,
            collector_utilization=self._service.utilization(t_comp),
            mean_queue_delay=mean_delay,
            compute_span=self._last_compute,
            failed_ranks=tuple(sorted(self._failures)),
            lost_realizations=lost,
            collector_served=self._service.served,
            combined_messages=self._combined_delivered,
            per_job=per_job)
        return self._result

    def run(self) -> ClusterResult:
        """Execute the session; return virtual-time accounting."""
        if self._telemetry is not None:
            for rank in range(self._config.processors):
                self._telemetry.events.append(
                    "worker_start", ts=0.0, rank=rank,
                    quota=(self._quotas[rank]
                           if self._scheduling == "static" else None))
        self.start()
        self._events.run()
        result = self.finish()
        # The final averaging-and-saving sweep the paper times.
        self._collector.save(result.t_comp)
        return result
