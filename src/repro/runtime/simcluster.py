"""Simulated-cluster backend: the full protocol in virtual time.

Wraps :class:`repro.cluster.simulation.ClusterSimulation` in the same
session lifecycle as the other backends (resume, result files,
save-points), so a run "on 512 processors" is one function call on a
laptop.  The returned :class:`RunResult` carries the virtual
``T_comp`` in :attr:`~repro.runtime.result.RunResult.virtual_time`.

With telemetry enabled the whole record — spans, events, metrics — is
stamped in virtual seconds: the simulation's event queue *is* the
telemetry clock.

Injected node failures (:attr:`~repro.cluster.simulation.ClusterSpec
.failures`) flow through the same engine fault path as real dead
processes: under ``on_worker_death="fail"`` the run tolerates the loss
exactly as §2.2 models it, under ``"reassign"`` the engine reissues the
undelivered quota to a fresh simulated node — a deterministic rehearsal
of the multiprocess recovery path.
"""

from __future__ import annotations

from repro.cluster.simulation import ClusterSimulation, ClusterSpec
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.engine import (
    Engine,
    EngineBackend,
    WorkerAssignment,
    WorkerDeath,
    register_backend,
)
from repro.runtime.messages import MomentMessage
from repro.runtime.result import RunResult
from repro.runtime.worker import RealizationRoutine

__all__ = ["SimclusterBackend", "run_simcluster"]


@register_backend("simcluster")
class SimclusterBackend(EngineBackend):
    """Drive one :class:`ClusterSimulation` through the run loop.

    Args:
        cluster_spec: Cluster hardware model; defaults to the paper's
            test rig (``tau = 7.7 s``, ~1 GB/s interconnect).
        execute_realizations: When False, realizations are only
            accounted for in time — used by pure scaling studies, where
            estimates would be meaningless zeros anyway.
        quotas: Optional per-rank realization quotas (see
            :func:`repro.cluster.simulation.proportional_quotas`);
            defaults to the config's even split.
        scheduling: ``"static"`` quotas or ``"dynamic"``
            self-scheduling (workers draw work until ``maxsv`` is
            started cluster-wide).
    """

    name = "simcluster"
    # Per-message subtotal persistence would dominate a timing study;
    # the merged save-point at session end still supports resumption.
    persist_subtotals = False

    def __init__(self, cluster_spec: ClusterSpec | None = None,
                 execute_realizations: bool = True,
                 quotas: list[int] | None = None,
                 scheduling: str = "static") -> None:
        super().__init__()
        self._spec = (cluster_spec if cluster_spec is not None
                      else ClusterSpec())
        self._execute = execute_realizations
        self._quotas = quotas
        self._scheduling = scheduling
        self._simulation: ClusterSimulation | None = None
        self._reassign = False
        self._idle = False
        self._reported: set[int] = set()

    def clock(self) -> float:
        """The simulation's virtual time (0 until the cluster exists)."""
        simulation = self._simulation
        return simulation.now if simulation is not None else 0.0

    def telemetry_epoch(self, started: float) -> float:
        return 0.0

    def plan(self, job) -> list[WorkerAssignment]:
        if self._scheduling == "dynamic":
            # Self-scheduling: no per-rank quota exists to reassign.
            return [WorkerAssignment(rank, None, job=job.id)
                    for rank in range(job.config.processors)]
        if self._quotas is not None:
            return [WorkerAssignment(rank, quota, job=job.id)
                    for rank, quota in enumerate(self._quotas)]
        return super().plan(job)

    def spawn(self, assignments) -> None:
        if self._simulation is None:
            # The simulation runs one job: the first plan's owner.
            context = self.engine.job_context(assignments[0].job)
            self._reassign = context.config.on_worker_death == "reassign"
            self._simulation = ClusterSimulation(
                context.config, self._spec, context.collector,
                routine=context.routine if self._execute else None,
                quotas=self._quotas, scheduling=self._scheduling,
                telemetry=context.telemetry)
            self._simulation.start()
        else:
            for assignment in assignments:
                self._simulation.add_worker(assignment.rank,
                                            assignment.quota)
        self._idle = False
        return None

    def poll(self, timeout: float) -> MomentMessage | None:
        """Drain the event queue; messages reach the collector in-sim."""
        if not self._idle:
            self._simulation.run_until_idle()
            self._idle = True
        return None

    def reap(self) -> list[WorkerDeath]:
        """Report injected node failures — only under ``"reassign"``.

        Under the default ``"fail"`` policy the simulated cluster keeps
        its historical §2.2 semantics: a failed node's undelivered work
        is simply lost, the run completes with a smaller sample, and
        nothing raises.
        """
        if not self._reassign:
            return []
        deaths = [WorkerDeath(rank, None, detail="injected node failure")
                  for rank in self._simulation.dead_ranks()
                  if rank not in self._reported]
        self._reported.update(death.rank for death in deaths)
        return deaths

    @property
    def done(self) -> bool:
        return self._idle

    def finish(self) -> None:
        result = self._simulation.finish()
        self._cluster_result = result
        self.virtual_time = result.t_comp

    def per_rank_volumes(self, collector: Collector, ranks) -> dict:
        # The simulator's own accounting: computed volumes, including
        # work a failed node computed but never delivered.
        return self._cluster_result.per_rank_volumes

    def session_volume(self, collector: Collector) -> int:
        return self._cluster_result.total_volume


def run_simcluster(routine: RealizationRoutine | None, config: RunConfig,
                   spec: ClusterSpec | None = None,
                   use_files: bool = True,
                   execute_realizations: bool = True,
                   quotas: list[int] | None = None,
                   scheduling: str = "static") -> RunResult:
    """Run one session on the discrete-event cluster backend.

    Args:
        routine: User realization routine; required when
            ``execute_realizations`` is True.
        config: Run configuration; ``time_limit`` is interpreted in
            *virtual* seconds (the cluster job limit).
        spec: Cluster hardware model; defaults to the paper's test rig
            (``tau = 7.7 s``, ~1 GB/s interconnect).
        use_files: Write result files and save-points.
        execute_realizations: When False, realizations are only
            accounted for in time — used by pure scaling studies, where
            estimates would be meaningless zeros anyway.
        quotas: Optional per-rank realization quotas (see
            :func:`repro.cluster.simulation.proportional_quotas`);
            defaults to the config's even split.
        scheduling: ``"static"`` quotas or ``"dynamic"``
            self-scheduling (workers draw work until ``maxsv`` is
            started cluster-wide).

    Returns:
        A :class:`RunResult` with ``virtual_time`` set to ``T_comp``.
    """
    backend = SimclusterBackend(cluster_spec=spec,
                                execute_realizations=execute_realizations,
                                quotas=quotas, scheduling=scheduling)
    return Engine(backend, config, use_files=use_files).run(routine)
