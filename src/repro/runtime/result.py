"""The value returned by a completed run."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.runtime.config import RunConfig
from repro.stats.estimators import Estimates
from repro.stats.statistic import Statistic

if TYPE_CHECKING:
    from repro.cluster.simulation import ClusterResult

__all__ = ["RunResult"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one ``parmonc`` session.

    Attributes:
        estimates: Result matrices for the *merged* sample (including
            resumed sessions); None only for accounting-only simulated
            runs that executed no realizations.
        config: The configuration the session ran with.
        per_rank_volumes: Final sample volume contributed by each worker
            in this session.
        session_volume: Realizations simulated in this session.
        total_volume: Merged sample volume, ``base + session``.
        elapsed: Wall-clock seconds the session took.
        cluster: The simulator's accounting of the job
            (:class:`~repro.cluster.simulation.ClusterResult`) on the
            ``simcluster`` backend, else None.
        sessions: 1 for a fresh simulation, higher when resumed.
        data_dir: Where result files were written (None for in-memory
            runs).
        messages_received: Collector message count (exchange intensity).
        saves_performed: Collector averaging/saving sweeps.
        history: Convergence trace ``(time, volume, eps_max)`` per
            save-point (empty for in-memory runs).
        telemetry: Summary dict of the run's telemetry (realizations,
            messages, bytes, compute vs idle seconds, artifact
            directory); None unless the run enabled telemetry.  The full
            record lives under ``parmonc_data/telemetry/``.
        recovered_ranks: Ranks that died mid-run and were rerun on their
            own stream, once per death (empty unless
            ``config.on_worker_death == "reassign"`` kicked in).
        statistics: The extra merged statistics of the run, keyed by
            kind — covariance, histogram, ... as declared via
            ``config.statistics`` (plus any inherited from resumed
            sessions).  Empty for the default moments-only run; the
            moment statistic itself is exposed as :attr:`estimates`.
        sla: Scheduling record when the run was a named job of a
            :class:`~repro.runtime.scheduler.Scheduler` — submit-to-
            start wait, makespan, advisory deadline misses and dispatch
            accounting (see :meth:`repro.runtime.job.Job.sla_snapshot`).
            None for classic single runs.
    """

    estimates: Estimates | None
    config: RunConfig
    per_rank_volumes: dict[int, int] = field(default_factory=dict)
    session_volume: int = 0
    total_volume: int = 0
    elapsed: float = 0.0
    cluster: ClusterResult | None = None
    sessions: int = 1
    data_dir: Path | None = None
    messages_received: int = 0
    saves_performed: int = 0
    history: tuple[tuple[float, int, float], ...] = ()
    telemetry: dict | None = None
    recovered_ranks: tuple[int, ...] = ()
    statistics: dict[str, Statistic] = field(default_factory=dict)
    sla: dict | None = None

    @property
    def virtual_time(self) -> float | None:
        """``T_comp``, the simulated cluster's seconds, or None."""
        return self.cluster.t_comp if self.cluster is not None else None

    def __str__(self) -> str:
        timing = (f"T_comp={self.virtual_time:.3f}s (virtual)"
                  if self.virtual_time is not None
                  else f"elapsed={self.elapsed:.3f}s")
        error = (f"eps_max={self.estimates.abs_error_max:.4g}"
                 if self.estimates is not None else "accounting-only")
        return (f"RunResult(L={self.total_volume}, "
                f"M={self.config.processors}, {timing}, {error})")

    def summary(self) -> str:
        """A multi-line human summary of the session."""
        lines = [str(self)]
        if self.sessions > 1:
            lines.append(f"session {self.sessions} (resumed); this "
                         f"session added {self.session_volume} "
                         f"realizations")
        if self.estimates is not None:
            lines.append(
                f"errors: eps_max={self.estimates.abs_error_max:.6g}, "
                f"rho_max={self.estimates.rel_error_max:.4g}%, "
                f"sigma2_max={self.estimates.variance_max:.6g}")
            if self.estimates.mean_time > 0:
                lines.append(f"mean time per realization: "
                             f"{self.estimates.mean_time:.3e} s")
        lines.append(f"collector: {self.messages_received} messages, "
                     f"{self.saves_performed} save sweeps")
        if self.statistics:
            lines.append("extra statistics: " + ", ".join(
                f"{kind} (L={statistic.volume})" for kind, statistic
                in sorted(self.statistics.items())))
        if self.data_dir is not None:
            lines.append(f"results under {self.data_dir}")
        return "\n".join(lines)
