"""Run configuration: the arguments of ``parmoncc``/``parmoncf``.

The original subroutines take ``(subroutine, nrow, ncol, maxsv, res,
seqnum, perpass, peraver)``; :class:`RunConfig` carries the same fields
plus the knobs the original library gets from its environment (number of
processors from MPI, working directory from the shell, job time limit
from the batch system).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.rng.multiplier import DEFAULT_LEAPS, LeapSet
from repro.stats.statistic import DEFAULT_STATISTICS, normalize_statistics

__all__ = ["RunConfig", "minutes"]


def minutes(value: float) -> float:
    """Convert the paper's minute-valued periods to seconds.

    ``perpass=10`` in the paper's example is ``perpass=minutes(10)`` here.
    """
    if value < 0:
        raise ConfigurationError(f"period must be >= 0 minutes, got {value}")
    return value * 60.0


@dataclass(frozen=True)
class RunConfig:
    """Immutable description of one stochastic simulation run.

    Attributes:
        nrow: Rows of the realization matrix ``[zeta_ij]``.
        ncol: Columns of the realization matrix.
        maxsv: Maximal total sample volume to simulate (the run may stop
            earlier on ``time_limit``).
        res: Resumption flag — 0 starts a new simulation, 1 resumes the
            previous one and folds its results in via formula (5).
        seqnum: "Experiments" subsequence number; a resumed session must
            use a ``seqnum`` different from every earlier session's.
        perpass: Period, in seconds, between a worker's data passes to
            the collector.  0 means "after every realization" — the
            paper's strictest performance-test condition.
        peraver: Period, in seconds, between collector averaging/saving
            sweeps.  0 means "on every received message".
        processors: Number of simulated processors ``M``.
        workdir: Directory under which ``parmonc_data/`` is created.
        leaps: Subsequence hierarchy parameters (``genparam`` output).
        time_limit: Optional cap on (virtual or wall) run seconds, the
            analogue of the cluster job time limit.
        telemetry: Record run telemetry — metrics, spans and a JSONL
            event log under ``parmonc_data/telemetry/`` (see
            :mod:`repro.obs`).  Off by default; the backends skip all
            instrumentation when disabled.
        on_worker_death: What the engine does when a backend reports a
            worker that died short of its final message.  ``"fail"``
            (default) aborts the run with a
            :class:`~repro.exceptions.BackendError`; ``"reassign"``
            keeps the dead worker's moments at its last collected
            watermark and reissues the undelivered remainder of its
            quota to a replacement worker on a fresh leaped
            subsequence.
        death_grace: Seconds a cleanly-exited worker may leave its
            final message in flight before it is declared dead (the
            multiprocess backend's dead-child grace period).
        statistics: Registered statistic kinds every worker accumulates
            and ships (see :mod:`repro.stats.statistic`).  Accepts a
            sequence or a comma-separated string; normalized so
            ``"moments"`` — mandatory, it drives estimates and
            completion accounting — always comes first.  The default
            moments-only selection reproduces the historical pipeline
            bit-for-bit.
        reduction_fanout: Width ``k`` of the hierarchical reduction
            tree (see :mod:`repro.runtime.reduction`).  None (the
            default) keeps the flat worker->rank-0 exchange; with a
            fanout of ``k >= 2`` interior reducer nodes coalesce their
            subtree's latest-per-rank snapshots and forward one
            combined message upstream, so the collector serves
            O(fanout) peers instead of O(M) workers.  The collector
            still performs the one canonical rank-ordered merge, so
            estimates stay bit-identical to the flat exchange.
            Honoured by the ``multiprocess`` and ``simcluster``
            backends; other backends run flat.
    """

    nrow: int = 1
    ncol: int = 1
    maxsv: int = 1
    res: int = 0
    seqnum: int = 0
    perpass: float = 0.0
    peraver: float = 0.0
    processors: int = 1
    workdir: Path = field(default_factory=Path.cwd)
    leaps: LeapSet = DEFAULT_LEAPS
    time_limit: float | None = None
    telemetry: bool = False
    on_worker_death: str = "fail"
    death_grace: float = 1.0
    statistics: tuple[str, ...] = DEFAULT_STATISTICS
    reduction_fanout: int | None = None

    def __post_init__(self) -> None:
        if self.nrow < 1 or self.ncol < 1:
            raise ConfigurationError(
                f"matrix dimensions must be >= 1, got "
                f"{self.nrow}x{self.ncol}")
        if self.maxsv < 1:
            raise ConfigurationError(
                f"maxsv must be >= 1, got {self.maxsv}")
        if self.res not in (0, 1):
            raise ConfigurationError(
                f"res must be 0 (new) or 1 (resume), got {self.res}")
        if self.seqnum < 0:
            raise ConfigurationError(
                f"seqnum must be >= 0, got {self.seqnum}")
        if self.perpass < 0 or self.peraver < 0:
            raise ConfigurationError(
                "perpass and peraver must be >= 0 seconds")
        if self.processors < 1:
            raise ConfigurationError(
                f"processors must be >= 1, got {self.processors}")
        if self.seqnum >= self.leaps.experiment_capacity:
            raise ConfigurationError(
                f"seqnum {self.seqnum} exceeds the experiment capacity "
                f"{self.leaps.experiment_capacity} of the hierarchy")
        if self.processors > self.leaps.processor_capacity:
            raise ConfigurationError(
                f"{self.processors} processors exceed the hierarchy "
                f"capacity {self.leaps.processor_capacity}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ConfigurationError(
                f"time_limit must be positive when given, "
                f"got {self.time_limit}")
        if self.on_worker_death not in ("fail", "reassign"):
            raise ConfigurationError(
                f"on_worker_death must be 'fail' or 'reassign', "
                f"got {self.on_worker_death!r}")
        if self.death_grace < 0:
            raise ConfigurationError(
                f"death_grace must be >= 0 seconds, "
                f"got {self.death_grace}")
        if self.reduction_fanout is not None and self.reduction_fanout < 2:
            raise ConfigurationError(
                f"reduction_fanout must be >= 2 (or None for the flat "
                f"exchange), got {self.reduction_fanout}")
        # Normalize workdir to a Path without touching the filesystem.
        object.__setattr__(self, "workdir", Path(self.workdir))
        # Canonicalize the statistics selection (moments first, known
        # kinds only) so every layer sees the same tuple.
        object.__setattr__(self, "statistics",
                           normalize_statistics(self.statistics))

    @property
    def extra_statistics(self) -> tuple[str, ...]:
        """The declared kinds beyond the mandatory moments."""
        return self.statistics[1:]

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrow, ncol)`` of the realization matrix."""
        return (self.nrow, self.ncol)

    @property
    def data_dir(self) -> Path:
        """``<workdir>/parmonc_data`` — created on first use."""
        return self.workdir / "parmonc_data"

    def worker_quota(self, rank: int) -> int:
        """Realizations statically assigned to processor ``rank``.

        ``maxsv`` is spread as evenly as possible; the first
        ``maxsv % processors`` ranks take one extra realization.
        """
        if not 0 <= rank < self.processors:
            raise ConfigurationError(
                f"rank must be in [0, {self.processors}), got {rank}")
        base, remainder = divmod(self.maxsv, self.processors)
        return base + (1 if rank < remainder else 0)

    def with_updates(self, **changes) -> "RunConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
