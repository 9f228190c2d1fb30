"""The 0-th processor's job: receive, average, save (§2.2).

The collector keeps the *latest cumulative* snapshot per worker rank.
Averaging merges the resume base with every latest snapshot — formula
(5) with per-worker volumes ``l_m`` that may differ, exactly as the
paper allows ("the sample volumes l_m ... may be different at the moment
of passing data").

When a run enables telemetry the collector doubles as rank 0's
instrumentation point: it counts stale (out-of-order) messages, times
every averaging round, and feeds piggybacked worker stats to the
:class:`~repro.obs.telemetry.RunTelemetry` aggregator.  Whether a
worker is alive is not its question: the owning
:class:`~repro.runtime.job.Job` reads that off its in-flight ranks.
"""

from __future__ import annotations

import logging
import time

from repro.exceptions import ConfigurationError
from repro.obs.telemetry import RunTelemetry
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory
from repro.runtime.messages import CombinedMessage, MomentMessage
from repro.stats.accumulator import MomentSnapshot
from repro.stats.estimators import Estimates
from repro.stats.merging import merge_snapshots

__all__ = ["Collector"]

_logger = logging.getLogger(__name__)


class Collector:
    """Rank-0 state machine: receive moments, average periodically, save.

    Args:
        config: The run configuration (``peraver`` and shape matter).
        base: The sample inherited from resumed sessions, its extra
            statistics inside (a zero snapshot for a fresh run).
        data: The session's data directory, as
            :func:`~repro.runtime.bootstrap.start_session` returns it
            (its ``session`` is the save-point tail the run's
            completion commit writes); pass None to keep the collector
            purely in memory (used by the discrete-event cluster
            simulation's fast path).
        sessions: Session index recorded in ``func_log.dat``.
        persist_subtotals: Whether to mirror each worker's latest
            snapshot into ``savepoints/processor_<m>.bin`` (the
            ``manaver`` recovery input).  Defaults to True whenever a
            data directory is given.  A message that completes a
            session's run writes no subtotal: the completion commit's
            save-point holds it.
        telemetry: Optional :class:`~repro.obs.telemetry.RunTelemetry`
            to instrument against; None (the default) keeps the hot
            path free of any telemetry work.
    """

    def __init__(self, config: RunConfig, base: MomentSnapshot,
                 data: DataDirectory | None = None, *, sessions: int = 1,
                 persist_subtotals: bool | None = None,
                 telemetry: RunTelemetry | None = None) -> None:
        if base.shape != config.shape:
            raise ConfigurationError(
                f"resume base shape {base.shape} does not match the "
                f"configured {config.shape}")
        if data is not None and data.session is None:
            raise ConfigurationError(
                "a collector writes to a session's data directory; "
                "open it with start_session")
        self._config = config
        self._base = base
        self._data = data
        self._session = data.session if data is not None else None
        self._sessions = sessions
        self._persist = (persist_subtotals if persist_subtotals is not None
                         else data is not None)
        self._telemetry = telemetry
        self._latest: dict[int, MomentSnapshot] = {}
        self._finals: set[int] = set()
        self._expected: set[int] = set(range(config.processors))
        self._last_average_at: float | None = None
        self._receive_count = 0
        self._stale_count = 0
        self._save_count = 0
        self._history: list[tuple[float, int, float]] = []
        # The merged sample changes only when an ingest is accepted:
        # computed once after it, reused by every save and by finalize,
        # dropped by the next accepted ingest.
        self._merged: MomentSnapshot | None = None
        self._estimates: Estimates | None = None
        self._matrices_on_disk = False
        self._committed = False
        #: ``func_log.dat``'s ``elapsed_sec`` counts from here.
        self._opened = time.monotonic()

    # ------------------------------------------------------------------

    @property
    def receive_count(self) -> int:
        """Messages received so far (stale ones included)."""
        return self._receive_count

    @property
    def stale_count(self) -> int:
        """Out-of-order messages dropped because a newer snapshot won."""
        return self._stale_count

    @property
    def save_count(self) -> int:
        """Averaging/saving sweeps performed so far."""
        return self._save_count

    @property
    def history(self) -> tuple[tuple[float, int, float], ...]:
        """Convergence trace: ``(time, volume, eps_max)`` per save.

        Recorded only when the collector writes result files (each
        entry corresponds to one PARMONC save-point), so in-memory
        timing studies pay no estimator cost.
        """
        return tuple(self._history)

    @property
    def finals_received(self) -> int:
        """Number of workers that have sent their final message."""
        return len(self._finals)

    @property
    def complete(self) -> bool:
        """True when every configured worker has sent a final message."""
        return self._expected.issubset(self._finals)

    @property
    def committed(self) -> bool:
        """Whether a final save covers every accepted message: the
        completion commit ran, or ``save(final=True)``, and nothing
        was accepted since."""
        return self._committed

    @property
    def session_volume(self) -> int:
        """Realizations received in this session (excludes resume base)."""
        return sum(s.volume for s in self._latest.values())

    @property
    def total_volume(self) -> int:
        """Total sample volume including resumed sessions."""
        return self._base.volume + self.session_volume

    def worker_volume(self, rank: int) -> int:
        """Latest known sample volume of one worker (0 if unheard from)."""
        snapshot = self._latest.get(rank)
        return snapshot.volume if snapshot is not None else 0

    # ------------------------------------------------------------------

    def receive(self, message: MomentMessage, now: float) -> bool:
        """Ingest one worker message; return True if a save was triggered.

        A save (average + write result files) happens when ``peraver``
        seconds have passed since the previous one, when ``peraver`` is
        zero (save on every message), or when the message completes the
        run — that save is final (see :meth:`save`).
        """
        if not self._ingest(message, now):
            return False
        return self._save_if_due(now)

    def receive_combined(self, combined: CombinedMessage,
                         now: float) -> bool:
        """Ingest one reducer forward; return True if a save was triggered.

        Every entry goes through the same latest-per-rank bookkeeping
        as a direct worker pass — same stale drops, same
        subtotal persistence — but the batch pays for a *single*
        save-due check, which is precisely the fixed per-message
        collector cost the reduction tree amortizes over its subtree.
        """
        accepted = 0
        for entry in combined.entries:
            if self._ingest(entry, now):
                accepted += 1
        if self._telemetry is not None:
            registry = self._telemetry.registry
            registry.counter("collector.combined_messages").inc()
            metrics = combined.metrics or {}
            level = metrics.get("level")
            if level is not None:
                registry.counter(
                    f"reduction.level{level}.forwards").inc()
                registry.counter(
                    f"reduction.level{level}.entries").inc(
                        len(combined.entries))
                drained = metrics.get("drained")
                if drained:
                    registry.counter(
                        f"reduction.level{level}.merged_in").inc(drained)
            self._telemetry.events.append(
                "combined_message", ts=now, node=combined.node_id,
                entries=len(combined.entries), accepted=accepted,
                final=combined.final)
        if not accepted:
            return False
        return self._save_if_due(now)

    def _ingest(self, message: MomentMessage, now: float) -> bool:
        """Latest-per-rank bookkeeping for one entry; True if accepted."""
        if message.rank not in self._expected:
            raise ConfigurationError(
                f"message from unknown rank {message.rank} "
                f"(expected ranks: "
                f"{sorted(self._expected) or 'none'})")
        if message.snapshot.shape != self._config.shape:
            raise ConfigurationError(
                f"message snapshot shape {message.snapshot.shape} does "
                f"not match the configured {self._config.shape}")
        self._receive_count += 1
        previous = self._latest.get(message.rank)
        if previous is not None and message.snapshot.volume < previous.volume:
            # Stale: an out-of-order pass, or a rerun rank catching
            # up.  Cumulative volume can only grow, but a final (a rerun
            # cut short by the deadline) still ends the rank.
            if message.final:
                self._finals.add(message.rank)
            self._stale_count += 1
            if self._telemetry is not None:
                self._telemetry.registry.counter(
                    "collector.stale_messages").inc()
                self._telemetry.events.append(
                    "stale_message", ts=now, rank=message.rank,
                    volume=message.snapshot.volume,
                    kept_volume=previous.volume)
            return False
        self._latest[message.rank] = message.snapshot
        self._merged = self._estimates = None
        self._matrices_on_disk = self._committed = False
        if message.final:
            self._finals.add(message.rank)
        if self._telemetry is not None:
            self._telemetry.registry.counter("collector.messages").inc()
            if message.metrics is not None:
                self._telemetry.record_worker(message.metrics)
            self._telemetry.events.append(
                "message", ts=now, rank=message.rank,
                volume=message.snapshot.volume, final=message.final)
        if self._persist and self._data is not None and not self.complete:
            self._data.save_processor_snapshot(
                message.rank, message.snapshot, session=self._sessions)
        return True

    def _save_if_due(self, now: float) -> bool:
        """Run the periodic averaging/saving sweep when it is due."""
        due = (self._config.peraver == 0.0
               or self._last_average_at is None
               or now - self._last_average_at >= self._config.peraver
               or self.complete)
        if due:
            self.save(now)
            return True
        return False

    def merged(self) -> MomentSnapshot:
        """Formula (5): resume base plus every worker's latest snapshot,
        extra statistics included.

        Snapshots merge in rank order, not arrival order: float sums are
        not associative to the last ulp, and a fixed order is what makes
        estimates bit-identical across backends regardless of how the
        OS interleaved message delivery.  The extras' kinds are the
        union of what the base and the workers delivered, so a resumed
        run never drops a statistic an earlier session collected.
        """
        if self._merged is None:
            self._merged = merge_snapshots(
                [self._base, *(snapshot for _, snapshot
                               in sorted(self._latest.items()))])
        return self._merged

    def estimates(self) -> Estimates:
        """Result matrices for the current merged sample."""
        merged = self.merged()
        if merged.volume == 0:
            raise ConfigurationError(
                "no realizations received yet; nothing to estimate")
        if self._estimates is None:
            self._estimates = merged.estimates()
        return self._estimates

    def save(self, now: float, *, final: bool = False) -> None:
        """Average and write result files (a periodic PARMONC save-point).

        A save is *final* once the run is complete, or when
        ``final=True`` (``Job.finalize`` of a run that ended without
        completing): ``func_log.dat`` gets ``elapsed_sec``, counted from
        the collector's construction, and the save is the session's
        :meth:`~repro.runtime.files.DataDirectory.commit_session` —
        save-point and result files in one commit.
        ``func.dat`` and ``func_ci.dat`` are functions of the merged
        sample alone, so a save with nothing ingested since the one
        that last wrote them writes only ``func_log.dat``.
        """
        final = final or self.complete
        self._last_average_at = now
        self._save_count += 1
        if self._data is not None or self._telemetry is not None:
            self._write(now, final)
        self._committed = final

    def _write(self, now: float, final: bool) -> None:
        round_started = time.perf_counter()
        merged = self.merged()
        estimates = errors = None
        if merged.volume:
            estimates = self.estimates()
            # Derived once per save: the result files, the history and
            # the telemetry read the same two matrices.
            errors = estimates.errors()
            eps_max = float(errors[0].max())
        data = self._data
        if data is not None:
            if estimates is not None:
                self._history.append((now, merged.volume, eps_max))
            fields = dict(seqnum=self._config.seqnum,
                          processors=self._config.processors,
                          sessions=self._sessions,
                          elapsed=(time.monotonic() - self._opened
                                   if final else None),
                          matrices=not self._matrices_on_disk,
                          errors=errors)
            if final:
                data.commit_session(self._session, merged, estimates,
                                    **fields)
            elif estimates is not None:
                data.write_results(estimates, **fields)
            self._matrices_on_disk = estimates is not None
        if estimates is None:
            return
        if self._telemetry is not None:
            # The round is timed against the real clock even under
            # simulation: merging cost is a property of this machine,
            # while the event's ``now`` stays on the run clock.
            self._telemetry.averaging_round(
                duration=time.perf_counter() - round_started,
                volume=merged.volume,
                eps_max=eps_max,
                save_index=self._save_count, now=now)
        _logger.debug(
            "save-point %d: L=%d, eps_max=%.6g, finals=%d/%d",
            self._save_count, merged.volume, eps_max,
            len(self._finals), self._config.processors)
