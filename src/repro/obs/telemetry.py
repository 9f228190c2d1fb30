"""Run-level telemetry: per-worker stats rolled up to rank 0.

Two halves mirror the runtime's master-worker split:

* :class:`WorkerTelemetry` lives inside one worker (possibly another OS
  process).  It keeps a handful of plain counters — realizations,
  messages, bytes, compute vs idle time — and serializes to a small
  dict that piggybacks on each :class:`~repro.runtime.messages
  .MomentMessage`, exactly like the cumulative moment snapshots do.

* :class:`RunTelemetry` lives on rank 0.  It owns the
  :class:`~repro.obs.metrics.MetricsRegistry`, the
  :class:`~repro.obs.tracing.Tracer` and the
  :class:`~repro.obs.events.EventLog` for the session, ingests the
  piggybacked worker dicts (latest-wins, like the collector's moment
  snapshots), and at session end writes ``telemetry/events.jsonl`` and
  ``telemetry/metrics.json`` under ``parmonc_data``.
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer

__all__ = ["WorkerTelemetry", "RunTelemetry",
           "EVENTS_FILENAME", "METRICS_FILENAME"]

EVENTS_FILENAME = "events.jsonl"
METRICS_FILENAME = "metrics.json"

_METRICS_VERSION = 1

#: Histogram bounds for collector averaging-round durations (seconds).
_SAVE_BOUNDS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0)


class WorkerTelemetry:
    """One worker's counters; cheap to update, picklable as a dict.

    Args:
        rank: The owning worker's processor index.
        clock: Time source for the wall-seconds figure; virtual under
            simulation.
    """

    def __init__(self, rank: int,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.rank = rank
        self._clock = clock
        self._started = clock()
        self.realizations = 0
        self.messages = 0
        #: Due passes not built because the previous one was still
        #: unread (a forked worker's latest-wins outbox).
        self.superseded = 0
        self.bytes_sent = 0
        self.compute_seconds = 0.0
        self.send_seconds = 0.0
        self.batches = 0
        self.max_batch = 0

    def realization(self, seconds: float) -> None:
        """Account one completed realization."""
        self.realizations += 1
        self.compute_seconds += seconds

    def add_realizations(self, count: int, seconds: float) -> None:
        """Account a batch of realizations (accelerated / simulated nodes)."""
        self.realizations += count
        self.compute_seconds += seconds

    def batch(self, count: int, seconds: float) -> None:
        """Account one batched inner-loop iteration of ``count`` realizations."""
        self.batches += 1
        self.max_batch = max(self.max_batch, count)
        self.add_realizations(count, seconds)

    def message(self, nbytes: int, send_seconds: float = 0.0) -> None:
        """Account one data pass to the collector."""
        self.messages += 1
        self.bytes_sent += nbytes
        self.send_seconds += send_seconds

    def as_dict(self, now: float | None = None) -> dict:
        """Plain-data snapshot that piggybacks on a moment message.

        ``wall_seconds`` is the worker's lifetime so far; idle time is
        derived on rank 0 as ``wall - compute - send``.
        """
        wall = (now if now is not None else self._clock()) - self._started
        return {
            "rank": self.rank,
            "realizations": self.realizations,
            "messages": self.messages,
            "superseded": self.superseded,
            "bytes": self.bytes_sent,
            "compute_seconds": self.compute_seconds,
            "send_seconds": self.send_seconds,
            "wall_seconds": max(wall, 0.0),
            "batches": self.batches,
            "max_batch": self.max_batch,
        }


def _worker_rollup(stats: Mapping) -> dict:
    """Derive per-worker rates from one piggybacked stats dict."""
    wall = float(stats.get("wall_seconds", 0.0))
    compute = float(stats.get("compute_seconds", 0.0))
    send = float(stats.get("send_seconds", 0.0))
    realizations = int(stats.get("realizations", 0))
    rolled = dict(stats)
    rolled["idle_seconds"] = max(wall - compute - send, 0.0)
    rolled["realizations_per_second"] = (realizations / wall
                                         if wall > 0 else 0.0)
    rolled["busy_fraction"] = (min(compute / wall, 1.0)
                               if wall > 0 else 0.0)
    return rolled


class RunTelemetry:
    """Rank-0 aggregator: registry + tracer + event log for one session.

    Args:
        clock: Time source shared by the tracer and event log; pass the
            virtual clock under simulation.
        directory: Destination for ``events.jsonl`` / ``metrics.json``
            (normally ``parmonc_data/telemetry``); None keeps the whole
            session in memory.
        epoch: Clock value of the session's start; real-time backends
            pass their start instant so every timestamp in the record
            is run-relative, virtual backends leave it at 0.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 directory: Path | str | None = None,
                 epoch: float = 0.0) -> None:
        self._clock = clock
        self._directory = Path(directory) if directory is not None else None
        events_path = (self._directory / EVENTS_FILENAME
                       if self._directory is not None else None)
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock=clock, epoch=epoch)
        self.events = EventLog(clock=clock, path=events_path, epoch=epoch)
        self._workers: dict[int, dict] = {}
        self._recoveries = 0
        self._finalized = False

    @property
    def directory(self) -> Path | None:
        """Where artifacts are written (None for in-memory telemetry)."""
        return self._directory

    @property
    def metrics_path(self) -> Path | None:
        """``telemetry/metrics.json`` (None for in-memory telemetry)."""
        if self._directory is None:
            return None
        return self._directory / METRICS_FILENAME

    # ------------------------------------------------------------------
    # Ingest

    def record_worker(self, stats: Mapping) -> None:
        """Ingest one worker's piggybacked stats dict (latest wins)."""
        rank = int(stats["rank"])
        previous = self._workers.get(rank)
        if previous is not None \
                and stats.get("realizations", 0) < previous.get(
                    "realizations", 0):
            return  # stale out-of-order stats, same rule as moments
        self._workers[rank] = dict(stats)

    def averaging_round(self, *, duration: float, volume: int,
                        eps_max: float, save_index: int,
                        now: float | None = None) -> None:
        """Account one collector averaging/saving sweep."""
        self.registry.histogram("collector.save_seconds",
                                _SAVE_BOUNDS).observe(duration)
        self.events.append("save", ts=now, volume=volume, eps_max=eps_max,
                           duration=duration, save_index=save_index)
        self.events.flush()

    def worker_recovered(self, *, rank: int, reassigned: int,
                         delivered: int, now: float | None = None) -> None:
        """Account one fault-recovery: a dead rank reruns on its stream.

        Args:
            rank: The dead worker's processor index, which reruns.
            reassigned: Realizations reissued to the rerun: the rank's
                whole quota.
            delivered: Realizations the dead worker delivered before
                dying (the collector keeps them until the rerun
                passes them).
            now: Run-clock timestamp of the recovery decision.
        """
        self._recoveries += 1
        self.registry.counter("engine.worker_recoveries").inc()
        if reassigned:
            self.registry.counter("engine.reassigned_realizations").inc(
                reassigned)
        self.events.append("worker_recovered", ts=now, rank=rank,
                           reassigned=reassigned, delivered=delivered)
        self.events.flush()

    # ------------------------------------------------------------------
    # Roll-up

    def worker_stats(self) -> dict[int, dict]:
        """Latest per-worker stats with derived rates, keyed by rank."""
        return {rank: _worker_rollup(stats)
                for rank, stats in sorted(self._workers.items())}

    def rollup(self) -> dict:
        """Cross-worker totals (the numbers a dashboard would plot)."""
        workers = self.worker_stats()
        total_realizations = sum(w["realizations"] for w in workers.values())
        total_messages = sum(w["messages"] for w in workers.values())
        superseded = sum(int(w.get("superseded", 0))
                         for w in workers.values())
        total_bytes = sum(w["bytes"] for w in workers.values())
        compute = sum(w["compute_seconds"] for w in workers.values())
        idle = sum(w["idle_seconds"] for w in workers.values())
        batches = sum(int(w.get("batches", 0)) for w in workers.values())
        return {
            "workers": len(workers),
            "realizations": total_realizations,
            "messages": total_messages,
            "superseded": superseded,
            "bytes": total_bytes,
            "compute_seconds": compute,
            "idle_seconds": idle,
            "batches": batches,
        }

    # ------------------------------------------------------------------
    # Export

    def finalize(self, *, elapsed: float, volume: int,
                 virtual_time: float | None = None) -> dict:
        """Export spans, mirror the roll-up into metrics, write artifacts.

        Idempotent; returns the summary dict also stored on
        :attr:`~repro.runtime.result.RunResult.telemetry`.
        """
        if not self._finalized:
            self._finalized = True
            # Span timestamps are already run-relative (the tracer
            # shifted them); re-add the epoch the log will subtract.
            for span in self.tracer.spans:
                self.events.append("span",
                                   ts=span.start + self.events.epoch,
                                   **span.to_dict())
            if self.tracer.dropped:
                self.registry.counter("tracer.dropped_spans").inc(
                    self.tracer.dropped)
            rolled = self.rollup()
            for key, value in rolled.items():
                self.registry.gauge(f"run.{key}").set(value)
            self.registry.gauge("run.volume").set(volume)
            self.registry.gauge("run.elapsed_seconds").set(elapsed)
            denominator = (virtual_time if virtual_time is not None
                           else elapsed)
            self.registry.gauge("run.realizations_per_second").set(
                volume / denominator if denominator > 0 else 0.0)
            if virtual_time is not None:
                self.registry.gauge("run.virtual_seconds").set(virtual_time)
            if self._recoveries:
                self.registry.gauge("run.recovered_workers").set(
                    self._recoveries)
            for rank, stats in self.worker_stats().items():
                prefix = f"worker.{rank}"
                self.registry.gauge(f"{prefix}.realizations").set(
                    stats["realizations"])
                self.registry.gauge(f"{prefix}.messages").set(
                    stats["messages"])
                self.registry.gauge(f"{prefix}.bytes").set(stats["bytes"])
                self.registry.gauge(
                    f"{prefix}.realizations_per_second").set(
                    stats["realizations_per_second"])
                self.registry.gauge(f"{prefix}.busy_fraction").set(
                    stats["busy_fraction"])
                if stats.get("batches"):
                    self.registry.gauge(f"{prefix}.batches").set(
                        stats["batches"])
                    self.registry.gauge(f"{prefix}.max_batch").set(
                        stats.get("max_batch", 0))
            self.events.append(
                "session_end", volume=volume, elapsed=elapsed,
                **({"t_comp": virtual_time}
                   if virtual_time is not None else {}))
            self.events.flush()
            self._write_metrics()
        return self.summary()

    def _write_metrics(self) -> None:
        path = self.metrics_path
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": _METRICS_VERSION,
            "written_at": datetime.now(timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"),
            "metrics": self.registry.snapshot().to_dict(),
            "workers": {str(rank): stats
                        for rank, stats in self.worker_stats().items()},
        }
        temp = path.with_suffix(".json.tmp")
        temp.write_text(json.dumps(payload, indent=2))
        temp.replace(path)

    def summary(self) -> dict:
        """Small plain-data digest for :attr:`RunResult.telemetry`."""
        return {
            **self.rollup(),
            "events": len(self.events.events),
            "spans": len(self.tracer.spans) + self.tracer.dropped,
            "directory": (str(self._directory)
                          if self._directory is not None else None),
        }
