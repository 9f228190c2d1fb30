"""Observability for the PARMONC runtime: metrics, traces, events.

The paper's §2.2 already gestures at this — rank 0 writes
``func_log.dat`` so users can "monitor the statistical error" mid-run.
This package makes the runtime's behaviour observable as first-class
data:

* :mod:`repro.obs.metrics` — zero-dependency counters, gauges and
  histograms with exact snapshot/merge semantics.
* :mod:`repro.obs.tracing` — spans with an explicit, swappable clock so
  the discrete-event backend traces in virtual time.
* :mod:`repro.obs.events` — a structured JSONL run record.
* :mod:`repro.obs.telemetry` — the per-worker stats pipeline rolled up
  to rank 0 and written under ``parmonc_data/telemetry/``.
* :mod:`repro.obs.render` — the text views behind
  ``parmonc-report --telemetry`` and ``parmonc-telemetry``.
* :mod:`repro.obs.log` — library logging hygiene
  (:func:`configure_logging`).

Telemetry is opt-in: pass ``telemetry=True`` to :func:`repro.parmonc`
(or set it on :class:`~repro.runtime.config.RunConfig`) and read the
artifacts back with :func:`read_events` / ``parmonc-report
--telemetry``.  See ``docs/observability.md``.
"""

from __future__ import annotations

from repro.obs.events import Event, EventLog, EventTail, read_events
from repro.obs.log import configure_logging, install_null_handler
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    merge_metrics,
)
from repro.obs.render import load_metrics, render_telemetry
from repro.obs.telemetry import RunTelemetry, WorkerTelemetry
from repro.obs.tracing import SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "merge_metrics",
    "SpanRecord",
    "Tracer",
    "Event",
    "EventLog",
    "EventTail",
    "read_events",
    "RunTelemetry",
    "WorkerTelemetry",
    "load_metrics",
    "render_telemetry",
    "configure_logging",
    "install_null_handler",
]
