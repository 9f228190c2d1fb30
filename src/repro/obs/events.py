"""The structured event log: an append-only JSONL run record.

Every line is one JSON object with at least ``ts`` (run seconds, virtual
under simulation) and ``kind``; remaining keys are the event's payload.
Kinds emitted by the runtime:

``session_start``   config echo: backend, processors, maxsv, seqnum
``worker_start``    rank, quota (+ ``recovery`` for a dead rank's rerun)
``worker_final``    rank, volume, messages, bytes
``worker_died``     rank, exitcode, volume (dead-worker detection)
``worker_recovered`` rank, reassigned, delivered
                    (``on_worker_death="reassign"``: the rank reruns)
``node_failed``     rank, fail_time (simcluster fault injection)
``message``         rank, volume, final (one per collector ingest)
``stale_message``   rank, volume, kept_volume (out-of-order or rerun
                    catch-up drop)
``stale_worker``    rank, last_seen (silent-worker health flag)
``storage.quarantined``  path, quarantined, reason (a torn/corrupt
                    artifact renamed ``*.corrupt`` and skipped)
``save``            volume, eps_max, duration, save_index
``span``            name, start, end + attributes (from the tracer)
``session_end``     volume, elapsed, t_comp (when virtual)

Events buffer in memory and flush to ``telemetry/events.jsonl`` at save
points and at session end, so a crashed run still leaves a usable
record of everything up to its last averaging round.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.exceptions import ConfigurationError

__all__ = ["Event", "EventLog", "read_events"]


@dataclass(frozen=True)
class Event:
    """One structured log record.

    Attributes:
        ts: Run time in seconds (virtual under simulation).
        kind: Event type, one of the kinds documented in the module
            docstring (user code may add its own).
        fields: Payload; must be JSON-serializable plain data.
    """

    ts: float
    kind: str
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSONL line body."""
        return {"ts": self.ts, "kind": self.kind, **self.fields}


class EventLog:
    """In-memory event buffer with a JSONL sink.

    Args:
        clock: Time source for events appended without an explicit
            ``ts``; swap in a virtual clock under simulation.
        path: Optional JSONL destination; without one the log is purely
            in-memory (inspect via :attr:`events`).
        epoch: Clock value of the run's start; subtracted from every
            timestamp so real-time backends log run-relative seconds
            while the virtual backend keeps epoch 0.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 path: Path | str | None = None,
                 epoch: float = 0.0) -> None:
        self._clock = clock
        self._epoch = epoch
        self._path = Path(path) if path is not None else None
        self._events: list[Event] = []
        self._flushed = 0

    @property
    def events(self) -> tuple[Event, ...]:
        """Every event appended so far, in order."""
        return tuple(self._events)

    @property
    def path(self) -> Path | None:
        """The JSONL sink path (None for in-memory logs)."""
        return self._path

    @property
    def epoch(self) -> float:
        """The clock value subtracted from every timestamp."""
        return self._epoch

    def append(self, kind: str, ts: float | None = None, **fields) -> Event:
        """Record one event; ``ts`` defaults to the log's clock.

        Explicit ``ts`` values must come from the same clock; the log
        shifts them onto the run-relative axis itself.
        """
        event = Event(ts=(self._clock() if ts is None else ts) - self._epoch,
                      kind=kind, fields=fields)
        self._events.append(event)
        return event

    def by_kind(self, kind: str) -> tuple[Event, ...]:
        """All events of one kind."""
        return tuple(e for e in self._events if e.kind == kind)

    def flush(self) -> None:
        """Append any unflushed events to the JSONL sink."""
        if self._path is None or self._flushed >= len(self._events):
            return
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with self._path.open("a") as handle:
            for event in self._events[self._flushed:]:
                handle.write(json.dumps(event.to_dict()) + "\n")
        self._flushed = len(self._events)


def read_events(path: Path | str, kind: str | None = None) -> Iterator[Event]:
    """Iterate the events of a ``telemetry/events.jsonl`` file.

    Args:
        path: The JSONL file written by a telemetry-enabled run.
        kind: Optional filter; yield only events of this kind.

    Raises:
        ConfigurationError: On a malformed line (truncated trailing
            lines from a crashed run are skipped, not fatal).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no event log at {path}")
    with path.open() as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                ts = float(payload.pop("ts"))
                event_kind = str(payload.pop("kind"))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # A crash mid-write can truncate the final line; tolerate
                # exactly that, reject garbage anywhere else.
                remainder = handle.read().strip()
                if remainder:
                    raise ConfigurationError(
                        f"malformed event at {path}:{number}")
                continue
            if kind is None or event_kind == kind:
                yield Event(ts=ts, kind=event_kind, fields=payload)
