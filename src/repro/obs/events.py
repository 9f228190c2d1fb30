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
``node_failed``     rank, computed_volume (simcluster fault injection,
                    at the failure's instant)
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
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.exceptions import ConfigurationError

__all__ = ["Event", "EventLog", "EventTail", "read_events"]


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


def _decode(line: str | bytes) -> Event | None:
    """One JSONL line's event; None when it is not one."""
    try:
        payload = json.loads(line)
        ts = float(payload.pop("ts"))
        kind = str(payload.pop("kind"))
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    return Event(ts=ts, kind=kind, fields=payload)


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
            event = _decode(line)
            if event is None:
                # A crash mid-write can truncate the final line; tolerate
                # exactly that, reject garbage anywhere else.
                remainder = handle.read().strip()
                if remainder:
                    raise ConfigurationError(
                        f"malformed event at {path}:{number}")
                continue
            if kind is None or event.kind == kind:
                yield event


class EventTail:
    """Follows an event log that another process appends to.

    Each :meth:`poll` decodes only the complete lines appended since the
    previous one, so a reader polling a long log pays for what is new;
    a torn last line (no newline yet) is read again by the next poll.
    A log replaced since the previous poll — another file at the path,
    one shorter than what was read, or one whose byte before the resume
    offset does not end a line (an inode number can be reused) — is
    read from its start.

    Args:
        path: The JSONL file.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._identity: tuple[int, int] | None = None
        self._offset = 0

    def poll(self, kind: str | None = None) -> tuple[list[Event], bool]:
        """The events appended since the previous poll, and whether
        they were read from the log's start: the first poll, or the log
        was replaced since the previous one.

        Args:
            kind: Optional filter; return only events of this kind.

        Raises:
            OSError: No log at the path.
            ConfigurationError: On a malformed complete line; the tail
                stays where it was, so every poll raises again until
                the log is replaced.
        """
        with self.path.open("rb") as handle:
            status = os.fstat(handle.fileno())
            identity = (status.st_dev, status.st_ino)
            offset = self._offset
            if offset:
                handle.seek(offset - 1)
            replaced = (identity != self._identity
                        or status.st_size < offset
                        or (offset > 0 and handle.read(1) != b"\n"))
            if replaced:
                offset = 0
            handle.seek(offset)
            data = handle.read()
        complete = data[:data.rfind(b"\n") + 1]
        events = []
        for line in complete.splitlines():
            if not line.strip():
                continue
            event = _decode(line)
            if event is None:
                raise ConfigurationError(
                    f"malformed event in {self.path} after byte {offset}")
            if kind is None or event.kind == kind:
                events.append(event)
        self._identity, self._offset = identity, offset + len(complete)
        return events, replaced
