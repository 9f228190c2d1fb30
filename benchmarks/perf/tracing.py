"""In-memory spans recorded from the benchmark's own files.

A span brackets one call from the harness into a public function of
the library (a ``parmonc()`` call, a ``Scheduler.submit``, a micro-
benchmark batch of ``MomentAccumulator.add``): name, start, end and
the span that caused it.  Spans are kept in memory and written out
once, when the run ends.  Spans *inside* the library are a later
change; this tracer never patches library code.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans while :attr:`enabled`; a no-op otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Parent for spans opened on threads with no open span of
        #: their own (the job clients of a unit).
        self.thread_root: int | None = None

    @contextmanager
    def span(self, name: str, **attributes):
        """Record one span around the body; yields its index or None."""
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"name": name, "start_ns": time.perf_counter_ns(),
                  "end_ns": None,
                  "parent": stack[-1] if stack else self.thread_root}
        record.update(attributes)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            record["end_ns"] = time.perf_counter_ns()

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total ns and self ns.

        Self time is a span's duration minus the part of it its child
        spans cover — their union, since the job clients of one unit
        run side by side.
        """
        children: dict[int, list[tuple[int, int]]] = {}
        for span in self.spans:
            if span["parent"] is not None and span["end_ns"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start_ns"], span["end_ns"]))
        totals: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            if span["end_ns"] is None:
                continue
            covered, reached = 0, span["start_ns"]
            for start, end in sorted(children.get(index, ())):
                covered += max(end - max(start, reached), 0)
                reached = max(reached, end)
            duration = span["end_ns"] - span["start_ns"]
            entry = totals.setdefault(
                span["name"], {"count": 0, "total_ns": 0, "self_ns": 0})
            entry["count"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - covered
        return totals

    def write(self, path: Path, **header) -> None:
        """Write every span plus the per-name self-time summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(header, summary=self.self_times(),
                        spans=self.spans)
        path.write_text(json.dumps(document) + "\n")
