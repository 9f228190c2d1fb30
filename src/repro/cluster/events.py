"""A minimal discrete-event engine: a time-ordered callback queue."""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Callable

from repro.exceptions import ConfigurationError

__all__ = ["EventQueue"]


class EventQueue:
    """Priority queue of timed callbacks with FIFO tie-breaking.

    Events scheduled for the same instant run in scheduling order, which
    keeps simulations deterministic regardless of float coincidences.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._sequence = count()
        #: Current simulation time (last dispatched event's time).
        self.now = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, when: float,
                 callback: Callable[[float], None]) -> None:
        """Schedule ``callback(when)`` to run at simulation time ``when``."""
        if when < self.now:
            raise ConfigurationError(
                f"cannot schedule an event at {when} before the current "
                f"simulation time {self.now}")
        heapq.heappush(self._heap, (when, next(self._sequence), callback))

    def step(self, until: float = math.inf) -> bool:
        """Dispatch the earliest event if it is due by ``until``.

        Returns False, dispatching nothing, when the queue is empty or
        its earliest event lies beyond ``until``.
        """
        heap = self._heap
        if not heap or heap[0][0] > until:
            return False
        when, _, callback = heapq.heappop(heap)
        self.now = when
        callback(when)
        return True

    def run(self, until: float = math.inf) -> float:
        """Dispatch events until the queue drains or ``until`` is reached.

        Returns the final simulation time, which is ``until`` when that
        is finite.  Events scheduled beyond ``until`` stay queued.
        """
        while self.step(until):
            pass
        if until < math.inf:
            self.now = max(self.now, until)
        return self.now
