"""Glue between the backends and :mod:`repro.obs`.

One helper per concern so all three backends stay symmetric: open a
:class:`~repro.obs.telemetry.RunTelemetry` for a session (or None when
the run has telemetry off), pointed at ``parmonc_data/telemetry``
whenever the session writes files.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.telemetry import RunTelemetry
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory

__all__ = ["open_run_telemetry"]


def open_run_telemetry(config: RunConfig, data: DataDirectory | None,
                       *, backend: str, clock: Callable[[], float],
                       epoch: float) -> RunTelemetry | None:
    """Create the session's telemetry aggregator, or None when disabled.

    A fresh (``res=0``) file-backed session clears the previous run's
    telemetry artifacts, mirroring how the bootstrap clears stale
    save-points; resumed sessions append to the existing event log so
    the record spans the whole simulation.

    Args:
        config: The run configuration (its ``telemetry`` flag decides).
        data: The session's data directory, if it writes files.
        backend: Backend name stamped on the ``session_start`` event.
        clock: Run time source (virtual under simulation).
        epoch: Run-start clock value to subtract from every timestamp.
    """
    if not config.telemetry:
        return None
    directory = data.telemetry_dir if data is not None else None
    if data is not None and config.res == 0:
        data.clear_telemetry()
    telemetry = RunTelemetry(clock=clock, directory=directory, epoch=epoch)
    telemetry.events.append(
        "session_start", backend=backend, processors=config.processors,
        maxsv=config.maxsv, seqnum=config.seqnum, res=config.res,
        perpass=config.perpass, peraver=config.peraver,
        shape=list(config.shape))
    return telemetry
