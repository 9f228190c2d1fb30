"""Session bootstrap shared by every backend.

Handles the file-system side of starting a session: creating (or not)
the data directory, clearing stale state on a fresh run, loading the
resume base on ``res=1``, and registering the experiment.
"""

from __future__ import annotations

import logging

from repro.exceptions import ResumeError
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory
from repro.runtime.resume import ResumeState, prepare_resume
from repro.stats.accumulator import MomentSnapshot

__all__ = ["start_session"]

_logger = logging.getLogger(__name__)


def start_session(config: RunConfig, use_files: bool = True
                  ) -> tuple[DataDirectory | None, ResumeState]:
    """Prepare the data directory and resume state for one session.

    Args:
        config: The run configuration.
        use_files: When False the session runs purely in memory and
            opens nothing on disk; only valid for fresh runs
            (``res=0``), since resuming needs the previous session's
            save-point.

    Returns:
        ``(data, state)`` where ``data`` is None for in-memory runs;
        ``data.session`` is ``state``, the tail of the save-point the
        session's completion commit writes.
    """
    if not use_files:
        if config.res != 0:
            raise ResumeError(
                "res=1 requires result files; in-memory sessions cannot "
                "resume a previous simulation")
        return None, ResumeState(
            base=MomentSnapshot.zero(config.nrow, config.ncol),
            used_seqnums=(config.seqnum,), session_index=1)
    data = DataDirectory(config.workdir).ensure()
    data.sweep_temp_files()
    # prepare_resume runs first even on res=0: it reads the burnt-seqnum
    # history out of any existing save-point before that save-point is
    # discarded below.
    state = prepare_resume(config, data)
    if config.res == 0:
        # "In case of a new simulation the parmonc creates brand new
        # files with results" — drop anything a previous run left behind.
        data.clear_savepoint()
        data.clear_processor_snapshots()
    data.session = state
    data.register_experiment(seqnum=config.seqnum,
                             processors=config.processors,
                             maxsv=config.maxsv, res=config.res)
    _logger.info(
        "session %d started: seqnum=%d, M=%d, maxsv=%d, res=%d, "
        "base volume=%d", state.session_index, config.seqnum,
        config.processors, config.maxsv, config.res, state.base.volume)
    return data, state
