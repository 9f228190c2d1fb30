"""The PARMONC runtime: configuration, engine, backends, resumption.

Backends register themselves with the engine's registry
(:func:`~repro.runtime.engine.register_backend`); importing this package
registers the two eager backends (``sequential``, ``multiprocess``) and
declares ``simcluster`` and ``distributed`` lazily — the former pulls in
the discrete-event cluster simulation, the latter the TCP wire layer,
and nobody should pay for either on plain runs.
"""

from __future__ import annotations

from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig, minutes
from repro.runtime.engine import (
    Engine,
    EngineBackend,
    WorkerAssignment,
    WorkerDeath,
    available_backends,
    create_backend,
    register_backend,
    register_lazy_backend,
)
from repro.runtime.files import DataDirectory
from repro.runtime.job import Job, JobSpec, JobStatus
from repro.runtime.messages import MomentMessage, message_bytes
from repro.runtime.scheduler import Scheduler

# Backend modules register themselves; sequential first so the registry
# (and therefore ``BACKENDS`` / the CLI choices) keeps its historical
# order: sequential, multiprocess, simcluster, distributed.
from repro.runtime.sequential import SequentialBackend
from repro.runtime.multiprocess import MultiprocessBackend
from repro.runtime.result import RunResult
from repro.runtime.resume import ResumeState, prepare_resume
from repro.runtime.worker import (
    BatchRealizationRoutine,
    WorkerBody,
    adapt_realization,
    batch_routine,
    make_batched,
    run_worker,
)

register_lazy_backend("simcluster", "repro.runtime.simcluster")
register_lazy_backend("distributed", "repro.runtime.distributed")

__all__ = [
    "RunConfig",
    "minutes",
    "RunResult",
    "Collector",
    "DataDirectory",
    "MomentMessage",
    "message_bytes",
    "ResumeState",
    "prepare_resume",
    "adapt_realization",
    "BatchRealizationRoutine",
    "batch_routine",
    "make_batched",
    "WorkerBody",
    "run_worker",
    "Engine",
    "EngineBackend",
    "Job",
    "JobSpec",
    "JobStatus",
    "Scheduler",
    "WorkerAssignment",
    "WorkerDeath",
    "available_backends",
    "create_backend",
    "register_backend",
    "register_lazy_backend",
    "SequentialBackend",
    "MultiprocessBackend",
]
