"""repro — a reproduction of PARMONC (Marchenko, PaCT 2011).

A library for massively parallel stochastic simulation: a long-period
128-bit parallel random number generator with a hierarchy of leaped
subsequences, a master-worker runtime that averages sample moments
across processors and supports resuming previous simulations, and the
``genparam``/``manaver`` utilities — plus the simulated-cluster
substrate used to reproduce the paper's evaluation on one machine.

Quick start::

    from repro import parmonc

    def one_realization(rng):
        return rng.random() ** 2          # E = 1/3

    result = parmonc(one_realization, maxsv=100_000, processors=4)
    print(result.estimates.mean[0, 0], "+/-",
          result.estimates.abs_error[0, 0])
"""

from __future__ import annotations

from repro.obs.log import configure_logging, install_null_handler

# Library hygiene: never warn about missing handlers in user programs.
install_null_handler()

from repro.core import (  # noqa: E402
    BACKENDS,
    MonteCarloRun,
    batched_realization,
    parameter_sweep,
    parmonc,
)
from repro.exceptions import (  # noqa: E402
    AdmissionError,
    BackendError,
    CapacityError,
    ConfigurationError,
    PeriodWarning,
    RealizationError,
    ReproError,
    ReproWarning,
    ResumeError,
)
from repro.rng import (  # noqa: E402
    BatchStreams,
    Lcg128,
    StreamTree,
    VectorLcg128,
    initialize_rnd128,
    rnd128,
)
from repro.runtime import (  # noqa: E402
    JobSpec,
    RunConfig,
    RunResult,
    Scheduler,
    batch_routine,
    make_batched,
    minutes,
)
from repro.stats import (  # noqa: E402
    Counter,
    Covariance,
    Estimates,
    Extrema,
    Histogram,
    MomentAccumulator,
    MomentSnapshot,
    Statistic,
    StatisticSet,
    register_statistic,
    statistic_kinds,
)

__version__ = "1.0.0"

__all__ = [
    "parmonc",
    "MonteCarloRun",
    "BACKENDS",
    "batched_realization",
    "parameter_sweep",
    "rnd128",
    "initialize_rnd128",
    "Lcg128",
    "VectorLcg128",
    "BatchStreams",
    "StreamTree",
    "batch_routine",
    "make_batched",
    "RunConfig",
    "RunResult",
    "JobSpec",
    "Scheduler",
    "minutes",
    "Estimates",
    "MomentAccumulator",
    "MomentSnapshot",
    "Statistic",
    "StatisticSet",
    "Covariance",
    "Histogram",
    "Extrema",
    "Counter",
    "register_statistic",
    "statistic_kinds",
    "ReproError",
    "AdmissionError",
    "ConfigurationError",
    "CapacityError",
    "ResumeError",
    "BackendError",
    "RealizationError",
    "ReproWarning",
    "PeriodWarning",
    "configure_logging",
    "__version__",
]
