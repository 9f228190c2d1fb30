"""Parameter studies: one stochastic experiment per parameter value.

A sweep runs the same kind of simulation across a list of parameter
values — absorption coefficients, temperatures, strikes.  The
PARMONC-idiomatic way to do this is to give every point its **own
"experiments" subsequence** (`seqnum`), so the per-point estimates are
mutually independent and the whole study remains exactly reproducible.
:func:`parameter_sweep` packages that pattern — every point a job of one
``parmonc(jobs=[...])`` batch over a shared backend — collecting the
per-point estimates into a renderable table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.parmonc import parmonc
from repro.exceptions import ConfigurationError
from repro.runtime.result import RunResult
from repro.runtime.worker import RealizationRoutine

__all__ = ["SweepPoint", "SweepResult", "parameter_sweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter study.

    Attributes:
        value: The swept parameter value.
        seqnum: The experiments subsequence the point consumed.
        result: The point's :class:`RunResult`.
    """

    value: Any
    seqnum: int
    result: RunResult

    @property
    def mean(self) -> float:
        """Shortcut: the (0, 0) sample mean."""
        return float(self.result.estimates.mean[0, 0])

    @property
    def abs_error(self) -> float:
        """Shortcut: the (0, 0) absolute error."""
        return float(self.result.estimates.abs_error[0, 0])


@dataclass(frozen=True)
class SweepResult:
    """All points of a parameter study, in sweep order."""

    points: tuple[SweepPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def values(self) -> list[Any]:
        """The swept parameter values."""
        return [point.value for point in self.points]

    def means(self) -> list[float]:
        """The (0, 0) sample means, in sweep order."""
        return [point.mean for point in self.points]

    def table(self, value_label: str = "value",
              mean_label: str = "mean") -> str:
        """Render the study as a fixed-width text table."""
        lines = [f"{value_label:>14s}  {mean_label:>12s}  "
                 f"{'3-sigma':>10s}  {'L':>8s}"]
        for point in self.points:
            lines.append(
                f"{point.value!s:>14s}  {point.mean:12.6g}  "
                f"{point.abs_error:10.3g}  "
                f"{point.result.total_volume:8d}")
        return "\n".join(lines)


#: ``parmonc()`` arguments that choose the shared backend; every other
#: keyword goes into each point's job.
_BACKEND_KEYS = ("backend", "cluster_spec", "start_method", "connect",
                 "backend_options", "execute_realizations")


def parameter_sweep(realization_factory: Callable[[Any],
                                                  RealizationRoutine],
                    values: Sequence[Any], maxsv: int, *,
                    nrow: int = 1, ncol: int = 1,
                    seqnum_start: int = 0,
                    **parmonc_kwargs) -> SweepResult:
    """Run one independent experiment per parameter value.

    The points run as one ``parmonc(jobs=[...])`` batch, each with the
    estimates of a solo ``parmonc(..., seqnum=seqnum_start + k)``.

    Args:
        realization_factory: Maps a parameter value to a realization
            routine (e.g. ``lambda d: make_realization(SlabProblem(
            absorption=d))``).
        values: The parameter values, one experiment each.
        maxsv: Sample volume per experiment.
        nrow: Realization matrix rows.
        ncol: Realization matrix columns.
        seqnum_start: First experiments subsequence to use; point ``k``
            consumes ``seqnum_start + k``.
        **parmonc_kwargs: The backend's (``backend``, ``cluster_spec``,
            ...; see ``_BACKEND_KEYS``) go to :func:`repro.parmonc`,
            every other one into each point's job.  ``use_files``
            defaults to False — a sweep is an in-memory study.

    Returns:
        A :class:`SweepResult` with one point per value, in order.

    Raises:
        ReproError: A point failed — its routine's ``RealizationError``,
            or a ``BackendError`` naming every failed point.
    """
    if not values:
        raise ConfigurationError("parameter sweep needs at least one value")
    if "seqnum" in parmonc_kwargs or "res" in parmonc_kwargs:
        raise ConfigurationError(
            "seqnum/res are managed by the sweep; use seqnum_start")
    backend = {key: parmonc_kwargs.pop(key) for key in _BACKEND_KEYS
               if key in parmonc_kwargs}
    parmonc_kwargs.setdefault("use_files", False)
    seqnums = range(seqnum_start, seqnum_start + len(values))
    results = parmonc(jobs=[
        dict(parmonc_kwargs, routine=realization_factory(value),
             nrow=nrow, ncol=ncol, maxsv=maxsv, seqnum=seqnum)
        for value, seqnum in zip(values, seqnums)], **backend)
    return SweepResult(points=tuple(
        SweepPoint(value=value, seqnum=seqnum, result=result)
        for value, seqnum, result in zip(values, seqnums, results)))
