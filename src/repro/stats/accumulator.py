"""Accumulation of sample moments over realizations.

Each worker keeps one :class:`MomentAccumulator` per run; after every
realization it adds the realization matrix, and on each ``perpass`` tick
it ships a :class:`MomentSnapshot` to the collector.  Snapshots are plain
data (sums, not means) precisely so that formula (5) averaging on the
collector is an exact sum — no precision is lost by averaging averages.
A run's extra statistics ride inside the snapshot (``extras``), so one
value is what a worker ships, the collector keeps, save-points hold and
:func:`~repro.stats.merging.merge_snapshots` folds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.exceptions import ConfigurationError
from repro.stats.estimators import Estimates, estimates_from_moments

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stats.statistic import Statistic

__all__ = ["MOMENT_WORDS_PER_ENTRY", "MomentSnapshot", "MomentAccumulator"]

#: Eight-byte state words shipped per matrix entry in a moment
#: snapshot — the §2.2 accounting behind the paper's "120 Kbytes for a
#: 1000 x 2 matrix" figure and the simulated cluster's cost model.
MOMENT_WORDS_PER_ENTRY = 8


@dataclass(frozen=True)
class MomentSnapshot:
    """Immutable copy of an accumulator's state at one instant.

    This is the payload of a worker-to-collector message and the unit of
    persistence in save-point files.

    Attributes:
        sum1: Elementwise realization sums (``nrow x ncol``).
        sum2: Elementwise squared-realization sums.
        volume: Number of realizations accumulated (``l_m``).
        compute_time: Seconds of simulation time behind this snapshot.
        extras: Frozen copies of the run's extra statistics over the
            same sample, keyed by kind; None (not an empty mapping) for
            a moments-only run, whose bytes everywhere stay the
            historical ones.
    """

    sum1: np.ndarray
    sum2: np.ndarray
    volume: int
    compute_time: float = 0.0
    extras: Mapping[str, "Statistic"] | None = None

    def __post_init__(self) -> None:
        if self.sum1.shape != self.sum2.shape:
            raise ConfigurationError(
                f"snapshot moment shapes differ: {self.sum1.shape} vs "
                f"{self.sum2.shape}")
        for kind, statistic in (self.extras or {}).items():
            if statistic.shape != self.sum1.shape:
                raise ConfigurationError(
                    f"statistic {kind!r} has shape {statistic.shape}, "
                    f"the moments {self.sum1.shape}")
        if self.volume < 0:
            raise ConfigurationError(
                f"snapshot volume must be >= 0, got {self.volume}")
        if self.compute_time < 0.0:
            raise ConfigurationError(
                f"snapshot compute_time must be >= 0, got "
                f"{self.compute_time}")

    @classmethod
    def _trusted(cls, sum1: np.ndarray, sum2: np.ndarray, volume: int,
                 compute_time: float) -> "MomentSnapshot":
        """Build a snapshot without re-running ``__post_init__``.

        Only for :meth:`MomentAccumulator.snapshot`: an accumulator
        already holds what the checks prove (sums of one shape, volume
        and compute time never negative).  ``extras`` stays the class
        default, None.
        """
        snapshot = object.__new__(cls)
        snapshot.__dict__.update(sum1=sum1, sum2=sum2, volume=volume,
                                 compute_time=compute_time)
        return snapshot

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrow, ncol)`` of the realization matrix."""
        return self.sum1.shape

    @property
    def nbytes(self) -> int:
        """Modelled wire size of the snapshot (cost-model bytes): the
        moments, plus each extra statistic's own ``nbytes``."""
        return 8 * MOMENT_WORDS_PER_ENTRY * self.sum1.size + sum(
            statistic.nbytes for statistic in (self.extras or {}).values())

    def estimates(self) -> Estimates:
        """Turn the snapshot into result matrices (requires volume > 0)."""
        return estimates_from_moments(self.sum1, self.sum2, self.volume,
                                      self.compute_time)

    @classmethod
    def zero(cls, nrow: int, ncol: int) -> "MomentSnapshot":
        """An empty snapshot of the given shape."""
        if nrow < 1 or ncol < 1:
            raise ConfigurationError(
                f"matrix dimensions must be >= 1, got {nrow}x{ncol}")
        return cls(sum1=np.zeros((nrow, ncol)),
                   sum2=np.zeros((nrow, ncol)), volume=0)


class MomentAccumulator:
    """Mutable accumulator of first and second moments.

    Args:
        nrow: Rows of the realization matrix.
        ncol: Columns of the realization matrix.

    Scalar problems use a 1x1 matrix; :meth:`add` then also accepts a
    bare float.

    Example:
        >>> acc = MomentAccumulator(1, 1)
        >>> acc.add(2.0)
        >>> acc.add(4.0)
        >>> float(acc.estimates().mean[0, 0])
        3.0
    """

    def __init__(self, nrow: int, ncol: int) -> None:
        if nrow < 1 or ncol < 1:
            raise ConfigurationError(
                f"matrix dimensions must be >= 1, got {nrow}x{ncol}")
        self._shape = (nrow, ncol)
        self._sum1 = np.zeros(self._shape, dtype=np.float64)
        self._sum2 = np.zeros(self._shape, dtype=np.float64)
        self._volume = 0
        self._compute_time = 0.0
        # Scratch of add(): the zeros of the finiteness check and the
        # squared realization.
        self._zeros = np.zeros(self._shape, dtype=np.float64)
        self._square = np.empty(self._shape, dtype=np.float64)
        self._fold_stack: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrow, ncol)`` of the realization matrix."""
        return self._shape

    @property
    def volume(self) -> int:
        """Number of realizations accumulated so far."""
        return self._volume

    @property
    def compute_time(self) -> float:
        """Total simulation seconds recorded via :meth:`add`."""
        return self._compute_time

    def add(self, realization, compute_time: float = 0.0) -> None:
        """Accumulate one realization of the random matrix.

        Every check runs before the sums are touched, so a rejected
        realization leaves the accumulator unchanged.

        The finiteness check is one exact call, ``vdot(matrix, zeros)``:
        a finite entry times zero is ±0 and a sum of zeros cannot
        overflow, while ±inf or NaN times zero is NaN, so the dot product
        is nonzero (NaN) exactly when some entry is not finite.  A finite
        entry whose square overflows is accepted, and ``sum2`` becomes
        inf, as before.

        Args:
            realization: ``nrow x ncol`` array-like (a scalar is accepted
                for 1x1 problems).  Non-finite entries are rejected: a
                single NaN would silently poison every later estimate.
            compute_time: Seconds spent simulating this realization.
        """
        matrix = np.asarray(realization, dtype=np.float64)
        if matrix.shape != self._shape:
            if matrix.shape == () and self._shape == (1, 1):
                matrix = matrix.reshape(1, 1)
            else:
                raise ConfigurationError(
                    f"realization shape {matrix.shape} does not match the "
                    f"declared {self._shape}")
        if np.vdot(matrix, self._zeros) != 0.0:
            raise ConfigurationError(
                "realization contains non-finite values")
        if compute_time < 0.0:
            raise ConfigurationError(
                f"compute_time must be >= 0, got {compute_time}")
        square = self._square
        np.multiply(matrix, matrix, out=square)
        self._sum1 += matrix
        self._sum2 += square
        self._volume += 1
        self._compute_time += compute_time

    def add_batch(self, realizations, compute_time: float = 0.0) -> None:
        """Accumulate a batch of realizations in one vectorized fold.

        Bit-identical to calling :meth:`add` once per batch row, in
        order — the fold starts from the current sums and adds the rows
        sequentially, so batched and scalar runs produce the same
        moments to the last bit.  One shape/finiteness check covers the
        whole batch.

        Args:
            realizations: ``(B, nrow, ncol)`` array-like (a 1-D length-B
                vector is accepted for 1x1 problems).  Any non-finite
                entry rejects the entire batch, leaving the accumulator
                unchanged.
            compute_time: Seconds spent simulating the whole batch.
        """
        # Layout does not matter here: the chunked fold copies rows into
        # a C-contiguous stack before reducing, so even a broadcast view
        # (e.g. a constant batch) is accepted without materializing it.
        matrices = np.asarray(realizations, dtype=np.float64)
        if matrices.ndim == 1 and self._shape == (1, 1):
            matrices = matrices.reshape(-1, 1, 1)
        if matrices.ndim != 3 or matrices.shape[1:] != self._shape:
            raise ConfigurationError(
                f"batch shape {matrices.shape} does not match the "
                f"declared (B, {self._shape[0]}, {self._shape[1]})")
        if compute_time < 0.0:
            raise ConfigurationError(
                f"compute_time must be >= 0, got {compute_time}")
        count = matrices.shape[0]
        if count:
            # One check covers the whole batch, before any fold touches
            # the sums — a poisoned batch leaves the accumulator intact.
            if not np.isfinite(matrices).all():
                raise ConfigurationError(
                    "batch contains non-finite realization values")
            if self._shape == (1, 1):
                # A (B, 1, 1) axis-0 reduce has a single output element,
                # which numpy may sum pairwise; fold in Python to keep
                # the exact left-to-right association of repeated add().
                sum1 = self._sum1[0, 0].item()
                sum2 = self._sum2[0, 0].item()
                for value in matrices.ravel().tolist():
                    sum1 += value
                    sum2 += value * value
                self._sum1[0, 0] = sum1
                self._sum2[0, 0] = sum2
            else:
                self._fold_batch(matrices)
        self._volume += count
        self._compute_time += compute_time

    # Sequential-fold scratch: one (chunk+1, nrow, ncol) stack reused
    # across add_batch calls.  Chunks of 32 keep the stack resident in
    # L2 while the batch itself streams through once, which is what
    # makes the fold cheaper than a whole-batch stack.
    _FOLD_CHUNK = 32

    def _fold_batch(self, matrices: np.ndarray) -> None:
        """Fold ``(B, nrow, ncol)`` rows into the sums, exactly in order.

        An axis-0 reduce over a C-contiguous stack adds the slices
        strictly sequentially, and chaining ``reduce([s, chunk...])``
        per chunk preserves the overall left-to-right association, so
        the result is bit-identical to repeated :meth:`add`.
        """
        chunk = self._FOLD_CHUNK
        stack = self._fold_stack
        if stack is None or stack.shape[1:] != self._shape:
            stack = np.empty((chunk + 1,) + self._shape, dtype=np.float64)
            self._fold_stack = stack
        sum1 = self._sum1
        sum2 = self._sum2
        count = matrices.shape[0]
        done = 0
        while done < count:
            width = min(chunk, count - done)
            block = matrices[done:done + width]
            rows = stack[:width + 1]
            rows[0] = sum1
            rows[1:] = block
            sum1 = np.add.reduce(rows, axis=0)
            rows[0] = sum2
            np.multiply(block, block, out=rows[1:])
            sum2 = np.add.reduce(rows, axis=0)
            done += width
        self._sum1 = sum1
        self._sum2 = sum2

    def merge_snapshot(self, snapshot: MomentSnapshot) -> None:
        """Fold another accumulator's snapshot into this one (formula (5))."""
        if snapshot.shape != self._shape:
            raise ConfigurationError(
                f"snapshot shape {snapshot.shape} does not match "
                f"accumulator shape {self._shape}")
        self._sum1 += snapshot.sum1
        self._sum2 += snapshot.sum2
        self._volume += snapshot.volume
        self._compute_time += snapshot.compute_time

    def sums(self) -> tuple[np.ndarray, np.ndarray]:
        """The live ``(sum1, sum2)`` — not copies: read them before the
        next fold (an encoder writing a pass; :meth:`snapshot` copies)."""
        return self._sum1, self._sum2

    def snapshot(self, extras: Mapping[str, "Statistic"] | None = None
                 ) -> MomentSnapshot:
        """Return an immutable copy of the current moments, carrying
        ``extras`` — frozen statistics over the same sample (see
        :meth:`~repro.stats.statistic.StatisticSet.extras_snapshot`),
        checked against the moments' shape."""
        snapshot = MomentSnapshot._trusted(
            self._sum1.copy(), self._sum2.copy(), self._volume,
            self._compute_time)
        return snapshot if extras is None else replace(snapshot,
                                                       extras=extras)

    def reset(self) -> None:
        """Zero the accumulator (used after shipping a delta snapshot)."""
        self._sum1.fill(0.0)
        self._sum2.fill(0.0)
        self._volume = 0
        self._compute_time = 0.0

    def estimates(self) -> Estimates:
        """Return result matrices for the accumulated sample."""
        return self.snapshot().estimates()

    def __len__(self) -> int:
        return self._volume

    def __repr__(self) -> str:
        return (f"MomentAccumulator(shape={self._shape}, "
                f"volume={self._volume})")
