"""Covariance accumulation between realization-matrix entries.

PARMONC's result matrices are entry-wise; errors of *derived*
quantities (a difference of two entries, a ratio's delta-method error,
a contrast across output times) additionally need the covariances
between entries, because entries of one realization are usually far
from independent — the two components of an SDE trajectory, or call
and put payoffs from the same terminal price.

:class:`CovarianceAccumulator` tracks the full second-moment matrix of
the flattened realization vector.  It composes with the rest of the
library the same way :class:`~repro.stats.accumulator.MomentAccumulator`
does (add / snapshot-free merging via sums), and is intended for small
matrices (the cross-moment storage is ``(n*m)**2``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["CovarianceAccumulator"]


class CovarianceAccumulator:
    """Accumulates mean vector and covariance matrix of realizations.

    Args:
        nrow: Rows of the realization matrix.
        ncol: Columns of the realization matrix; the flattened entry
            order is row-major.

    Example:
        >>> acc = CovarianceAccumulator(1, 2)
        >>> for pair in ([1.0, 2.0], [3.0, 6.0], [2.0, 4.0]):
        ...     acc.add([pair])
        >>> bool(acc.covariance()[0, 1] > 0)   # perfectly correlated
        True
    """

    def __init__(self, nrow: int, ncol: int) -> None:
        if nrow < 1 or ncol < 1:
            raise ConfigurationError(
                f"matrix dimensions must be >= 1, got {nrow}x{ncol}")
        self._shape = (nrow, ncol)
        size = nrow * ncol
        if size > 4096:
            raise ConfigurationError(
                f"covariance tracking stores (n*m)**2 = {size ** 2} "
                f"cross-moments; limit is 4096 entries")
        self._sum = np.zeros(size, dtype=np.float64)
        self._outer = np.zeros((size, size), dtype=np.float64)
        self._volume = 0
        # Realizations are staged in fixed blocks of _block rows before
        # folding (see _settle_block); the width depends only on the
        # matrix size, so block boundaries — and therefore the folded
        # bit pattern — are a pure function of the realization
        # sequence, never of how callers segment their batches.
        span = size + size * size
        self._block = max(1, min(self._BLOCK_ROWS,
                                 self._SCRATCH_BUDGET // (span * 8)))
        self._fill = 0
        self._buffer: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    @classmethod
    def from_state(cls, nrow: int, ncol: int, sum_vector, outer_matrix,
                   volume: int) -> "CovarianceAccumulator":
        """Rebuild an accumulator from persisted state sums.

        Args:
            nrow: Rows of the realization matrix.
            ncol: Columns of the realization matrix.
            sum_vector: Flat entry sums, length ``nrow * ncol``.
            outer_matrix: Cross-moment sums, ``(n*m, n*m)``.
            volume: Realizations behind the sums.
        """
        accumulator = cls(nrow, ncol)
        size = nrow * ncol
        sum_vector = np.asarray(sum_vector, dtype=np.float64)
        outer_matrix = np.asarray(outer_matrix, dtype=np.float64)
        if sum_vector.shape != (size,) \
                or outer_matrix.shape != (size, size):
            raise ConfigurationError(
                f"covariance state arrays have shapes {sum_vector.shape} "
                f"and {outer_matrix.shape}, expected ({size},) and "
                f"({size}, {size})")
        if not (np.isfinite(sum_vector).all()
                and np.isfinite(outer_matrix).all()):
            raise ConfigurationError(
                "covariance state contains non-finite values")
        if volume < 0:
            raise ConfigurationError(
                f"volume must be >= 0, got {volume}")
        accumulator._sum = sum_vector.copy()
        accumulator._outer = outer_matrix.copy()
        accumulator._volume = int(volume)
        return accumulator

    def __copy__(self) -> "CovarianceAccumulator":
        """A frozen copy (what a ``Covariance`` snapshot carries): the
        folded totals, no staging block, nothing shared."""
        total, outer = self._effective()
        frozen = object.__new__(type(self))
        frozen.__dict__.update(
            self.__dict__, _sum=total.copy(), _outer=outer.copy(),
            _fill=0, _buffer=None, _scratch=None)
        return frozen

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrow, ncol)`` of the realization matrix."""
        return self._shape

    @property
    def volume(self) -> int:
        """Realizations accumulated so far."""
        return self._volume

    @property
    def sum_vector(self) -> np.ndarray:
        """Copy of the flat entry sums (persistence state)."""
        total, _outer = self._effective()
        return total.copy()

    @property
    def outer_matrix(self) -> np.ndarray:
        """Copy of the cross-moment sums (persistence state)."""
        _total, outer = self._effective()
        return outer.copy()

    def add(self, realization) -> None:
        """Accumulate one realization matrix."""
        matrix = np.asarray(realization, dtype=np.float64)
        if matrix.shape != self._shape:
            raise ConfigurationError(
                f"realization shape {matrix.shape} does not match "
                f"{self._shape}")
        if not np.all(np.isfinite(matrix)):
            raise ConfigurationError(
                "realization contains non-finite values")
        self._fold(matrix.reshape(1, -1), 1)

    # Rows per staging block, shrunk so the (span, block) product
    # scratch stays about a megabyte even for wide matrices (a block
    # of 1 falls back to plain outer-product adds — same bits, since a
    # one-row fold is the row itself).
    _BLOCK_ROWS = 1_024
    _SCRATCH_BUDGET = 1 << 20

    def add_batch(self, realizations) -> None:
        """Accumulate a batch of realizations in one vectorized fold.

        Bit-identical to calling :meth:`add` once per batch row, in
        order: rows land in the staging buffer at positions fixed by
        their arrival index, and complete blocks fold with the same
        contiguous-axis reduction either way — the resulting bit
        pattern is a pure function of the realization sequence (on a
        fixed NumPy build), so batched and scalar runs, and backends
        with different batch widths, agree to the last bit.

        Args:
            realizations: ``(B, nrow, ncol)`` array-like (a 1-D
                length-B vector is accepted for 1x1 problems).  Any
                non-finite entry rejects the entire batch, leaving the
                accumulator unchanged.
        """
        matrices = np.asarray(realizations, dtype=np.float64)
        if matrices.ndim == 1 and self._shape == (1, 1):
            matrices = matrices.reshape(-1, 1, 1)
        if matrices.ndim != 3 or matrices.shape[1:] != self._shape:
            raise ConfigurationError(
                f"batch shape {matrices.shape} does not match the "
                f"declared (B, {self._shape[0]}, {self._shape[1]})")
        count = matrices.shape[0]
        if not count:
            return
        if not np.isfinite(matrices).all():
            raise ConfigurationError(
                "batch contains non-finite realization values")
        size = self._sum.size
        self._fold(matrices.reshape(count, size), count)

    def _fold(self, flat: np.ndarray, count: int) -> None:
        """Stage validated ``(count, size)`` rows, folding full blocks.

        Trusted fast path: callers guarantee ``flat`` is finite and
        correctly shaped (``add_batch`` validates;
        :class:`~repro.stats.statistic.StatisticSet` validates once via
        the moment accumulator and feeds every statistic directly).
        """
        if self._buffer is None:
            self._buffer = np.empty((self._block, self._sum.size),
                                    dtype=np.float64)
        size = self._sum.size
        done = 0
        while done < count:
            if self._fill == 0 and count - done >= self._block:
                # Aligned full block: fold straight from the caller's
                # rows — same positions, same fold, no staging copy.
                totals = self._fold_rows(flat[done:done + self._block])
                done += self._block
            else:
                width = min(self._block - self._fill, count - done)
                self._buffer[self._fill:self._fill + width] = \
                    flat[done:done + width]
                self._fill += width
                done += width
                if self._fill != self._block:
                    continue
                totals = self._fold_rows(self._buffer)
                self._fill = 0
            self._sum += totals[:size]
            self._outer += totals[size:].reshape(size, size)
        self._volume += count

    def _fold_rows(self, rows: np.ndarray) -> np.ndarray:
        """Deterministic ``[sum(x), vec(sum(x xᵀ))]`` of staged rows.

        The products live in a ``(span, n)`` scratch so every
        reduction runs over the contiguous axis — NumPy's pairwise
        summation there is a fixed algorithm of ``n`` alone, making
        the result independent of how the rows arrived.
        """
        n, size = rows.shape
        if self._block == 1:
            row = rows[0]
            return np.concatenate([row, np.outer(row, row).ravel()])
        span = size + size * size
        if self._scratch is None:
            self._scratch = np.empty((span, self._block),
                                     dtype=np.float64)
        scratch = self._scratch[:, :n]
        scratch[:size] = rows.T
        for i in range(size):
            for j in range(i, size):
                out = scratch[size + i * size + j]
                np.multiply(scratch[i], scratch[j], out=out)
                if j > i:
                    scratch[size + j * size + i] = out
        return np.add.reduce(scratch, axis=1)

    def _effective(self) -> tuple[np.ndarray, np.ndarray]:
        """Totals including any partially filled staging block."""
        if not self._fill:
            return self._sum, self._outer
        totals = self._fold_rows(self._buffer[:self._fill])
        size = self._sum.size
        return (self._sum + totals[:size],
                self._outer + totals[size:].reshape(size, size))

    def merge(self, other: "CovarianceAccumulator") -> None:
        """Fold another accumulator in (exact, formula-(5) style)."""
        if other.shape != self._shape:
            raise ConfigurationError(
                f"cannot merge shapes {self._shape} and {other.shape}")
        mine = self._effective()
        theirs = other._effective()
        self._sum = mine[0] + theirs[0]
        self._outer = mine[1] + theirs[1]
        self._fill = 0
        self._volume += other._volume

    def mean(self) -> np.ndarray:
        """Mean matrix, shape ``(nrow, ncol)``."""
        self._require_volume(1)
        total, _outer = self._effective()
        return (total / self._volume).reshape(self._shape)

    def covariance(self) -> np.ndarray:
        """Sample covariance of the flattened entries (biased, /L)."""
        self._require_volume(2)
        total, outer = self._effective()
        mean = total / self._volume
        return outer / self._volume - np.outer(mean, mean)

    def correlation(self) -> np.ndarray:
        """Correlation matrix; entries with zero variance yield 0."""
        covariance = self.covariance()
        stddev = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
        with np.errstate(divide="ignore", invalid="ignore"):
            matrix = covariance / np.outer(stddev, stddev)
        matrix[~np.isfinite(matrix)] = 0.0
        np.fill_diagonal(matrix, 1.0)
        return matrix

    def contrast_error(self, weights, factor: float = 3.0) -> float:
        """Error bound of a linear combination of matrix entries.

        For ``theta = sum_k w_k zeta_k`` the estimator's error is
        ``factor * sqrt(w' Sigma w / L)`` — the §2.1 formula with the
        full covariance in place of the marginal variance.

        Args:
            weights: ``(nrow, ncol)`` (or flat) weight array.
            factor: Confidence multiplier (3 = the paper's 0.997).
        """
        self._require_volume(2)
        vector = np.asarray(weights, dtype=np.float64).ravel()
        if vector.size != self._sum.size:
            raise ConfigurationError(
                f"weights must have {self._sum.size} entries, got "
                f"{vector.size}")
        variance = float(vector @ self.covariance() @ vector)
        return factor * math.sqrt(max(variance, 0.0) / self._volume)

    def _require_volume(self, minimum: int) -> None:
        if self._volume < minimum:
            raise ConfigurationError(
                f"need at least {minimum} realizations, have "
                f"{self._volume}")

    def __repr__(self) -> str:
        return (f"CovarianceAccumulator(shape={self._shape}, "
                f"volume={self._volume})")
