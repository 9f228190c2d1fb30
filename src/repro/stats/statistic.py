"""Mergeable statistics: the generalized worker-to-collector payload.

PARMONC's exchange ships one summary — the cumulative moment pair
``(sum1, sum2, l_m)`` of a :class:`~repro.stats.accumulator
.MomentSnapshot`.  This module adds a :class:`Statistic` protocol: a
mergeable, serializable cumulative summary of a sample of realization
matrices.  A run's extra statistics ride *inside* the moment snapshot
(its ``extras``), so they travel the existing exchange end-to-end —
worker accumulation, message payloads, collector merging, save-points,
``manaver`` recovery and ``parmonc-report`` rendering — as one value
with the moments.  ``"moments"`` itself is the reserved kind every
selection starts with; it is the snapshot, not a :class:`Statistic`.

A statistic must be

* **cumulative** — ``update(values, count)`` folds realizations in;
  snapshots carry totals, never averages, so collector-side merging
  loses no precision (the formula-(5) argument, generalized);
* **exactly mergeable** — ``merge(other)`` of two disjoint samples
  equals accumulating their union, so per-processor subtotals, resumed
  sessions and ``manaver`` recovery are all the same arithmetic;
* **serializable** — ``to_payload()`` / ``from_payload()`` round-trip
  through plain JSON types for save-points and subtotal files; and
* **costed** — ``nbytes`` models the statistic's wire size, feeding
  the simulated cluster's exchange cost model.

Four implementations ship beside the moments:
:class:`Covariance` (full cross-moments of the flattened entries),
:class:`Histogram` (fixed-bin counts with underflow/overflow),
:class:`Extrema` (per-entry min/max) and :class:`Counter` (per-entry
sign counts).  User statistics register with
:func:`register_statistic` and are selected per run via
``parmonc(..., statistics=[...])``.

Batched accumulation (``update`` with ``count > 1``) is bit-identical
to repeated single updates for every shipped statistic: integer and
min/max folds are associative exactly (the moments fold with the
strictly sequential chunked reduction of
:meth:`~repro.stats.accumulator.MomentAccumulator.add_batch`), and
:class:`Covariance` stages rows in fixed blocks (1 024 rows, fewer for
wide matrices) and reduces each full block pairwise, so its block
boundaries depend only on the realization index.  All backends
therefore produce identical statistics for the same seed, whatever
block widths their schedulers happen to pick.  A covariance rebuilt
from its persisted state starts a new block, so a resumed run does not
reach the bits of an uninterrupted one.
"""

from __future__ import annotations

import copy
from typing import ClassVar, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.stats.accumulator import MomentAccumulator
from repro.stats.covariance import CovarianceAccumulator

__all__ = [
    "DEFAULT_STATISTICS",
    "Counter",
    "Covariance",
    "Extrema",
    "Histogram",
    "Statistic",
    "StatisticSet",
    "create_statistic",
    "normalize_statistics",
    "payload_map",
    "register_statistic",
    "statistic_class",
    "statistic_from_payload",
    "statistic_kinds",
    "statistics_from_payload_map",
]

#: The reserved kind of the moment pair, first in every selection.
MOMENTS = "moments"

#: The statistics every run tracks unless told otherwise.
DEFAULT_STATISTICS: tuple[str, ...] = (MOMENTS,)


class Statistic:
    """A mergeable, serializable cumulative summary of realizations.

    Subclasses set the class attribute :attr:`kind` (the registry key
    and payload tag), implement :meth:`_update` and :meth:`_merge`,
    and contribute their state to :meth:`to_payload` /
    :meth:`_restore`.  The base class owns the shared bookkeeping:
    shape validation, volume counting, payload envelope and the
    normalization of scalar/batch inputs.

    Construction is always ``cls(nrow, ncol)`` — the realization
    matrix shape — so the registry can instantiate any statistic for
    any run; parameterized variants (custom histogram ranges, ...)
    subclass and register under their own kind.
    """

    #: Registry key and payload ``"kind"`` tag; subclasses override.
    kind: ClassVar[str] = "abstract"

    #: Names of reusable batch-scratch attributes (each an ndarray or
    #: None); :meth:`snapshot` leaves them behind.
    _scratch_names: ClassVar[frozenset[str]] = frozenset()

    def __init__(self, nrow: int, ncol: int) -> None:
        if nrow < 1 or ncol < 1:
            raise ConfigurationError(
                f"matrix dimensions must be >= 1, got {nrow}x{ncol}")
        self._shape = (nrow, ncol)
        self._volume = 0

    # -- protocol ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrow, ncol)`` of the realization matrix."""
        return self._shape

    @property
    def volume(self) -> int:
        """Realizations accumulated so far."""
        return self._volume

    @property
    def nbytes(self) -> int:
        """Modelled wire size of this statistic's cumulative state.

        Feeds the simulated cluster's exchange cost model; the default
        charges eight bytes per state word reported by :meth:`_words`.
        """
        return 8 * self._words()

    def update(self, values, count: int = 1) -> None:
        """Accumulate ``count`` realizations.

        Args:
            values: One ``nrow x ncol`` matrix when ``count`` is 1 (a
                scalar is accepted for 1x1 problems), else a
                ``(count, nrow, ncol)`` stack (a length-``count``
                vector for 1x1 problems).  Non-finite entries reject
                the whole update, leaving the statistic unchanged.
            count: Number of realizations in ``values``.
        """
        matrices = self._normalize(values, count)
        if matrices.shape[0]:
            self._update(matrices)
        self._volume += matrices.shape[0]

    def merge(self, other: "Statistic") -> None:
        """Fold another statistic of the same kind and shape into this.

        Exact: merging disjoint samples equals accumulating their
        union, in the order the parts are merged.
        """
        if other.kind != self.kind:
            raise ConfigurationError(
                f"cannot merge statistic kind {other.kind!r} into "
                f"{self.kind!r}")
        if other.shape != self._shape:
            raise ConfigurationError(
                f"cannot merge {self.kind} statistics of shapes "
                f"{self._shape} and {other.shape}")
        self._merge(other)
        self._volume += other.volume

    def snapshot(self) -> "Statistic":
        """An independent copy of the cumulative state, minus scratch.

        ``_scratch_names`` come out as None; everything else through
        :func:`copy.copy` — arrays by value, an accumulator by its own
        ``__copy__`` — so a snapshot is as small as its payload.  A
        subclass with state in nested containers overrides this.
        """
        clone = object.__new__(type(self))
        scratch = self._scratch_names
        clone.__dict__.update(
            (name, None if name in scratch else copy.copy(value))
            for name, value in self.__dict__.items())
        return clone

    def to_payload(self) -> dict:
        """Serialize to plain JSON types (save-points, subtotals)."""
        payload = {
            "kind": self.kind,
            "shape": list(self._shape),
            "volume": int(self.volume),
        }
        payload.update(self._payload())
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Statistic":
        """Rebuild a statistic serialized by :meth:`to_payload`."""
        try:
            if payload.get("kind") != cls.kind:
                raise ValueError(
                    f"payload kind {payload.get('kind')!r} is not "
                    f"{cls.kind!r}")
            nrow, ncol = (int(v) for v in payload["shape"])
            statistic = cls(nrow, ncol)
            statistic._restore(payload)
            statistic._volume = int(payload["volume"])
            if statistic._volume < 0:
                raise ValueError("volume must be >= 0")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed {cls.kind} statistic payload: {exc}") from exc
        return statistic

    def describe(self) -> str:
        """One-line human summary (``parmonc-report`` fallback)."""
        return f"{self.kind}: volume={self.volume}"

    # -- subclass hooks ----------------------------------------------------

    def _update(self, matrices: np.ndarray) -> None:
        """Fold a non-empty ``(B, nrow, ncol)`` stack into the state."""
        raise NotImplementedError

    def _merge(self, other: "Statistic") -> None:
        """Fold ``other``'s state in (volumes handled by the base)."""
        raise NotImplementedError

    def _payload(self) -> dict:
        """Subclass state for :meth:`to_payload`."""
        raise NotImplementedError

    def _restore(self, payload: dict) -> None:
        """Load subclass state written by :meth:`_payload`."""
        raise NotImplementedError

    def _words(self) -> int:
        """State size in 8-byte words for the :attr:`nbytes` model."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    @property
    def _size(self) -> int:
        return self._shape[0] * self._shape[1]

    def _normalize(self, values, count: int) -> np.ndarray:
        """Coerce ``values`` into a finite ``(count, nrow, ncol)`` stack."""
        if count < 0:
            raise ConfigurationError(f"count must be >= 0, got {count}")
        matrices = np.asarray(values, dtype=np.float64)
        if count == 1:
            if matrices.shape == () and self._shape == (1, 1):
                matrices = matrices.reshape(1, 1)
            if matrices.shape != self._shape:
                raise ConfigurationError(
                    f"realization shape {matrices.shape} does not match "
                    f"the declared {self._shape}")
            matrices = matrices[np.newaxis]
        else:
            if matrices.ndim == 1 and self._shape == (1, 1):
                matrices = matrices.reshape(-1, 1, 1)
            if matrices.ndim != 3 or matrices.shape[1:] != self._shape \
                    or matrices.shape[0] != count:
                raise ConfigurationError(
                    f"batch shape {matrices.shape} does not match the "
                    f"declared ({count}, {self._shape[0]}, "
                    f"{self._shape[1]})")
        if matrices.size and not np.isfinite(matrices).all():
            raise ConfigurationError(
                "realizations contain non-finite values")
        return matrices

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(shape={self._shape}, "
                f"volume={self._volume})")


# ---------------------------------------------------------------------------
# Registry

_REGISTRY: dict[str, type[Statistic]] = {}


def register_statistic(cls: type[Statistic]) -> type[Statistic]:
    """Register a :class:`Statistic` subclass under its ``kind``.

    Usable as a decorator.  Registered kinds are what
    ``parmonc(statistics=[...])`` and ``--statistics`` accept, and what
    save-point payloads deserialize through.  Re-registering the same
    class is a no-op; claiming another class's kind, or the reserved
    ``"moments"``, is an error.

    Example:
        >>> @register_statistic                         # doctest: +SKIP
        ... class TailCount(Statistic):
        ...     kind = "tail-count"
    """
    kind = getattr(cls, "kind", None)
    if not isinstance(kind, str) or not kind or kind == "abstract":
        raise ConfigurationError(
            f"statistic class {cls.__name__} must define a non-empty "
            f"'kind' attribute")
    if kind == MOMENTS:
        raise ConfigurationError(
            f"statistic kind {MOMENTS!r} is reserved for the moment "
            f"pair every run carries")
    existing = _REGISTRY.get(kind)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"statistic kind {kind!r} is already registered by "
            f"{existing.__name__}")
    _REGISTRY[kind] = cls
    return cls


def statistic_kinds() -> tuple[str, ...]:
    """Every selectable kind: ``"moments"``, then the registered
    statistics in registration order."""
    return (MOMENTS, *_REGISTRY)


def statistic_class(kind: str) -> type[Statistic]:
    """The registered class for ``kind``."""
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown statistic kind {kind!r}; registered kinds: "
            f"{tuple(_REGISTRY)}")
    return cls


def create_statistic(kind: str, nrow: int, ncol: int) -> Statistic:
    """Instantiate a registered statistic for an ``nrow x ncol`` run."""
    return statistic_class(kind)(nrow, ncol)


def normalize_statistics(spec) -> tuple[str, ...]:
    """Canonicalize a user statistics selection.

    Accepts None (the default), a comma-separated string, or a
    sequence of kind names.  The result always lists ``"moments"``
    first — the moment pair drives estimates, completion accounting
    and resumption, so every run carries it — followed by the extra
    kinds in first-mention order, deduplicated.

    Raises:
        ConfigurationError: On unknown or non-string kinds.
    """
    if spec is None:
        return DEFAULT_STATISTICS
    if isinstance(spec, str):
        parts: Sequence = [part.strip() for part in spec.split(",")
                           if part.strip()]
    else:
        parts = list(spec)
    extras: list[str] = []
    for part in parts:
        if not isinstance(part, str):
            raise ConfigurationError(
                f"statistic kinds must be strings, got {part!r}")
        if part != MOMENTS:
            statistic_class(part)
            if part not in extras:
                extras.append(part)
    return (MOMENTS, *extras)


def statistic_from_payload(payload: dict) -> Statistic:
    """Deserialize one statistic payload via the registry."""
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"statistic payload must be an object, got "
            f"{type(payload).__name__}")
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise ConfigurationError("statistic payload carries no kind tag")
    return statistic_class(kind).from_payload(payload)


def statistics_from_payload_map(
        payloads: Mapping[str, dict], shape: tuple[int, int] | None = None
        ) -> tuple[dict[str, Statistic], tuple[str, ...]]:
    """Deserialize a ``{kind: payload}`` map from a save-point.

    Returns ``(statistics, unknown)``: the statistics whose kinds are
    registered, plus the kinds that are not — written by a newer
    version or by a custom statistic that is not imported here.  The
    caller decides how loudly to surface the unknowns; they are never
    silently invented or destroyed (the artifact keeps them).

    ``shape``, when given, is the moments' ``(nrow, ncol)``: every
    registered kind's payload must announce it before it is built — a
    statistic allocates what its shape announces.

    Raises:
        ConfigurationError: On a payload filed under another kind's
            name, of another shape, or malformed.
    """
    statistics: dict[str, Statistic] = {}
    unknown: list[str] = []
    for kind, payload in payloads.items():
        if kind not in _REGISTRY:
            unknown.append(kind)
            continue
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"statistic {kind!r} payload is not an object")
        if shape is not None and payload.get("shape") != list(shape):
            raise ConfigurationError(
                f"statistic {kind!r} does not share the moments' "
                f"{shape[0]}x{shape[1]} shape")
        # The class filed under this name: a payload tagged with
        # another kind is malformed, not silently kept under this one.
        statistics[kind] = statistic_class(kind).from_payload(payload)
    return statistics, tuple(unknown)


def payload_map(statistics: Mapping[str, Statistic]) -> dict[str, dict]:
    """Serialize a ``{kind: statistic}`` map for persistence."""
    return {kind: statistic.to_payload()
            for kind, statistic in statistics.items()}


# ---------------------------------------------------------------------------
# Implementations


@register_statistic
class Covariance(Statistic):
    """Full cross-moments of the flattened realization entries.

    Promotes :class:`~repro.stats.covariance.CovarianceAccumulator`
    into the exchange: the state is ``(sum, outer, volume)`` — plain
    sums, so merging is exact.  Rows are staged in fixed blocks, each
    reduced pairwise when full, so a batched update equals the same
    rows added one by one, bit for bit.  An accumulator rebuilt from
    its state does not resume to the same bits: its first block starts
    at the rebuild, not at the uninterrupted run's block boundary.
    """

    kind = "covariance"

    def __init__(self, nrow: int, ncol: int) -> None:
        super().__init__(nrow, ncol)
        self._accumulator = CovarianceAccumulator(nrow, ncol)

    @property
    def accumulator(self) -> CovarianceAccumulator:
        """The wrapped accumulator (correlation/contrast queries)."""
        return self._accumulator

    def _update(self, matrices: np.ndarray) -> None:
        count = matrices.shape[0]
        size = matrices.shape[1] * matrices.shape[2]
        self._accumulator._fold(matrices.reshape(count, size), count)

    def _merge(self, other: "Covariance") -> None:
        self._accumulator.merge(other._accumulator)

    def _payload(self) -> dict:
        return {
            "sum": self._accumulator.sum_vector.tolist(),
            "outer": self._accumulator.outer_matrix.tolist(),
        }

    def _restore(self, payload: dict) -> None:
        self._accumulator = CovarianceAccumulator.from_state(
            self._shape[0], self._shape[1],
            np.asarray(payload["sum"], dtype=np.float64),
            np.asarray(payload["outer"], dtype=np.float64),
            int(payload["volume"]))

    def _words(self) -> int:
        return self._size + self._size * self._size + 1

    def describe(self) -> str:
        return (f"covariance: volume={self.volume}, "
                f"{self._size}x{self._size} cross-moment matrix")


@register_statistic
class Histogram(Statistic):
    """Fixed-bin per-entry histograms, exactly mergeable.

    Every matrix entry gets its own counts over ``bins`` equal-width
    bins spanning ``[lo, hi)``, plus underflow and overflow counters —
    no realization is ever dropped, only coarsened.  Integer counts
    make merging exact and order-free.  The default range is
    deliberately wide; subclass and re-register under a new kind for a
    problem-specific range (see ``docs/api.md``).
    """

    kind = "histogram"

    _scratch_names = frozenset(("_scaled", "_codes", "_tiled_base"))

    #: Default binning; subclasses override for custom ranges.
    DEFAULT_BINS = 64
    DEFAULT_LO = -8.0
    DEFAULT_HI = 8.0

    def __init__(self, nrow: int, ncol: int, bins: int | None = None,
                 lo: float | None = None, hi: float | None = None) -> None:
        super().__init__(nrow, ncol)
        self._bins = int(bins if bins is not None else self.DEFAULT_BINS)
        self._lo = float(lo if lo is not None else self.DEFAULT_LO)
        self._hi = float(hi if hi is not None else self.DEFAULT_HI)
        if self._bins < 1:
            raise ConfigurationError(
                f"histogram needs >= 1 bin, got {self._bins}")
        if not (np.isfinite(self._lo) and np.isfinite(self._hi)) \
                or self._lo >= self._hi:
            raise ConfigurationError(
                f"histogram range must be finite with lo < hi, got "
                f"[{self._lo}, {self._hi})")
        # Column 0 is underflow, column bins+1 overflow.
        self._counts = np.zeros((self._size, self._bins + 2),
                                dtype=np.int64)
        self._inv_width = self._bins / (self._hi - self._lo)
        # The scaled value ``v * inv_width - shift`` equals
        # ``(v - lo) * inv_width + 1`` up to rounding: clamped to
        # [0, bins + 1] it is non-negative, so integer truncation is
        # floor, 0 is the underflow column and bins + 1 the overflow.
        self._shift = self._lo * self._inv_width - 1.0
        # Flat-code offset per entry: entry k owns code range
        # [k*(bins+2), (k+1)*(bins+2)).
        self._code_base = (np.arange(self._size, dtype=np.int64)
                           * (self._bins + 2))
        # Reused batch scratch; never part of snapshots or payloads.
        self._scaled: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._tiled_base: np.ndarray | None = None

    @property
    def bins(self) -> int:
        """Number of in-range bins."""
        return self._bins

    @property
    def bin_edges(self) -> np.ndarray:
        """The ``bins + 1`` bin edges over ``[lo, hi]``."""
        return np.linspace(self._lo, self._hi, self._bins + 1)

    @property
    def entry_counts(self) -> np.ndarray:
        """In-range counts per entry, shape ``(nrow * ncol, bins)``."""
        return self._counts[:, 1:-1].copy()

    @property
    def bin_counts(self) -> np.ndarray:
        """In-range counts aggregated over all entries, length ``bins``."""
        return self._counts[:, 1:-1].sum(axis=0)

    @property
    def underflow(self) -> int:
        """Values below ``lo``, summed over entries."""
        return int(self._counts[:, 0].sum())

    @property
    def overflow(self) -> int:
        """Values at or above ``hi``, summed over entries."""
        return int(self._counts[:, -1].sum())

    def _update(self, matrices: np.ndarray) -> None:
        count = matrices.shape[0]
        flat = matrices.reshape(count, self._size)
        need = count * self._size
        if self._scaled is None or self._scaled.size < need:
            self._scaled = np.empty(need, dtype=np.float64)
            self._codes = np.empty(need, dtype=np.int64)
            # Pre-tiled per-entry offsets: a contiguous add is several
            # times faster than broadcasting the (size,) base row.
            self._tiled_base = np.tile(self._code_base, count)
        scaled = self._scaled[:need].reshape(count, self._size)
        codes = self._codes[:need]
        np.multiply(flat, self._inv_width, out=scaled)
        scaled -= self._shift
        np.maximum(scaled, 0.0, out=scaled)
        np.minimum(scaled, self._bins + 1.0, out=scaled)
        np.copyto(codes, scaled.reshape(need), casting="unsafe")
        codes += self._tiled_base[:need]
        self._counts += np.bincount(
            codes, minlength=self._size * (self._bins + 2)
        ).reshape(self._size, self._bins + 2)

    def _merge(self, other: "Histogram") -> None:
        if (other._bins, other._lo, other._hi) \
                != (self._bins, self._lo, self._hi):
            raise ConfigurationError(
                f"cannot merge histograms with different binning: "
                f"{self._bins}@[{self._lo},{self._hi}) vs "
                f"{other._bins}@[{other._lo},{other._hi})")
        self._counts += other._counts

    def _payload(self) -> dict:
        return {
            "bins": self._bins,
            "lo": self._lo,
            "hi": self._hi,
            "counts": self._counts[:, 1:-1].tolist(),
            "underflow": self._counts[:, 0].tolist(),
            "overflow": self._counts[:, -1].tolist(),
        }

    def _restore(self, payload: dict) -> None:
        bins = int(payload["bins"])
        counts = np.asarray(payload["counts"], dtype=np.int64)
        underflow = np.asarray(payload["underflow"], dtype=np.int64)
        overflow = np.asarray(payload["overflow"], dtype=np.int64)
        # Shapes first: ``bins`` is only believed (and allocated for)
        # once the counts actually present bear it out.
        if counts.shape != (self._size, bins) \
                or underflow.shape != (self._size,) \
                or overflow.shape != (self._size,):
            raise ValueError("histogram count arrays have wrong shapes")
        if (counts < 0).any() or (underflow < 0).any() \
                or (overflow < 0).any():
            raise ValueError("histogram counts must be >= 0")
        rebuilt = type(self)(self._shape[0], self._shape[1], bins=bins,
                             lo=float(payload["lo"]),
                             hi=float(payload["hi"]))
        rebuilt._counts[:, 1:-1] = counts
        rebuilt._counts[:, 0] = underflow
        rebuilt._counts[:, -1] = overflow
        self.__dict__.update(rebuilt.__dict__)

    def _words(self) -> int:
        return self._size * (self._bins + 2) + 3

    def describe(self) -> str:
        return (f"histogram: volume={self._volume}, {self._bins} bins "
                f"over [{self._lo:g}, {self._hi:g}), "
                f"underflow={self.underflow}, overflow={self.overflow}")


@register_statistic
class Extrema(Statistic):
    """Per-entry running minimum and maximum.

    Min/max are associative and idempotent, so merging is exact in any
    order.  An empty statistic carries no extrema (payload nulls).
    """

    kind = "extrema"
    _scratch_names = frozenset(("_scratch",))

    def __init__(self, nrow: int, ncol: int) -> None:
        super().__init__(nrow, ncol)
        self._min = np.full(self._shape, np.inf)
        self._max = np.full(self._shape, -np.inf)
        # Reused batch scratch; never part of snapshots or payloads.
        self._scratch: np.ndarray | None = None

    @property
    def minimum(self) -> np.ndarray:
        """Per-entry minima (``+inf`` where nothing accumulated)."""
        return self._min.copy()

    @property
    def maximum(self) -> np.ndarray:
        """Per-entry maxima (``-inf`` where nothing accumulated)."""
        return self._max.copy()

    def _update(self, matrices: np.ndarray) -> None:
        # Min/max are exact in any order, so reduce a transposed copy
        # along its contiguous axis — far faster than a strided
        # axis-0 reduction over the batch.
        count = matrices.shape[0]
        if self._scratch is None or self._scratch.shape[1] < count:
            self._scratch = np.empty((self._size, count))
        scratch = self._scratch[:, :count]
        scratch[:] = matrices.reshape(count, self._size).T
        np.minimum(self._min, scratch.min(axis=1).reshape(self._shape),
                   out=self._min)
        np.maximum(self._max, scratch.max(axis=1).reshape(self._shape),
                   out=self._max)

    def _merge(self, other: "Extrema") -> None:
        np.minimum(self._min, other._min, out=self._min)
        np.maximum(self._max, other._max, out=self._max)

    def _payload(self) -> dict:
        if self._volume == 0:
            return {"min": None, "max": None}
        return {"min": self._min.tolist(), "max": self._max.tolist()}

    def _restore(self, payload: dict) -> None:
        if payload["min"] is None or payload["max"] is None:
            if int(payload["volume"]) != 0:
                raise ValueError("non-empty extrema payload lacks bounds")
            return
        minimum = np.asarray(payload["min"], dtype=np.float64)
        maximum = np.asarray(payload["max"], dtype=np.float64)
        if minimum.shape != self._shape or maximum.shape != self._shape:
            raise ValueError("extrema arrays have wrong shapes")
        self._min = minimum
        self._max = maximum

    def _words(self) -> int:
        return 2 * self._size + 1

    def describe(self) -> str:
        if self._volume == 0:
            return "extrema: empty"
        return (f"extrema: volume={self._volume}, "
                f"min={self._min.min():g}, max={self._max.max():g}")


@register_statistic
class Counter(Statistic):
    """Per-entry sign counts: negative, zero and positive realizations.

    The cheapest useful event counter — e.g. the frequency a payoff
    ends in the money, or how often a trajectory entry pins at zero —
    and a template for custom event counters.  Integer counts merge
    exactly in any order.
    """

    kind = "counter"
    _scratch_names = frozenset(("_scratch", "_flags"))

    def __init__(self, nrow: int, ncol: int) -> None:
        super().__init__(nrow, ncol)
        self._negative = np.zeros(self._shape, dtype=np.int64)
        self._zero = np.zeros(self._shape, dtype=np.int64)
        self._positive = np.zeros(self._shape, dtype=np.int64)
        # Reused batch scratch; never part of snapshots or payloads.
        self._scratch: np.ndarray | None = None
        self._flags: np.ndarray | None = None

    @property
    def negative(self) -> np.ndarray:
        """Per-entry count of strictly negative realizations."""
        return self._negative.copy()

    @property
    def zero(self) -> np.ndarray:
        """Per-entry count of exactly-zero realizations."""
        return self._zero.copy()

    @property
    def positive(self) -> np.ndarray:
        """Per-entry count of strictly positive realizations."""
        return self._positive.copy()

    def _update(self, matrices: np.ndarray) -> None:
        # Sign counts are exact integers in any order: compare a
        # transposed copy and sum flags along the contiguous axis,
        # deriving the positive count from the other two.
        count = matrices.shape[0]
        if self._scratch is None or self._scratch.shape[1] < count:
            self._scratch = np.empty((self._size, count))
            self._flags = np.empty((self._size, count), dtype=bool)
        scratch = self._scratch[:, :count]
        flags = self._flags[:, :count]
        scratch[:] = matrices.reshape(count, self._size).T
        np.less(scratch, 0.0, out=flags)
        negative = flags.sum(axis=1)
        np.equal(scratch, 0.0, out=flags)
        zero = flags.sum(axis=1)
        self._negative += negative.reshape(self._shape)
        self._zero += zero.reshape(self._shape)
        self._positive += (count - negative - zero).reshape(self._shape)

    def _merge(self, other: "Counter") -> None:
        self._negative += other._negative
        self._zero += other._zero
        self._positive += other._positive

    def _payload(self) -> dict:
        return {
            "negative": self._negative.tolist(),
            "zero": self._zero.tolist(),
            "positive": self._positive.tolist(),
        }

    def _restore(self, payload: dict) -> None:
        for name in ("negative", "zero", "positive"):
            counts = np.asarray(payload[name], dtype=np.int64)
            if counts.shape != self._shape:
                raise ValueError(f"counter {name} array has wrong shape")
            if (counts < 0).any():
                raise ValueError("counter counts must be >= 0")
            setattr(self, f"_{name}", counts)

    def _words(self) -> int:
        return 3 * self._size + 1

    def describe(self) -> str:
        return (f"counter: volume={self._volume}, "
                f"negative={int(self._negative.sum())}, "
                f"zero={int(self._zero.sum())}, "
                f"positive={int(self._positive.sum())}")


# ---------------------------------------------------------------------------
# The per-worker set


class StatisticSet:
    """The statistics one worker accumulates and ships.

    Owns the run's moment accumulator and its extras, and presents the
    two operations the worker loops need: fold a realization (or batch)
    into everything, and snapshot the extras for a data pass.  With no
    extras declared, both collapse to exactly the historical
    moment-only code path.
    """

    def __init__(self, moments: MomentAccumulator,
                 extras: Sequence[Statistic] = ()) -> None:
        for statistic in extras:
            if statistic.shape != moments.shape:
                raise ConfigurationError(
                    f"statistic {statistic.kind!r} has shape "
                    f"{statistic.shape}, expected {moments.shape}")
        self._moments = moments
        self._extras = tuple(extras)

    @classmethod
    def for_run(cls, kinds: Sequence[str], nrow: int,
                ncol: int) -> "StatisticSet":
        """Instantiate the declared kinds for an ``nrow x ncol`` run."""
        kinds = normalize_statistics(kinds)
        return cls(MomentAccumulator(nrow, ncol),
                   [create_statistic(kind, nrow, ncol) for kind in kinds[1:]])

    @property
    def shape(self) -> tuple[int, int]:
        """``(nrow, ncol)`` of the realization matrix."""
        return self._moments.shape

    @property
    def moments(self) -> MomentAccumulator:
        """The moment accumulator (the worker hot loop's handle)."""
        return self._moments

    @property
    def extras(self) -> tuple[Statistic, ...]:
        """The non-moment statistics, in declaration order."""
        return self._extras

    @property
    def kinds(self) -> tuple[str, ...]:
        """Every kind in this set, moments first."""
        return (MOMENTS, *(statistic.kind for statistic in self._extras))

    def update(self, values, compute_time: float = 0.0) -> None:
        """Fold one realization into every statistic.

        The moment accumulator validates first (shape, finiteness) and
        raises before any statistic is touched, so a rejected
        realization never leaves the set half-updated.
        """
        self._moments.add(values, compute_time=compute_time)
        for statistic in self._extras:
            statistic.update(values)

    def update_batch(self, values, compute_time: float = 0.0) -> None:
        """Fold a ``(B, nrow, ncol)`` batch into every statistic.

        The moment accumulator validates the whole stack (shape,
        finiteness) and raises before any extra is touched; the extras
        then fold the already-validated stack through their raw
        ``_update`` hooks, skipping per-statistic re-validation — this
        is what keeps piggybacked statistics cheap on the batched fast
        path (see ``benchmarks/test_bench_statistics_overhead.py``).
        """
        self._moments.add_batch(values, compute_time=compute_time)
        if not self._extras:
            return
        matrices = np.asarray(values, dtype=np.float64)
        if matrices.ndim == 1:
            matrices = matrices.reshape(-1, 1, 1)
        count = matrices.shape[0]
        if not count:
            return
        for statistic in self._extras:
            statistic._update(matrices)
            statistic._volume += count

    def extras_snapshot(self) -> dict[str, Statistic] | None:
        """Frozen copies of the extras for a pass's snapshot, or None.

        None — not an empty dict — so the default moments-only snapshot
        is byte-for-byte the historical one.
        """
        if not self._extras:
            return None
        return {statistic.kind: statistic.snapshot()
                for statistic in self._extras}
