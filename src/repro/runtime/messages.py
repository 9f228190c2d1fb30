"""Worker-to-collector messages and their cost model.

Workers ship *cumulative* statistic snapshots: each message carries the
entire summary the worker has accumulated so far — always the moment
pair ``(sum1, sum2, l_m)``, plus whatever extra
:class:`~repro.stats.statistic.Statistic` payloads the run declared.
The collector keeps the latest snapshot per rank, so a lost or
reordered message costs freshness but never correctness — the same
robustness the asynchronous PARMONC exchange relies on.

The wire-size model is derived from the statistics actually on the
message, not from an assumed moment-only shape: every statistic
reports its own ``nbytes`` and the message adds a fixed framing
header.  For the default moments-only configuration this reproduces
the paper's Fig. 2 accounting exactly (eight 8-byte words per matrix
entry; 128,064 bytes for the 1000 x 2 performance test — the reported
"approximately 120 Kbytes" per pass).

The codec lives beside the message: :func:`pack_moments` and
:func:`unpack_moments` are the one binary layout of a cumulative
snapshot — a fixed little-endian header, ``sum1`` and ``sum2`` as raw
float64, and a JSON tail only for the rare fields.  It is the body of
every DATA frame of :mod:`repro.runtime.wire`
(:func:`message_to_payload` / :func:`message_from_payload`; 32,048
bytes for a 1000 x 2 pass, where the cost model above counts the
derived matrices too) and of every save-point
:mod:`repro.runtime.files` writes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import ConfigurationError, WireError
from repro.stats.accumulator import MOMENT_WORDS_PER_ENTRY, MomentSnapshot
from repro.stats.statistic import (
    Statistic,
    payload_map,
    statistics_from_payload_map,
)

__all__ = [
    "CombinedMessage",
    "MomentMessage",
    "message_bytes",
    "message_from_payload",
    "message_to_payload",
    "pack_moments",
    "unpack_moments",
]

#: Fixed per-message framing overhead assumed by the cost model (rank,
#: volume, timestamps, envelope).
_HEADER_BYTES = 64

#: Binary body header: flags, nrow, ncol, rank, volume, sent_at,
#: compute_time, tail length — little-endian, 48 bytes.
_BODY = struct.Struct("<4IQ2dQ")

_FLAG_FINAL = 1

#: The rare fields of a data pass, carried in the block's JSON tail.
_TAIL_KEYS = frozenset(("job", "metrics", "statistics"))


@dataclass(frozen=True)
class MomentMessage:
    """One data pass from a worker to the collector (0-th processor).

    Attributes:
        rank: Sending processor index ``m``.
        snapshot: Cumulative moments ``(sum1_m, sum2_m, l_m)``.
        sent_at: Send time in run seconds (virtual under simulation).
        final: True for the worker's last message; the collector uses
            this to detect run completion.
        metrics: Optional worker telemetry piggybacking on the data
            pass — the plain dict of
            :meth:`repro.obs.telemetry.WorkerTelemetry.as_dict`.  Like
            the moment snapshot it is cumulative, so the collector
            keeps the latest per rank and loses nothing to reordering.
        statistics: Extra cumulative statistics riding the pass, keyed
            by kind (``None`` — not an empty mapping — for the default
            moments-only run, keeping its messages byte-identical to
            the historical format).  Each value is a frozen
            :class:`~repro.stats.statistic.Statistic` snapshot with
            the same latest-per-rank semantics as the moments.
        job: Identifier of the owning :class:`~repro.runtime.job.Job`
            when the message travels through a multi-job
            :class:`~repro.runtime.scheduler.Scheduler`; ``None`` on
            the classic single-run path, keeping those messages
            byte-identical to the historical format.
    """

    rank: int
    snapshot: MomentSnapshot
    sent_at: float
    final: bool = False
    metrics: dict | None = None
    statistics: Mapping[str, Statistic] | None = field(default=None)
    job: str | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(
                f"message rank must be >= 0, got {self.rank}")
        if self.sent_at < 0.0:
            raise ConfigurationError(
                f"message send time must be >= 0, got {self.sent_at}")

    @property
    def nbytes(self) -> int:
        """Modelled wire size, derived from the payloads on board."""
        extras = (self.statistics.values()
                  if self.statistics is not None else ())
        return (_HEADER_BYTES + self.snapshot.nbytes
                + sum(statistic.nbytes for statistic in extras))


@dataclass(frozen=True)
class CombinedMessage:
    """One coalesced upstream pass from an interior reducer node.

    A reducer (see :mod:`repro.runtime.reduction`) drains everything
    its subtree delivered since its last forward, keeps the latest
    cumulative snapshot per rank, and ships them together as one
    message.  Crucially the entries stay *per-rank* — the reducer never
    pre-sums float payloads — so the collector still performs the one
    canonical rank-ordered merge and the estimates are bit-identical
    to the flat exchange by construction (float addition is not
    associative to the last ulp; only the topology changed, not the
    fold).  What the tree buys is message-count coalescing: the
    collector pays its fixed per-message overhead once per combined
    message instead of once per worker pass.

    Attributes:
        node_id: Identifier of the forwarding reducer node.
        entries: Latest-per-rank worker messages, one per distinct
            rank, in ascending rank order.
        sent_at: Forward time in run seconds.
        metrics: Optional reducer-side telemetry (level, messages
            drained since the last forward) aggregated by the collector.
        job: Identifier of the owning job when the reducer serves a
            job-scoped tree (every entry then carries the same job);
            ``None`` for a run-wide tree, keeping the classic combined
            messages byte-identical to the historical format.
    """

    node_id: str
    entries: tuple[MomentMessage, ...]
    sent_at: float
    metrics: dict | None = None
    job: str | None = None

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigurationError(
                "a combined message must carry at least one entry")
        ranks = [entry.rank for entry in self.entries]
        if len(set(ranks)) != len(ranks) or ranks != sorted(ranks):
            raise ConfigurationError(
                f"combined entries must be unique and rank-ordered, "
                f"got ranks {ranks}")
        if self.sent_at < 0.0:
            raise ConfigurationError(
                f"message send time must be >= 0, got {self.sent_at}")

    @property
    def ranks(self) -> tuple[int, ...]:
        """The distinct worker ranks on board, ascending."""
        return tuple(entry.rank for entry in self.entries)

    @property
    def final(self) -> bool:
        """True when any entry is a worker's final pass."""
        return any(entry.final for entry in self.entries)

    @property
    def nbytes(self) -> int:
        """Modelled wire size: one framing header plus the payloads.

        The combined message re-frames its entries under a single
        envelope, so coalescing k passes saves ``(k - 1)`` headers of
        fixed overhead on the wire and — far more importantly —
        ``(k - 1)`` fixed service costs at the collector.
        """
        return _HEADER_BYTES + sum(
            entry.nbytes - _HEADER_BYTES for entry in self.entries)


def message_bytes(nrow: int, ncol: int,
                  statistics: Iterable[Statistic] = ()) -> int:
    """Modelled size of one data pass for an ``nrow x ncol`` problem.

    The moment payload charges eight 8-byte words per matrix entry
    (the two moment matrices plus the derived mean/error/variance set
    the original library ships); each extra statistic contributes its
    own ``nbytes``.  With no extras this gives ``64 * nrow * ncol +
    64`` — 128,064 bytes for the paper's 1000 x 2 performance test,
    matching the reported "approximately 120 Kbytes" per pass.

    Args:
        nrow: Rows of the realization matrix.
        ncol: Columns of the realization matrix.
        statistics: Extra :class:`Statistic` payloads riding each
            pass (the non-moment members of the run's set).
    """
    if nrow < 1 or ncol < 1:
        raise ConfigurationError(
            f"matrix dimensions must be >= 1, got {nrow}x{ncol}")
    return (8 * MOMENT_WORDS_PER_ENTRY * nrow * ncol + _HEADER_BYTES
            + sum(statistic.nbytes for statistic in statistics))


def pack_moments(snapshot: MomentSnapshot, tail: Mapping, *, flags: int = 0,
                 rank: int = 0, sent_at: float = 0.0) -> bytes:
    """One cumulative snapshot in the binary moment layout.

    ``_BODY`` header, then ``sum1`` and ``sum2`` as raw little-endian
    float64 in C order — every bit pattern survives — then ``tail`` as
    a compact UTF-8 JSON object, omitted when empty.  This is the body
    of a DATA frame on the wire *and* of a save-point on disk (where
    ``flags`` and ``sent_at`` stay zero): the one place in the library
    that turns moment matrices into bytes.
    """
    if snapshot.sum1.ndim != 2:
        raise WireError(
            f"a moment block carries nrow x ncol moments, got shape "
            f"{snapshot.sum1.shape}")
    tail_bytes = (json.dumps(tail, separators=(",", ":")).encode("utf-8")
                  if tail else b"")
    nrow, ncol = snapshot.sum1.shape
    return b"".join((
        _BODY.pack(flags, nrow, ncol, rank, snapshot.volume, sent_at,
                   snapshot.compute_time, len(tail_bytes)),
        np.ascontiguousarray(snapshot.sum1, dtype="<f8").tobytes(),
        np.ascontiguousarray(snapshot.sum2, dtype="<f8").tobytes(),
        tail_bytes))


def unpack_moments(body: bytes
                   ) -> tuple[int, int, float, MomentSnapshot, dict]:
    """Inverse of :func:`pack_moments`.

    Returns ``(flags, rank, sent_at, snapshot, tail)``.  The bytes come
    from another host or from a disk that may have rotted: the length
    is checked against the announced shape and tail length before
    anything is allocated, and every way the block can be malformed
    raises :class:`WireError`.  What the tail may *hold* is the
    caller's to judge.
    """
    if len(body) < _BODY.size:
        raise WireError(
            f"moment block of {len(body)} bytes is shorter than its "
            f"{_BODY.size}-byte header")
    (flags, nrow, ncol, rank, volume, sent_at, compute_time,
     tail_len) = _BODY.unpack_from(body)
    if nrow < 1 or ncol < 1:
        raise WireError(f"moment block announces a {nrow}x{ncol} matrix")
    entries = nrow * ncol
    tail_at = _BODY.size + 16 * entries
    if len(body) != tail_at + tail_len:
        raise WireError(
            f"moment block announces {nrow}x{ncol} moments and a "
            f"{tail_len}-byte tail ({tail_at + tail_len} bytes) but "
            f"carries {len(body)}")
    if not (math.isfinite(sent_at) and math.isfinite(compute_time)):
        raise WireError("moment block carries a non-finite timestamp")
    try:
        tail = json.loads(bytes(body[tail_at:])) if tail_len else {}
        if not isinstance(tail, dict):
            raise WireError("moment block tail is not a JSON object")
        moments = np.frombuffer(body, dtype="<f8", count=2 * entries,
                                offset=_BODY.size).astype(np.float64)
        snapshot = MomentSnapshot(
            sum1=moments[:entries].reshape(nrow, ncol),
            sum2=moments[entries:].reshape(nrow, ncol),
            volume=volume, compute_time=compute_time)
    except (ValueError, RecursionError, ConfigurationError) as exc:
        raise WireError(f"malformed moment block: {exc}") from exc
    return flags, rank, sent_at, snapshot, tail


def message_to_payload(message: MomentMessage) -> bytes:
    """Serialize a data pass: its snapshot through :func:`pack_moments`.

    The tail exists only when the message carries a job tag, worker
    telemetry or extra statistics (statistics in the versioned
    :func:`~repro.stats.statistic.payload_map` form the save-points
    use).
    """
    tail = {}
    if message.job is not None:
        tail["job"] = message.job
    if message.metrics is not None:
        tail["metrics"] = message.metrics
    if message.statistics is not None:
        tail["statistics"] = payload_map(message.statistics)
    return pack_moments(message.snapshot, tail,
                        flags=_FLAG_FINAL if message.final else 0,
                        rank=message.rank, sent_at=message.sent_at)


def message_from_payload(body: bytes) -> MomentMessage:
    """Rebuild a :class:`MomentMessage` from its binary layout.

    :func:`unpack_moments` vouches for the block's structure; this
    adds what only a data pass promises — known flags, a tail of
    ``job``/``metrics``/``statistics``, statistics of the pass's own
    shape and of kinds registered here.
    """
    flags, rank, sent_at, snapshot, tail = unpack_moments(body)
    if flags & ~_FLAG_FINAL:
        raise WireError(f"data pass carries unknown flags {flags:#x}")
    if not _TAIL_KEYS.issuperset(tail):
        raise WireError("data pass tail is not an object of "
                        "job/metrics/statistics")
    job, metrics = tail.get("job"), tail.get("metrics")
    if not isinstance(job, (str, type(None))) \
            or not isinstance(metrics, (dict, type(None))):
        raise WireError("data pass tail has a mistyped job or metrics")
    try:
        statistics = None
        if "statistics" in tail:
            for kind, entry in tail["statistics"].items():
                # A statistic allocates what its shape announces; only
                # the pass's own, length-checked shape is believed.
                if entry.get("shape") != list(snapshot.shape):
                    raise WireError(
                        f"statistic {kind!r} does not share the pass's "
                        f"{snapshot.shape[0]}x{snapshot.shape[1]} shape")
            statistics, unknown = statistics_from_payload_map(
                tail["statistics"])
            if unknown:
                raise WireError(
                    f"data frame carries unregistered statistic kinds "
                    f"{unknown}; register them on the collector side")
        return MomentMessage(
            rank=rank, snapshot=snapshot, sent_at=sent_at,
            final=bool(flags & _FLAG_FINAL), metrics=metrics,
            statistics=statistics, job=job)
    except WireError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            OverflowError, RecursionError, ConfigurationError) as exc:
        raise WireError(f"malformed data pass: {exc}") from exc
