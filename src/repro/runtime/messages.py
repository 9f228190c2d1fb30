"""Worker-to-collector messages and their cost model.

Workers ship *cumulative* statistic snapshots: each message carries the
entire summary the worker has accumulated so far — one
:class:`~repro.stats.accumulator.MomentSnapshot`, the moment pair
``(sum1, sum2, l_m)`` with whatever extra
:class:`~repro.stats.statistic.Statistic` payloads the run declared
riding inside it.  The collector keeps the latest snapshot per rank, so
a lost or reordered message costs freshness but never correctness — the
same robustness the asynchronous PARMONC exchange relies on.

The wire-size model is derived from the statistics actually on the
message, not from an assumed moment-only shape: every statistic
reports its own ``nbytes`` and the message adds a fixed framing
header.  For the default moments-only configuration this reproduces
the paper's Fig. 2 accounting exactly (eight 8-byte words per matrix
entry; 128,064 bytes for the 1000 x 2 performance test — the reported
"approximately 120 Kbytes" per pass).

The codec lives beside the message: :func:`write_moments` and
:func:`unpack_moments` are the one binary layout of a cumulative
snapshot — a fixed little-endian header, ``sum1`` and ``sum2`` as raw
float64, and a JSON tail only for the rare fields, the extras' payloads
among them (:func:`take_statistics` is their one reader).  It is the
body of every pass on every hop — pipe, tree edge
(:func:`combined_to_payload`) or DATA frame of :mod:`repro.runtime.wire`
— (:func:`message_to_payload`;
32,048 bytes for a 1000 x 2 pass, where the cost model above counts the
derived matrices too) and of every save-point :mod:`repro.runtime.files`
writes (:func:`pack_moments`).  A forked worker writes its passes with
:func:`pass_encoder`: the same bytes, straight from its live sums into
one reused buffer.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

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
    "combined_from_payload",
    "combined_to_payload",
    "message_bytes",
    "message_from_payload",
    "message_to_payload",
    "pack_moments",
    "pass_encoder",
    "payload_is_final",
    "take_statistics",
    "unpack_moments",
    "write_moments",
]

#: Fixed per-message framing overhead assumed by the cost model (rank,
#: volume, timestamps, envelope).
_HEADER_BYTES = 64

#: Binary body header: flags, nrow, ncol, rank, volume, sent_at,
#: compute_time, tail length — little-endian, 48 bytes.
_BODY = struct.Struct("<4IQ2dQ")

_FLAG_FINAL = 1

#: The moments' dtype on the wire: little-endian float64.
_MOMENT = np.dtype("<f8")


if sys.byteorder == "little":
    def _raw(matrix: np.ndarray):
        """``matrix`` as the flat bytes of its C-order ``_MOMENT``
        values — itself, unless it is stored otherwise."""
        return memoryview(np.ascontiguousarray(matrix, _MOMENT)).cast("B")
else:  # a memoryview casts from a native format only
    def _raw(matrix: np.ndarray):
        return np.ascontiguousarray(matrix, _MOMENT).view(np.uint8) \
                 .reshape(-1)

#: Combined (reducer) body header: entry count, sent_at, head length.
_COMBINED = struct.Struct("<IdI")

#: The rare fields of a data pass, carried in the block's JSON tail
#: beside the extras' payloads.
_TAIL_KEYS = frozenset(("job", "metrics"))


@dataclass(frozen=True)
class MomentMessage:
    """One data pass from a worker to the collector (0-th processor).

    Attributes:
        rank: Sending processor index ``m``.
        snapshot: Cumulative moments ``(sum1_m, sum2_m, l_m)``, the
            run's extra statistics riding inside.
        sent_at: Send time in run seconds (virtual under simulation).
        final: True for the worker's last message; the collector uses
            this to detect run completion.
        metrics: Optional worker telemetry piggybacking on the data
            pass — the plain dict of
            :meth:`repro.obs.telemetry.WorkerTelemetry.as_dict`.  Like
            the moment snapshot it is cumulative, so the collector
            keeps the latest per rank and loses nothing to reordering.
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
    job: str | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(
                f"message rank must be >= 0, got {self.rank}")
        if self.sent_at < 0.0:
            raise ConfigurationError(
                f"message send time must be >= 0, got {self.sent_at}")

    def _restamp(self, snapshot: MomentSnapshot, sent_at: float,
                 final: bool, metrics: dict | None) -> "MomentMessage":
        """This message's rank and job on a new pass, built unchecked.

        Only for :class:`~repro.runtime.worker.WorkerBody`, whose
        template message went through ``__post_init__`` once (its rank)
        and which checks each pass's ``sent_at`` itself.
        """
        message = object.__new__(MomentMessage)
        message.__dict__.update(
            rank=self.rank, snapshot=snapshot, sent_at=sent_at, final=final,
            metrics=metrics, job=self.job)
        return message

    @property
    def nbytes(self) -> int:
        """Modelled wire size, derived from the payloads on board."""
        return _HEADER_BYTES + self.snapshot.nbytes


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


def _tail_json(tail: Mapping,
               extras: Mapping[str, Statistic] | None = None) -> bytes:
    """A block's tail: compact UTF-8 JSON, or nothing when empty.

    ``extras`` go last, under ``statistics``, in the versioned
    :func:`~repro.stats.statistic.payload_map` form, after whatever the
    tail already holds there (a save-point's unregistered payloads).
    """
    if extras:
        tail = dict(tail, statistics={**tail.get("statistics", {}),
                                      **payload_map(extras)})
    return (json.dumps(tail, separators=(",", ":")).encode("utf-8")
            if tail else b"")


def write_moments(buffer, sum1: np.ndarray, sum2: np.ndarray, volume: int,
                  compute_time: float, tail: bytes = b"", *, flags: int = 0,
                  rank: int = 0, sent_at: float = 0.0) -> int:
    """Write one cumulative snapshot's binary moment layout into
    ``buffer``, from its start; return the layout's length.

    ``_BODY`` header, then ``sum1`` and ``sum2`` as raw little-endian
    float64 in C order — every bit pattern survives — then ``tail``,
    the already-encoded JSON (empty for none).  This is the body of a
    DATA frame on the wire *and* of a save-point on disk (where
    ``flags`` and ``sent_at`` stay zero): the one place in the library
    that turns moment matrices into bytes.  ``buffer`` is any writable
    buffer at least that long: :func:`pack_moments` allocates one per
    call, a forked worker's :func:`pass_encoder` reuses one.
    """
    nrow, ncol = sum1.shape
    middle = _BODY.size + 8 * nrow * ncol
    tail_at = 2 * middle - _BODY.size
    end = tail_at + len(tail)
    _BODY.pack_into(buffer, 0, flags, nrow, ncol, rank, volume, sent_at,
                    compute_time, len(tail))
    # One memcpy a matrix: cheaper than a numpy view of the buffer.
    view = memoryview(buffer)
    view[_BODY.size:middle] = _raw(sum1)
    view[middle:tail_at] = _raw(sum2)
    view[tail_at:end] = tail
    return end


def pack_moments(snapshot: MomentSnapshot, tail: Mapping, *, flags: int = 0,
                 rank: int = 0, sent_at: float = 0.0) -> bytes:
    """One cumulative snapshot in the binary moment layout
    (:func:`write_moments`), ``tail`` a JSON object omitted when empty
    and the snapshot's extras carried in it (:func:`_tail_json`)."""
    if snapshot.sum1.ndim != 2:
        raise WireError(
            f"a moment block carries nrow x ncol moments, got shape "
            f"{snapshot.sum1.shape}")
    tail_bytes = _tail_json(tail, snapshot.extras)
    buffer = bytearray(_BODY.size + 16 * snapshot.sum1.size
                       + len(tail_bytes))
    write_moments(buffer, snapshot.sum1, snapshot.sum2, snapshot.volume,
                  snapshot.compute_time, tail_bytes, flags=flags, rank=rank,
                  sent_at=sent_at)
    return bytes(buffer)


def unpack_moments(body: bytes
                   ) -> tuple[int, int, float, MomentSnapshot, dict]:
    """Inverse of :func:`pack_moments`.

    Returns ``(flags, rank, sent_at, snapshot, tail)``, the snapshot's
    extras read out of the tail by :func:`take_statistics`.  The bytes
    come from another host or from a disk that may have rotted: the
    length is checked against the announced shape and tail length
    before anything is allocated, and every way the block can be
    malformed raises :class:`WireError`.  What else the tail may *hold*
    is the caller's to judge.
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
        extras = take_statistics(tail, (nrow, ncol))
        moments = np.frombuffer(body, dtype="<f8", count=2 * entries,
                                offset=_BODY.size).astype(np.float64)
        snapshot = MomentSnapshot(
            sum1=moments[:entries].reshape(nrow, ncol),
            sum2=moments[entries:].reshape(nrow, ncol),
            volume=volume, compute_time=compute_time, extras=extras)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            OverflowError, RecursionError, ConfigurationError) as exc:
        raise WireError(f"malformed moment block: {exc}") from exc
    return flags, rank, sent_at, snapshot, tail


def take_statistics(tail: dict, shape: tuple[int, int]
                    ) -> dict[str, Statistic] | None:
    """Read a block's extras out of its decoded ``tail``.

    The one parser of a tail's ``statistics`` map, on the wire and on
    disk alike: each registered kind must announce the moments'
    ``shape`` (see :func:`~repro.stats.statistic
    .statistics_from_payload_map`).  Returns their statistics (None when
    there are none); the raw payloads of unregistered kinds stay in
    ``tail`` under ``statistics``, for the caller to refuse (a data
    pass) or keep verbatim (a save-point).

    Raises:
        WireError: On a map that is not an object.
        ConfigurationError: On a registered kind's payload of another
            shape, or malformed.
    """
    if "statistics" not in tail:
        return None
    payloads = tail.pop("statistics")
    if not isinstance(payloads, dict):
        raise WireError("statistics map is not an object")
    extras, unknown = statistics_from_payload_map(payloads, shape)
    if unknown:
        tail["statistics"] = {kind: payloads[kind] for kind in unknown}
    return extras or None


def _pass_tail(job: str | None = None, metrics: dict | None = None
               ) -> dict:
    """The tail of a data pass before its extras: what it carries of a
    job tag and worker telemetry, in that order; empty for none."""
    tail = {}
    if job is not None:
        tail["job"] = job
    if metrics is not None:
        tail["metrics"] = metrics
    return tail


def message_to_payload(message: MomentMessage) -> bytes:
    """Serialize a data pass: its snapshot through :func:`pack_moments`,
    its rare fields in the :func:`_pass_tail`."""
    return pack_moments(message.snapshot,
                        _pass_tail(message.job, message.metrics),
                        flags=_FLAG_FINAL if message.final else 0,
                        rank=message.rank, sent_at=message.sent_at)


def pass_encoder(rank: int, job: str | None = None
                 ) -> Callable[..., bytearray]:
    """The encoder of one rank's data passes into one reused buffer.

    ``encode(sum1, sum2, volume, compute_time, sent_at, final, metrics,
    extras)`` writes the bytes :func:`message_to_payload` makes of the
    pass those fields describe — from the live sums, one copy — and
    returns the buffer, valid until its next call.  The job tag's JSON
    is encoded once, here; the tail is rebuilt only for a pass that
    carries metrics or extras.
    """
    job_tail = _tail_json(_pass_tail(job))
    buffer = bytearray()

    def encode(sum1: np.ndarray, sum2: np.ndarray, volume: int,
               compute_time: float, sent_at: float, final: bool,
               metrics: dict | None,
               extras: Mapping[str, Statistic] | None) -> bytearray:
        nonlocal buffer
        tail = (job_tail if metrics is None and extras is None
                else _tail_json(_pass_tail(job, metrics), extras))
        size = _BODY.size + 16 * sum1.size + len(tail)
        if len(buffer) != size:
            buffer = bytearray(size)
        write_moments(buffer, sum1, sum2, volume, compute_time, tail,
                      flags=_FLAG_FINAL if final else 0, rank=rank,
                      sent_at=sent_at)
        return buffer

    return encode


def payload_is_final(body: bytes) -> bool:
    """Whether a :func:`message_to_payload` body is its rank's final
    pass, read off the flags word alone — nothing else is decoded."""
    return bool(body[0] & _FLAG_FINAL)


def message_from_payload(body: bytes) -> MomentMessage:
    """Rebuild a :class:`MomentMessage` from its binary layout.

    :func:`unpack_moments` vouches for the block's structure and its
    extras' shapes; this adds what only a data pass promises — known
    flags, a tail of ``job``/``metrics``, and statistics of kinds
    registered here.
    """
    flags, rank, sent_at, snapshot, tail = unpack_moments(body)
    if flags & ~_FLAG_FINAL:
        raise WireError(f"data pass carries unknown flags {flags:#x}")
    if "statistics" in tail:
        raise WireError(
            f"data frame carries unregistered statistic kinds "
            f"{tuple(tail['statistics'])}; register them on the "
            f"collector side")
    if not _TAIL_KEYS.issuperset(tail):
        raise WireError("data pass tail is not an object of "
                        "job/metrics/statistics")
    job, metrics = tail.get("job"), tail.get("metrics")
    if not isinstance(job, (str, type(None))) \
            or not isinstance(metrics, (dict, type(None))):
        raise WireError("data pass tail has a mistyped job or metrics")
    try:
        return MomentMessage(
            rank=rank, snapshot=snapshot, sent_at=sent_at,
            final=bool(flags & _FLAG_FINAL), metrics=metrics, job=job)
    except ConfigurationError as exc:
        raise WireError(f"malformed data pass: {exc}") from exc


def combined_to_payload(combined: CombinedMessage) -> bytes:
    """A reducer's forward: ``_COMBINED`` header, the JSON head (node
    id, metrics, job), then each entry's :func:`message_to_payload`
    body untouched — a moment block announces its own length."""
    head = json.dumps({"node": combined.node_id, "metrics": combined.metrics,
                       "job": combined.job},
                      separators=(",", ":")).encode("utf-8")
    return b"".join((
        _COMBINED.pack(len(combined.entries), combined.sent_at, len(head)),
        head, *map(message_to_payload, combined.entries)))


def combined_from_payload(body: bytes) -> CombinedMessage:
    """Inverse of :func:`combined_to_payload`; every entry is vouched
    for by :func:`message_from_payload`, and any way the bytes can be
    malformed raises :class:`WireError`."""
    try:
        count, sent_at, head_len = _COMBINED.unpack_from(body)
        offset = _COMBINED.size + head_len
        head = json.loads(bytes(body[_COMBINED.size:offset]))
        entries = []
        for _ in range(count):
            _, nrow, ncol, *_, tail_len = _BODY.unpack_from(body, offset)
            end = offset + _BODY.size + 16 * nrow * ncol + tail_len
            entries.append(message_from_payload(body[offset:end]))
            offset = end
        if offset != len(body) or not math.isfinite(sent_at) \
                or head.keys() != {"node", "metrics", "job"} \
                or not isinstance(head["node"], str) \
                or not isinstance(head["metrics"], (dict, type(None))) \
                or not isinstance(head["job"], (str, type(None))):
            raise WireError("combined pass carries a malformed head, "
                            "timestamp or trailing bytes")
        return CombinedMessage(node_id=head["node"], entries=tuple(entries),
                               sent_at=sent_at, metrics=head["metrics"],
                               job=head["job"])
    except WireError:
        raise
    except (struct.error, AttributeError, ValueError, RecursionError,
            ConfigurationError) as exc:
        raise WireError(f"malformed combined pass: {exc}") from exc
