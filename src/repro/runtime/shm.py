"""Fixed-layout shared-memory moment ring — benchmark surface only.

This was the ``transport="shm"`` same-host exchange of the multiprocess
backend.  The transport and its option were removed (ISSUE 15,
``docs/reduction.md`` "Why the ring was removed"): repeated
measurement showed the queue ahead of it at every M <= cores, and one
same-host hop is one less axis to pin bit-identity on.  **Nothing under
``src/repro`` imports this module.**  What is left is exactly what the
frozen benchmark harness (``benchmarks/perf/layers.py``, its three
shm send/receive/slot-size rows) calls — :meth:`ShmRing.create`,
:meth:`~ShmRing.try_send`, :meth:`~ShmRing.receive`,
:meth:`~ShmRing.close`, :meth:`~ShmRing.unlink`, :func:`segment_name`
and :data:`DEFAULT_EXTRA` — with unchanged behaviour.  It awaits a
``benchmark`` PR that drops those rows; then this file goes too
(ROADMAP item 2).

Layout (all offsets 8-byte aligned, little-endian)::

    ring header (64 B): magic, nrow, ncol, slots, extra_cap,
                        head, tail, reserved
    slot (64 B + payload): seq, rank, volume, flags,
                           sent_at (f64), compute_time (f64),
                           extra_len, reserved,
                           sum1 [nrow*ncol f64], sum2 [nrow*ncol f64],
                           extra [extra_cap bytes, pickled tail]

Single-producer/single-consumer protocol: the producer fills the slot
payload, then writes ``seq = head + 1`` (the commit word), then
publishes ``head + 1``; the consumer reads a slot only when ``head``
has advanced past ``tail`` *and* the commit word matches ``tail + 1``,
copies the payload out, and only then publishes the new ``tail``.  A
torn or in-flight slot therefore never surfaces.  The two matrices
travel as raw ndarray views; only the optional variable-size tail
(piggybacked metrics, extra statistics) is pickled, into a bounded
per-slot area.

The creating process owns the segment: :meth:`ShmRing.create` takes it
away from the ``multiprocessing`` resource tracker and
:meth:`ShmRing.unlink` is the only place it is removed.
"""

from __future__ import annotations

import os
import pickle
import struct
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.exceptions import ConfigurationError
from repro.runtime.messages import MomentMessage
from repro.stats.accumulator import MomentSnapshot

__all__ = ["DEFAULT_EXTRA", "ShmRing", "segment_name"]

#: ``"PMNC"`` little-endian, the first header word.
_MAGIC = 0x434E4D50

#: Header fields: magic, nrow, ncol, slots, extra_cap, head, tail,
#: reserved — eight 8-byte words.
_HEADER = struct.Struct("<8Q")
_HEAD_OFFSET = 5 * 8
_TAIL_OFFSET = 6 * 8

#: Slot header: seq, rank, volume, flags, sent_at, compute_time,
#: extra_len, reserved.
_SLOT = struct.Struct("<4Q2d2Q")

_FLAG_FINAL = 1
_FLAG_EXTRA = 2

#: Default ring geometry: slots per ring and pickled-tail capacity.
DEFAULT_SLOTS = 8
DEFAULT_EXTRA = 8192


def segment_name(suffix: str) -> str:
    """A fresh segment name, ``parmonc_<pid>_<token>_<suffix>``.

    The random token keeps concurrent rings of one process apart.
    """
    return f"parmonc_{os.getpid()}_{os.urandom(3).hex()}_{suffix}"


class ShmRing:
    """One single-producer/single-consumer moment ring buffer.

    Create with :meth:`create`; ``try_send`` and ``receive`` are
    lock-free and never block.
    """

    def __init__(self, segment, shape: tuple[int, int], slots: int,
                 extra_capacity: int) -> None:
        self._segment = segment
        #: ``(nrow, ncol)`` of the payload matrices.
        self.shape = shape
        self._slots = slots
        self._extra_cap = extra_capacity
        self._matrix = shape[0] * shape[1]
        self._slot_size = _SLOT.size + 16 * self._matrix + extra_capacity
        self._unlinked = False

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def create(cls, name: str, shape: tuple[int, int],
               slots: int = DEFAULT_SLOTS,
               extra_capacity: int = DEFAULT_EXTRA) -> "ShmRing":
        """Create and own a fresh ring for one ``nrow x ncol`` stream."""
        if slots < 2:
            raise ConfigurationError(
                f"a ring needs at least 2 slots, got {slots}")
        nrow, ncol = shape
        slot_size = _SLOT.size + 16 * nrow * ncol + extra_capacity
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=_HEADER.size + slots * slot_size)
        # Lifetime is managed explicitly (unlink below); take the
        # segment away from the resource tracker so it neither warns
        # about nor removes a segment its creator still owns.
        _tracker(resource_tracker.unregister, segment)
        _HEADER.pack_into(segment.buf, 0, _MAGIC, nrow, ncol, slots,
                          extra_capacity, 0, 0, 0)
        return cls(segment, (nrow, ncol), slots, extra_capacity)

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives)."""
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - lingering views
            pass

    def unlink(self) -> None:
        """Remove the segment; idempotent.

        ``SharedMemory.unlink`` unregisters from the resource tracker
        unconditionally; re-register first so the bookkeeping balances
        (creation handed the segment off to explicit management).
        """
        if self._unlinked:
            return
        self._unlinked = True
        _tracker(resource_tracker.register, self._segment)
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass

    # -- head/tail words---------------------------------------------------

    def _read_word(self, offset: int) -> int:
        return struct.unpack_from("<Q", self._segment.buf, offset)[0]

    def _write_word(self, offset: int, value: int) -> None:
        struct.pack_into("<Q", self._segment.buf, offset, value)

    # -- data path ------------------------------------------------------

    def _slot_offset(self, index: int) -> int:
        return _HEADER.size + (index % self._slots) * self._slot_size

    def try_send(self, message: MomentMessage) -> bool:
        """Write one message; False (without side effects) when the
        ring is full, the shape differs, or the pickled tail exceeds
        the slot's bounded extra area."""
        if message.snapshot.shape != self.shape:
            return False
        extra = b""
        flags = _FLAG_FINAL if message.final else 0
        if message.metrics is not None or message.statistics is not None:
            extra = pickle.dumps((message.metrics, message.statistics),
                                 protocol=pickle.HIGHEST_PROTOCOL)
            if len(extra) > self._extra_cap:
                return False
            flags |= _FLAG_EXTRA
        head = self._read_word(_HEAD_OFFSET)
        if head - self._read_word(_TAIL_OFFSET) >= self._slots:
            return False
        offset = self._slot_offset(head)
        buf = self._segment.buf
        _SLOT.pack_into(buf, offset, head + 1, message.rank,
                        message.snapshot.volume, flags, message.sent_at,
                        message.snapshot.compute_time, len(extra), 0)
        arrays = offset + _SLOT.size
        view = np.frombuffer(buf, dtype=np.float64,
                             count=2 * self._matrix, offset=arrays)
        view[:self._matrix] = message.snapshot.sum1.ravel()
        view[self._matrix:] = message.snapshot.sum2.ravel()
        if extra:
            extra_at = arrays + 16 * self._matrix
            buf[extra_at:extra_at + len(extra)] = extra
        # Publish: the commit word is already in place (it is the slot
        # header's seq field, written above); advancing head makes the
        # slot visible to the consumer.
        self._write_word(_HEAD_OFFSET, head + 1)
        return True

    def receive(self) -> MomentMessage | None:
        """Read and pop one message; None when the ring is empty."""
        tail = self._read_word(_TAIL_OFFSET)
        if self._read_word(_HEAD_OFFSET) <= tail:
            return None
        offset = self._slot_offset(tail)
        buf = self._segment.buf
        (seq, rank, volume, flags, sent_at, compute_time, extra_len,
         _reserved) = _SLOT.unpack_from(buf, offset)
        if seq != tail + 1:
            # The producer advanced head before the slot was coherent —
            # impossible in program order, but the commit check keeps a
            # torn read from ever surfacing.
            return None
        arrays = offset + _SLOT.size
        shape = self.shape
        view = np.frombuffer(buf, dtype=np.float64,
                             count=2 * self._matrix, offset=arrays)
        sum1 = view[:self._matrix].reshape(shape).copy()
        sum2 = view[self._matrix:].reshape(shape).copy()
        metrics = statistics = None
        if flags & _FLAG_EXTRA:
            extra_at = arrays + 16 * self._matrix
            metrics, statistics = pickle.loads(
                bytes(buf[extra_at:extra_at + extra_len]))
        del view
        self._write_word(_TAIL_OFFSET, tail + 1)
        return MomentMessage(
            rank=int(rank),
            snapshot=MomentSnapshot(sum1=sum1, sum2=sum2,
                                    volume=int(volume),
                                    compute_time=compute_time),
            sent_at=sent_at, final=bool(flags & _FLAG_FINAL),
            metrics=metrics, statistics=statistics)


def _tracker(action, segment) -> None:
    """Apply ``resource_tracker.register``/``unregister`` to a segment."""
    try:
        action(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
