"""Tests for the distributed wire format: framing, checksums, codecs.

The framing layer is the trust boundary of the distributed backend:
estimates stay bit-identical across hosts only if a ``MomentMessage``
survives the wire exactly, and a run only fails cleanly if corrupt or
foreign traffic is rejected *before* deserialization.  Control frames
are JSON; a DATA frame's body is the one binary layout of
``message_to_payload``, whose every malformation must surface as
``WireError`` and nothing else.
"""

from __future__ import annotations

import json
import socket
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, WireError
from repro.runtime import wire
from repro.runtime.config import RunConfig
from repro.runtime.messages import (
    CombinedMessage,
    MomentMessage,
    combined_from_payload,
    combined_to_payload,
)
from repro.runtime.pool import PoolServer
from repro.runtime.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    FrameDecoder,
    FrameKind,
    config_from_payload,
    config_to_payload,
    decode_frame,
    encode_frame,
    message_from_payload,
    message_to_payload,
    routine_from_payload,
    routine_to_payload,
)
from repro.stats.accumulator import MomentAccumulator, MomentSnapshot
from repro.stats.statistic import StatisticSet, payload_map

#: The DATA body header, pinned here independently of the library:
#: flags, nrow, ncol, rank, volume, sent_at, compute_time, tail length.
BODY = struct.Struct("<4IQ2dQ")
FRAME = struct.Struct("!4sHHII")


def sample_message(rank=3, final=True, statistics=False,
                   job=None) -> MomentMessage:
    stats = StatisticSet.for_run(
        ("moments", "extrema") if statistics else ("moments",), 2, 2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        stats.update(rng.random((2, 2)), compute_time=0.01)
    return MomentMessage(
        rank=rank, snapshot=stats.moments.snapshot(stats.extras_snapshot()),
        sent_at=12.5, final=final, metrics={"messages": 5, "bytes": 640},
        job=job)


def bare_message(sum1, sum2=None, **fields) -> MomentMessage:
    """A moments-only message around the given arrays (no tail)."""
    sum2 = sum1 if sum2 is None else sum2
    return MomentMessage(
        rank=fields.pop("rank", 1),
        snapshot=MomentSnapshot(sum1=sum1, sum2=sum2, volume=4,
                                compute_time=0.25),
        sent_at=fields.pop("sent_at", 1.5), **fields)


def build_body(nrow=2, ncol=2, tail=b"", flags=1, rank=3, volume=5,
               sent_at=12.5, compute_time=0.05, arrays=None,
               tail_len=None) -> bytes:
    """Hand-assemble a DATA body, lying wherever the caller asks.

    The moment bytes default to an honest 2x2 pair whatever shape the
    header announces."""
    if arrays is None:
        arrays = np.arange(8, dtype="<f8").tobytes()
    return BODY.pack(flags, nrow, ncol, rank, volume, sent_at,
                     compute_time,
                     len(tail) if tail_len is None else tail_len) \
        + arrays + tail


def reframe(body: bytes) -> bytes:
    """Frame a (possibly hostile) body honestly: right length, right crc."""
    return FRAME.pack(b"PMNC", WIRE_VERSION, int(FrameKind.DATA),
                      len(body), zlib.crc32(body)) + body


def bits(array) -> bytes:
    """An array's float64 values as canonical little-endian bytes."""
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


# ---------------------------------------------------------------------------
# Framing


class TestFraming:
    def test_round_trip(self):
        payload = {"rank": 4, "value": 0.1 + 0.2, "nested": {"a": [1, 2]}}
        kind, decoded = decode_frame(
            encode_frame(FrameKind.ASSIGN, payload))
        assert kind is FrameKind.ASSIGN
        assert decoded == payload

    def test_every_kind_round_trips(self):
        for kind in FrameKind:
            empty = b"" if kind is FrameKind.DATA else {}
            out_kind, payload = decode_frame(encode_frame(kind, empty))
            assert out_kind is kind
            assert payload == empty

    def test_data_frames_carry_bytes_and_nothing_else(self):
        body = message_to_payload(sample_message())
        frame = encode_frame(FrameKind.DATA, body)
        assert frame[FRAME.size:] == body  # framed as is, not re-encoded
        assert decode_frame(frame) == (FrameKind.DATA, body)
        with pytest.raises(WireError, match="binary body"):
            encode_frame(FrameKind.DATA, {"rank": 1})

    def test_control_floats_survive_bit_exactly(self):
        values = [0.1, 1 / 3, np.nextafter(1.0, 2.0), 1e-308, 2**53 + 0.0]
        _, decoded = decode_frame(
            encode_frame(FrameKind.ASSIGN, {"values": values}))
        assert all(a == b and struct.pack("!d", a) == struct.pack("!d", b)
                   for a, b in zip(decoded["values"], values))

    def test_incremental_decoder_handles_arbitrary_chunking(self):
        body = message_to_payload(sample_message(statistics=True))
        sent = [(FrameKind.DATA, body) if i % 2 else
                (FrameKind.HEARTBEAT, {"i": i}) for i in range(7)]
        stream = b"".join(encode_frame(*frame) for frame in sent)
        for chunk_size in (1, 3, 16, len(stream)):
            decoder = FrameDecoder()
            frames = []
            for start in range(0, len(stream), chunk_size):
                frames.extend(decoder.feed(stream[start:start + chunk_size]))
            assert frames == sent
            assert decoder.pending_bytes == 0

    def test_partial_frame_stays_buffered(self):
        frame = encode_frame(FrameKind.HELLO, {"x": 1})
        decoder = FrameDecoder()
        assert list(decoder.feed(frame[:-1])) == []
        assert decoder.pending_bytes == len(frame) - 1
        assert list(decoder.feed(frame[-1:]))[0][1] == {"x": 1}

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(FrameKind.EXIT, {}))
        frame[:4] = b"HTTP"
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(frame))

    def test_unknown_kind_rejected(self):
        frame = bytearray(encode_frame(FrameKind.EXIT, {}))
        struct.pack_into("!H", frame, 6, 999)
        with pytest.raises(WireError, match="kind"):
            decode_frame(bytes(frame))

    def test_corrupt_payload_fails_checksum(self):
        for frame in (encode_frame(FrameKind.EXIT, {"rank": 1}),
                      encode_frame(FrameKind.DATA,
                                   message_to_payload(sample_message()))):
            frame = bytearray(frame)
            frame[-1] ^= 0xFF
            with pytest.raises(WireError, match="checksum"):
                decode_frame(bytes(frame))

    def test_absurd_length_rejected_before_allocation(self):
        frame = bytearray(encode_frame(FrameKind.DATA, b""))
        struct.pack_into("!I", frame, 8, MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError, match="limit"):
            decode_frame(bytes(frame))

    def test_non_object_control_payload_rejected(self):
        body = b"[1,2,3]"
        header = FRAME.pack(b"PMNC", WIRE_VERSION, int(FrameKind.EXIT),
                            len(body), zlib.crc32(body))
        with pytest.raises(WireError, match="object"):
            decode_frame(header + body)


#: An empty 1x1 snapshot as a version-1 DATA body carried it.
V1_SNAPSHOT = {"sum1": [[0.0]], "sum2": [[0.0]], "volume": 0,
               "compute_time": 0.0}


class TestVersionSkew:
    """Version 2 moved DATA bodies from JSON to binary and version 3
    moved every job's context out of HELLO: a mixed deployment must
    fail at the first frame header with the "upgrade the older side"
    error, never inside a body parser or on a missing key."""

    @staticmethod
    def v1_data_frame() -> bytes:
        body = json.dumps({"rank": 0, "sent_at": 0.0, "final": True,
                           "snapshot": V1_SNAPSHOT}).encode("utf-8")
        return FRAME.pack(b"PMNC", 1, int(FrameKind.DATA), len(body),
                          zlib.crc32(body)) + body

    def test_v1_frame_to_current_peer(self):
        with pytest.raises(WireError, match=r"version 1, this library "
                                            r"speaks 3; upgrade the older"):
            decode_frame(self.v1_data_frame())
        with pytest.raises(WireError, match="upgrade the older side"):
            list(FrameDecoder().feed(self.v1_data_frame()))

    def test_v2_hello_with_its_jobs_is_refused_by_the_header(self):
        # What a version-2 run opened a session with; a version-3 pool
        # would otherwise welcome it and then know none of its jobs.
        body = json.dumps({"jobs": {"a": {}}, "streaming": True}
                          ).encode("utf-8")
        frame = FRAME.pack(b"PMNC", 2, int(FrameKind.HELLO), len(body),
                           zlib.crc32(body)) + body
        with pytest.raises(WireError, match=r"version 2, this library "
                                            r"speaks 3; upgrade the older"):
            decode_frame(frame)

    def test_current_frame_to_v1_peer(self, monkeypatch):
        frame = encode_frame(FrameKind.DATA,
                             message_to_payload(sample_message()))
        monkeypatch.setattr(wire, "WIRE_VERSION", 1)
        with pytest.raises(WireError, match=r"version 3, this library "
                                            r"speaks 1; upgrade the older"):
            decode_frame(frame)

    def test_any_other_version_rejected(self):
        frame = bytearray(encode_frame(FrameKind.EXIT, {}))
        struct.pack_into("!H", frame, 4, WIRE_VERSION + 1)
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(frame))


# ---------------------------------------------------------------------------
# The binary DATA body


#: Bit patterns a text float format would lose or a careless copy would
#: canonicalize: NaNs with payload bits (quiet, signalling, negative),
#: signed zeros, subnormals, infinities, the extremes.
AWKWARD = np.array(
    [0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8DEADBEEF0000,
     0x7FF8000000000000, 0x0000000000000000, 0x8000000000000000,
     0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x7FF0000000000000,
     0xFFF0000000000000, 0x7FEFFFFFFFFFFFFF, 0x0010000000000000],
    dtype="<u8").view("<f8")


class TestMessageCodec:
    def test_layout_is_header_then_raw_moments_then_json_tail(self):
        message = sample_message(statistics=True, job="exp-a")
        body = message_to_payload(message)
        tail = json.dumps(
            {"job": "exp-a", "metrics": message.metrics,
             "statistics": payload_map(message.snapshot.extras)},
            separators=(",", ":")).encode("utf-8")
        assert body == (
            BODY.pack(1, 2, 2, 3, 5, 12.5, message.snapshot.compute_time,
                      len(tail))
            + bits(message.snapshot.sum1) + bits(message.snapshot.sum2)
            + tail)

    def test_fig2_pass_is_32_064_bytes_framed(self):
        moments = np.ones((1000, 2))
        frame = encode_frame(FrameKind.DATA,
                             message_to_payload(bare_message(moments)))
        assert len(frame) == FRAME.size + BODY.size + 2 * 8 * 2000 == 32_064

    def test_message_round_trips_bit_identically(self):
        message = sample_message(statistics=True, job="exp-a")
        kind, body = decode_frame(
            encode_frame(FrameKind.DATA, message_to_payload(message)))
        rebuilt = message_from_payload(body)
        assert kind is FrameKind.DATA
        assert (rebuilt.rank, rebuilt.final, rebuilt.sent_at, rebuilt.job) \
            == (message.rank, message.final, message.sent_at, "exp-a")
        assert rebuilt.metrics == message.metrics
        assert bits(rebuilt.snapshot.sum1) == bits(message.snapshot.sum1)
        assert bits(rebuilt.snapshot.sum2) == bits(message.snapshot.sum2)
        assert rebuilt.snapshot.volume == message.snapshot.volume
        assert (rebuilt.snapshot.compute_time
                == message.snapshot.compute_time)
        assert (payload_map(rebuilt.snapshot.extras)
                == payload_map(message.snapshot.extras))

    def test_moments_only_message_has_no_tail(self):
        message = MomentMessage(rank=0,
                                snapshot=MomentAccumulator(1, 1).snapshot(),
                                sent_at=0.0, final=False)
        body = message_to_payload(message)
        assert len(body) == BODY.size + 16
        rebuilt = message_from_payload(body)
        assert rebuilt.snapshot.extras is None and rebuilt.metrics is None
        assert rebuilt.job is None and rebuilt.final is False

    def test_the_messages_own_tag_is_what_travels(self):
        message = sample_message(job="own")
        assert message_from_payload(message_to_payload(message)).job == "own"
        with pytest.raises(TypeError):
            message_to_payload(message, job="pool")

    @pytest.mark.parametrize("tail", [False, True])
    def test_awkward_bit_patterns_survive(self, tail):
        sum1 = AWKWARD.reshape(3, 4)
        sum2 = AWKWARD[::-1].reshape(3, 4)
        extra = dict(metrics={"m": 1}, job="j") if tail else {}
        rebuilt = message_from_payload(
            message_to_payload(bare_message(sum1, sum2, **extra)))
        assert rebuilt.snapshot.sum1.shape == (3, 4)
        assert bits(rebuilt.snapshot.sum1) == AWKWARD.tobytes()
        assert bits(rebuilt.snapshot.sum2) == AWKWARD[::-1].tobytes()

    def test_non_contiguous_and_big_endian_inputs_encode_canonically(self):
        base = AWKWARD.reshape(3, 4)
        reference = message_to_payload(bare_message(base.T.copy()))
        strided = np.empty((4, 6))
        strided[:, ::2] = base.T
        for variant in (base.T,                       # F-ordered view
                        strided[:, ::2],              # strided view
                        base.T.astype(">f8"),         # big-endian
                        np.asfortranarray(base.T)):
            assert not (variant.flags.c_contiguous
                        and variant.dtype == np.dtype("<f8"))
            assert message_to_payload(bare_message(variant)) == reference
        decoded = message_from_payload(reference).snapshot.sum1
        assert decoded.dtype == np.float64 and decoded.flags.writeable
        assert bits(decoded) == bits(base.T)

    def test_decoded_arrays_do_not_alias_the_frame(self):
        body = bytearray(message_to_payload(bare_message(np.ones((2, 2)))))
        rebuilt = message_from_payload(body)
        body[BODY.size:] = bytes(len(body) - BODY.size)
        assert rebuilt.snapshot.sum1.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_unregistered_statistic_kind_raises_wire_error(self):
        tail = json.loads(message_to_payload(
            sample_message(statistics=True))[BODY.size + 64:])
        tail["statistics"]["no_such_kind"] = {"version": 1, "shape": [2, 2]}
        with pytest.raises(WireError, match="no_such_kind"):
            message_from_payload(
                build_body(tail=json.dumps(tail).encode("utf-8")))

    def test_json_payload_is_not_a_data_body(self):
        v1_body = json.dumps({"rank": 1, "sent_at": 0.0, "final": True,
                              "snapshot": V1_SNAPSHOT}).encode("utf-8")
        with pytest.raises(WireError):
            message_from_payload(v1_body)


class TestHostileDataBodies:
    """Everything below arrives honestly framed (right length, right
    crc), so only ``message_from_payload`` stands between the bytes
    and the collector."""

    def test_truncation_at_every_byte_boundary(self):
        body = message_to_payload(sample_message(statistics=True, job="j"))
        frame = encode_frame(FrameKind.DATA, body)
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                decode_frame(frame[:cut])
            assert list(FrameDecoder().feed(frame[:cut])) == []
        for cut in range(len(body)):
            _, short = decode_frame(reframe(body[:cut]))
            with pytest.raises(WireError):
                message_from_payload(short)

    @pytest.mark.parametrize("lie", [
        dict(nrow=3),                      # more rows than bytes
        dict(ncol=1),                      # fewer columns than bytes
        dict(nrow=0), dict(ncol=0),
        dict(nrow=2**32 - 1, ncol=2**32 - 1),
        dict(tail_len=1), dict(tail_len=2**64 - 1),
        dict(tail=b"{}", tail_len=1),
        dict(flags=2), dict(flags=0x80000001),
        dict(sent_at=-1.0), dict(sent_at=float("nan")),
        dict(compute_time=-0.5), dict(compute_time=float("inf")),
        dict(tail=b"[]"), dict(tail=b"{"), dict(tail=b"\xff\xfe"),
        dict(tail=b"[" * 100_000),         # RecursionError inside json
        dict(tail=b'{"job":7}'), dict(tail=b'{"metrics":[1]}'),
        dict(tail=b'{"surprise":1}'),
        dict(tail=b'{"statistics":[]}'),
        dict(tail=b'{"statistics":{"extrema":{"kind":"extrema"}}}'),
        dict(tail=b'{"statistics":{"extrema":7}}'),
        # a payload filed under another kind's name
        dict(tail=b'{"statistics":{"extrema":{"kind":"counter","shape":'
                  b'[2,2],"volume":0,"negative":[[0,0],[0,0]],"zero":'
                  b'[[0,0],[0,0]],"positive":[[0,0],[0,0]]}}}'),
        # a statistic allocates from its own shape/bins: neither may
        # exceed what the length-checked pass bears out
        dict(tail=b'{"statistics":{"extrema":{"kind":"extrema","shape":'
                  b'[65536,65536],"volume":0,"min":null,"max":null}}}'),
        dict(tail=b'{"statistics":{"histogram":{"kind":"histogram",'
                  b'"shape":[2,2],"volume":0,"bins":1000000000000,"lo":0,'
                  b'"hi":1,"counts":[],"underflow":[],"overflow":[]}}}'),
    ], ids=lambda lie: repr(lie)[:48])
    def test_lying_fields_raise_wire_error(self, lie):
        _, body = decode_frame(reframe(build_body(**lie)))
        with pytest.raises(WireError):
            message_from_payload(body)

    def test_oversize_dims_are_refused_before_any_allocation(self):
        lies = [build_body(nrow=2**32 - 1, ncol=2**32 - 1),
                build_body(nrow=2**20, ncol=2**20),
                build_body(tail_len=2**40)]
        tracemalloc.start()
        try:
            for body in lies:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                with pytest.raises(WireError, match="announces"):
                    message_from_payload(body)
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak < 16 * 1024  # the error message, no arrays
        finally:
            tracemalloc.stop()

    @given(position=st.integers(min_value=0), bit=st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_bit_flips_in_a_frame_never_decode(self, position, bit):
        frame = bytearray(encode_frame(
            FrameKind.DATA,
            message_to_payload(sample_message(statistics=True))))
        frame[position % len(frame)] ^= 1 << bit
        with pytest.raises(WireError):
            decode_frame(bytes(frame))
        try:
            frames = list(FrameDecoder().feed(bytes(frame)))
        except WireError:
            return
        assert frames == []  # a longer length: the stream just waits

    @given(position=st.integers(min_value=0), bit=st.integers(0, 7),
           statistics=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_bit_flips_in_a_body_decode_or_raise_wire_error(
            self, position, bit, statistics):
        body = bytearray(message_to_payload(
            sample_message(statistics=statistics, job="j")))
        body[position % len(body)] ^= 1 << bit
        _, received = decode_frame(reframe(bytes(body)))
        try:
            message = message_from_payload(received)
        except WireError:
            return
        assert message.snapshot.sum1.shape == (2, 2)

    @given(flags=st.integers(0, 2**32 - 1),
           nrow=st.integers(0, 2**32 - 1), ncol=st.integers(0, 2**32 - 1),
           rank=st.integers(0, 2**32 - 1), volume=st.integers(0, 2**64 - 1),
           sent_at=st.floats(), compute_time=st.floats(),
           tail_len=st.integers(0, 2**64 - 1),
           rest=st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bodies_decode_or_raise_wire_error(
            self, flags, nrow, ncol, rank, volume, sent_at, compute_time,
            tail_len, rest):
        body = BODY.pack(flags, nrow, ncol, rank, volume, sent_at,
                         compute_time, tail_len) + rest
        frames = list(FrameDecoder().feed(reframe(body)))
        assert frames == [(FrameKind.DATA, body)]
        try:
            message = message_from_payload(body)
        except WireError:
            return
        assert 16 * message.snapshot.sum1.size <= len(rest)

    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           tail=st.binary(max_size=64), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_tails_decode_or_raise_wire_error(self, shape, tail,
                                                        data):
        arrays = data.draw(st.binary(min_size=16 * shape[0] * shape[1],
                                     max_size=16 * shape[0] * shape[1]))
        body = build_body(*shape, arrays=arrays, tail=tail)
        try:
            message = message_from_payload(body)
        except WireError:
            return
        assert bits(message.snapshot.sum1) + bits(message.snapshot.sum2) \
            == arrays


def sample_combined(job=None) -> CombinedMessage:
    return CombinedMessage(
        node_id="r2.0", sent_at=3.25, metrics={"level": 2, "drained": 7},
        job=job, entries=tuple(
            sample_message(rank=rank, final=rank == 4, statistics=True,
                           job=job) for rank in (1, 4)))


#: The combined header, pinned here independently of the library:
#: entry count, sent_at, head length.
COMBINED = struct.Struct("<IdI")


class TestCombinedCodec:
    """A reducer's forward on a pipe: entries as data-pass bodies."""

    @pytest.mark.parametrize("job", [None, "exp-a"])
    def test_round_trip_keeps_every_entry_byte(self, job):
        combined = sample_combined(job)
        body = combined_to_payload(combined)
        decoded = combined_from_payload(body)
        assert (decoded.node_id, decoded.sent_at, decoded.metrics,
                decoded.job) == ("r2.0", 3.25, combined.metrics, job)
        assert [message_to_payload(entry) for entry in decoded.entries] \
            == [message_to_payload(entry) for entry in combined.entries]
        assert combined_to_payload(decoded) == body

    def test_layout(self):
        body = combined_to_payload(sample_combined())
        count, sent_at, head_len = COMBINED.unpack_from(body)
        assert (count, sent_at) == (2, 3.25)
        head = json.loads(body[COMBINED.size:COMBINED.size + head_len])
        assert head == {"node": "r2.0", "metrics": {"level": 2,
                                                    "drained": 7},
                        "job": None}
        assert body[COMBINED.size + head_len:] == b"".join(
            message_to_payload(entry)
            for entry in sample_combined().entries)

    def test_truncation_at_every_byte_boundary(self):
        body = combined_to_payload(sample_combined(job="j"))
        for cut in range(len(body)):
            with pytest.raises(WireError):
                combined_from_payload(body[:cut])

    @pytest.mark.parametrize("lie", [
        dict(count=3), dict(count=2**32 - 1), dict(count=0),
        dict(sent_at=float("nan")), dict(sent_at=-1.0),
        dict(head=b"[]"), dict(head=b"{"),
        dict(head=b'{"node":7,"metrics":null,"job":null}'),
        dict(head=b'{"node":"r","metrics":null}'),
        dict(head=b'{"node":"r","metrics":[],"job":null}'),
        dict(trailer=b"\0"),
        dict(entries=(4, 1)),              # misordered ranks
    ], ids=lambda lie: repr(lie)[:48])
    def test_lying_fields_raise_wire_error(self, lie):
        ranks = lie.get("entries", (1, 4))
        bodies = [message_to_payload(sample_message(rank=rank))
                  for rank in ranks]
        head = lie.get("head", b'{"node":"r","metrics":null,"job":null}')
        body = COMBINED.pack(lie.get("count", len(bodies)),
                             lie.get("sent_at", 1.0), len(head)) + head
        body += b"".join(bodies) + lie.get("trailer", b"")
        with pytest.raises(WireError):
            combined_from_payload(body)

    @given(position=st.integers(min_value=0), bit=st.integers(0, 7))
    @settings(max_examples=300, deadline=None)
    def test_bit_flips_decode_or_raise_wire_error(self, position, bit):
        body = bytearray(combined_to_payload(sample_combined(job="j")))
        body[position % len(body)] ^= 1 << bit
        try:
            decoded = combined_from_payload(bytes(body))
        except WireError:
            return
        assert len(decoded.entries) == 2


class TestConfigCodec:
    def test_worker_fields_round_trip(self):
        config = RunConfig(nrow=3, ncol=2, maxsv=100, seqnum=4,
                           perpass=0.25, statistics=("moments", "extrema"),
                           telemetry=True)
        rebuilt = config_from_payload(config_to_payload(config))
        assert rebuilt.nrow == 3 and rebuilt.ncol == 2
        assert rebuilt.seqnum == 4
        assert rebuilt.perpass == 0.25
        assert rebuilt.statistics == ("moments", "extrema")
        assert rebuilt.telemetry is True
        assert rebuilt.leaps == config.leaps

    def test_malformed_config_raises_wire_error(self):
        with pytest.raises(WireError, match="malformed job configuration"):
            config_from_payload({"nrow": 1})


def module_level_routine(rng):
    return rng.random()


class TestRoutineCodec:
    def test_spec_payload_uses_importer(self):
        payload = routine_to_payload(None, spec="mymodel:traj")
        seen = []
        routine = routine_from_payload(payload, lambda s:
                                       seen.append(s) or module_level_routine)
        assert seen == ["mymodel:traj"]
        assert routine is module_level_routine

    def test_pickle_payload_round_trips(self):
        payload = routine_to_payload(module_level_routine)
        assert "pickle" in payload
        routine = routine_from_payload(
            payload, lambda s: pytest.fail("importer must not be used"))
        assert routine is module_level_routine

    def test_unpicklable_routine_gets_guidance(self):
        with pytest.raises(ConfigurationError, match="module level"):
            routine_to_payload(lambda rng: rng.random())

    def test_empty_routine_payload_rejected(self):
        with pytest.raises(WireError, match="neither"):
            routine_from_payload({}, lambda s: None)


class TestSessionFrames:
    """Frame-kind values are frozen; the version is pinned once, here.

    PR 10's SUBMIT and CANCEL were additive, so they left the version
    at 1.  It moved to 2 when the DATA body went from JSON text to the
    binary moment layout (a v1 peer cannot parse a v2 DATA frame), and
    to 3 when HELLO stopped carrying job context: a v2 run ships its
    jobs in a HELLO that a v3 pool no longer reads, so the header must
    say so.  No frame kind and no ASSIGN/DATA/EXIT/CANCEL body moved."""

    def test_frame_kind_values_are_frozen(self):
        assert WIRE_VERSION == 3
        assert [int(kind) for kind in FrameKind] == list(range(1, 11))
        assert int(FrameKind.SUBMIT) == 9
        assert int(FrameKind.CANCEL) == 10

    @pytest.mark.parametrize("extra", [
        {"job": "late"},
        {},                                     # the anonymous job
        {"batch_size": 512},                    # ... of a batched CLI run
    ])
    def test_submit_frame_round_trips_job_context(self, extra):
        payload = {
            "config": config_to_payload(RunConfig(maxsv=8, processors=2,
                                                  perpass=0.0,
                                                  peraver=0.0)),
            "routine": routine_to_payload(module_level_routine),
            **extra,
        }
        kind, decoded = decode_frame(
            encode_frame(FrameKind.SUBMIT, payload))
        assert kind is FrameKind.SUBMIT
        assert decoded == payload

    @pytest.mark.parametrize("payload", [{"job": "victim"}, {}])
    def test_cancel_frame_round_trips(self, payload):
        kind, decoded = decode_frame(
            encode_frame(FrameKind.CANCEL, payload))
        assert kind is FrameKind.CANCEL
        assert decoded == payload


class TestPoolTrustBoundary:
    """SUBMIT is the one way a pool learns a job, so an ASSIGN for a
    job nothing declared — what a version-2-shaped session (context in
    the HELLO, then straight to ASSIGN) amounts to — is refused with a
    ``WireError`` that names the cause, never a ``KeyError``."""

    @staticmethod
    def converse(address, *frames):
        """Send ``frames`` after a HELLO; return the pool's replies."""
        decoder, replies = FrameDecoder(), []
        with socket.create_connection(address, timeout=10.0) as link:
            link.sendall(b"".join(
                encode_frame(kind, payload) for kind, payload in
                ((FrameKind.HELLO, {}),) + frames))
            while True:
                chunk = link.recv(65536)
                if not chunk:
                    return replies
                replies.extend(decoder.feed(chunk))

    @pytest.mark.parametrize("assign", [
        {"rank": 0, "quota": 1},                 # the anonymous job
        {"rank": 0, "quota": 1, "job": "ghost"},
    ])
    def test_assign_without_a_submit_is_refused_by_name(self, assign):
        server = PoolServer(port=0, workers=1, start_method="fork")
        address = server.start()
        try:
            replies = self.converse(address, (FrameKind.ASSIGN, assign))
        finally:
            server.stop()
        assert [kind for kind, _ in replies] == [FrameKind.WELCOME,
                                                 FrameKind.ERROR]
        detail = replies[-1][1]["detail"]
        assert "no submit frame declared" in detail
        assert repr(assign.get("job")) in detail

    def test_cancel_forgets_the_job_and_a_new_submit_revives_the_name(self):
        config = config_to_payload(RunConfig(maxsv=1, processors=1,
                                             perpass=0.0, peraver=0.0))
        submit = {"job": "a", "config": config,
                  "routine": routine_to_payload(module_level_routine)}
        assign = {"job": "a", "rank": 0, "quota": 1}
        server = PoolServer(port=0, workers=1, start_method="fork")
        address = server.start()
        try:
            replies = self.converse(
                address,
                (FrameKind.SUBMIT, submit), (FrameKind.CANCEL, {"job": "a"}),
                (FrameKind.SUBMIT, submit), (FrameKind.ASSIGN, assign),
                (FrameKind.CANCEL, {"job": "a"}),
                (FrameKind.ASSIGN, dict(assign, rank=1)))
        finally:
            server.stop()
        kinds = [kind for kind, _ in replies
                 if kind is not FrameKind.HEARTBEAT]
        # The revived name ran its worker; the ASSIGN after the second
        # CANCEL found the name forgotten again and ended the session.
        assert kinds[0] is FrameKind.WELCOME
        assert kinds[-1] is FrameKind.ERROR
        assert FrameKind.ERROR not in kinds[:-1]
        assert "no submit frame declared" in replies[-1][1]["detail"]
