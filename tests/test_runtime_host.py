"""The worker host's counted pipes.

Both ends of every pipe :class:`~repro.runtime.host.WorkerHost` makes
share two counts, bodies written and bodies read; the latest-wins
outbox of :func:`~repro.runtime.worker.worker_process` is drained
exactly when they agree.  Every case here is driven to a fixed point
(a child's exit, a final pass, a scripted ``wait``), never by a sleep.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
from multiprocessing.connection import wait

import numpy as np
import pytest

from repro.runtime import host as host_module
from repro.runtime.config import RunConfig
from repro.runtime.host import WorkerHost
from repro.runtime.messages import (
    MomentMessage,
    combined_from_payload,
    message_from_payload,
    message_to_payload,
    payload_is_final,
)
from repro.runtime.reduction import plan_reduction, run_reducer
from repro.runtime.wire import config_to_payload, routine_to_payload
from repro.runtime.worker import _outbox_drained, worker_process
from repro.stats.accumulator import MomentAccumulator


def _uniform(rng):
    return rng.random()


def _message(rank, volume, *, final=False):
    accumulator = MomentAccumulator(1, 1)
    for index in range(volume):
        accumulator.add(np.array([[float(rank * 100 + index)]]))
    return MomentMessage(rank=rank, snapshot=accumulator.snapshot(),
                         sent_at=0.0, final=final)


def _write_then_tear(bodies, outbox):
    """Host target: write whole bodies, then half of one, then die."""
    for body in bodies:
        outbox.send_bytes(body)
    os.write(outbox.fileno(), struct.pack("!i", 64) + bytes(32))
    os._exit(9)


def _in_the_pipe(fd):
    """Every raw byte waiting in a pipe, read without blocking."""
    chunks = []
    os.set_blocking(fd, False)
    try:
        while True:
            chunks.append(os.read(fd, 1 << 16))
    except BlockingIOError:
        return b"".join(chunks)
    finally:
        os.set_blocking(fd, True)


def _until_exit(host):
    """Every event ``host.read`` returns up to the first exit."""
    events = []
    while not events or not isinstance(events[-1][1], int):
        event = host.read(60.0)
        assert event is not None, "no event within a minute"
        events.append(event)
    return events


@pytest.fixture
def host():
    host = WorkerHost(multiprocessing.get_context("fork"))
    try:
        yield host
    finally:
        host.close()


class TestCountedPipes:
    CONFIG = RunConfig(maxsv=4, perpass=0.0)

    @pytest.mark.parametrize("sends, receives",
                             [(0, 0), (1, 0), (1, 1), (3, 1), (3, 3)])
    def test_counts_agree_exactly_when_the_outbox_is_drained(
            self, host, sends, receives):
        reader, writer = host.pipe()
        with reader:
            for index in range(sends):
                writer.send_bytes(bytes([index]))
            received = [reader.recv_bytes() for _ in range(receives)]
            assert received == [bytes([index]) for index in range(receives)]
            assert writer.counts is reader.counts
            assert list(writer.counts) == [sends, receives]
            assert _outbox_drained(writer) is (sends == receives)

    def _until_final(self, host, key):
        bodies = []
        while not bodies or not payload_is_final(bodies[-1]):
            event = host.read(60.0)
            assert event is not None, "no event within a minute"
            assert event[0] == key
            bodies.append(event[1])
        return bodies

    def test_read_counts_every_body_of_a_shared_slot(self, host):
        submit = {"config": config_to_payload(self.CONFIG),
                  "routine": routine_to_payload(_uniform)}
        host.assign("j", 0, 4, submit)
        [(_, reader)] = host._children.values()
        bodies = self._until_final(host, ("j", 0))
        # The slot idles on: its written count may land after the read
        # of its final, but the read count is current when read returns.
        assert reader.counts[1] == len(bodies)

    def test_read_counts_every_body_of_a_pinned_slot(self, host):
        host.assign("j", 2, 4, (_uniform, self.CONFIG))
        [(process, reader)] = host._children.values()
        bodies = self._until_final(host, ("j", 2))
        # Its final was its last word: once it has exited, both counts
        # are settled.
        assert wait([process.sentinel], 60.0), "slot never exited"
        assert list(reader.counts) == [len(bodies)] * 2

    def test_read_counts_every_forward_of_a_reducer(self, host):
        node = plan_reduction(range(4), 2).node("r1.0")  # ranks 0, 1
        edges = [host.pipe() for _ in node.worker_ranks]
        host.start(("j", node.node_id), run_reducer, node,
                   [reader for reader, _ in edges])
        [(_, upstream)] = host._children.values()
        for rank, (reader, writer) in enumerate(edges):
            writer.send_bytes(message_to_payload(_message(rank, 1)))
            writer.send_bytes(message_to_payload(
                _message(rank, 2, final=True)))
            host.release(reader, writer)
        events = _until_exit(host)
        assert events[-1] == (("j", node.node_id), 0)
        forwards = [combined_from_payload(body) for _, body in events[:-1]]
        assert forwards[-1].final
        assert list(upstream.counts) == [len(forwards)] * 2
        # The reducer, a child, counted every edge body it read.
        for reader, _ in edges:
            assert list(reader.counts) == [2, 2]

    def test_a_torn_body_counts_on_neither_side(self, host):
        whole = message_to_payload(_message(0, 1))
        host.start("torn", _write_then_tear, [whole])
        [(_, reader)] = host._children.values()
        assert _until_exit(host) == [("torn", whole), ("torn", 9)]
        assert list(reader.counts) == [1, 1]

    @pytest.mark.parametrize("take", [1, 3, 4096])
    @pytest.mark.parametrize("size", [0, 64, 16_385, 32_048])
    def test_a_frame_written_in_pieces_is_the_connection_frame(
            self, host, monkeypatch, take, size):
        # A pipe may take part of a writev; the rest follows, and the
        # body counts once, when its whole frame is in.
        body = bytes(index % 251 for index in range(size))
        plain_reader, plain_writer = multiprocessing.Pipe(duplex=False)
        with plain_reader, plain_writer:
            plain_writer.send_bytes(body)
            frame = _in_the_pipe(plain_reader.fileno())
        calls = []  # the written count at each writev

        def in_pieces(fd, parts):
            calls.append(writer.counts[0])
            return os.write(fd, bytes(memoryview(parts[0])[:take]))

        monkeypatch.setattr(host_module.os, "writev", in_pieces)
        reader, writer = host.pipe()
        with reader:
            writer.send_bytes(body)
            assert list(writer.counts) == [1, 0]
            assert _in_the_pipe(reader.fileno()) == frame
            assert len(calls) == 1 if take >= 4 and size == 0 \
                else len(calls) > 1
            assert set(calls) == {0}
            writer.send_bytes(bytearray(body))
            assert reader.recv_bytes() == body
            assert list(writer.counts) == [2, 1]

    def test_a_frame_is_one_writev(self, host, monkeypatch):
        calls = []
        writev = os.writev

        def counted(fd, parts):
            calls.append(len(parts))
            return writev(fd, parts)

        monkeypatch.setattr(host_module.os, "writev", counted)
        body = message_to_payload(MomentMessage(
            rank=0, snapshot=MomentAccumulator(1000, 2).snapshot(),
            sent_at=0.0))
        reader, writer = host.pipe()
        with reader:
            writer.send_bytes(body)
            assert reader.recv_bytes() == body
        assert calls == [2]

    def test_a_closed_end_raises_and_counts_nothing(self, host):
        reader, writer = host.pipe()
        host.release(writer)
        with reader, pytest.raises(OSError, match="handle is closed"):
            writer.send_bytes(b"body")
        assert list(reader.counts) == [0, 0]

    def test_run_reducer_counts_each_edge_body_it_admits(self, host):
        node = plan_reduction(range(4), 2).node("r1.0")  # ranks 0, 1
        edges = [host.pipe() for _ in node.worker_ranks]
        up_reader, up_writer = host.pipe()
        for rank, volumes in ((0, (1, 2, 3)), (1, (1,))):
            writer = edges[rank][1]
            for volume in volumes:
                writer.send_bytes(message_to_payload(
                    _message(rank, volume, final=volume == volumes[-1])))
        readers = [reader for reader, _ in edges]
        seen = []

        def one_body_at_a_time(inboxes, timeout=None):
            seen.append([reader.counts[1] for reader in readers])
            ready = [inbox for inbox in inboxes if inbox.poll()][:1]
            assert ready or timeout == 0, "the reducer would wait forever"
            return ready

        run_reducer(node, readers, up_writer, wait=one_body_at_a_time)
        assert seen == [[0, 0], [1, 0], [2, 0], [3, 0], [3, 1]]
        assert [list(reader.counts) for reader in readers] \
            == [[3, 3], [1, 1]]
        assert list(up_writer.counts) == [1, 0]
        with up_reader:
            combined = combined_from_payload(up_reader.recv_bytes())
        assert combined.final and combined.metrics["drained"] == 4
        assert list(up_writer.counts) == [1, 1]
        for reader in readers:
            reader.close()

    def test_counts_cross_a_spawn_start(self):
        # The worker_process shape of TestWorkerProcess, started under
        # spawn: the first pass finds the counts equal, the next three
        # find it unread and are superseded, the final goes out.  The
        # parent sees the child's two writes, so the counts are shared.
        host = WorkerHost(multiprocessing.get_context("spawn"))
        try:
            host.start("w", worker_process, _uniform, self.CONFIG, 1, 4)
            [(process, reader)] = host._children.values()
            assert wait([process.sentinel], 60.0), "worker never exited"
            assert list(reader.counts) == [2, 0]
            events = _until_exit(host)
            assert events[-1] == ("w", 0)
            messages = [message_from_payload(body)
                        for _, body in events[:-1]]
            assert [(m.rank, m.snapshot.volume, m.final)
                    for m in messages] == [(1, 1, False), (1, 4, True)]
            assert list(reader.counts) == [2, 2]
        finally:
            host.close()
