"""Tests for what is left of the shared-memory ring.

The ring is no longer a transport (``docs/reduction.md``); these pin
the codec of the surface the frozen benchmark harness still measures
(``ShmRing.create / try_send / receive / close / unlink``) until a
benchmark PR drops the ``runtime.shm.*`` rows and the module with them.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.runtime.messages import MomentMessage
from repro.stats.accumulator import MomentAccumulator
from repro.stats.statistic import create_statistic

pytest.importorskip("multiprocessing.shared_memory")
from repro.runtime.shm import ShmRing, segment_name  # noqa: E402


def _message(rank=3, volume=7, *, shape=(2, 2), final=False,
             metrics=None, extras=None):
    accumulator = MomentAccumulator(*shape)
    for index in range(volume):
        accumulator.add(np.full(shape, float(index + 1)))
    return MomentMessage(rank=rank, snapshot=accumulator.snapshot(extras),
                         sent_at=1.25, final=final, metrics=metrics)


SLOTS = 4


@pytest.fixture
def ring():
    ring = ShmRing.create(segment_name("test"), (2, 2), slots=SLOTS)
    yield ring
    ring.close()
    ring.unlink()


class TestRingCodec:
    def test_plain_roundtrip(self, ring):
        message = _message()
        assert ring.try_send(message)
        received = ring.receive()
        assert received.rank == message.rank
        assert received.final is False
        assert received.sent_at == message.sent_at
        assert np.array_equal(received.snapshot.sum1,
                              message.snapshot.sum1)
        assert np.array_equal(received.snapshot.sum2,
                              message.snapshot.sum2)
        assert received.snapshot.volume == message.snapshot.volume
        assert received.snapshot.compute_time \
            == message.snapshot.compute_time
        assert received.metrics is None
        assert received.snapshot.extras is None

    def test_final_flag_and_extras_roundtrip(self, ring):
        extras = {"extrema": create_statistic("extrema", 2, 2)}
        extras["extrema"].update(np.full((2, 2), 0.5))
        message = _message(final=True, metrics={"rate": 12.5},
                           extras=extras)
        assert ring.try_send(message)
        received = ring.receive()
        assert received.final is True
        assert received.metrics == {"rate": 12.5}
        assert (received.snapshot.extras["extrema"].to_payload()
                == extras["extrema"].to_payload())

    def test_fifo_order(self, ring):
        for volume in (1, 2, 3):
            assert ring.try_send(_message(volume=volume))
        volumes = [ring.receive().snapshot.volume for _ in range(3)]
        assert volumes == [1, 2, 3]  # send order preserved
        assert ring.receive() is None

    def test_full_ring_refuses_then_recovers(self, ring):
        for _ in range(SLOTS):
            assert ring.try_send(_message())
        assert not ring.try_send(_message())
        assert ring.receive() is not None
        assert ring.try_send(_message())

    def test_shape_mismatch_refused(self, ring):
        assert not ring.try_send(_message(shape=(3, 1)))

    def test_oversized_extra_refused(self):
        small = ShmRing.create(segment_name("tiny"), (1, 1),
                               extra_capacity=8)
        try:
            message = _message(shape=(1, 1),
                               metrics={"key": "x" * 256})
            assert not small.try_send(message)
            assert small.try_send(_message(shape=(1, 1)))
        finally:
            small.close()
            small.unlink()

    def test_unlink_is_idempotent_and_removes_the_segment(self):
        name = segment_name("gone")
        ring = ShmRing.create(name, (1, 1))
        ring.close()
        ring.unlink()
        ring.unlink()
        assert not glob.glob(f"/dev/shm/{name}")
