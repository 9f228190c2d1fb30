"""Tests for repro.runtime.worker."""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle
import queue
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, RealizationError
from repro.rng import current_rnd128, rnd128
from repro.rng.streams import StreamTree
from repro.runtime.config import RunConfig
from repro.runtime.messages import (
    message_from_payload,
    message_to_payload,
    pack_moments,
    unpack_moments,
)
from repro.runtime.worker import (
    WorkerBody,
    adapt_realization,
    batch_routine,
    make_batched,
    run_worker,
    worker_process,
)


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestAdaptRealization:
    def test_one_argument_passthrough(self):
        def routine(rng):
            return rng.random()
        adapted = adapt_realization(routine)
        assert adapted is routine

    def test_zero_argument_installs_global_rng(self, tree):
        def routine():
            return rnd128()
        adapted = adapt_realization(routine)
        generator = tree.rng(0, 0, 5)
        expected = tree.rng(0, 0, 5).random()
        assert adapted(generator) == expected
        # The global generator now *is* the supplied one.
        assert current_rnd128() is generator

    def test_default_arguments_do_not_count(self):
        def routine(rng, scale=2.0):
            return rng.random() * scale
        adapted = adapt_realization(routine)
        assert adapted is routine

    def test_two_required_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            adapt_realization(lambda rng, extra: 0.0)

    def test_non_callable_rejected(self):
        with pytest.raises(ConfigurationError):
            adapt_realization(42)


class TestRunWorker:
    def test_simulates_exactly_quota(self):
        config = RunConfig(maxsv=100, processors=1)
        messages = []
        accumulator = run_worker(lambda rng: rng.random(), config, 0, 17,
                                 send=messages.append)
        assert accumulator.volume == 17
        assert messages[-1].final
        assert messages[-1].snapshot.volume == 17

    def test_uses_correct_stream_coordinates(self):
        # Worker rank 1 of experiment 3 must consume exactly the
        # realization streams (3, 1, 0), (3, 1, 1), ...
        config = RunConfig(maxsv=100, processors=2, seqnum=3)
        values = []
        run_worker(lambda rng: values.append(rng.random()) or values[-1],
                   config, 1, 3, send=lambda m: None)
        tree = StreamTree()
        expected = [tree.rng(3, 1, r).random() for r in range(3)]
        assert values == expected

    def test_perpass_zero_sends_every_realization(self):
        config = RunConfig(maxsv=100, processors=1, perpass=0.0)
        messages = []
        run_worker(lambda rng: 1.0, config, 0, 5, send=messages.append)
        # 5 per-realization messages plus the final one.
        assert len(messages) == 6
        assert [m.snapshot.volume for m in messages] == [1, 2, 3, 4, 5, 5]

    def test_perpass_throttles_sends(self):
        clock = FakeClock()
        config = RunConfig(maxsv=100, processors=1, perpass=10.0)

        def routine(rng):
            clock.advance(1.0)  # each realization takes 1 virtual second
            return 1.0

        messages = []
        run_worker(routine, config, 0, 25, send=messages.append,
                   clock=clock)
        # Sends at t=10 and t=20 (plus final): 3 messages.
        assert len(messages) == 3
        assert messages[-1].final

    def test_deadline_stops_early(self):
        clock = FakeClock()
        config = RunConfig(maxsv=1000, processors=1, perpass=1000.0)

        def routine(rng):
            clock.advance(1.0)
            return 1.0

        messages = []
        accumulator = run_worker(routine, config, 0, 1000,
                                 send=messages.append, clock=clock,
                                 deadline=5.0)
        assert accumulator.volume == 5
        assert messages[-1].final

    def test_compute_time_recorded(self):
        clock = FakeClock()
        config = RunConfig(maxsv=10, processors=1)

        def routine(rng):
            clock.advance(2.0)
            return 1.0

        accumulator = run_worker(routine, config, 0, 4,
                                 send=lambda m: None, clock=clock)
        assert accumulator.compute_time == pytest.approx(8.0)

    def test_matrix_realizations(self):
        config = RunConfig(nrow=2, ncol=2, maxsv=10, processors=1)
        accumulator = run_worker(
            lambda rng: np.full((2, 2), rng.random()), config, 0, 4,
            send=lambda m: None)
        assert accumulator.shape == (2, 2)
        assert accumulator.volume == 4

    def test_user_exception_wrapped(self):
        config = RunConfig(maxsv=10, processors=1, seqnum=2)

        def broken(rng):
            raise ValueError("boom")

        with pytest.raises(RealizationError) as info:
            run_worker(broken, config, 1, 3, send=lambda m: None)
        assert info.value.experiment == 2
        assert info.value.processor == 1
        assert info.value.realization == 0
        assert isinstance(info.value.__cause__, ValueError)

    def test_zero_quota_sends_only_final(self):
        config = RunConfig(maxsv=10, processors=1)
        messages = []
        accumulator = run_worker(lambda rng: 1.0, config, 0, 0,
                                 send=messages.append)
        assert accumulator.volume == 0
        assert len(messages) == 1
        assert messages[0].final

    def test_negative_quota_rejected(self):
        config = RunConfig(maxsv=10, processors=1)
        with pytest.raises(ConfigurationError):
            run_worker(lambda rng: 1.0, config, 0, -1, send=lambda m: None)

    def test_determinism_across_runs(self):
        config = RunConfig(maxsv=10, processors=1)
        first = run_worker(lambda rng: rng.random(), config, 0, 10,
                           send=lambda m: None)
        second = run_worker(lambda rng: rng.random(), config, 0, 10,
                            send=lambda m: None)
        assert np.array_equal(first.snapshot().sum1,
                              second.snapshot().sum1)


def _uniform(rng):
    return rng.random()


class TestJobTagAtTheSource:
    """``run_worker(job=)`` stamps the pass when it builds it — the one
    place a pass gets its tag — and the bytes on either channel are
    what the two downstream re-taggers used to produce."""

    def _passes(self, job, **config_kwargs):
        config = RunConfig(maxsv=3, perpass=0.0, **config_kwargs)
        sent = []
        run_worker(_uniform, config, rank=2, quota=3, send=sent.append,
                   clock=FakeClock(), job=job)
        return sent

    @pytest.mark.parametrize("config_kwargs", [
        {}, {"statistics": ("moments", "extrema")}])
    def test_tagged_bytes_are_the_old_retagged_bytes(self, config_kwargs):
        plain = self._passes(None, **config_kwargs)
        tagged = self._passes("j", **config_kwargs)
        assert len(plain) == len(tagged) == 4  # three passes + the final
        assert all(message.job is None for message in plain)
        assert all(message.job == "j" for message in tagged)
        for before, after in zip(plain, tagged):
            # The queue path used dataclasses.replace on the child side.
            assert pickle.dumps(after) \
                == pickle.dumps(dataclasses.replace(before, job="j"))
            # The pool path overrode the tag while encoding: "job" leads
            # the tail, everything else is the untagged pass.
            body = message_to_payload(after)
            flags, rank, sent_at, snapshot, tail = \
                unpack_moments(message_to_payload(before))
            assert body == pack_moments(snapshot, {"job": "j", **tail},
                                        flags=flags, rank=rank,
                                        sent_at=sent_at)
            assert message_from_payload(body).job == "j"

    def test_untagged_pass_has_no_tail(self):
        body = message_to_payload(self._passes(None)[0])
        assert len(body) == 48 + 16  # header + one sum1 + one sum2 entry
        assert message_from_payload(body).job is None


class TestWorkerProcess:
    """One process body for every backend that forks workers: a queue
    takes the message, a pipe takes its DATA body."""

    CONFIG = RunConfig(maxsv=4, perpass=0.0)

    def _through_queue(self, **kwargs):
        outbox = queue.Queue()
        worker_process(_uniform, self.CONFIG, 1, 4, outbox, **kwargs)
        return [outbox.get_nowait() for _ in range(outbox.qsize())]

    def _through_pipe(self, **kwargs):
        inbox, outbox = multiprocessing.Pipe(duplex=False)
        with inbox, outbox:
            worker_process(_uniform, self.CONFIG, 1, 4, outbox, **kwargs)
            received = []
            while inbox.poll():
                received.append(message_from_payload(inbox.recv_bytes()))
        return received

    @pytest.mark.parametrize("job", [None, "exp-a"])
    def test_queue_and_pipe_carry_the_same_passes(self, job):
        queued = self._through_queue(job=job)
        piped = self._through_pipe(job=job)
        assert [(m.rank, m.snapshot.volume, m.final, m.job)
                for m in queued] \
            == [(m.rank, m.snapshot.volume, m.final, m.job)
                for m in piped] \
            == [(1, 1, False, job), (1, 2, False, job), (1, 3, False, job),
                (1, 4, False, job), (1, 4, True, job)]
        assert all(np.array_equal(a.snapshot.sum1, b.snapshot.sum1)
                   for a, b in zip(queued, piped))

    def test_deadline_arrives_absolute_or_as_remaining_seconds(self):
        # Already past either way: the worker stops after the
        # realization in flight and ships its final pass.
        absolute = self._through_queue(deadline=time.monotonic())
        remaining = self._through_pipe(deadline_in=0.0)
        for passes in (absolute, remaining):
            assert passes[-1].final and passes[-1].snapshot.volume == 1


@batch_routine(4)
def _one_row_short(streams):
    return streams.uniforms(1)[:-1, 0]


@batch_routine(4)
def _raising_block(streams):
    raise ValueError("boom")


def _raising(rng):
    raise ValueError("boom")


class TestRealizationErrorOnEveryClock:
    """The simulated cluster steps the real worker body, so a routine
    that fails fails the same way on the virtual clock as on the real
    one (the simulation's private loop let a short block through with
    volume 0 and a raising routine out as a bare ValueError)."""

    @pytest.mark.parametrize("routine", [_one_row_short, _raising_block,
                                         _raising])
    @pytest.mark.parametrize("backend", ["sequential", "simcluster"])
    def test_failing_routine_carries_its_coordinates(self, backend, routine):
        from repro import parmonc

        with pytest.raises(RealizationError) as info:
            parmonc(routine, maxsv=8, processors=2, seqnum=5,
                    backend=backend, use_files=False)
        assert (info.value.experiment, info.value.processor,
                info.value.realization) == (5, 0, 0)


def _pair(rng):
    return np.array([[rng.random(), rng.random() * 2.0 - 1.0]])


class TestSteppedInAnyOrderIsStraightThrough:
    """The worker-side seed of the reproducibility audit (ROADMAP item
    6): worker bodies stepped in any interleaving across ranks, in any
    batch segmentation, passing data at any points, end on the bytes
    ``run_worker`` produces straight through, and their merge is the
    sequential backend's result."""

    def test_any_interleaving_any_segmentation_any_pass_points(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from repro.runtime.collector import Collector
        from repro.runtime.sequential import run_sequential
        from repro.stats.accumulator import MomentSnapshot

        @hypothesis.settings(derandomize=True, print_blob=True,
                             deadline=None)
        @hypothesis.given(
            processors=st.integers(1, 4), maxsv=st.integers(1, 48),
            batch=st.sampled_from([None, 1, 3, 8, 16]),
            extras=st.sampled_from([(), ("extrema",), ("covariance",)]),
            job=st.sampled_from([None, "j"]),
            schedule=st.lists(st.tuples(st.integers(0, 3),
                                        st.integers(1, 20), st.booleans()),
                              max_size=80))
        def check(processors, maxsv, batch, extras, job, schedule):
            config = RunConfig(nrow=1, ncol=2, maxsv=maxsv, seqnum=2,
                               processors=processors, perpass=0.0,
                               statistics=("moments", *extras))
            routine = _pair if batch is None else make_batched(_pair, batch)
            clock = FakeClock()
            bodies = [WorkerBody(routine, config, rank, clock=clock, job=job)
                      for rank in range(processors)]
            left = [config.worker_quota(rank) for rank in range(processors)]
            collector = Collector(config, MomentSnapshot.zero(1, 2), None)
            for pick, limit, passing in schedule:
                live = [rank for rank in range(processors) if left[rank]]
                if not live:
                    break
                rank = live[pick % len(live)]
                width, _ = bodies[rank].step(min(limit, left[rank]))
                assert 1 <= width <= min(limit, left[rank], batch or 1)
                left[rank] -= width
                if passing:
                    collector.receive(bodies[rank].message(0.0, False), 0.0)
            for rank in reversed(range(processors)):
                while left[rank]:
                    left[rank] -= bodies[rank].step(left[rank])[0]
                final = bodies[rank].message(0.0, True)
                straight = []
                run_worker(routine, config, rank, config.worker_quota(rank),
                           send=straight.append, clock=clock, job=job)
                assert message_to_payload(final) \
                    == message_to_payload(straight[-1])
                collector.receive(final, 0.0)
            reference = run_sequential(_pair, config, use_files=False)
            merged = collector.merged().estimates()
            for name in ("mean", "variance", "abs_error", "rel_error"):
                assert getattr(merged, name).tobytes() \
                    == getattr(reference.estimates, name).tobytes(), name
            assert merged.volume == reference.total_volume == maxsv
            assert {kind: statistic.to_payload() for kind, statistic
                    in collector.merged_statistics().items()} \
                == {kind: statistic.to_payload() for kind, statistic
                    in reference.statistics.items()}

        check()
