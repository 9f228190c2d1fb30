"""Tests for repro.runtime.worker."""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import pickle
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


def _uniform_and_square(rng):
    return [[rng.random(), rng.random() ** 2]]


class TestDataBodiesPinned:
    """The bytes every hop now carries are the bytes ``run_worker``
    built before the worker host existed (sha256 over all passes,
    recorded on the parent commit of that change)."""

    DIGESTS = {
        (None, False, False): "634bdb6a77ac0e4fb456a5caae21990769517f21"
                              "9fab014fc3423d95e803d9db",
        (None, False, True): "8797fa77deb4dc152ba20566f123857c276bc3cd"
                             "2daeab9d41f1b86a72742db0",
        (None, True, False): "7a337e5ab18f0b215e07af4db47db4f86639cfe4"
                             "505b727f4db84a4d161ba648",
        (None, True, True): "69331f91393523a4c34c7ca95cb75eb71a75ee49"
                            "c6367908bd21579a3568eba5",
        ("exp-a", False, False): "066b32bacd83507e611d1901db37b2bcd3b03fff"
                                 "1b014a0fa33571d47a976c27",
        ("exp-a", False, True): "660c4a3a77acd57a7bfa3700a98156006cb06887"
                                "1d39d3a7b2aac26da2425f77",
        ("exp-a", True, False): "8bf7268587576006905057e21c4984f330b36762"
                                "89b64ae500cec5ad2b60d4b8",
        ("exp-a", True, True): "748d4abb1b254b8fef959e51bd3d0f3433acb04c"
                               "a6edf6d4355d24f736b17f04",
    }

    @pytest.mark.parametrize("job, extras, batched", sorted(
        DIGESTS, key=repr))
    def test_bodies_are_byte_identical(self, job, extras, batched):
        ticks = iter(np.arange(1, 1000) * 0.25)  # every read: +0.25 s
        statistics = ("moments", "extrema") if extras else ("moments",)
        config = RunConfig(maxsv=40, nrow=1, ncol=2, perpass=0.0, seqnum=3,
                           statistics=statistics)
        bodies = []
        routine = _uniform_and_square
        run_worker(make_batched(routine, 8) if batched else routine, config,
                   2, 40, send=lambda m: bodies.append(message_to_payload(m)),
                   clock=lambda: float(next(ticks)), job=job)
        assert hashlib.sha256(b"".join(bodies)).hexdigest() \
            == self.DIGESTS[job, extras, batched]


class TestPassesShareNothing:
    """A pass is built without re-running the message and snapshot
    checks; it must still be a private copy, and the body must still
    refuse what those checks refused.  (The public constructors keep
    their checks: tests/test_runtime_files.py and
    tests/test_stats_accumulator.py pin them.)"""

    def _body(self, **kwargs):
        config = RunConfig(maxsv=40, nrow=1, ncol=2, perpass=0.0, seqnum=3)
        return WorkerBody(_uniform_and_square, config, 2, clock=FakeClock(),
                          **kwargs)

    def test_an_earlier_pass_keeps_its_bytes(self):
        body = self._body(job="j")
        body.step(1)
        early = body.message(0.5, False)
        kept = message_to_payload(early)
        for _ in range(5):
            body.step(1)
            body.message(1.0, False)
        assert message_to_payload(early) == kept
        assert (early.rank, early.job, early.snapshot.volume) == (2, "j", 1)

    def test_no_buffer_is_shared(self):
        body = self._body()
        body.step(1)
        first, second = body.message(0.5, False), body.message(0.5, True)
        accumulator = body.accumulator
        live = [accumulator._sum1, accumulator._sum2, accumulator._square]
        arrays = [first.snapshot.sum1, first.snapshot.sum2,
                  second.snapshot.sum1, second.snapshot.sum2]
        for index, array in enumerate(arrays):
            for other in arrays[index + 1:] + live:
                assert not np.shares_memory(array, other)

    def test_negative_send_time_is_still_rejected(self):
        body = self._body()
        body.step(1)
        with pytest.raises(ConfigurationError, match="send time"):
            body.message(-0.5, False)

    def test_negative_rank_is_still_rejected(self):
        config = RunConfig(maxsv=4, nrow=1, ncol=2)
        # No routine: the body places no substream, so only the pass
        # template's check stands between a negative rank and a pass.
        with pytest.raises(ConfigurationError, match="rank"):
            WorkerBody(None, config, -1)


def _unclocked(body: bytes) -> bytes:
    """A DATA body without its two clock fields (sent_at, compute)."""
    return body[:24] + bytes(16) + body[40:]


class TestWorkerProcess:
    """One process body and one sink for every backend that forks
    workers: the DATA body of each pass, written into a pipe whose
    outbox is latest-wins."""

    CONFIG = RunConfig(maxsv=4, perpass=0.0)

    def _through_pipe(self, **kwargs):
        inbox, outbox = multiprocessing.Pipe(duplex=False)
        with inbox, outbox:
            worker_process(_uniform, self.CONFIG, 1, 4, outbox, **kwargs)
            received = []
            while inbox.poll():
                received.append(inbox.recv_bytes())
        return received

    @pytest.mark.parametrize("job", [None, "exp-a"])
    def test_pipe_carries_the_run_worker_passes(self, job):
        # Nobody reads until the worker returns: the first pass finds
        # the pipe empty, the next three find it unread and are
        # superseded, and the final goes out regardless.
        sent = []
        run_worker(_uniform, self.CONFIG, 1, 4, send=sent.append, job=job)
        piped = self._through_pipe(job=job)
        messages = [message_from_payload(body) for body in piped]
        assert [(m.rank, m.snapshot.volume, m.final, m.job)
                for m in messages] \
            == [(1, 1, False, job), (1, 4, True, job)]
        built = {(m.snapshot.volume, m.final):
                 _unclocked(message_to_payload(m)) for m in sent}
        assert [_unclocked(body) for body in piped] \
            == [built[1, False], built[4, True]]

    def test_deadline_arrives_absolute_or_as_remaining_seconds(self):
        # Already past either way: the worker stops after the
        # realization in flight and ships its final pass.
        absolute = self._through_pipe(deadline=time.monotonic())
        remaining = self._through_pipe(deadline_in=0.0)
        for passes in (absolute, remaining):
            final = message_from_payload(passes[-1])
            assert final.final and final.snapshot.volume == 1


class _Ticks:
    """A clock advancing 0.25 s on every read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.25
        return self.now


class TestLatestWinsOutbox:
    """``run_worker(ready=)``: a due pass is built and sent only when
    the sink says it is ready; a skipped one stays due, and the final
    is never asked about.  Which passes get through changes no bit of
    what the collector ends on."""

    def test_ready_steps_ship_run_worker_bodies_and_the_final(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from repro.runtime.collector import Collector
        from repro.stats.accumulator import MomentSnapshot

        @hypothesis.settings(derandomize=True, print_blob=True,
                             deadline=None)
        @hypothesis.given(
            quota=st.integers(1, 24),
            batch=st.sampled_from([None, 1, 3, 8]),
            extras=st.sampled_from([(), ("extrema",), ("covariance",)]),
            job=st.sampled_from([None, "j"]),
            perpass=st.sampled_from([0.0, 0.5, 1.25]),
            answers=st.lists(st.booleans(), max_size=30))
        def check(quota, batch, extras, job, perpass, answers):
            routine = _pair if batch is None else make_batched(_pair, batch)

            def drive(perpass, clock, ready=None):
                config = RunConfig(nrow=1, ncol=2, maxsv=quota, seqnum=4,
                                   perpass=perpass,
                                   statistics=("moments", *extras))
                sent = []
                run_worker(routine, config, 0, quota, send=sent.append,
                           clock=clock, job=job, ready=ready)
                return config, sent

            # The reference ships a pass after every step.  The clock is
            # read the same number of times either way, so a step's
            # pass has the same bytes whichever passes were sent.
            config, every = drive(0.0, _Ticks())
            at_step = {m.sent_at: message_to_payload(m)
                       for m in every if not m.final}
            clock, left, granted = _Ticks(), iter(answers), []

            def ready():
                answer = next(left, True)
                if answer:
                    granted.append(clock.now)  # the step's finish time
                return answer

            _, shipped = drive(perpass, clock, ready)
            # Due steps under the perpass rule: a skipped pass stays
            # due, and the period restarts where a pass was built.
            expected, left = [], iter(answers)
            last_send = 0.25  # the body's first clock read
            for step in sorted(at_step):
                if perpass == 0.0 or step - last_send >= perpass:
                    if next(left, True):
                        expected.append(step)
                        last_send = step
            assert [m.sent_at for m in shipped[:-1]] == granted == expected
            assert [message_to_payload(m) for m in shipped[:-1]] \
                == [at_step[step] for step in expected]
            assert shipped[-1].final \
                and shipped[-1].snapshot.volume == quota
            assert message_to_payload(shipped[-1]) \
                == message_to_payload(every[-1])
            merged = []
            for messages in (every, shipped):
                collector = Collector(config, MomentSnapshot.zero(1, 2),
                                      None)
                for message in messages:
                    collector.receive(message, 0.0)
                estimates = collector.merged().estimates()
                merged.append((
                    [getattr(estimates, name).tobytes() for name in
                     ("mean", "variance", "abs_error", "rel_error")],
                    {kind: statistic.to_payload() for kind, statistic
                     in collector.merged_statistics().items()}))
            assert merged[0] == merged[1]

        check()


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
