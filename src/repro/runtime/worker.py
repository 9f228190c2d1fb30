"""The per-processor simulation loop.

A worker owns one "processors" subsequence of the RNG hierarchy.  For
its ``r``-th realization it positions a fresh generator at realization
substream ``r``, runs the user routine, accumulates the returned matrix,
and every ``perpass`` seconds ships its cumulative statistics to the
collector.  ``perpass = 0`` reproduces the paper's strictest performance
test: a data pass after *every* realization.

The worker accumulates the run's declared
:class:`~repro.stats.statistic.StatisticSet`: always the moment pair,
plus any extra mergeable statistics from ``config.statistics``
(covariance, histogram, ...), whose frozen snapshots ride each data
pass inside its moment snapshot (``snapshot.extras``).  A moments-only
run takes exactly the historical code path.

Routines carrying a ``batch_size`` attribute (see :func:`batch_routine`
and :func:`make_batched`) take the batched fast path instead: the worker
places a whole block of realization substreams at once
(:meth:`~repro.rng.streams.ProcessorStream.realization_block`), calls
the routine once per block, and folds the returned ``(B, nrow, ncol)``
stack with one :meth:`~repro.stats.accumulator.MomentAccumulator
.add_batch`.  Estimates are bit-identical to the scalar loop's.

All of that is :class:`WorkerBody`; :func:`run_worker` is its driver on
the real clock and the simulated cluster its driver on a virtual one;
:func:`worker_process` runs it in every forked worker, behind a
latest-wins outbox.
"""

from __future__ import annotations

import inspect
import time
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import ConfigurationError, RealizationError
from repro.obs.telemetry import WorkerTelemetry
from repro.rng import install_rnd128
from repro.rng.batch import BatchStreams
from repro.rng.lcg128 import Lcg128
from repro.rng.streams import StreamTree
from repro.runtime.config import RunConfig
from repro.runtime.messages import MomentMessage, message_bytes, pass_encoder
from repro.stats.accumulator import MomentAccumulator
from repro.stats.statistic import StatisticSet

__all__ = ["RealizationRoutine", "BatchRealizationRoutine",
           "adapt_realization", "batch_routine", "make_batched",
           "WorkerBody", "run_worker", "worker_process"]

#: A realization routine: either ``fn(rng) -> matrix`` or, PARMONC-style,
#: ``fn() -> matrix`` drawing from the global :func:`repro.rng.rnd128`.
RealizationRoutine = Callable


@runtime_checkable
class BatchRealizationRoutine(Protocol):
    """A routine simulating ``B`` realizations per call.

    Receives a :class:`~repro.rng.batch.BatchStreams` of ``B`` disjoint
    substreams and returns a ``(B, nrow, ncol)`` array (a length-``B``
    vector for 1x1 problems); ``batch_size`` is the preferred block
    width — the worker may call with fewer streams on the final block.
    """

    batch_size: int

    def __call__(self, streams: BatchStreams) -> object: ...


def _check_batch_size(batch_size: object) -> int:
    if not isinstance(batch_size, int) or isinstance(batch_size, bool) \
            or batch_size < 1:
        raise ConfigurationError(
            f"batch_size must be a positive integer, got {batch_size!r}")
    return batch_size


def batch_routine(batch_size: int) -> Callable[[Callable], Callable]:
    """Decorator marking ``fn(streams) -> (B, nrow, ncol)`` as batched.

    Example:
        >>> @batch_routine(512)
        ... def kernel(streams):
        ...     return streams.uniforms(1)[:, 0]
        >>> kernel.batch_size
        512
    """
    _check_batch_size(batch_size)

    def mark(fn: Callable) -> Callable:
        if not callable(fn):
            raise ConfigurationError(
                f"batch routine must be callable, got "
                f"{type(fn).__name__}")
        fn.batch_size = batch_size
        return fn
    return mark


class _BatchedRoutine:
    """Picklable scalar-to-batched adapter (see :func:`make_batched`).

    A class, not a closure, so a batched wrapper built on one host can
    cross a multiprocessing "spawn" boundary or the distributed
    backend's SUBMIT pickle — only the wrapped routine itself must be
    picklable (a module-level function is).
    """

    def __init__(self, routine: RealizationRoutine,
                 batch_size: int) -> None:
        self._routine = routine
        self._adapted = adapt_realization(routine)
        self.batch_size = batch_size
        self.__name__ = (
            f"batched_{getattr(routine, '__name__', 'realization')}")

    def __call__(self, streams: BatchStreams):
        return np.stack([
            np.atleast_2d(np.asarray(
                self._adapted(rng), dtype=np.float64))
            for rng in streams.generators()])


def make_batched(routine: RealizationRoutine,
                 batch_size: int) -> BatchRealizationRoutine:
    """Wrap a scalar realization routine for the batched worker loop.

    The adapter peels the block apart again — it calls the scalar
    routine once per stream via :meth:`~repro.rng.batch.BatchStreams
    .generators` — so it does not vectorize the simulation itself, but
    it does buy the block-placement and batch-accumulation savings, and
    its results are bit-identical to the scalar loop's.
    """
    _check_batch_size(batch_size)
    if getattr(routine, "batch_size", None) is not None:
        raise ConfigurationError(
            "routine is already batched; make_batched only wraps scalar "
            "realization routines")
    return _BatchedRoutine(routine, batch_size)


class _ZeroArgAdapter:
    """Picklable wrapper for PARMONC-style ``fn() -> matrix`` routines.

    Installs the supplied generator behind the global
    :func:`repro.rng.rnd128` before each call — the direct analogue of
    the C API, where the user routine calls ``rnd128()`` with no
    arguments.  A class rather than a closure so adapted routines can
    cross process and wire boundaries.
    """

    def __init__(self, routine: RealizationRoutine) -> None:
        self._routine = routine
        self.__name__ = getattr(routine, "__name__", "realization")

    def __call__(self, rng: Lcg128):
        install_rnd128(rng)
        return self._routine()


def adapt_realization(routine: RealizationRoutine) -> Callable:
    """Normalize a user routine to the ``fn(rng) -> matrix`` convention.

    Zero-argument routines are wrapped so that the supplied generator is
    installed behind the global :func:`repro.rng.rnd128` before each
    call — the direct analogue of the C API, where the user routine
    calls ``rnd128()`` with no arguments.

    Routines carrying a ``batch_size`` attribute are validated and
    passed through unchanged; the worker detects the attribute and runs
    the batched loop instead of the scalar one.
    """
    if not callable(routine):
        raise ConfigurationError(
            f"realization routine must be callable, got "
            f"{type(routine).__name__}")
    try:
        parameters = [
            p for p in inspect.signature(routine).parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            and p.default is p.empty]
        n_required = len(parameters)
    except (TypeError, ValueError):
        # Builtins and some callables hide their signature; assume the
        # modern one-argument convention.
        n_required = 1
    if getattr(routine, "batch_size", None) is not None:
        _check_batch_size(routine.batch_size)
        if n_required != 1:
            raise ConfigurationError(
                f"batch realization routine must take exactly 1 argument "
                f"(the stream block); "
                f"{getattr(routine, '__name__', routine)!r} requires "
                f"{n_required}")
        return routine
    if n_required == 0:
        return _ZeroArgAdapter(routine)
    if n_required == 1:
        return routine
    raise ConfigurationError(
        f"realization routine must take 0 arguments (global rnd128 "
        f"style) or 1 argument (the generator); "
        f"{getattr(routine, '__name__', routine)!r} requires {n_required}")


class WorkerBody:
    """One processor's share of the sample, advanced a step at a time.

    The single implementation of what a PARMONC worker does between two
    looks at the clock: place the next realization's substream (or a
    block of them, for a routine with a ``batch_size``), call the
    routine, fold the result into the run's
    :class:`~repro.stats.statistic.StatisticSet`, count it on the
    worker's telemetry, say whether a data pass is due under
    ``config.perpass``, and build that pass.  Its *driver* owns
    everything else — when to step, how far, the deadline, where a pass
    goes: :func:`run_worker` is the driver on the real clock, the
    simulated cluster (:class:`~repro.runtime.simcluster
    .SimclusterBackend`) drives the same object from its event queue.

    ``step``, ``pass_due``, ``message`` and ``encode`` are closures bound
    once here, not methods: :func:`run_worker` calls them per
    realization, where a method looking its state up on ``self``
    measured +0.9 us per step and the closures +0.3 us (on a 13.5 us
    loop).

    Args:
        routine: The user realization routine; None keeps the books
            with zero matrices and places no substream (a simulated
            cluster's accounting-only runs).
        config: Run configuration (seqnum, perpass, shape, leaps).
        rank: The processor index — which "processors" subsequence.
        clock: The driver's time source, read around each routine call.
        telemetry: Optional per-worker counters; when given, every pass
            carries their cumulative dict on its ``metrics`` field.
        job: Owning job id, stamped on every pass; None (a single run)
            keeps the historical bytes.
        nbytes: Wire size accounted per pass; None derives it from the
            shape and the declared statistics (a simulated cluster
            charges its model's size instead).

    Attributes:
        accumulator: The moment accumulator; its ``volume`` is also the
            index of the next realization.
        telemetry: The ``telemetry`` argument.
        nbytes: The wire size accounted per pass.
        step: ``step(limit) -> (width, finished)`` — simulate the next
            realization, or the next block of at most ``limit``, and
            return how many were folded and the clock when the routine
            returned.
        pass_due: ``pass_due(now) -> bool`` — the ``perpass`` rule.
        message: ``message(sent_at, final) -> MomentMessage`` — the
            cumulative pass; building it restarts the ``perpass``
            period.
        encode: ``encode(sent_at, final) -> bytearray`` — the same pass
            and bookkeeping, as the bytes
            :func:`~repro.runtime.messages.message_to_payload` makes of
            ``message(sent_at, final)``, written from the live sums into
            one buffer reused for every pass (valid until the next).
    """

    def __init__(self, routine: RealizationRoutine | None,
                 config: RunConfig, rank: int,
                 clock: Callable[[], float] = time.monotonic,
                 telemetry: WorkerTelemetry | None = None,
                 job: str | None = None,
                 nbytes: int | None = None) -> None:
        statistics = StatisticSet.for_run(config.statistics, config.nrow,
                                          config.ncol)
        accumulator = statistics.moments
        if nbytes is None:
            nbytes = message_bytes(config.nrow, config.ncol,
                                   statistics.extras)
        if routine is None:
            zero = np.zeros(config.shape)
            adapted, batch_size = (lambda rng: zero), None
            place = (lambda index: None)
        else:
            adapted = adapt_realization(routine)
            batch_size = getattr(adapted, "batch_size", None)
            stream = StreamTree(config.leaps).experiment(config.seqnum) \
                                             .processor(rank)
            place = (stream.realization if batch_size is None
                     else stream.realization_block)
        if batch_size is None:
            update = statistics.update
            account = telemetry.realization if telemetry is not None \
                else None
        else:
            update = statistics.update_batch
            account = telemetry.batch if telemetry is not None else None
        seqnum, perpass = config.seqnum, config.perpass
        # Checked once here (rank >= 0); every pass is this template
        # restamped, with its sent_at checked in message().
        template = MomentMessage(rank=rank, snapshot=accumulator.snapshot(),
                                 sent_at=0.0, job=job)
        index = 0
        last_send = clock()

        def step_one(limit: int) -> tuple[int, float]:
            nonlocal index
            rng = place(index)
            started = clock()
            try:
                result = adapted(rng)
            except Exception as exc:
                raise RealizationError(
                    f"realization routine failed at experiment="
                    f"{seqnum} processor={rank} realization={index}: "
                    f"{exc}", experiment=seqnum, processor=rank,
                    realization=index) from exc
            finished = clock()
            update(result, compute_time=finished - started)
            if account is not None:
                account(finished - started)
            index += 1
            return 1, finished

        def step_block(limit: int) -> tuple[int, float]:
            nonlocal index
            width = min(batch_size, limit)
            streams = place(index, width)
            started = clock()
            try:
                results = adapted(streams)
            except Exception as exc:
                raise RealizationError(
                    f"batch realization routine failed at experiment="
                    f"{seqnum} processor={rank} realizations="
                    f"{index}..{index + width - 1}: {exc}",
                    experiment=seqnum, processor=rank,
                    realization=index) from exc
            finished = clock()
            shape = np.shape(results)
            if not shape or shape[0] != width:
                returned = f"shape {shape}" if shape else "a scalar"
                raise RealizationError(
                    f"batch realization routine returned {returned} "
                    f"for a block of {width} streams at "
                    f"experiment={seqnum} processor={rank}",
                    experiment=seqnum, processor=rank,
                    realization=index)
            update(results, compute_time=finished - started)
            if account is not None:
                account(width, finished - started)
            index += width
            return width, finished

        def pass_due(now: float) -> bool:
            return perpass == 0.0 or now - last_send >= perpass

        def book(sent_at: float) -> dict | None:
            """A pass's bookkeeping: check its time, count it, restart
            the perpass period; return the metrics riding along."""
            nonlocal last_send
            if sent_at < 0.0:
                raise ConfigurationError(
                    f"message send time must be >= 0, got {sent_at}")
            metrics = None
            if telemetry is not None:
                telemetry.message(nbytes)
                metrics = telemetry.as_dict(now=sent_at)
            last_send = sent_at
            return metrics

        def message(sent_at: float, final: bool) -> MomentMessage:
            metrics = book(sent_at)
            return template._restamp(
                accumulator.snapshot(statistics.extras_snapshot()), sent_at,
                final, metrics)

        write = pass_encoder(rank, job)

        def encode(sent_at: float, final: bool) -> bytearray:
            metrics = book(sent_at)
            sum1, sum2 = accumulator.sums()
            return write(sum1, sum2, accumulator.volume,
                         accumulator.compute_time, sent_at, final, metrics,
                         statistics.extras_snapshot())

        self.accumulator = accumulator
        self.telemetry = telemetry
        self.nbytes = nbytes
        self.step = step_one if batch_size is None else step_block
        self.pass_due = pass_due
        self.message = message
        self.encode = encode


def run_worker(routine: RealizationRoutine, config: RunConfig, rank: int,
               quota: int, send: Callable[[MomentMessage], None],
               clock: Callable[[], float] = time.monotonic,
               deadline: float | None = None,
               telemetry: WorkerTelemetry | None = None,
               job: str | None = None,
               ready: Callable[[], bool] | None = None, *,
               encoded: bool = False) -> MomentAccumulator:
    """Simulate ``quota`` realizations on processor ``rank``.

    The real-clock driver of a :class:`WorkerBody`: step until the
    quota is simulated or the deadline has passed, ship a pass whenever
    one is due and the sink is ready for it, ship the final one.

    Args:
        routine: The user realization routine; one with a ``batch_size``
            attribute takes the batched fast path.
        config: Run configuration (seqnum, perpass, shape, leaps).
        rank: This worker's processor index.
        quota: Number of realizations to simulate.
        send: Callback delivering a :class:`MomentMessage` to the
            collector (a queue put, an in-process call, ...).
        clock: Monotonic time source in seconds.
        deadline: Optional absolute clock value after which the worker
            stops early (the job time limit): it finishes the
            realization (or block) in flight and simulates no more.
        telemetry: Optional per-worker stats; when given, every data
            pass carries its cumulative dict to rank 0 on the message's
            ``metrics`` field.  None (the default) leaves the loop
            untouched.
        job: Owning job id, stamped on every pass so a scheduler can
            route several jobs' traffic over one channel; None (a
            single run) keeps the historical bytes.
        ready: Optional sink test, asked when a non-final pass is due;
            a pass it refuses is neither built nor sent, stays due, and
            counts as ``superseded`` on ``telemetry``.  Never asked for
            the final pass.  None ships every due pass.
        encoded: Hand ``send`` each pass as its DATA body
            (:attr:`WorkerBody.encode`: one reused buffer, valid until
            the next pass) instead of a :class:`MomentMessage`.

    Returns:
        The worker's final accumulator (also shipped via ``send`` with
        ``final=True``).
    """
    if quota < 0:
        raise ConfigurationError(f"quota must be >= 0, got {quota}")
    if routine is None:
        # Only a simulated cluster keeps books without a routine.
        raise ConfigurationError(
            "realization routine must be callable, got NoneType")
    body = WorkerBody(routine, config, rank, clock=clock,
                      telemetry=telemetry, job=job)
    step, pass_due = body.step, body.pass_due
    message = body.encode if encoded else body.message
    done = 0
    while done < quota:
        width, finished = step(quota - done)
        done += width
        if pass_due(finished):
            if ready is None or ready():
                send(message(finished, False))
            elif telemetry is not None:
                telemetry.superseded += 1
        if deadline is not None and finished >= deadline:
            break
    send(message(clock(), True))
    return body.accumulator


def _outbox_drained(outbox) -> bool:
    """Whether every body written into ``outbox`` has been read: its
    pipe's shared counts (:class:`~repro.runtime.host.CountedEnd`)
    agree.  Two integer loads, no syscall and no lock."""
    counts = outbox.counts
    return counts[0] == counts[1]


def worker_process(routine: RealizationRoutine, config: RunConfig,
                   rank: int, quota: int, outbox, job: str | None = None,
                   deadline: float | None = None,
                   deadline_in: float | None = None) -> None:
    """The worker process target of every backend that forks one.

    Each pass is encoded from the accumulator's sums into one reused
    buffer, the bytes a DATA frame carries, and written into ``outbox``,
    the counted write end of the worker's pipe (see
    :mod:`repro.runtime.host`), in one ``writev``.  The outbox is
    latest-wins: a due pass is skipped while the previous one is still
    unread — passes are cumulative and the collector keeps only the
    latest per rank — so at most one non-final pass per worker is in
    flight.  The final is
    always written.  The time limit is ``deadline`` on this host's
    monotonic clock, or ``deadline_in`` seconds from now — what crosses
    the wire, where clocks do not.
    """
    if deadline_in is not None:
        deadline = time.monotonic() + deadline_in
    run_worker(routine, config, rank, quota, deadline=deadline,
               send=outbox.send_bytes, encoded=True,
               telemetry=WorkerTelemetry(rank) if config.telemetry else None,
               job=job, ready=lambda: _outbox_drained(outbox))
