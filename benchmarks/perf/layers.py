"""Per-layer micro-measurements and the per-workload layer budget.

Every number here comes from calling a layer's *public* function from
this file, on the Fig. 2 shapes (a 1000x2 realization matrix and the
cumulative snapshot message a worker ships), with a span around each
batch of calls.  Layer names are module names.  The budget multiplies
these costs by how often a workload's units call each layer and
divides by the unit's measured time; what the product does not explain
— pipe and socket hops, process spawns, fsync queues, waiting — is
reported as ``budget.unaccounted_share``, never hidden.
"""

from __future__ import annotations

import pickle
import shutil
import statistics
import time
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np

from repro.rng.multiplier import DEFAULT_LEAPS
from repro.rng.streams import StreamTree
from repro.runtime import shm
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory
from repro.runtime.job import JobSpec
from repro.runtime.messages import MomentMessage
from repro.runtime.scheduler import Scheduler
from repro.runtime.sequential import SequentialBackend
from repro.runtime.storage import durable_writes, write_artifact
from repro.runtime.wire import (
    FrameKind,
    decode_frame,
    encode_frame,
    message_from_payload,
    message_to_payload,
)
from repro.runtime.worker import run_worker
from repro.stats.accumulator import MomentAccumulator, MomentSnapshot
from repro.stats.merging import merge_snapshots

from fig2_routine import NCOL, NROW, overhead

#: Calls per measurement: at least 1 000, except the millisecond-scale
#: operations (README, "Deviations"), which would eat the run otherwise.
CALLS = 1_000
SLOW_CALLS = 250
BATCHES = 20
BATCH_WIDTH = 512
BLOCK_DRAWS = 1_024


class Micro:
    """Runs batches of calls under a span, bracketed by calibrations."""

    def __init__(self, tracer, machine) -> None:
        self.tracer = tracer
        self.machine = machine

    def ns_per_call(self, layer: str, call, calls: int = CALLS) -> float:
        """Calibrated median over batches of the mean ns per call."""
        batch = max(calls // BATCHES, 1)

        def batches() -> list[float]:
            samples = []
            for _ in range(BATCHES):
                began = time.perf_counter_ns()
                for _ in range(batch):
                    call()
                samples.append((time.perf_counter_ns() - began) / batch)
            return samples

        with self.tracer.span(f"micro.{layer}", calls=batch * BATCHES):
            samples, timing = self.machine.measure(batches)
        return statistics.median(samples) / timing.wall_factor


def measure_layers(tracer, machine, workdir: Path) -> dict[str, float]:
    """Every workload-independent per-layer metric, by name."""
    micro = Micro(tracer, machine)
    out: dict[str, float] = {}

    # -- rng -------------------------------------------------------------
    stream = StreamTree(DEFAULT_LEAPS).experiment(0).processor(0)
    indices = iter(range(10 ** 9))
    out["rng.streams.place_ns"] = micro.ns_per_call(
        "rng.streams.place", lambda: stream.realization(next(indices)))
    generator = stream.realization(0)
    out["rng.lcg128.draw_ns"] = micro.ns_per_call(
        "rng.lcg128.draw", generator.random)
    out["rng.lcg128.block_ns_per_draw"] = micro.ns_per_call(
        "rng.lcg128.block", lambda: generator.block(BLOCK_DRAWS)
    ) / BLOCK_DRAWS
    streams = stream.realization_block(0, BATCH_WIDTH)
    out["rng.batch.uniforms_ns_per_draw"] = micro.ns_per_call(
        "rng.batch.uniforms", lambda: streams.uniforms(1)) / BATCH_WIDTH

    # -- stats -----------------------------------------------------------
    matrix = overhead(generator)
    accumulator = MomentAccumulator(NROW, NCOL)
    out["stats.accumulator.add_ns"] = micro.ns_per_call(
        "stats.accumulator.add", lambda: accumulator.add(matrix, 1e-6))
    stack = np.ascontiguousarray(
        np.broadcast_to(matrix, (BATCH_WIDTH, NROW, NCOL)))
    out["stats.accumulator.add_batch_ns_per_realization"] = \
        micro.ns_per_call(
            "stats.accumulator.add_batch",
            lambda: accumulator.add_batch(stack, 1e-3),
            SLOW_CALLS) / BATCH_WIDTH
    out["stats.accumulator.snapshot_ns"] = micro.ns_per_call(
        "stats.accumulator.snapshot", accumulator.snapshot)
    snapshot = accumulator.snapshot()
    out["stats.merging.merge_ns"] = micro.ns_per_call(
        "stats.merging.merge",
        lambda: merge_snapshots([snapshot, snapshot]))

    # -- the message as each transport carries it ------------------------
    message = MomentMessage(rank=1, snapshot=snapshot, sent_at=1.5)
    frame = encode_frame(FrameKind.DATA, message_to_payload(message))
    encode_ns = micro.ns_per_call(
        "runtime.wire.encode",
        lambda: encode_frame(FrameKind.DATA, message_to_payload(message)),
        SLOW_CALLS)
    decode_ns = micro.ns_per_call(
        "runtime.wire.decode",
        lambda: message_from_payload(decode_frame(frame)[1]), SLOW_CALLS)
    out["runtime.wire.encode_ns"] = encode_ns
    out["runtime.wire.decode_ns"] = decode_ns
    out["runtime.wire.frame_bytes"] = float(len(frame))
    out["runtime.wire.mb_per_s"] = len(frame) / (encode_ns + decode_ns) * 1e3

    pickled = bytes(ForkingPickler.dumps(message))
    out["runtime.multiprocess.pickle_ns"] = micro.ns_per_call(
        "runtime.multiprocess.pickle",
        lambda: ForkingPickler.dumps(message))
    out["runtime.multiprocess.unpickle_ns"] = micro.ns_per_call(
        "runtime.multiprocess.unpickle", lambda: pickle.loads(pickled))
    out["runtime.multiprocess.pickle_bytes"] = float(len(pickled))

    ring = shm.ShmRing.create(shm.segment_name("bench"), (NROW, NCOL))
    try:
        send_ns, receive_ns = [], []

        def ring_cycle() -> None:
            began = time.perf_counter_ns()
            sent = ring.try_send(message)
            middle = time.perf_counter_ns()
            received = ring.receive()
            ended = time.perf_counter_ns()
            if not sent or received is None:
                raise RuntimeError("shm ring refused a message")
            send_ns.append(middle - began)
            receive_ns.append(ended - middle)

        with tracer.span("micro.runtime.shm", calls=CALLS):
            _, timing = machine.measure(
                lambda: [ring_cycle() for _ in range(CALLS)])
        out["runtime.shm.send_ns"] = \
            statistics.median(send_ns) / timing.wall_factor
        out["runtime.shm.receive_ns"] = \
            statistics.median(receive_ns) / timing.wall_factor
    finally:
        ring.close()
        ring.unlink()
    # Moment payload plus the extra region, per slot (public constants).
    out["runtime.shm.slot_bytes"] = float(
        16 * NROW * NCOL + shm.DEFAULT_EXTRA)

    # -- collector -------------------------------------------------------
    config = RunConfig(nrow=NROW, ncol=NCOL, maxsv=10 ** 9, processors=2)
    collector = Collector(config, MomentSnapshot.zero(NROW, NCOL), None,
                          sessions=1)
    collector.receive(MomentMessage(rank=0, snapshot=snapshot,
                                    sent_at=1.0), 1.0)
    out["runtime.collector.receive_ns"] = micro.ns_per_call(
        "runtime.collector.receive",
        lambda: collector.receive(message, 2.0))
    out["runtime.collector.merged_ns"] = micro.ns_per_call(
        "runtime.collector.merged", collector.merged)

    # -- storage ---------------------------------------------------------
    scratch = workdir / "layers"
    try:
        with durable_writes(True):
            out["runtime.storage.write_artifact_ns"] = micro.ns_per_call(
                "runtime.storage.write_artifact",
                lambda: write_artifact(scratch / "artifact.json", "bench",
                                       {"sessions": 1}, version=1),
                SLOW_CALLS)
            data = DataDirectory(scratch)
            out["runtime.files.save_savepoint_ns"] = micro.ns_per_call(
                "runtime.files.save_savepoint",
                lambda: data.save_savepoint(snapshot, used_seqnums=(0,),
                                            sessions=1),
                SLOW_CALLS // 2)
            out["runtime.files.save_processor_snapshot_ns"] = \
                micro.ns_per_call(
                    "runtime.files.save_processor_snapshot",
                    lambda: data.save_processor_snapshot(
                        0, snapshot, session=1), SLOW_CALLS // 2)
            estimates = snapshot.estimates()
            out["runtime.files.write_results_ns"] = micro.ns_per_call(
                "runtime.files.write_results",
                lambda: data.write_results(estimates, seqnum=0,
                                           processors=2, sessions=1),
                SLOW_CALLS // 2)
        out["runtime.files.savepoint_bytes"] = float(
            data.savepoint_path.stat().st_size)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # -- scheduler -------------------------------------------------------
    job_config = RunConfig(nrow=NROW, ncol=NCOL, maxsv=8)
    sealed = Scheduler(SequentialBackend())
    names = iter(range(10 ** 9))
    out["runtime.scheduler.submit_ns"] = micro.ns_per_call(
        "runtime.scheduler.submit",
        lambda: sealed.submit(JobSpec(
            routine=overhead, config=job_config,
            name=f"bench-{next(names)}", use_files=False)))
    idle = Scheduler(SequentialBackend())
    out["runtime.scheduler.idle_step_ns"] = micro.ns_per_call(
        "runtime.scheduler.idle_step", lambda: idle.step(0.0))

    # -- worker loop -----------------------------------------------------
    # The loop and its four children are timed in alternation, so both
    # see the same machine and the difference is the loop's own time.
    quota = 512
    worker_config = RunConfig(nrow=NROW, ncol=NCOL, maxsv=quota)
    loop_ns, self_ns = [], []

    def children() -> None:
        for index in range(quota):
            stream.realization(index).random()
            accumulator.add(matrix, 1e-6)
            accumulator.snapshot()

    def rounds() -> None:
        for _ in range(4 * BATCHES):
            began = time.perf_counter_ns()
            run_worker(overhead, worker_config, 0, quota,
                       send=lambda message: None)
            middle = time.perf_counter_ns()
            children()
            ended = time.perf_counter_ns()
            loop_ns.append((middle - began) / quota)
            self_ns.append((2 * middle - began - ended) / quota)

    with tracer.span("micro.runtime.worker.loop", calls=4 * BATCHES):
        _, timing = machine.measure(rounds)
    out["runtime.worker.loop_ns"] = \
        statistics.median(loop_ns) / timing.wall_factor
    out["runtime.worker.loop_self_ns"] = \
        statistics.median(self_ns) / timing.wall_factor
    return out


def layer_budget(layers: dict[str, float], *, transport: str,
                 parallel_workers: int, unit_ns: float, realizations: int,
                 messages: float, saves: float, jobs: float,
                 writes_files: bool) -> dict[str, float]:
    """ns per realization each layer explains of one unit's wall time.

    Worker-side layers run on ``parallel_workers`` processes at once, so
    their cost is divided by that; everything else is serial in the
    harness process.  ``transport`` is ``"none"`` (in-process send),
    ``"queue"`` or ``"tcp"`` (queue to the pool daemon, then frames).
    A run that writes files persists every message's subtotal, writes
    the three result files on every save and one save-point per job;
    of that, ``runtime.storage`` is the fixed cost of the atomic
    writes and ``runtime.files`` the rendering and encoding above it.
    """
    per_message = messages / realizations
    budget = {
        "rng.streams": layers["rng.streams.place_ns"] / parallel_workers,
        "rng.lcg128": layers["rng.lcg128.draw_ns"] / parallel_workers,
        "stats.accumulator": (
            layers["stats.accumulator.add_ns"]
            + layers["stats.accumulator.snapshot_ns"] * per_message
        ) / parallel_workers,
        "runtime.worker":
            layers["runtime.worker.loop_self_ns"] / parallel_workers,
        "runtime.multiprocess": 0.0,
        "runtime.wire": 0.0,
        "runtime.collector":
            layers["runtime.collector.receive_ns"] * per_message,
        "runtime.files": 0.0,
        "runtime.storage": 0.0,
        "runtime.scheduler":
            layers["runtime.scheduler.submit_ns"] * jobs / realizations,
    }
    if transport in ("queue", "tcp"):
        budget["runtime.multiprocess"] = per_message * (
            layers["runtime.multiprocess.pickle_ns"] / parallel_workers
            + layers["runtime.multiprocess.unpickle_ns"])
    if transport == "tcp":
        budget["runtime.wire"] = per_message * (
            layers["runtime.wire.encode_ns"]
            + layers["runtime.wire.decode_ns"])
    if writes_files:
        budget["runtime.collector"] += \
            layers["runtime.collector.merged_ns"] * saves / realizations
        written = (
            layers["runtime.files.save_processor_snapshot_ns"] * messages
            + layers["runtime.files.write_results_ns"] * saves
            + layers["runtime.files.save_savepoint_ns"] * jobs)
        atomic_writes = layers["runtime.storage.write_artifact_ns"] * (
            messages + 3 * saves + jobs)
        budget["runtime.storage"] = atomic_writes / realizations
        budget["runtime.files"] = (written - atomic_writes) / realizations
    budget["unaccounted"] = unit_ns / realizations - sum(budget.values())
    return budget
