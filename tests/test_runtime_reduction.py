"""Tests for the hierarchical tree reduction of the moment exchange.

Three layers: the planner (pure topology), the reducer loop driven
in-process over real pipes (coalescing, staleness, shutdown), and
full multiprocess runs with deterministic reducer crashes injected via
``PARMONC_REDUCER_CRASH`` — the fault-tolerance story: a dead interior
node's subtree reattaches under ``on_worker_death="reassign"`` and the
estimate stays the canonical rank-ordered merge.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.events import EventQueue
from repro.cluster.simulation import _ReducerStation
from repro.core.parmonc import parmonc
from repro.exceptions import BackendError, ConfigurationError
from repro.obs.events import read_events
from repro.runtime import host as host_module
from repro.runtime import multiprocess as multiprocess_module
from repro.runtime import worker as worker_module
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.job import JobSpec, JobStatus
from repro.runtime.messages import (
    CombinedMessage,
    MomentMessage,
    combined_from_payload,
    combined_to_payload,
    message_to_payload,
)
from repro.runtime.multiprocess import MultiprocessBackend
from repro.runtime.reduction import (
    CRASH_ENV,
    Coalescer,
    plan_reduction,
    run_reducer,
)
from repro.runtime.scheduler import Scheduler
from repro.runtime.worker import worker_process
from repro.stats.accumulator import MomentAccumulator, MomentSnapshot

from test_runtime_engine import _FAULT_FLAG, _claim, assert_same_bytes


def square(rng):
    return rng.random() ** 2


def _message(rank, volume, *, final=False, sent_at=0.0):
    accumulator = MomentAccumulator(1, 1)
    for index in range(volume):
        accumulator.add(np.array([[float(rank * 100 + index)]]))
    return MomentMessage(rank=rank, snapshot=accumulator.snapshot(),
                         sent_at=sent_at, final=final)


# ---------------------------------------------------------------------------
# Planner


class TestPlanReduction:
    def test_none_fanout_is_flat(self):
        plan = plan_reduction(range(100), None)
        assert plan.flat
        assert plan.levels == 0
        assert plan.leaf_parents == {}

    def test_fanout_covering_all_workers_is_flat(self):
        assert plan_reduction(range(4), 4).flat
        assert plan_reduction(range(4), 8).flat

    def test_single_level_tree(self):
        plan = plan_reduction(range(8), 4)
        assert not plan.flat
        assert plan.levels == 1
        assert [node.node_id for node in plan.nodes] == ["r1.0", "r1.1"]
        assert plan.nodes[0].worker_ranks == (0, 1, 2, 3)
        assert plan.nodes[1].worker_ranks == (4, 5, 6, 7)
        assert all(node.parent is None for node in plan.nodes)
        assert len(plan.roots) == 2

    def test_multi_level_tree(self):
        plan = plan_reduction(range(16), 2)
        assert plan.levels == 3
        level1 = [node for node in plan.nodes if node.level == 1]
        assert len(level1) == 8
        assert all(node.parent is not None for node in level1)
        roots = plan.roots
        assert len(roots) <= 2
        # Every worker rank appears in exactly one leaf node and in its
        # ancestors' subtree_ranks up to a root.
        covered = sorted(rank for node in level1
                         for rank in node.worker_ranks)
        assert covered == list(range(16))
        root_cover = sorted(rank for node in roots
                            for rank in node.subtree_ranks)
        assert root_cover == list(range(16))

    def test_leaf_parents_maps_every_rank(self):
        plan = plan_reduction(range(10), 3)
        assert sorted(plan.leaf_parents) == list(range(10))
        for rank, node_id in plan.leaf_parents.items():
            assert rank in plan.node(node_id).worker_ranks

    def test_node_lookup_rejects_unknown_id(self):
        plan = plan_reduction(range(8), 2)
        with pytest.raises(ConfigurationError, match="unknown reducer"):
            plan.node("r9.9")

    def test_fanout_below_two_rejected(self):
        with pytest.raises(ConfigurationError, match="fanout"):
            plan_reduction(range(4), 1)

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            plan_reduction([0, 1, 1], 2)

    def test_config_validates_reduction_fanout(self):
        with pytest.raises(ConfigurationError, match="reduction_fanout"):
            RunConfig(maxsv=1, reduction_fanout=1)


# ---------------------------------------------------------------------------
# CombinedMessage invariants


class TestCombinedMessage:
    def test_requires_rank_ordered_unique_entries(self):
        a, b = _message(0, 1), _message(1, 1)
        combined = CombinedMessage(node_id="r1.0", entries=(a, b),
                                   sent_at=0.0)
        assert combined.ranks == (0, 1)
        with pytest.raises(ConfigurationError):
            CombinedMessage(node_id="r1.0", entries=(b, a), sent_at=0.0)
        with pytest.raises(ConfigurationError):
            CombinedMessage(node_id="r1.0", entries=(a, a), sent_at=0.0)
        with pytest.raises(ConfigurationError):
            CombinedMessage(node_id="r1.0", entries=(), sent_at=0.0)

    def test_final_when_any_entry_final(self):
        combined = CombinedMessage(
            node_id="r1.0",
            entries=(_message(0, 1), _message(1, 1, final=True)),
            sent_at=0.0)
        assert combined.final


# ---------------------------------------------------------------------------
# Reducer loop (in-process, real pipes)


def _edges(count):
    """``count`` edge pipes as ``(readers, writers)``."""
    pairs = [multiprocessing.Pipe(duplex=False) for _ in range(count)]
    return [r for r, _ in pairs], [w for _, w in pairs]


def _forwards(upstream_reader):
    forwards = []
    while upstream_reader.poll():
        forwards.append(combined_from_payload(upstream_reader.recv_bytes()))
    return forwards


class TestRunReducer:
    def _node(self):
        return plan_reduction(range(4), 2).node("r1.0")  # workers 0, 1

    def _run(self, node, per_edge, close=True):
        """Write each edge's bodies, then run the reducer to its exit."""
        readers, writers = _edges(len(per_edge))
        up_reader, up_writer = multiprocessing.Pipe(duplex=False)
        encode = message_to_payload if node.level == 1 \
            else combined_to_payload
        for writer, items in zip(writers, per_edge):
            for item in items:
                writer.send_bytes(encode(item))
            if close:
                writer.close()
        run_reducer(node, readers, up_writer)
        return _forwards(up_reader)

    def test_burst_coalesces_into_one_forward(self):
        [combined] = self._run(self._node(), [
            [_message(0, volume) for volume in (1, 2, 3)]
            + [_message(0, 4, final=True)],
            [_message(1, 4, final=True)]])
        # One combined message, latest snapshot per rank, rank order.
        assert combined.node_id == "r1.0"
        assert combined.ranks == (0, 1)
        assert [entry.snapshot.volume for entry in combined.entries] \
            == [4, 4]
        assert combined.final
        assert combined.metrics["drained"] == 5

    def test_stale_reorder_is_dropped(self):
        [combined] = self._run(self._node(), [
            [_message(0, 5), _message(0, 2),  # late, lower volume
             _message(0, 5, final=True)],
            [_message(1, 1, final=True)]])
        assert combined.entries[0].snapshot.volume == 5
        assert combined.entries[0].final

    def test_flattens_child_combined_messages(self):
        plan = plan_reduction(range(8), 2)
        parent = plan.node("r2.0")  # children r1.0, r1.1 -> ranks 0..3
        [combined] = self._run(parent, [
            [CombinedMessage(node_id="r1.0", sent_at=0.0, entries=(
                _message(0, 3, final=True), _message(1, 3, final=True)))],
            [CombinedMessage(node_id="r1.1", sent_at=0.0, entries=(
                _message(2, 3, final=True), _message(3, 3, final=True)))]])
        assert combined.ranks == (0, 1, 2, 3)
        assert combined.final

    def test_closed_edges_stop_an_unfinished_reducer(self):
        # No sentinel: once every child's write end is gone the reducer
        # forwards what it drained and returns instead of hanging.
        [combined] = self._run(self._node(), [[_message(0, 1)], []])
        assert combined.ranks == (0,)

    def test_torn_body_drops_only_its_edge(self):
        # A child killed mid-write leaves a length prefix and half a
        # body: that edge reads as end-of-file, the sibling's passes
        # still go out.
        readers, writers = _edges(2)
        up_reader, up_writer = multiprocessing.Pipe(duplex=False)
        body = message_to_payload(_message(0, 2))
        os.write(writers[0].fileno(),
                 struct.pack("!i", len(body)) + body[:len(body) // 2])
        writers[1].send_bytes(message_to_payload(_message(1, 3, final=True)))
        for writer in writers:
            writer.close()
        run_reducer(self._node(), readers, up_writer)
        [combined] = _forwards(up_reader)
        assert combined.ranks == (1,) and combined.final


# ---------------------------------------------------------------------------
# The coalescing rule, written once


def _pass(rank, volume, final=False, job=None):
    """A 1x1 pass that is all bookkeeping: only rank/volume/final vary."""
    snapshot = MomentSnapshot(sum1=np.zeros((1, 1)), sum2=np.zeros((1, 1)),
                              volume=volume)
    return MomentMessage(rank=rank, snapshot=snapshot, sent_at=0.0,
                         final=final, job=job)


def _shape(combined):
    return [(entry.rank, entry.snapshot.volume, entry.final)
            for entry in combined.entries], combined.metrics["drained"]


_NODE = plan_reduction(range(8), 4).node("r1.0")  # ranks 0..3

_passes = st.builds(_pass, st.integers(0, 3), st.integers(0, 12),
                    st.booleans())
_combined = st.lists(_passes, min_size=1, max_size=4,
                     unique_by=lambda entry: entry.rank).map(
    lambda entries: CombinedMessage(
        node_id="child", sent_at=0.0,
        entries=tuple(sorted(entries, key=lambda entry: entry.rank))))
#: Any interleaving of worker passes, child forwards and takes; volumes
#: are drawn freely, so stale reorders come up by themselves.
_schedules = st.lists(st.one_of(_passes, _combined, st.just("take")),
                      max_size=40)


class TestCoalescer:
    @settings(max_examples=200, deadline=None)
    @given(_schedules)
    def test_any_interleaving_forwards_exactly_what_changed(self, steps):
        coalescer = Coalescer(_NODE)
        watermark: dict[int, int] = {}   # rank -> highest volume admitted
        changed: dict[int, MomentMessage] = {}
        finals: set[int] = set()
        forwarded_finals: set[int] = set()
        drained = 0
        for step in steps + ["take"]:
            if step != "take":
                entries = getattr(step, "entries", (step,))
                fresh_final = False
                for entry in entries:
                    drained += 1
                    if entry.snapshot.volume < watermark.get(entry.rank, 0) \
                            or (entry.rank in finals and not entry.final):
                        continue  # went backwards, or trails its final
                    watermark[entry.rank] = entry.snapshot.volume
                    changed[entry.rank] = entry
                    if entry.final:
                        finals.add(entry.rank)
                        fresh_final = True
                assert coalescer.admit(step) is fresh_final
                continue
            combined = coalescer.take(7.5)
            if not changed:
                assert combined is None
                continue
            # Rank-ordered (CombinedMessage enforces it too), exactly
            # the changed set, each rank at the highest volume admitted,
            # the very message objects — nothing rebuilt or pre-summed.
            assert combined.ranks == tuple(sorted(changed))
            assert all(entry is changed[entry.rank]
                       and entry.snapshot.volume == watermark[entry.rank]
                       for entry in combined.entries)
            assert combined.node_id == _NODE.node_id
            assert combined.sent_at == 7.5 and combined.job is None
            assert combined.metrics == {"level": _NODE.level,
                                        "drained": drained}
            forwarded_finals.update(entry.rank for entry in combined.entries
                                    if entry.final)
            changed.clear()
            drained = 0
        # Finals are never lost, and completion means all of them left.
        assert forwarded_finals == finals
        assert coalescer.complete is (finals >= set(_NODE.subtree_ranks))

    def test_forward_inherits_its_entries_job_tag(self):
        coalescer = Coalescer(_NODE)
        coalescer.admit(_pass(1, 3, job="exp-a"))
        assert coalescer.take(0.0).job == "exp-a"

    def test_real_and_simulated_reducer_forward_the_same_entries(self):
        # One schedule of bursts — coalescing, a child forward, a
        # reorder inside a burst and one arriving after its successor
        # already left (where the two implementations used to differ:
        # the simulated station forgot what it had forwarded).
        bursts = [
            [_pass(0, 1), _pass(0, 2), _pass(1, 1)],
            [_pass(0, 1), _pass(2, 4), _pass(2, 3)],
            [CombinedMessage(node_id="child", sent_at=0.0,
                             entries=(_pass(1, 5), _pass(3, 2)))],
            [_pass(3, 1)],
            [_pass(rank, 9, final=True) for rank in range(4)],
        ]
        expected = [
            ([(0, 2, False), (1, 1, False)], 3),
            ([(2, 4, False)], 3),
            ([(1, 5, False), (3, 2, False)], 2),
            # burst 4 is all stale: nothing goes out, its drain count
            # rides on the next forward
            ([(rank, 9, True) for rank in range(4)], 5),
        ]

        class BurstEdge:
            """Each blocking wait of the reducer lets the next burst in."""

            def __init__(self):
                # A level-1 edge carries worker bodies: a child forward
                # arrives as its entries (admitted entry by entry alike).
                self.bursts = deque(
                    deque(message_to_payload(entry) for item in burst
                          for entry in getattr(item, "entries", (item,)))
                    for burst in bursts)
                self.current = deque()

            def recv_bytes(self):
                if not self.current:
                    raise EOFError  # every burst delivered
                return self.current.popleft()

        def burst_wait(edges, timeout=None):
            if not edges:
                return []
            [edge] = edges
            if timeout is None and not edge.current:
                if not edge.bursts:
                    return [edge]
                edge.current = edge.bursts.popleft()
            return [edge] if edge.current else []

        up_reader, up_writer = multiprocessing.Pipe(duplex=False)
        run_reducer(_NODE, [BurstEdge()], up_writer, wait=burst_wait)
        real = [_shape(combined) for combined in _forwards(up_reader)]

        simulated = []
        events = EventQueue()
        station = _ReducerStation(
            SimpleNamespace(
                _events=events,
                _forward=lambda node, combined, now:
                    simulated.append(_shape(combined))),
            _NODE, service_time=1.0)
        for index, burst in enumerate(bursts):
            for item in burst:
                station.admit(item, arrival=100.0 * index)
            events.run()

        assert real == simulated == expected


# ---------------------------------------------------------------------------
# Multiprocess fault tolerance (deterministic crash injection)


class TestReducerFaultTolerance:
    def test_eaten_final_reassigns_the_subtree_worker(
            self, tmp_path, monkeypatch):
        # fanout=2 over 3 workers: r1.0 serves {0, 1}, r1.1 serves {2}.
        # r1.1 dies the moment it absorbs rank 2's final (perpass is
        # huge, so that final is rank 2's only message).  Its respawn
        # reads end-of-file and exits, so rank 2 is judged with nothing
        # delivered: it reruns whole, straight to rank 0.
        monkeypatch.setenv(CRASH_ENV, "r1.1:on-final")
        result = parmonc(square, maxsv=30, perpass=1000.0, peraver=0.0,
                         processors=3, seqnum=1, backend="multiprocess",
                         start_method="fork", reduction_fanout=2,
                         on_worker_death="reassign", telemetry=True,
                         workdir=tmp_path)
        assert result.total_volume == 30
        assert result.recovered_ranks == (2,)
        assert_same_bytes(result, parmonc(
            square, maxsv=30, perpass=1000.0, peraver=0.0, processors=3,
            seqnum=1, backend="sequential", use_files=False))
        events = list(read_events(tmp_path / "parmonc_data" / "telemetry"
                                  / "events.jsonl"))
        kinds = {event.kind for event in events}
        assert "reducer_respawned" in kinds
        assert "worker_recovered" in kinds

    def test_respawned_reducers_keep_estimates_bit_identical(
            self, tmp_path, monkeypatch):
        baseline = parmonc(square, maxsv=50, perpass=1000.0, peraver=0.0,
                           processors=5, seqnum=1, backend="multiprocess",
                           start_method="fork", workdir=tmp_path / "flat")
        # Every reducer dies right after its first forward.
        monkeypatch.setenv(CRASH_ENV, "*:after-forward-1")
        result = parmonc(square, maxsv=50, perpass=1000.0, peraver=0.0,
                         processors=5, seqnum=1, backend="multiprocess",
                         start_method="fork", reduction_fanout=2,
                         on_worker_death="reassign", telemetry=True,
                         workdir=tmp_path / "tree")
        assert result.total_volume == 50
        assert result.recovered_ranks == ()
        assert np.array_equal(result.estimates.mean,
                              baseline.estimates.mean)
        assert np.array_equal(result.estimates.variance,
                              baseline.estimates.variance)
        events = list(read_events(tmp_path / "tree" / "parmonc_data"
                                  / "telemetry" / "events.jsonl"))
        respawns = [e for e in events if e.kind == "reducer_respawned"]
        assert respawns and respawns[0].fields["exitcode"] == 137

    def test_respawn_budget_is_per_job(self, monkeypatch):
        # Three tree jobs come and go; a fourth whose reducers die after
        # every forward gets 4 respawns per node of its own, not the
        # budget the released jobs were granted.
        backend = MultiprocessBackend(start_method="fork")
        starts = []
        start_reducer = backend._start_reducer

        def counted(owner, node):
            starts.append(owner)
            return start_reducer(owner, node)

        monkeypatch.setattr(backend, "_start_reducer", counted)
        scheduler = Scheduler(backend, workers=3)

        def tree(name, seqnum, maxsv):
            return JobSpec(routine=square, name=name, use_files=False,
                           config=RunConfig(
                               maxsv=maxsv, processors=3, perpass=0.0,
                               peraver=0.0, seqnum=seqnum,
                               reduction_fanout=2,
                               on_worker_death="reassign"))

        released = [scheduler.submit(tree(f"ok{index}", index, 30))
                    for index in range(3)]
        while any(job.status is not JobStatus.DONE for job in released):
            scheduler.step()
        assert backend._respawn_budget == {}
        monkeypatch.setenv(CRASH_ENV, "*:after-forward-1")
        scheduler.submit(tree("doomed", 3, 3_000_000))
        with pytest.raises(BackendError, match="respawn budget"):
            scheduler.run()
        nodes = len(plan_reduction(range(3), 2).nodes)
        assert starts.count("doomed") == nodes + 4 * nodes

    def test_default_policy_fails_on_reducer_death(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "r1.0:on-final")
        with pytest.raises(BackendError, match="reducer r1.0"):
            parmonc(square, maxsv=30, perpass=1000.0, peraver=0.0,
                    processors=3, seqnum=1, backend="multiprocess",
                    start_method="fork", reduction_fanout=2,
                    workdir=tmp_path)


# ---------------------------------------------------------------------------
# Verdicts by message order: a tree rank is judged once its root exited


class _GatedReducers(MultiprocessBackend):
    """Reducers wait at a gate this backend opens only once the host has
    reported every planned worker's exit: each worker's final is then
    still in the tree, however long it stays there."""

    def __init__(self, gate, workers):
        super().__init__(start_method="fork")
        self._gate, self._workers, self._seen = gate, set(workers), set()

    def poll(self, timeout):
        message = super().poll(timeout)
        self._seen.update(who for _, who in self._exits
                          if isinstance(who, int))
        if self._seen >= self._workers:
            self._gate.set()
        return message


class _SilentAtThirdPass:
    """Rank 3's outbox: two passes go out, then the worker exits 0."""

    def __init__(self, outbox):
        self._outbox, self._sent = outbox, 0

    def send_bytes(self, body):
        if self._sent == 2:
            os._exit(0)
        self._outbox.send_bytes(body)
        self._sent += 1


def _rank_three_goes_silent(routine, config, rank, quota, outbox, **kwargs):
    """Slot body: rank 3 exits cleanly before its final pass, once."""
    if rank == 3 and _claim(_FAULT_FLAG["path"]):
        outbox = _SilentAtThirdPass(outbox)
    worker_process(routine, config, rank, quota, outbox, **kwargs)


class TestVerdictsByMessageOrder:
    RUN = dict(maxsv=25, perpass=0.0, peraver=0.0, processors=5,
               seqnum=1, reduction_fanout=2)

    def test_healthy_tree_held_past_every_exit_is_not_reassigned(
            self, tmp_path, monkeypatch):
        # fanout 2 over 4 workers: roots r1.0 {0, 1} and r1.1 {2, 3}.
        # Every worker has exited, its final unread in an edge, before
        # any reducer reads a byte; no timer may call that a death.
        gate = multiprocessing.get_context("fork").Event()

        def gated(*args, **kwargs):
            gate.wait()
            run_reducer(*args, **kwargs)

        monkeypatch.setattr(multiprocess_module, "run_reducer", gated)
        run = dict(maxsv=40, perpass=0.0, peraver=0.0, processors=4,
                   seqnum=1)
        flat = parmonc(square, **run, backend="multiprocess",
                       start_method="fork", workdir=tmp_path / "flat")
        config = RunConfig(**run, reduction_fanout=2,
                           on_worker_death="reassign",
                           workdir=tmp_path / "tree")
        result = Engine(_GatedReducers(gate, range(4)), config).run(square)
        assert gate.is_set()
        assert result.recovered_ranks == ()
        assert result.total_volume == 40
        assert_same_bytes(result, flat)

    @pytest.fixture
    def every_pass_out(self, monkeypatch):
        """Rank 3's passes are counted at its outbox: none may be
        superseded by the latest-wins rule."""
        monkeypatch.setattr(worker_module, "_outbox_drained",
                            lambda outbox: True)

    def test_silent_rank_fails_the_job_under_fail(self, tmp_path,
                                                  monkeypatch,
                                                  every_pass_out):
        # fanout 2 over 5 workers: r1.1 {2, 3} reports to r2.0, a second
        # level.  r2.0 reads end-of-file on r1.1's edge only once the
        # backend let go of it, so rank 3 is judged when r2.0 exits.
        monkeypatch.setitem(_FAULT_FLAG, "path", str(tmp_path / "fault"))
        monkeypatch.setattr(host_module, "worker_process",
                            _rank_three_goes_silent)
        assert plan_reduction(range(5), 2).levels == 2
        with pytest.raises(BackendError, match=r"rank 3 \(exitcode 0\)"):
            parmonc(square, **self.RUN, backend="multiprocess",
                    start_method="fork", workdir=tmp_path)

    def test_silent_rank_is_reassigned_at_its_watermark(self, tmp_path,
                                                        monkeypatch,
                                                        every_pass_out):
        monkeypatch.setitem(_FAULT_FLAG, "path", str(tmp_path / "fault"))
        monkeypatch.setattr(host_module, "worker_process",
                            _rank_three_goes_silent)
        result = parmonc(square, **self.RUN, backend="multiprocess",
                         start_method="fork", on_worker_death="reassign",
                         workdir=tmp_path)
        assert result.recovered_ranks == (3,)
        assert result.total_volume == 25
        # Both passes rank 3 wrote crossed two reducer levels before the
        # verdict; the collector kept them until rank 3's rerun, straight
        # to rank 0, passed them.
        assert result.per_rank_volumes == {rank: 5 for rank in range(5)}
        assert_same_bytes(result, parmonc(
            square, **self.RUN, backend="sequential", use_files=False))
