"""Tests for the hierarchical tree reduction of the moment exchange.

Three layers: the planner (pure topology), the reducer loop driven
in-process with plain queues (coalescing, staleness, shutdown), and
full multiprocess runs with deterministic reducer crashes injected via
``PARMONC_REDUCER_CRASH`` — the fault-tolerance story: a dead interior
node's subtree reattaches under ``on_worker_death="reassign"`` and the
estimate stays the canonical rank-ordered merge.
"""

from __future__ import annotations

import queue
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
from repro.rng.streams import StreamTree
from repro.runtime.config import RunConfig
from repro.runtime.messages import CombinedMessage, MomentMessage
from repro.runtime.reduction import (
    CRASH_ENV,
    Coalescer,
    plan_reduction,
    run_reducer,
)
from repro.stats.accumulator import MomentAccumulator, MomentSnapshot
from repro.stats.merging import merge_snapshots


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
# Reducer loop (in-process, plain queues)


class TestRunReducer:
    def _node(self):
        return plan_reduction(range(4), 2).node("r1.0")  # workers 0, 1

    def test_burst_coalesces_into_one_forward(self):
        node = self._node()
        inbox, upstream = queue.Queue(), queue.Queue()
        for volume in (1, 2, 3):
            inbox.put(_message(0, volume))
        inbox.put(_message(0, 4, final=True))
        inbox.put(_message(1, 4, final=True))
        run_reducer(node, inbox, upstream)
        combined = upstream.get_nowait()
        assert upstream.empty()
        # One combined message, latest snapshot per rank, rank order.
        assert combined.node_id == "r1.0"
        assert combined.ranks == (0, 1)
        assert [entry.snapshot.volume for entry in combined.entries] \
            == [4, 4]
        assert combined.final
        assert combined.metrics["drained"] == 5

    def test_stale_reorder_is_dropped(self):
        node = self._node()
        inbox, upstream = queue.Queue(), queue.Queue()
        inbox.put(_message(0, 5))
        inbox.put(_message(0, 2))  # late, lower volume: superseded
        inbox.put(_message(0, 5, final=True))
        inbox.put(_message(1, 1, final=True))
        run_reducer(node, inbox, upstream)
        combined = upstream.get_nowait()
        assert combined.entries[0].snapshot.volume == 5
        assert combined.entries[0].final

    def test_flattens_child_combined_messages(self):
        plan = plan_reduction(range(8), 2)
        parent = plan.node("r2.0")  # children r1.0, r1.1 -> ranks 0..3
        inbox, upstream = queue.Queue(), queue.Queue()
        inbox.put(CombinedMessage(
            node_id="r1.0",
            entries=(_message(0, 3, final=True),
                     _message(1, 3, final=True)),
            sent_at=0.0))
        inbox.put(CombinedMessage(
            node_id="r1.1",
            entries=(_message(2, 3, final=True),
                     _message(3, 3, final=True)),
            sent_at=0.0))
        run_reducer(parent, inbox, upstream)
        combined = upstream.get_nowait()
        assert combined.ranks == (0, 1, 2, 3)
        assert combined.final

    def test_sentinel_stops_an_unfinished_reducer(self):
        node = self._node()
        inbox, upstream = queue.Queue(), queue.Queue()
        inbox.put(_message(0, 1))
        inbox.put(None)
        run_reducer(node, inbox, upstream)  # returns instead of hanging
        # The non-final batch drained before the sentinel still went out.
        assert upstream.get_nowait().ranks == (0,)


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
                assert coalescer.pending is bool(changed)
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
            assert not coalescer.pending
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

        class BurstInbox:
            """Each idle wait of the reducer lets the next burst in."""

            def __init__(self):
                self._bursts = deque(deque(burst) for burst in bursts)

            def get_nowait(self):
                if not self._bursts or not self._bursts[0]:
                    raise queue.Empty
                return self._bursts[0].popleft()

            def get(self, timeout):
                self._bursts.popleft()
                if not self._bursts:
                    return None
                raise queue.Empty

        upstream = queue.Queue()
        run_reducer(_NODE, BurstInbox(), upstream)
        real = []
        while not upstream.empty():
            real.append(_shape(upstream.get_nowait()))

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
    def _reference_estimates(self, ranks_and_quotas, seqnum=1):
        """The canonical rank-ordered merge over explicit substreams."""
        tree = StreamTree()
        snapshots = []
        for rank, quota in sorted(ranks_and_quotas.items()):
            accumulator = MomentAccumulator(1, 1)
            for index in range(quota):
                value = square(tree.rng(seqnum, rank, index))
                accumulator.add(np.array([[value]]))
            snapshots.append(accumulator.snapshot())
        return merge_snapshots(snapshots).estimates()

    def test_eaten_final_reassigns_the_subtree_worker(
            self, tmp_path, monkeypatch):
        # fanout=2 over 3 workers: r1.0 serves {0, 1}, r1.1 serves {2}.
        # r1.1 dies the moment it absorbs rank 2's final (perpass is
        # huge, so that final is rank 2's only message): the engine's
        # grace path must reassign rank 2's full quota to a fresh rank.
        monkeypatch.setenv(CRASH_ENV, "r1.1:on-final")
        result = parmonc(square, maxsv=30, perpass=1000.0, peraver=0.0,
                         processors=3, seqnum=1, backend="multiprocess",
                         start_method="fork", reduction_fanout=2,
                         on_worker_death="reassign", death_grace=0.3,
                         telemetry=True, workdir=tmp_path)
        assert result.total_volume == 30
        assert result.recovered_ranks == (2,)
        reference = self._reference_estimates({0: 10, 1: 10, 3: 10})
        assert np.array_equal(result.estimates.mean, reference.mean)
        assert np.array_equal(result.estimates.variance,
                              reference.variance)
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
        # Every reducer dies right after its first forward; generous
        # grace so in-flight finals never trigger a false reassignment.
        monkeypatch.setenv(CRASH_ENV, "*:after-forward-1")
        result = parmonc(square, maxsv=50, perpass=1000.0, peraver=0.0,
                         processors=5, seqnum=1, backend="multiprocess",
                         start_method="fork", reduction_fanout=2,
                         on_worker_death="reassign", death_grace=5.0,
                         telemetry=True, workdir=tmp_path / "tree")
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

    def test_default_policy_fails_on_reducer_death(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "r1.0:on-final")
        with pytest.raises(BackendError, match="reducer r1.0"):
            parmonc(square, maxsv=30, perpass=1000.0, peraver=0.0,
                    processors=3, seqnum=1, backend="multiprocess",
                    start_method="fork", reduction_fanout=2,
                    workdir=tmp_path)
