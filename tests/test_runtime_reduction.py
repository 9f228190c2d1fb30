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

import numpy as np
import pytest

from repro.core.parmonc import parmonc
from repro.exceptions import BackendError, ConfigurationError
from repro.obs.events import read_events
from repro.rng.streams import StreamTree
from repro.runtime.config import RunConfig
from repro.runtime.messages import CombinedMessage, MomentMessage
from repro.runtime.reduction import (
    CRASH_ENV,
    plan_reduction,
    run_reducer,
)
from repro.stats.accumulator import MomentAccumulator
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
