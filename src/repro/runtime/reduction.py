"""Hierarchical k-ary tree reduction for the moment exchange.

The paper's Fig. 2 limit case — every realization triggering a pass
serialized through the single 0-th processor — makes the collector the
scaling wall: its cost is a *fixed per-message overhead* times O(M)
worker passes.  This module replaces the flat worker->rank-0 topology
with a configurable k-ary tree.  Interior **reducer nodes** drain
everything their subtree delivered since their last forward, keep the
latest cumulative snapshot per rank (:class:`Coalescer`, the same
discipline the collector itself applies), and forward one
:class:`~repro.runtime.messages.CombinedMessage` upstream.  Under load
a reducer coalesces many worker passes into one upstream message, so
the collector serves O(fanout) peers instead of O(M) workers.

**Bit-identity.**  Lubachevsky's warning ("Why The Results of Parallel
and Serial Monte Carlo Simulations May Differ") is honoured
structurally: reducers never pre-sum float payloads.  A combined
message carries the untouched per-rank snapshots; the collector always
performs the one canonical rank-ordered merge
(:meth:`~repro.runtime.collector.Collector.merged`).  Changing the
fanout changes *when* snapshots arrive, never *what* is folded or in
which order — estimates are byte-identical to the flat exchange for
every fanout, which ``tests/test_statistics_parity.py`` pins.

**Fault tolerance.**  Reducers are stateless relays over *cumulative*
snapshots: a respawned reducer rebuilds its latest-per-rank view from
the very next pass of each child, so a dead reducer's subtree
reattaches without data loss (the multiprocess backend respawns the
node on the same queues under ``on_worker_death="reassign"``).
A final message the dying reducer absorbed but never forwarded is
caught by the engine's existing clean-exit grace path and the worker's
remaining quota is reassigned — late duplicates from its subtree drop
harmlessly at the collector.

The ``PARMONC_REDUCER_CRASH`` environment knob injects deterministic
reducer deaths for the fault-tolerance tests (same spirit as the
storage layer's ``PARMONC_CRASHPOINT``): ``"<node_id>:on-final"``
exits the matching reducer the moment it drains a final entry (before
forwarding it); ``"<node_id>:after-forward-<n>"`` exits after the
n-th forward.  ``"*"`` matches every node.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.runtime.messages import CombinedMessage, MomentMessage

__all__ = [
    "Coalescer",
    "ReducerNode",
    "ReductionPlan",
    "plan_reduction",
    "run_reducer",
]

#: Seconds a reducer blocks on its inbox when nothing is pending.
_IDLE_WAIT = 0.005

#: Exit code of an injected reducer crash (mirrors SIGKILL's 128+9).
_CRASH_EXITCODE = 137

#: Environment knob for deterministic reducer crash injection.
CRASH_ENV = "PARMONC_REDUCER_CRASH"


@dataclass(frozen=True)
class ReducerNode:
    """One interior node of the reduction tree.

    Attributes:
        node_id: Stable identifier, ``"r<level>.<index>"``.
        level: Tree level; 1 is adjacent to the workers, higher levels
            aggregate lower reducers, the top level reports to the
            collector.
        worker_ranks: Worker ranks attached directly to this node
            (non-empty only at level 1).
        children: Node ids of the reducers attached to this node
            (empty at level 1).
        parent: Parent node id, or None when this node forwards
            straight to the collector.
        subtree_ranks: Every worker rank underneath this node.
    """

    node_id: str
    level: int
    worker_ranks: tuple[int, ...]
    children: tuple[str, ...]
    parent: str | None
    subtree_ranks: tuple[int, ...]


@dataclass(frozen=True)
class ReductionPlan:
    """The reduction topology for one run.

    Attributes:
        fanout: The configured tree width (None for the flat plan).
        nodes: Interior nodes bottom-up (level 1 first); empty for the
            flat worker->collector exchange.
    """

    fanout: int | None
    nodes: tuple[ReducerNode, ...]

    @property
    def flat(self) -> bool:
        """True when workers report straight to the collector."""
        return not self.nodes

    @property
    def levels(self) -> int:
        """Tree depth (0 for the flat plan)."""
        return max((node.level for node in self.nodes), default=0)

    @property
    def roots(self) -> tuple[ReducerNode, ...]:
        """Nodes that forward straight to the collector."""
        return tuple(node for node in self.nodes if node.parent is None)

    @property
    def leaf_parents(self) -> Mapping[int, str]:
        """Worker rank -> node id of the reducer it reports to."""
        return {rank: node.node_id for node in self.nodes
                for rank in node.worker_ranks}

    def node(self, node_id: str) -> ReducerNode:
        """Look one node up by id."""
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise ConfigurationError(f"unknown reducer node {node_id!r}")


def plan_reduction(ranks: Sequence[int],
                   fanout: int | None) -> ReductionPlan:
    """Plan the k-ary reduction tree over the given worker ranks.

    Contiguous runs of ``fanout`` ranks attach to level-1 reducers;
    levels stack until at most ``fanout`` top nodes remain, and those
    report to the collector.  A fanout of None — or one that already
    covers every worker — yields the flat plan: with M <= k workers
    the collector serves at most k peers anyway and an interior hop
    would only add latency.
    """
    if fanout is not None and fanout < 2:
        raise ConfigurationError(
            f"reduction fanout must be >= 2, got {fanout}")
    ordered = sorted(set(ranks))
    if len(ordered) != len(ranks):
        raise ConfigurationError("worker ranks must be unique")
    if fanout is None or len(ordered) <= fanout:
        return ReductionPlan(fanout=fanout, nodes=())
    nodes: list[ReducerNode] = []
    # Level 1: chunk the workers.
    tier: list[ReducerNode] = []
    for index in range(0, len(ordered), fanout):
        chunk = tuple(ordered[index:index + fanout])
        tier.append(ReducerNode(
            node_id=f"r1.{index // fanout}", level=1, worker_ranks=chunk,
            children=(), parent=None, subtree_ranks=chunk))
    level = 1
    # Higher levels: chunk the reducers until <= fanout roots remain.
    while len(tier) > fanout:
        level += 1
        next_tier: list[ReducerNode] = []
        for index in range(0, len(tier), fanout):
            group = tier[index:index + fanout]
            node_id = f"r{level}.{index // fanout}"
            subtree = tuple(rank for child in group
                            for rank in child.subtree_ranks)
            next_tier.append(ReducerNode(
                node_id=node_id, level=level, worker_ranks=(),
                children=tuple(child.node_id for child in group),
                parent=None, subtree_ranks=subtree))
            for child in group:
                nodes.append(ReducerNode(
                    node_id=child.node_id, level=child.level,
                    worker_ranks=child.worker_ranks,
                    children=child.children, parent=node_id,
                    subtree_ranks=child.subtree_ranks))
        tier = next_tier
    nodes.extend(tier)
    nodes.sort(key=lambda node: (node.level, node.node_id))
    return ReductionPlan(fanout=fanout, nodes=tuple(nodes))


def _crash_matches(node_id: str) -> tuple[str, int | None] | None:
    """Parse the crash-injection knob if it targets this node.

    Returns ``(mode, n)`` — ``("on-final", None)`` or
    ``("after-forward", n)`` — or None when the knob is unset or aimed
    at another node.
    """
    spec = os.environ.get(CRASH_ENV)
    if not spec:
        return None
    target, _, mode = spec.partition(":")
    if target not in ("*", node_id) or not mode:
        return None
    if mode == "on-final":
        return ("on-final", None)
    if mode.startswith("after-forward-"):
        try:
            return ("after-forward", int(mode.rsplit("-", 1)[1]))
        except ValueError:
            pass
    raise ConfigurationError(
        f"{CRASH_ENV} mode must be 'on-final' or 'after-forward-<n>', "
        f"got {mode!r}")


class Coalescer:
    """The latest-per-rank rule, for anything relaying towards rank 0.

    Passes are *cumulative*, so a relay owes its parent only each
    rank's newest one: :meth:`admit` worker passes or child forwards,
    :meth:`take` what changed since the last take, rank-ordered and
    untouched.  The real reducer (:func:`run_reducer`) and the
    simulated one (``cluster.simulation._ReducerStation``) differ only
    in what surrounds this class.
    """

    def __init__(self, node: ReducerNode) -> None:
        self._node = node
        # Volumes outlive the forwarded passes: a reorder is recognised
        # however long ago its successor left.
        self._volumes: dict[int, int] = {}
        self._pending: dict[int, MomentMessage] = {}
        self._finals: set[int] = set()
        self._drained = 0

    def admit(self, item: MomentMessage | CombinedMessage) -> bool:
        """Absorb one child message; True if it carried a final pass."""
        entries = (item.entries if isinstance(item, CombinedMessage)
                   else (item,))
        saw_final = False
        for entry in entries:
            self._drained += 1
            volume = entry.snapshot.volume
            if volume < self._volumes.get(entry.rank, 0) or (
                    entry.rank in self._finals and not entry.final):
                # Stale reorder: cumulative volume only grows, and a
                # final pass is its rank's last word.
                continue
            self._volumes[entry.rank] = volume
            self._pending[entry.rank] = entry
            if entry.final:
                self._finals.add(entry.rank)
                saw_final = True
        return saw_final

    @property
    def pending(self) -> bool:
        """True while some rank changed since the last :meth:`take`."""
        return bool(self._pending)

    @property
    def complete(self) -> bool:
        """Every subtree rank's final pass was admitted and taken."""
        return (not self._pending
                and self._finals.issuperset(self._node.subtree_ranks))

    def take(self, now: float) -> CombinedMessage | None:
        """The changed ranks' latest passes as one message, or None."""
        if not self._pending:
            return None
        entries = tuple(self._pending[rank]
                        for rank in sorted(self._pending))
        # A job-scoped tree serves exactly one job, so the combined
        # message inherits its entries' tag (None on the classic
        # run-wide tree, keeping those messages byte-identical).
        combined = CombinedMessage(
            node_id=self._node.node_id, entries=entries, sent_at=now,
            metrics={"level": self._node.level, "drained": self._drained},
            job=entries[0].job)
        self._pending.clear()
        self._drained = 0
        return combined


def run_reducer(node: ReducerNode, inbox, upstream, *,
                clock=time.monotonic, idle_wait: float = _IDLE_WAIT
                ) -> None:
    """The reducer process body: drain, coalesce, forward, repeat.

    Args:
        node: This reducer's place in the plan.
        inbox: Queue fed by this node's children — direct worker
            passes and child reducers' combined messages.  A ``None``
            item is the shutdown sentinel.
        upstream: Queue towards the parent — the parent reducer's
            inbox, or the backend outbox when this node is a root.
        clock: Monotonic time source stamping the forwards.
        idle_wait: Blocking-poll granularity when nothing is pending.

    One drain cycle moves *everything* currently available from the
    children into the :class:`Coalescer`, then forwards at most one
    combined message carrying the ranks that changed — so a burst of
    k child passes costs the parent one message, the coalescing that
    keeps upstream load O(fanout).  The loop exits when every subtree
    rank has delivered (and the reducer has forwarded) its final pass,
    or on the sentinel.
    """
    coalescer = Coalescer(node)
    crash = _crash_matches(node.node_id)
    forwards = 0
    stopping = False
    while True:
        saw_final = False
        try:
            while not stopping:
                item = inbox.get_nowait()
                if item is None:
                    # Sentinel: finish this drain cycle (forwarding
                    # whatever it collected) and then stop.
                    stopping = True
                else:
                    saw_final |= coalescer.admit(item)
        except queue_module.Empty:
            pass
        if not coalescer.pending and not stopping:
            if coalescer.complete:
                return
            try:
                item = inbox.get(timeout=idle_wait)
            except queue_module.Empty:
                continue
            if item is None:
                stopping = True
            else:
                saw_final = coalescer.admit(item)
        if crash is not None and crash[0] == "on-final" and saw_final:
            # Die with the final absorbed but unforwarded: the worst
            # case the engine's grace path must cover.
            os._exit(_CRASH_EXITCODE)
        combined = coalescer.take(clock())
        if combined is not None:
            upstream.put(combined)
            forwards += 1
            if (crash is not None and crash[0] == "after-forward"
                    and forwards >= (crash[1] or 0)):
                # "After forward" means after the forward *delivered*:
                # flush the mp.Queue feeder thread before dying, or
                # os._exit would silently eat the message just sent
                # and turn this into a different failure mode.
                if hasattr(upstream, "close") \
                        and hasattr(upstream, "join_thread"):
                    upstream.close()
                    upstream.join_thread()
                os._exit(_CRASH_EXITCODE)
        if stopping or coalescer.complete:
            return
