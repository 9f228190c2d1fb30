"""Discrete-event cluster simulator substrate.

Stands in for the Siberian Supercomputer Center hardware of the paper's
evaluation: processors with a per-realization duration model, a network
with latency and bandwidth, and a FIFO collector service at the 0-th
processor.  See DESIGN.md for why this substitution preserves the
behaviour Fig. 2 measures.
"""

from __future__ import annotations

from repro.cluster.events import EventQueue
from repro.cluster.machine import Accelerator, DurationModel, Processor
from repro.cluster.network import CollectorService, NetworkModel
from repro.cluster.simulation import (
    ClusterResult,
    ClusterSpec,
    proportional_quotas,
)

__all__ = [
    "EventQueue",
    "DurationModel",
    "Processor",
    "Accelerator",
    "NetworkModel",
    "CollectorService",
    "ClusterSpec",
    "ClusterResult",
    "proportional_quotas",
]
