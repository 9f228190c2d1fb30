"""Analytic cross-validation of the discrete-event engine.

For fixed-duration workloads with static even quotas the PARMONC
simulation has a closed form; these tests derive it and require the
engine to match *exactly* (up to float round-off), which validates the
event mechanics independently of the Fig. 2 shape claims.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, DurationModel, NetworkModel
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.simcluster import SimclusterBackend


def run(maxsv, processors, *, tau, latency, bandwidth, service,
        nbytes, perpass=0.0):
    config = RunConfig(maxsv=maxsv, processors=processors,
                       perpass=perpass, peraver=1e9)
    spec = ClusterSpec(
        duration_model=DurationModel(mean=tau, distribution="fixed"),
        network=NetworkModel(latency=latency, bandwidth=bandwidth),
        collector_service_time=service,
        message_bytes=nbytes)
    backend = SimclusterBackend(spec, execute_realizations=False)
    return Engine(backend, config, use_files=False).run(None).cluster


class TestClosedForms:
    def test_single_processor_exact(self):
        # M=1: rank 0's messages are local (zero transfer).  The last
        # (final) message arrives at L*tau and queues behind the
        # per-realization message sent at the same instant:
        # T = L*tau + 2*service.
        tau, service = 2.0, 0.25
        result = run(7, 1, tau=tau, latency=0.0, bandwidth=1e9,
                     service=service, nbytes=1000)
        assert result.t_comp == pytest.approx(7 * tau + 2 * service,
                                              abs=1e-9)

    def test_multi_processor_exact(self):
        # M processors, L = q*M, fixed tau: every worker finishes its
        # final realization at q*tau and sends both a per-realization
        # and a final message.  Rank 0's two messages are local and
        # start service immediately at q*tau; the remote messages
        # arrive one transfer later, by which time the server is still
        # busy (transfer < 2*service), so the 2*M services run
        # back-to-back: T = q*tau + 2*M*service.
        tau, service, latency = 3.0, 0.01, 0.001
        quota, processors = 5, 4
        result = run(quota * processors, processors, tau=tau,
                     latency=latency, bandwidth=1e12,
                     service=service, nbytes=1000)
        assert latency < 2 * service  # the regime this form assumes
        expected = quota * tau + 2 * processors * service
        assert result.t_comp == pytest.approx(expected, abs=1e-9)

    def test_transfer_delay_enters_linearly(self):
        # Doubling latency moves T_comp by exactly the latency delta
        # (the final wave's transfer is on the critical path once).
        base = run(8, 2, tau=1.0, latency=0.010, bandwidth=1e12,
                   service=1e-4, nbytes=100)
        slow = run(8, 2, tau=1.0, latency=0.020, bandwidth=1e12,
                   service=1e-4, nbytes=100)
        assert slow.t_comp - base.t_comp == pytest.approx(0.010,
                                                          abs=1e-9)

    def test_bandwidth_term_enters_linearly(self):
        nbytes = 10 ** 6
        fast = run(4, 2, tau=1.0, latency=0.0, bandwidth=1e9,
                   service=1e-4, nbytes=nbytes)
        slow = run(4, 2, tau=1.0, latency=0.0, bandwidth=1e8,
                   service=1e-4, nbytes=nbytes)
        delta = nbytes / 1e8 - nbytes / 1e9
        assert slow.t_comp - fast.t_comp == pytest.approx(delta,
                                                          abs=1e-9)

    def test_rare_passing_closed_form(self):
        # perpass large: each worker sends ONLY its final message.
        tau, service = 2.0, 0.5
        quota, processors = 3, 3
        result = run(quota * processors, processors, tau=tau,
                     latency=0.0, bandwidth=1e12, service=service,
                     nbytes=100, perpass=1e6)
        # M finals arrive together at quota*tau and serialize.
        expected = quota * tau + processors * service
        assert result.t_comp == pytest.approx(expected, abs=1e-6)
        assert result.messages_sent == processors

    def test_message_count_closed_form(self):
        # perpass=0 and L = q*M: q messages per worker + 1 final each.
        result = run(20, 4, tau=1.0, latency=0.0, bandwidth=1e12,
                     service=1e-4, nbytes=100)
        assert result.messages_sent == 20 + 4

    def test_collector_busy_time_exact(self):
        service = 0.125
        result = run(10, 2, tau=1.0, latency=0.0, bandwidth=1e12,
                     service=service, nbytes=100)
        expected_busy = (10 + 2) * service
        assert result.collector_utilization * result.t_comp \
            == pytest.approx(expected_busy, rel=1e-9)
