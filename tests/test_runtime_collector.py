"""Tests for repro.runtime.collector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.obs.telemetry import RunTelemetry
from repro.runtime.bootstrap import start_session
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory
from repro.runtime.messages import MomentMessage
from repro.stats.accumulator import MomentAccumulator, MomentSnapshot

from test_runtime_liveness import WATCHED, dispatch, opened_job, stale


def message(rank, values, sent_at=0.0, final=False, shape=(1, 1)):
    accumulator = MomentAccumulator(*shape)
    for value in values:
        accumulator.add(np.full(shape, float(value)))
    return MomentMessage(rank=rank, snapshot=accumulator.snapshot(),
                         sent_at=sent_at, final=final)


def make_collector(tmp_path=None, **config_kwargs):
    config_kwargs.setdefault("maxsv", 100)
    config_kwargs.setdefault("processors", 2)
    if tmp_path is None:
        config = RunConfig(**config_kwargs)
        return Collector(config, MomentSnapshot.zero(config.nrow,
                                                     config.ncol)), config
    config = RunConfig(workdir=tmp_path, **config_kwargs)
    data, state = start_session(config)
    return Collector(config, state.base, data), config


class TestReceive:
    def test_latest_snapshot_wins(self):
        collector, _ = make_collector()
        collector.receive(message(0, [1.0]), now=1.0)
        collector.receive(message(0, [1.0, 2.0]), now=2.0)
        assert collector.worker_volume(0) == 2
        assert collector.total_volume == 2

    def test_stale_message_ignored(self):
        collector, _ = make_collector()
        collector.receive(message(0, [1.0, 2.0]), now=1.0)
        collector.receive(message(0, [9.0]), now=2.0)  # lower volume
        assert collector.worker_volume(0) == 2
        assert collector.merged().sum1[0, 0] == 3.0

    def test_unknown_rank_rejected(self):
        collector, _ = make_collector()
        with pytest.raises(ConfigurationError):
            collector.receive(message(7, [1.0]), now=0.0)

    def test_shape_mismatch_rejected(self):
        collector, _ = make_collector()
        with pytest.raises(ConfigurationError):
            collector.receive(message(0, [1.0], shape=(2, 2)), now=0.0)

    def test_receive_count(self):
        collector, _ = make_collector()
        collector.receive(message(0, [1.0]), now=0.0)
        collector.receive(message(1, [1.0]), now=0.0)
        assert collector.receive_count == 2


class TestCompletion:
    def test_complete_requires_all_finals(self):
        collector, _ = make_collector()
        collector.receive(message(0, [1.0], final=True), now=0.0)
        assert not collector.complete
        assert collector.finals_received == 1
        collector.receive(message(1, [2.0], final=True), now=0.0)
        assert collector.complete

    def test_non_final_messages_do_not_complete(self):
        collector, _ = make_collector()
        for _ in range(5):
            collector.receive(message(0, [1.0]), now=0.0)
        assert not collector.complete


class TestMergingFormula5:
    def test_unequal_worker_volumes(self):
        # §2.2: "the sample volumes l_m ... may be different at the
        # moment of passing data".
        collector, _ = make_collector()
        collector.receive(message(0, [1.0, 2.0, 3.0]), now=0.0)
        collector.receive(message(1, [10.0]), now=0.0)
        estimates = collector.estimates()
        assert estimates.volume == 4
        assert estimates.mean[0, 0] == pytest.approx(4.0)

    def test_resume_base_included(self):
        config = RunConfig(maxsv=100, processors=1)
        base_acc = MomentAccumulator(1, 1)
        base_acc.add(100.0)
        collector = Collector(config, base_acc.snapshot(), None)
        collector.receive(message(0, [0.0]), now=0.0)
        assert collector.total_volume == 2
        assert collector.session_volume == 1
        assert collector.estimates().mean[0, 0] == pytest.approx(50.0)

    def test_base_shape_guard(self):
        config = RunConfig(maxsv=10)
        with pytest.raises(ConfigurationError):
            Collector(config, MomentSnapshot.zero(3, 3), None)

    def test_estimates_without_data_rejected(self):
        collector, _ = make_collector()
        with pytest.raises(ConfigurationError):
            collector.estimates()


class TestPeriodicSaving:
    def test_peraver_zero_saves_on_every_message(self, tmp_path):
        collector, _ = make_collector(tmp_path, peraver=0.0)
        assert collector.receive(message(0, [1.0]), now=0.0)
        assert collector.receive(message(0, [1.0, 2.0]), now=0.1)
        assert collector.save_count == 2

    def test_peraver_throttles_saves(self, tmp_path):
        collector, _ = make_collector(tmp_path, peraver=10.0)
        assert collector.receive(message(0, [1.0]), now=0.0)  # first save
        assert not collector.receive(message(0, [1.0, 2.0]), now=1.0)
        assert not collector.receive(message(0, [1.0] * 3), now=9.0)
        assert collector.receive(message(0, [1.0] * 4), now=10.5)

    def test_final_message_always_saves(self, tmp_path):
        collector, _ = make_collector(tmp_path, peraver=1000.0,
                                      processors=1)
        collector.receive(message(0, [1.0]), now=0.0)
        saved = collector.receive(message(0, [1.0, 2.0], final=True),
                                  now=0.5)
        assert saved
        assert collector.complete

    def test_save_writes_result_files(self, tmp_path):
        collector, _ = make_collector(tmp_path, peraver=0.0)
        collector.receive(message(0, [1.0, 3.0]), now=0.0)
        data = DataDirectory(tmp_path)
        assert data.read_mean_matrix()[0, 0] == pytest.approx(2.0)

    def test_save_with_no_volume_is_noop(self, tmp_path):
        collector, _ = make_collector(tmp_path)
        collector.save(now=0.0)
        data = DataDirectory(tmp_path)
        assert not (data.results_dir / "func.dat").exists()

    def test_subtotal_persistence_for_manaver(self, tmp_path):
        collector, _ = make_collector(tmp_path, peraver=1000.0)
        collector.receive(message(0, [1.0]), now=0.0)
        collector.receive(message(1, [2.0, 3.0]), now=0.0)
        snapshots = DataDirectory(tmp_path).load_processor_snapshots()
        assert snapshots[0].volume == 1
        assert snapshots[1].volume == 2

    def test_subtotal_persistence_can_be_disabled(self, tmp_path):
        config = RunConfig(maxsv=10, processors=1, workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              persist_subtotals=False)
        collector.receive(message(0, [1.0]), now=0.0)
        assert DataDirectory(tmp_path).load_processor_snapshots() == {}

    def test_data_directory_must_be_a_sessions(self, tmp_path):
        # The run's completion commit writes the save-point's tail from
        # the session start_session opened; a bare directory has none.
        config = RunConfig(maxsv=10, processors=1)
        with pytest.raises(ConfigurationError):
            Collector(config, MomentSnapshot.zero(1, 1),
                      DataDirectory(tmp_path))

    def test_memory_only_collector_never_touches_disk(self, tmp_path):
        collector, _ = make_collector(None, peraver=0.0)
        collector.receive(message(0, [1.0]), now=0.0)
        assert collector.save_count == 1  # counted, but nothing written


def make_instrumented_collector(**config_kwargs):
    config_kwargs.setdefault("maxsv", 100)
    config_kwargs.setdefault("processors", 3)
    config_kwargs.setdefault("peraver", 1000.0)
    config = RunConfig(**config_kwargs)
    telemetry = RunTelemetry(clock=lambda: 0.0)
    base = MomentSnapshot.zero(config.nrow, config.ncol)
    return Collector(config, base, None, telemetry=telemetry), telemetry


class TestOutOfOrderInstrumentation:
    """The stale-drop path: formula (5) stays exact, telemetry sees it."""

    def test_stale_interleaving_keeps_formula_5_exact(self):
        # Rank 0's messages arrive out of order: the cumulative 3-sample
        # snapshot lands before the 2-sample one.  The drop must keep
        # the merged average identical to in-order delivery.
        collector, telemetry = make_instrumented_collector()
        collector.receive(message(0, [1.0, 2.0, 3.0]), now=1.0)
        collector.receive(message(0, [1.0, 2.0]), now=2.0)  # late, stale
        collector.receive(message(1, [10.0]), now=3.0)
        assert collector.stale_count == 1
        assert collector.worker_volume(0) == 3
        estimates = collector.estimates()
        assert estimates.volume == 4
        assert estimates.mean[0, 0] == pytest.approx(4.0)
        counters = telemetry.registry.snapshot().counters
        assert counters["collector.stale_messages"] == 1
        assert counters["collector.messages"] == 2  # accepted only
        (stale,) = telemetry.events.by_kind("stale_message")
        assert stale.fields == {"rank": 0, "volume": 2, "kept_volume": 3}

    def test_stale_message_is_received(self):
        collector, _ = make_collector(processors=1)
        collector.receive(message(0, [1.0, 2.0]), now=1.0)
        collector.receive(message(0, [1.0]), now=2.0)  # stale
        assert collector.receive_count == 2
        assert collector.stale_count == 1

    def test_equal_volume_resend_is_not_stale(self):
        collector, telemetry = make_instrumented_collector()
        collector.receive(message(0, [1.0]), now=1.0)
        collector.receive(message(0, [1.0]), now=2.0)  # duplicate resend
        assert collector.stale_count == 0
        assert telemetry.events.by_kind("stale_message") == ()

    def test_stale_message_advances_watermark(self):
        # Dropped by the collector, yet its rank is alive (a rerun
        # catching up): the job's watermark moves.
        job = opened_job(RunConfig(**WATCHED))
        dispatch(job, 0.0, 0, 1)
        job.ingest(message(0, [1.0, 2.0]), now=1.0)
        job.ingest(message(0, [1.0]), now=5.0)  # stale
        assert job.collector.stale_count == 1
        assert job.collector.worker_volume(0) == 2
        job.flag_stale(8.5)
        assert stale(job) == [(1, 0.0)]
        job.flag_stale(9.5)
        assert stale(job) == [(1, 0.0), (0, 5.0)]

    def test_piggybacked_worker_stats_ingested(self):
        collector, telemetry = make_instrumented_collector(processors=1)
        accumulator = MomentAccumulator(1, 1)
        accumulator.add(1.0)
        stats = {"rank": 0, "realizations": 1, "messages": 1, "bytes": 64,
                 "compute_seconds": 0.5, "send_seconds": 0.0,
                 "wall_seconds": 1.0}
        collector.receive(
            MomentMessage(rank=0, snapshot=accumulator.snapshot(),
                          sent_at=0.0, final=False, metrics=stats),
            now=0.0)
        assert telemetry.worker_stats()[0]["realizations"] == 1


class TestLastSeenWatermarks:
    """The job keeps a watermark per in-flight rank: its dispatch or its
    last message, kept or stale; ``stale_worker`` reports it."""

    def test_watermarks_track_arrival_times(self):
        job = opened_job(RunConfig(**WATCHED))
        dispatch(job, 0.0, 0, 1)
        job.ingest(message(0, [1.0]), now=1.0)
        job.ingest(message(1, [1.0]), now=4.0)
        job.ingest(message(0, [1.0, 2.0]), now=7.0)
        job.flag_stale(10.0)
        assert stale(job) == [(1, 4.0)]
        job.flag_stale(12.0)
        assert stale(job) == [(1, 4.0), (0, 7.0)]

    def test_silent_rank_judged_from_its_dispatch(self):
        job = opened_job(RunConfig(maxsv=100, processors=3, perpass=1.0,
                                   telemetry=True))
        dispatch(job, 0.0, 0, 1, 2)
        job.ingest(message(0, [1.0]), now=9.0)
        job.flag_stale(10.0)
        assert stale(job) == [(1, 0.0), (2, 0.0)]

    def test_finalized_ranks_never_stale(self):
        job = opened_job(RunConfig(**WATCHED))
        dispatch(job, 0.0, 0, 1)
        job.ingest(message(0, [1.0], final=True), now=1.0)
        job.flag_stale(100.0)
        assert stale(job) == [(1, 0.0)]


class TestAveragingRoundTelemetry:
    def test_each_save_observed_in_histogram(self):
        collector, telemetry = make_instrumented_collector(
            processors=1, peraver=0.0)
        for index in range(1, 4):
            collector.receive(message(0, [1.0] * index), now=float(index))
        snapshot = telemetry.registry.snapshot()
        assert snapshot.histograms["collector.save_seconds"].count == 3
        saves = telemetry.events.by_kind("save")
        assert [e.fields["save_index"] for e in saves] == [1, 2, 3]
        assert saves[-1].fields["volume"] == 3
        assert saves[-1].ts == 3.0
