"""Tests for the Job/Scheduler split: multi-tenant runs, one pool.

Invariants under test:

* fair share — long-run dispatch rates proportional to priorities;
* quotas — per-job ``max_workers`` and the global ``workers`` cap are
  never exceeded;
* admission — ``max_jobs`` back-pressure raises ``AdmissionError``;
* identity — N jobs multiplexed over one shared pool produce exactly
  the estimates and save-point artifacts of N single-job runs;
* the scheduler's measured SLOs match their own Monte Carlo
  prediction (the G/G/c/K model in ``repro.apps.queueing``).
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import parmonc
from repro.apps.queueing import (
    GGcKQueue,
    make_ggck_realization,
    simulate_ggck,
)
from repro.cluster.machine import DurationModel
from repro.cluster.network import NetworkModel
from repro.cluster.simulation import ClusterSpec
from repro.exceptions import AdmissionError, ConfigurationError
from repro.rng.lcg128 import Lcg128
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine, create_backend
from repro.runtime.job import Job, JobSpec, JobStatus
from repro.runtime.scheduler import Scheduler
from repro.runtime.sequential import SequentialBackend


def square(rng):
    return rng.random() ** 2


def spec(routine=square, *, seqnum=0, maxsv=12, processors=12,
         workdir=None, name=None, priority=1.0, max_workers=None,
         use_files=False, deadline=None):
    extra = {} if workdir is None else {"workdir": workdir}
    config = RunConfig(maxsv=maxsv, processors=processors,
                       perpass=0.0, peraver=0.0, seqnum=seqnum, **extra)
    return JobSpec(routine=routine, config=config, name=name,
                   priority=priority, max_workers=max_workers,
                   deadline=deadline, use_files=use_files)


class RecordingBackend(SequentialBackend):
    """Sequential backend that records every spawn batch it receives."""

    def __init__(self):
        super().__init__()
        self.spawned = []           # (job, rank) in dispatch order
        self.concurrency = []       # in-flight total at each spawn

    def spawn(self, assignments):
        busy = sum(len(job.in_flight) for job in self.engine.jobs)
        for assignment in assignments:
            self.spawned.append((assignment.job, assignment.rank))
            self.concurrency.append(busy + 1)
            busy += 1
        return super().spawn(assignments)


class TestFairShare:
    def test_dispatch_ratio_matches_priorities(self):
        # One slot, two starved jobs with priorities 3:1.  The deficit
        # auction must hand the slot to the priority-3 job three times
        # as often: the first 12 dispatches are exactly 9 + 3.
        backend = RecordingBackend()
        scheduler = Scheduler(backend, workers=1)
        high = scheduler.submit(spec(seqnum=0, name="high", priority=3.0))
        low = scheduler.submit(spec(seqnum=1, name="low", priority=1.0))
        scheduler.run()
        first = [job for job, _ in backend.spawned[:12]]
        assert first.count("high") == 9
        assert first.count("low") == 3
        assert high.status is JobStatus.DONE
        assert low.status is JobStatus.DONE
        # Starvation never happens: both jobs drain completely.
        assert high.dispatched == low.dispatched == 12

    def test_equal_priorities_alternate_fairly(self):
        backend = RecordingBackend()
        scheduler = Scheduler(backend, workers=1)
        scheduler.submit(spec(seqnum=0, name="a"))
        scheduler.submit(spec(seqnum=1, name="b"))
        scheduler.run()
        first = [job for job, _ in backend.spawned[:8]]
        assert first.count("a") == 4
        assert first.count("b") == 4

    def test_estimates_unaffected_by_contention(self, tmp_path):
        # Interleaving under a 1-slot pool must not change the numbers:
        # each job's estimate equals its solo sequential run.
        backend = RecordingBackend()
        scheduler = Scheduler(backend, workers=1)
        jobs = [scheduler.submit(spec(seqnum=i, name=f"j{i}",
                                      priority=float(i + 1)))
                for i in range(3)]
        scheduler.run()
        for i, job in enumerate(jobs):
            reference = Engine(
                SequentialBackend(),
                RunConfig(maxsv=12, processors=12, perpass=0.0,
                          peraver=0.0, seqnum=i,
                          workdir=tmp_path / f"ref{i}"),
                use_files=False).run(square)
            assert (job.result.estimates.mean.tobytes()
                    == reference.estimates.mean.tobytes())
            assert (job.result.estimates.abs_error.tobytes()
                    == reference.estimates.abs_error.tobytes())


class TestQuotas:
    def test_global_worker_cap_never_exceeded(self):
        backend = RecordingBackend()
        scheduler = Scheduler(backend, workers=2)
        scheduler.submit(spec(seqnum=0, name="a"))
        scheduler.submit(spec(seqnum=1, name="b"))
        scheduler.run()
        assert backend.concurrency
        assert max(backend.concurrency) <= 2

    def test_max_workers_caps_one_job(self):
        # Unbounded pool: the capped job tops out at its quota while
        # its uncapped sibling fans out to every processor at once.
        backend = RecordingBackend()
        scheduler = Scheduler(backend)
        capped = scheduler.submit(
            spec(seqnum=0, name="capped", processors=6, maxsv=6,
                 max_workers=2))
        free = scheduler.submit(
            spec(seqnum=1, name="free", processors=6, maxsv=6))
        scheduler.run()
        assert capped.peak_workers == 2
        assert free.peak_workers == 6
        assert capped.status is JobStatus.DONE
        assert capped.result.total_volume == 6

    def test_max_workers_respected_under_global_cap(self):
        backend = RecordingBackend()
        scheduler = Scheduler(backend, workers=4)
        capped = scheduler.submit(
            spec(seqnum=0, name="capped", processors=8, maxsv=8,
                 max_workers=1))
        scheduler.submit(spec(seqnum=1, name="free", processors=8,
                              maxsv=8))
        scheduler.run()
        assert capped.peak_workers == 1
        assert max(backend.concurrency) <= 4


class TestAdmission:
    def test_admission_error_at_capacity(self):
        scheduler = Scheduler(SequentialBackend(), max_jobs=2)
        scheduler.submit(spec(seqnum=0, name="a"))
        scheduler.submit(spec(seqnum=1, name="b"))
        with pytest.raises(AdmissionError):
            scheduler.submit(spec(seqnum=2, name="c"))
        with pytest.raises(AdmissionError):
            scheduler.submit(spec(seqnum=3, name="d"))
        assert scheduler.rejected == 2
        scheduler.run()
        report = scheduler.sla_report()
        assert report["submitted"] == 2
        assert report["rejected"] == 2

    def test_duplicate_job_names_rejected(self):
        scheduler = Scheduler(SequentialBackend())
        scheduler.submit(spec(seqnum=0, name="twin"))
        with pytest.raises(ConfigurationError, match="duplicate"):
            scheduler.submit(spec(seqnum=1, name="twin"))

    def test_colliding_workdirs_rejected(self, tmp_path):
        scheduler = Scheduler(SequentialBackend())
        scheduler.submit(spec(seqnum=0, name="a", workdir=tmp_path,
                              use_files=True))
        with pytest.raises(ConfigurationError, match="workdir"):
            scheduler.submit(spec(seqnum=1, name="b", workdir=tmp_path,
                                  use_files=True))

    def test_one_turn_admits_at_constant_cost(self):
        # The field's deficit is read once per turn, not once per
        # admitted job: admitting n jobs used to scan the running
        # field n times.
        def running_calls(queued):
            scheduler = Scheduler(SequentialBackend(), workers=1)
            jobs = [scheduler.submit(spec(seqnum=index, name=f"j{index}",
                                          maxsv=1, processors=1))
                    for index in range(queued)]
            calls = []
            running = scheduler.running
            scheduler.running = lambda: calls.append(None) or running()
            scheduler.step(0.0)
            assert all(job.status is not JobStatus.QUEUED for job in jobs)
            return len(calls)

        assert running_calls(200) == running_calls(2)

    def test_invalid_knobs(self):
        with pytest.raises(ConfigurationError):
            Scheduler(SequentialBackend(), workers=0)
        with pytest.raises(ConfigurationError):
            Scheduler(SequentialBackend(), max_jobs=0)
        with pytest.raises(ConfigurationError):
            Scheduler(SequentialBackend()).run()


class TestLiveJobsOnly:
    """A turn costs the jobs still live, not the history a service that
    never prunes keeps.  Counted, not timed."""

    def _status_reads_per_turn(self, monkeypatch, finished: int) -> list:
        scheduler = Scheduler(SequentialBackend(), workers=1)
        for index in range(finished):
            scheduler.submit(spec(seqnum=index, maxsv=1, processors=1))
        assert scheduler.drain() is True
        live = scheduler.submit(spec(seqnum=1000, maxsv=3, processors=3,
                                     name="live"))
        original = Job.status
        reads = []
        with monkeypatch.context() as patch:
            patch.setattr(Job, "status", property(
                lambda job: reads.append(job) or original.fget(job),
                original.fset))
            counts = []
            while scheduler.step(poll_timeout=0.0):
                counts.append(len(reads))
                del reads[:]
        assert live.status is JobStatus.DONE
        assert len(scheduler.jobs) == finished + 1  # nothing was pruned
        return counts

    def test_status_reads_per_turn_do_not_grow_with_history(
            self, monkeypatch):
        # Counted, so any longer history shows a scan of it.
        short = self._status_reads_per_turn(monkeypatch, 10)
        long = self._status_reads_per_turn(monkeypatch, 200)
        assert short and min(short) > 0
        assert long == short

    def test_a_directory_is_taken_until_its_job_is_pruned(self, tmp_path):
        scheduler = Scheduler(SequentialBackend())
        first = scheduler.submit(spec(name="first", maxsv=2, processors=1,
                                      workdir=tmp_path, use_files=True))
        assert scheduler.drain() is True
        assert first.status is JobStatus.DONE
        with pytest.raises(ConfigurationError, match="first"):
            scheduler.submit(spec(name="second", seqnum=1,
                                  workdir=tmp_path / "sub" / "..",
                                  use_files=True))
        assert scheduler.prune() == 1
        second = scheduler.submit(spec(name="second", seqnum=1,
                                       workdir=tmp_path, use_files=True))
        assert second.status is JobStatus.QUEUED
        # The directory is taken again, by the job now writing it.
        with pytest.raises(ConfigurationError, match="second"):
            scheduler.submit(spec(name="third", seqnum=2,
                                  workdir=tmp_path, use_files=True))


class TestSlaTracking:
    def test_report_shape_and_deadline_miss(self):
        scheduler = Scheduler(SequentialBackend(), workers=1)

        def doze(rng):
            time.sleep(0.005)
            return rng.random()

        # doze() sleeps 5 ms per realization; a 1 ms deadline on a job
        # with two realizations is guaranteed missed, a generous one
        # is guaranteed met.
        missed = scheduler.submit(
            spec(doze, seqnum=0, name="tight", maxsv=2, processors=1,
                 deadline=0.001))
        met = scheduler.submit(
            spec(square, seqnum=1, name="loose", maxsv=2, processors=1,
                 deadline=3600.0))
        scheduler.run()
        report = scheduler.sla_report()
        assert report["deadline_misses"] == 1
        by_id = {record["job"]: record for record in report["jobs"]}
        assert by_id["tight"]["deadline_missed"]
        assert not by_id["loose"]["deadline_missed"]
        assert by_id["tight"]["wait_seconds"] >= 0.0
        assert (by_id["tight"]["makespan_seconds"]
                >= by_id["tight"]["wait_seconds"])
        # The result's snapshot is taken during finalization (status
        # "draining", no "done" lifecycle stamp yet); the report
        # re-snapshots afterwards ("done").
        volatile = {"status", "states"}
        for result_sla, reported in ((missed.result.sla, by_id["tight"]),
                                     (met.result.sla, by_id["loose"])):
            assert {k: v for k, v in result_sla.items()
                    if k not in volatile} \
                == {k: v for k, v in reported.items() if k not in volatile}
            assert reported["states"]["done"] \
                >= result_sla["states"]["draining"]


@pytest.fixture
def normalized_artifacts(savepoint_content):
    """``read(workdir)``: a job's artifacts with wall-clock fields removed.

    Estimates and save-points depend only on the RNG hierarchy, never on
    scheduling — but a handful of fields record wall time (how long the
    run took), which legitimately differs between a contended shared
    pool and a solo run.  Strip exactly those and require everything
    else byte-identical.
    """
    def read(workdir):
        root = workdir / "parmonc_data"
        artifacts = {}
        for name in ("results/func.dat", "results/func_ci.dat"):
            artifacts[name] = (root / name).read_bytes()
        log = (root / "results/func_log.dat").read_text().splitlines()
        artifacts["results/func_log.dat"] = "\n".join(
            line for line in log
            if not line.startswith(("mean_time_per_realization_sec",
                                    "written_at", "elapsed_sec")))
        artifacts["savepoint.bin"] = savepoint_content(workdir)
        return artifacts
    return read


@pytest.fixture
def shared_backend(request):
    """``(name, options)`` for one shared-capable backend; the
    distributed case brings up a loopback pool for the test."""
    name = request.param
    if name in ("sequential", "simcluster"):
        yield name, {}
    elif name == "multiprocess":
        yield name, {"start_method": "fork"}
    else:
        from repro.runtime.pool import PoolServer
        server = PoolServer(port=0, workers=4, start_method="fork")
        host, port = server.start()
        try:
            yield name, {"connect": f"{host}:{port}"}
        finally:
            server.stop()


class TestSubmissionScheduleIdentity:
    """However jobs reach the loop — all up front through the batch
    API, or staggered while earlier ones are mid-run — each produces
    exactly the estimates and save-point artifacts of the same job run
    solo through ``parmonc()``, on every backend.  The simulated
    cluster's artifacts match a solo simulated run: its clock, and so
    its save cadence, is virtual."""

    JOBS = 4
    MAXSV = 12

    def _items(self, tmp_path):
        return [{"realization": square, "name": f"exp{i}",
                 "maxsv": self.MAXSV, "processors": 3, "seqnum": i,
                 "perpass": 0.0, "peraver": 0.0,
                 "workdir": tmp_path / "shared" / f"exp{i}",
                 "priority": float(1 + i % 3)}
                for i in range(self.JOBS)]

    def _staggered(self, items, backend):
        # Synchronously stepped, so "mid-run" is exact: the later jobs
        # are submitted only once the first has workers in flight.
        from repro.core.parmonc import build_job_spec
        scheduler = Scheduler(backend, workers=4)
        specs = [build_job_spec(item, index)
                 for index, item in enumerate(items)]
        jobs = [scheduler.submit(specs[0])]
        _drive(scheduler, lambda: jobs[0].dispatched > 0)
        assert jobs[0].status is JobStatus.RUNNING
        jobs += [scheduler.submit(spec) for spec in specs[1:]]
        assert scheduler.shutdown(timeout=120.0) is True
        assert all(job.status is JobStatus.DONE for job in jobs)
        return [job.result for job in jobs]

    @pytest.mark.parametrize("schedule", ["upfront", "staggered"])
    @pytest.mark.parametrize(
        "shared_backend",
        ["sequential", "multiprocess", "distributed", "simcluster"],
        indirect=True)
    def test_jobs_match_solo_runs_byte_for_byte(
            self, tmp_path, shared_backend, schedule, normalized_artifacts):
        name, options = shared_backend
        items = self._items(tmp_path)
        if schedule == "upfront":
            results = parmonc(jobs=items, backend=name, workers=4,
                              **options)
        else:
            results = self._staggered(items,
                                      create_backend(name, **options))
        assert len(results) == self.JOBS
        for i, shared in enumerate(results):
            solo = parmonc(square, maxsv=self.MAXSV, seqnum=i, perpass=0.0,
                           peraver=0.0, processors=3,
                           backend="sequential",
                           workdir=tmp_path / "solo" / f"exp{i}")
            assert shared.total_volume == solo.total_volume == self.MAXSV
            assert (shared.estimates.mean.tobytes()
                    == solo.estimates.mean.tobytes())
            assert (shared.estimates.variance.tobytes()
                    == solo.estimates.variance.tobytes())
            assert (shared.estimates.abs_error.tobytes()
                    == solo.estimates.abs_error.tobytes())
            if name == "simcluster":
                parmonc(square, maxsv=self.MAXSV, seqnum=i, perpass=0.0,
                        peraver=0.0, processors=3, backend=name,
                        workdir=tmp_path / "solo-sim" / f"exp{i}")
                reference = tmp_path / "solo-sim" / f"exp{i}"
            else:
                reference = tmp_path / "solo" / f"exp{i}"
            assert (normalized_artifacts(tmp_path / "shared" / f"exp{i}")
                    == normalized_artifacts(reference))
            assert shared.sla["job"] == f"exp{i}"
            assert shared.sla["completed"]

    def test_batch_api_validation(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            parmonc(square, maxsv=10, jobs=[{"realization": square,
                                             "maxsv": 10}])
        with pytest.raises(ConfigurationError):
            parmonc(square, maxsv=10, workers=4)
        with pytest.raises(ConfigurationError, match="unknown"):
            parmonc(jobs=[{"realization": square, "maxsv": 10,
                           "wibble": 3}], backend="sequential")
        with pytest.raises(ConfigurationError):
            parmonc(jobs=[{"maxsv": 10}], backend="sequential")
        with pytest.raises(ConfigurationError):
            parmonc(jobs=[], backend="sequential")


class TestSchedulerSlosMatchMonteCarlo:
    """The SLA-validator pattern: the scheduler *is* a G/G/c/K queue.

    Job submissions are a batch arrival stream, the shared worker slots
    are the ``c`` servers, ``max_jobs`` is the capacity bound ``K``,
    submit-to-start wait is the latency SLO and admission rejection is
    blocking.  ``repro.apps.queueing`` simulates that queue with the
    library's own Monte Carlo machinery — so the scheduler's measured
    SLOs can be validated against their MC prediction.
    """

    def test_admission_rejections_match_predicted_blocking(self, tmp_path):
        # Batch of 6 submissions into a K=4 queue: the G/G/c/K model
        # with instantaneous arrivals predicts the blocked fraction
        # deterministically, and the scheduler must reject exactly
        # that share of the batch.
        queue = GGcKQueue(servers=2, capacity=4, customers=6,
                          interarrival=lambda rng: 0.0,
                          service=lambda rng: 1.0)
        prediction = parmonc(make_ggck_realization(queue), ncol=3,
                             maxsv=16, processors=2, perpass=0.0,
                             peraver=0.0, backend="sequential",
                             workdir=tmp_path, use_files=False)
        blocked_fraction = prediction.estimates.mean[0, 1]
        assert blocked_fraction == pytest.approx(2.0 / 6.0)

        scheduler = Scheduler(SequentialBackend(), workers=2, max_jobs=4)
        rejected = 0
        for i in range(6):
            try:
                scheduler.submit(spec(seqnum=i, name=f"j{i}", maxsv=4,
                                      processors=1))
            except AdmissionError:
                rejected += 1
        scheduler.run()
        assert rejected == round(blocked_fraction * 6)
        assert scheduler.sla_report()["rejected"] == rejected

    def test_measured_waits_match_predicted_waits(self, tmp_path):
        # 6 jobs of 0.6 s each over c=2 simulated workers.  The
        # deterministic G/G/c/K prediction for the mean submit-to-start
        # wait is (0+0+s+s+2s+2s)/6 = 0.6 s; on a cluster whose
        # realizations take exactly 0.3 virtual seconds and whose
        # messages cost nothing, the scheduler's waits match it exactly.
        service = 0.6
        queue = GGcKQueue(servers=2, capacity=6, customers=6,
                          interarrival=lambda rng: 0.0,
                          service=lambda rng, s=service: s)
        prediction = parmonc(make_ggck_realization(queue), ncol=3,
                             maxsv=8, processors=1, perpass=0.0,
                             peraver=0.0, backend="sequential",
                             workdir=tmp_path, use_files=False)
        predicted_wait = prediction.estimates.mean[0, 0]
        assert predicted_wait == pytest.approx(service)

        jobs = [{"realization": square, "name": f"j{i}", "maxsv": 2,
                 "processors": 1, "seqnum": i, "perpass": 0.0,
                 "peraver": 0.0, "use_files": False}
                for i in range(6)]
        cluster = ClusterSpec(duration_model=DurationModel(mean=0.3),
                              collector_service_time=0.0,
                              network=NetworkModel(latency=0.0))
        results = parmonc(jobs=jobs, backend="simcluster", workers=2,
                          cluster_spec=cluster)
        waits = [result.sla["wait_seconds"] for result in results]
        assert waits == pytest.approx([0.0, 0.0, 0.6, 0.6, 1.2, 1.2])
        assert sum(waits) / len(waits) == pytest.approx(predicted_wait)

    def test_ggck_batch_case_is_exact(self):
        # The hand-computable case the analogy rests on: 8 batch
        # arrivals, 2 servers, capacity 4, unit service.
        queue = GGcKQueue(servers=2, capacity=4, customers=8,
                          interarrival=lambda rng: 0.0,
                          service=lambda rng: 1.0)
        wait, blocked, sojourn = simulate_ggck(queue, Lcg128(7))
        assert wait == pytest.approx(0.5)
        assert blocked == pytest.approx(0.5)
        assert sojourn == pytest.approx(1.5)

    def test_ggck_validation(self):
        with pytest.raises(ConfigurationError):
            GGcKQueue(servers=0)
        with pytest.raises(ConfigurationError):
            GGcKQueue(servers=4, capacity=2)
        with pytest.raises(ConfigurationError):
            GGcKQueue(customers=0)

    def test_ggck_reduces_to_mm1_lindley(self):
        # c=1 with effectively unbounded capacity must reproduce the
        # M/M/1 Lindley recursion's regime: near the known steady
        # state for a long, moderately loaded day.
        queue = GGcKQueue(servers=1, capacity=10_000, customers=20_000,
                          interarrival=lambda rng: _expo(rng, 0.6),
                          service=lambda rng: _expo(rng, 1.0))
        wait, blocked, _ = simulate_ggck(queue, Lcg128(99))
        assert blocked == 0.0
        # W_q = rho / (mu - lambda) = 0.6 / 0.4 = 1.5
        assert wait == pytest.approx(1.5, rel=0.15)


def _expo(rng, rate):
    from repro.rng.distributions import exponential
    return exponential(rng, rate)


# ---------------------------------------------------------------------------
# Streaming service


def slow_square(rng):
    """``square`` with a small wall-clock footprint, to hold a pool busy."""
    time.sleep(0.02)
    return rng.random() ** 2


def _drive(scheduler, predicate, limit=10_000):
    """Step the service loop until ``predicate()`` holds."""
    for _ in range(limit):
        if predicate():
            return
        scheduler.step(poll_timeout=0.0)
    raise AssertionError("scheduler did not reach the expected state")


class TestStreamingLifecycle:
    """Live-queue semantics: cancel, mid-stream admission, drain."""

    def test_cancel_queued_job_is_withdrawn_immediately(self):
        scheduler = Scheduler(SequentialBackend())
        job = scheduler.submit(spec(name="queued-victim"))
        assert job.status is JobStatus.QUEUED
        assert scheduler.cancel(job) is True
        assert job.status is JobStatus.CANCELLED
        assert job.finished.is_set()
        assert "cancelled" in job.state_times
        # The withdrawn job never reaches the backend.
        assert scheduler.drain(timeout=5.0) is True
        assert job.result is None
        assert job.dispatched == 0

    def test_cancel_running_job_tears_down_pending_work(self):
        backend = SequentialBackend()
        scheduler = Scheduler(backend)
        job = scheduler.submit(spec(name="victim", maxsv=40,
                                    processors=40))
        # Admit, dispatch, and run a few of the 40 one-realization
        # workers so the job is genuinely mid-flight.
        for _ in range(4):
            scheduler.step(poll_timeout=0.0)
        assert job.status is JobStatus.RUNNING
        assert scheduler.cancel("victim") is True
        assert job.status is JobStatus.RUNNING  # applied by the loop
        scheduler.step(poll_timeout=0.0)
        assert job.status is JobStatus.CANCELLED
        assert not job.pending and not job.in_flight
        assert not backend._pending  # cancel_job() purged the queue
        assert scheduler.drain(timeout=5.0) is True

    def test_cancel_finished_job_returns_false(self):
        scheduler = Scheduler(SequentialBackend())
        job = scheduler.submit(spec(name="fast", maxsv=4, processors=2))
        _drive(scheduler, lambda: job.status is JobStatus.DONE)
        assert scheduler.cancel(job) is False
        assert scheduler.cancel("fast") is False

    def test_cancel_unknown_job_raises(self):
        scheduler = Scheduler(SequentialBackend())
        with pytest.raises(ConfigurationError, match="unknown job"):
            scheduler.cancel("never-submitted")

    def test_admission_error_mid_stream_and_slot_reuse(self):
        scheduler = Scheduler(SequentialBackend(), max_jobs=1)
        first = scheduler.submit(spec(name="first", maxsv=4,
                                      processors=2))
        with pytest.raises(AdmissionError):
            scheduler.submit(spec(name="second", seqnum=1))
        assert scheduler.rejected == 1
        _drive(scheduler, lambda: first.status is JobStatus.DONE)
        # A finished job frees its admission slot mid-stream.
        third = scheduler.submit(spec(name="third", maxsv=4,
                                      processors=2, seqnum=2))
        _drive(scheduler, lambda: third.status is JobStatus.DONE)
        assert scheduler.sla_report()["rejected"] == 1

    def test_cancelling_running_job_frees_admission_slot(self):
        scheduler = Scheduler(SequentialBackend(), max_jobs=1)
        victim = scheduler.submit(spec(name="victim", maxsv=40,
                                       processors=40))
        scheduler.step(poll_timeout=0.0)
        assert victim.status is JobStatus.RUNNING
        assert scheduler.cancel(victim) is True
        scheduler.step(poll_timeout=0.0)
        assert victim.status is JobStatus.CANCELLED
        replacement = scheduler.submit(spec(name="replacement", maxsv=4,
                                            processors=2, seqnum=1))
        _drive(scheduler, lambda: replacement.status is JobStatus.DONE)

    def test_drain_with_empty_queue_returns_immediately(self):
        scheduler = Scheduler(SequentialBackend())
        before = time.monotonic()
        assert scheduler.drain(timeout=5.0) is True
        assert time.monotonic() - before < 0.5

    @pytest.mark.parametrize("stopped_by", ["shutdown", "run"])
    def test_submit_after_shutdown_is_rejected(self, stopped_by):
        # A batch run() and a service shutdown() end the same way: the
        # loop stops admitting, whichever client drove it.
        scheduler = Scheduler(SequentialBackend())
        if stopped_by == "run":
            scheduler.submit(spec(name="only", maxsv=4, processors=2))
            scheduler.run()
        else:
            scheduler.start()
            assert scheduler.shutdown(timeout=10.0) is True
        with pytest.raises(ConfigurationError, match="shutting down"):
            scheduler.submit(spec(name="late"))

    def test_shutdown_timeout_keeps_the_running_service(self):
        # Regression: a timed-out shutdown() used to return None and
        # forget a service thread that still owned the backend.
        class GatedBackend(SequentialBackend):
            def __init__(self):
                super().__init__()
                self.entered = threading.Event()
                self.gate = threading.Event()
                self.shutdowns = 0

            def poll(self, timeout):
                self.entered.set()
                self.gate.wait(60.0)   # hold the loop mid-turn
                return super().poll(timeout)

            def shutdown(self):
                self.shutdowns += 1
                super().shutdown()

        backend = GatedBackend()
        scheduler = Scheduler(backend)
        thread = scheduler.start()
        job = scheduler.submit(spec(name="held", maxsv=4, processors=2))
        assert backend.entered.wait(60.0)
        assert scheduler.shutdown(timeout=0.01) is False
        assert thread.is_alive()
        assert backend.shutdowns == 0
        backend.gate.set()
        # The handle survived, so a second call can finish the job.
        assert scheduler.shutdown(timeout=60.0) is True
        assert not thread.is_alive()
        assert backend.shutdowns == 1
        assert job.status is JobStatus.DONE

    def test_prune_drops_finished_jobs_but_keeps_counters(self):
        scheduler = Scheduler(SequentialBackend())
        done = scheduler.submit(spec(name="done", maxsv=4, processors=2))
        _drive(scheduler, lambda: done.status is JobStatus.DONE)
        live = scheduler.submit(spec(name="live", seqnum=1))
        assert scheduler.prune() == 1
        report = scheduler.sla_report()
        assert report["submitted"] == 2
        assert [job["job"] for job in report["jobs"]] == ["live"]
        _drive(scheduler, lambda: live.status is JobStatus.DONE)


#: Directory (via environment, so it crosses the fork) in which
#: ``exit_or_linger`` decides who dies; unset = benign.
_FATE_DIR_ENV = "PARMONC_TEST_FATE_DIR"


def exit_or_linger(rng):
    """Exactly one worker process ``os._exit(3)``s; the others linger.

    ``O_EXCL`` picks the one; everyone else sits in the routine far
    longer than the test runs, so only a release can end them.
    """
    import os
    directory = os.environ.get(_FATE_DIR_ENV)
    if directory:
        try:
            os.close(os.open(os.path.join(directory, "doomed"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            time.sleep(600.0)
        else:
            os._exit(3)
    return rng.random() ** 2


def linger(rng):
    """A realization that outlives any test: only a release ends it."""
    time.sleep(600.0)
    return rng.random()


def _child_pids(backend):
    """Pids of every child the multiprocess backend's host holds now."""
    return {process.pid for process, _ in backend._host._children.values()}


def _assert_forgotten(backend, job):
    """Nothing in the multiprocess backend names ``job`` any more: no
    slot runs it or is pinned to it, and no book is keyed by it."""
    assert all(running[0] != job for running in backend._host.running())
    assert all(key[0] != job for key in backend._host.keys())
    assert all(key[0] != job for key in backend._exits)
    for books in (backend._contexts, backend._plans, backend._edges,
                  backend._respawn_budget):
        assert job not in books


def _reaped(pid):
    """True once ``pid`` is gone — exited *and* waited for, no zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestJobRelease:
    """``release_job`` on every way out of RUNNING: a finished job
    leaves nothing behind in the backend, whichever way it finished."""

    @staticmethod
    def _multiprocess(workers=2):
        backend = create_backend("multiprocess", start_method="fork")
        return backend, Scheduler(backend, workers=workers)

    def test_prune_after_done_leaves_the_multiprocess_service_alive(self):
        # Regression: the backend kept ('a', rank) process entries
        # after DONE, and the next reap looked the pruned job up again:
        # BackendError("unknown job 'a'") killed the loop thread.  Now
        # a's slots outlive it, idle, and nothing names it any more.
        backend, scheduler = self._multiprocess()
        try:
            first = scheduler.submit(spec(name="a", maxsv=8, processors=2))
            _drive(scheduler, lambda: first.status is JobStatus.DONE)
            _assert_forgotten(backend, "a")
            assert scheduler.prune() == 1
            assert backend.reap() == []
            second = scheduler.submit(
                spec(slow_square, name="b", maxsv=8, processors=2,
                     seqnum=1))
            _drive(scheduler, lambda: second.status is JobStatus.DONE)
        finally:
            scheduler.shutdown(timeout=30.0)
        assert second.result.total_volume == 8
        assert backend.slots_started == 2  # b ran on a's slots

    @pytest.mark.parametrize("fanout", [None, 2])
    def test_failed_job_keeps_no_process_running(self, tmp_path,
                                                 monkeypatch, fanout):
        # Regression: FAILED released nothing, so the surviving workers
        # (and, with a tree, the reducers) ran on in slots the
        # scheduler had already handed to someone else.
        monkeypatch.setenv(_FATE_DIR_ENV, str(tmp_path))
        backend, scheduler = self._multiprocess(workers=3)
        config = RunConfig(maxsv=3, processors=3, perpass=1000.0,
                           peraver=0.0, reduction_fanout=fanout)
        pids = set()
        open_job, spawn = backend.open_job, backend.spawn

        def opened(job):
            open_job(job)
            pids.update(_child_pids(backend))

        def spawned(assignments):
            extras = spawn(assignments)
            pids.update(extra["pid"] for extra in extras)
            return extras

        monkeypatch.setattr(backend, "open_job", opened)
        monkeypatch.setattr(backend, "spawn", spawned)
        try:
            job = scheduler.submit(JobSpec(
                routine=exit_or_linger, config=config, name="doomed",
                use_files=False))
            scheduler.drain(timeout=60.0)
            assert len(pids) == (3 if fanout is None else 5)
            assert job.status is JobStatus.FAILED
            assert "rank" in str(job.error)
            assert all(_reaped(pid) for pid in pids)
            assert backend._host.keys() == [] and backend._exits == {}
            assert backend._plans == {} and backend._edges == {}
            # The slots are free in fact, not only on the books.
            monkeypatch.delenv(_FATE_DIR_ENV)
            healthy = scheduler.submit(spec(name="healthy", maxsv=6,
                                            processors=3, seqnum=1))
            _drive(scheduler, lambda: healthy.status is JobStatus.DONE)
        finally:
            scheduler.shutdown(timeout=30.0)
        assert healthy.result.total_volume == 6

    def test_cancelled_tree_job_reaps_every_child(self):
        # Released means gone: cancelling a RUNNING fanout-2 job stops
        # and reaps every worker and reducer it has — with no shared
        # queue whose write lock a signal could strand, none of them is
        # left to exit on its own — and a job beside it is untouched.
        backend, scheduler = self._multiprocess(workers=8)
        try:
            doomed = scheduler.submit(JobSpec(
                routine=linger, name="doomed", use_files=False,
                config=RunConfig(maxsv=8, processors=4, perpass=0.0,
                                 peraver=0.0, reduction_fanout=2)))
            beside = scheduler.submit(spec(name="beside", maxsv=24,
                                           processors=2, seqnum=3))
            _drive(scheduler, lambda: len(doomed.in_flight) == 4)
            pids = {backend._host._children[key][0].pid
                    for key in backend._host.keys() if key[0] == "doomed"}
            assert len(pids) == 6  # four workers, two reducers
            assert scheduler.cancel(doomed) is True
            scheduler.step(poll_timeout=0.0)  # the loop releases it
            assert doomed.status is JobStatus.CANCELLED
            assert all(_reaped(pid) for pid in pids)
            assert all(key[0] != "doomed" for key in backend._host.keys())
            _drive(scheduler, lambda: beside.status is JobStatus.DONE)
        finally:
            scheduler.shutdown(timeout=30.0)
        solo = Engine(SequentialBackend(), beside.spec.config,
                      use_files=False).run(square)
        for name in ("mean", "variance", "abs_error"):
            assert getattr(beside.result.estimates, name).tobytes() \
                == getattr(solo.estimates, name).tobytes(), name

    @pytest.mark.parametrize(
        "name", ["sequential", "multiprocess", "distributed"])
    def test_fifty_jobs_leave_no_trace(self, name):
        # A long-lived service holds O(running jobs), and a name freed
        # by prune() can be submitted again.
        from repro.runtime.pool import PoolServer
        server = None
        options = {"start_method": "fork"}
        if name == "distributed":
            server = PoolServer(port=0, workers=2, start_method="fork")
            options = {"connect": "%s:%d" % server.start()}
        backend = create_backend(name, **options)
        scheduler = Scheduler(backend, workers=2)
        scheduler.start()
        try:
            for index in range(50):
                job = scheduler.submit(spec(
                    name=f"tiny{index % 5}", maxsv=2, processors=1,
                    seqnum=index))
                assert scheduler.wait(job, timeout=60.0)
                assert job.status is JobStatus.DONE, job.error
                assert job.result.total_volume == 2
                assert scheduler.prune() == 1
            last = scheduler.submit(spec(name="last", maxsv=2,
                                         processors=1, seqnum=50))
            assert scheduler.wait(last, timeout=60.0)
            if name == "sequential":
                assert not backend._pending
            elif name == "multiprocess":
                # The slots outlive the jobs, idle, and never more of
                # them than the scheduler's cap.
                for job in [f"tiny{index}" for index in range(5)] + ["last"]:
                    _assert_forgotten(backend, job)
                assert backend.slots_started <= 2
            else:
                # Frames on a link keep their order, so with ``last``'s
                # passes back every earlier release has been served.
                assert set(backend._entries) <= {"last"}
                assert not backend._pending
                [link] = backend._links.values()
                assert link.announced <= {"last"}
                [session] = server._sessions
                assert set(session._contexts) <= {"last"}
        finally:
            assert scheduler.shutdown(timeout=60.0) is True
            if server is not None:
                server.stop()


class TestStreamingJobScopedReduction:
    def test_fanout_job_admitted_mid_stream_matches_solo(
            self, tmp_path, normalized_artifacts):
        # A reduction-fanout job rides the streaming service next to a
        # flat job: its k-ary tree is planned at admission, scoped to
        # the job, torn down at completion — and the estimate stays
        # bit-identical to the solo sequential run.
        backend = create_backend("multiprocess", start_method="fork")
        scheduler = Scheduler(backend, workers=8)
        flat = scheduler.submit(spec(slow_square, name="flat",
                                     maxsv=24, processors=6))
        config = RunConfig(maxsv=36, processors=9, perpass=0.0,
                           peraver=0.0, seqnum=3, reduction_fanout=3,
                           workdir=tmp_path / "tree")
        tree = scheduler.submit(JobSpec(routine=square, config=config,
                                        name="tree", use_files=True))
        assert scheduler.drain(timeout=120.0) is True
        scheduler.shutdown(timeout=30.0)
        assert flat.status is JobStatus.DONE
        assert tree.status is JobStatus.DONE
        solo = parmonc(square, maxsv=36, seqnum=3, perpass=0.0,
                       peraver=0.0, processors=9, backend="sequential",
                       workdir=tmp_path / "solo")
        assert tree.result.total_volume == solo.total_volume == 36
        assert (tree.result.estimates.mean.tobytes()
                == solo.estimates.mean.tobytes())
        assert (tree.result.estimates.abs_error.tobytes()
                == solo.estimates.abs_error.tobytes())
        assert (normalized_artifacts(tmp_path / "tree")
                == normalized_artifacts(tmp_path / "solo"))

    def test_jobs_mapping_asks_for_a_tree(self, tmp_path,
                                          normalized_artifacts):
        # docs/scheduler.md: a jobs=[{...}] mapping (or queue-file
        # entry) carries its own reduction_fanout, through the same
        # spec builder the single-run path uses.
        run = dict(maxsv=40, processors=4, seqnum=2, perpass=0.0,
                   peraver=0.0, reduction_fanout=2)
        [shared] = parmonc(
            jobs=[{"routine": square, "name": "tree", **run,
                   "workdir": tmp_path / "shared"}],
            backend="multiprocess", start_method="fork", workers=4)
        solo = parmonc(square, **run, backend="multiprocess",
                       start_method="fork", workdir=tmp_path / "solo")
        assert shared.total_volume == solo.total_volume == 40
        assert (shared.estimates.mean.tobytes()
                == solo.estimates.mean.tobytes())
        assert (shared.estimates.abs_error.tobytes()
                == solo.estimates.abs_error.tobytes())
        assert (normalized_artifacts(tmp_path / "shared")
                == normalized_artifacts(tmp_path / "solo"))


class TestStreamingLoadStudy:
    """Scaled-down million-submission study (the full-scale run lives
    in ``benchmarks/test_bench_streaming.py``): the live admission loop
    replayed against the G/G/c/K reference off one shared generator."""

    def test_rejections_exact_and_waits_match_reference(self):
        from repro.apps.loadstudy import run_load_study
        # Equality holds at any length; 2 000 customers see 167
        # rejections.
        queue = GGcKQueue(servers=4, capacity=8, customers=2_000,
                          interarrival=lambda rng: _expo(rng, 3.5),
                          service=lambda rng: _expo(rng, 1.0))
        wait, blocked, _ = simulate_ggck(queue, Lcg128(43))
        study = run_load_study(queue, Lcg128(43))
        assert study.submitted == queue.customers
        assert study.rejected == round(blocked * queue.customers)
        assert study.admitted == queue.customers - study.rejected
        # Same draws, same event order: equality to float error, far
        # inside the ISSUE's +/-50% envelope.
        assert study.mean_wait == pytest.approx(wait, rel=1e-12)

    def test_study_matches_monte_carlo_prediction(self, tmp_path):
        from repro.apps.loadstudy import run_load_study
        # The MC leg: predict W_q and P_block with the library's own
        # machinery (independent seed), then check the live admission
        # loop lands within the ISSUE's 50% envelope.
        queue = GGcKQueue(servers=4, capacity=8, customers=2_000,
                          interarrival=lambda rng: _expo(rng, 3.5),
                          service=lambda rng: _expo(rng, 1.0))
        prediction = parmonc(make_ggck_realization(queue), ncol=3,
                             maxsv=32, processors=4, perpass=0.0,
                             peraver=0.0, backend="sequential",
                             workdir=tmp_path, use_files=False)
        predicted_wait = prediction.estimates.mean[0, 0]
        predicted_block = prediction.estimates.mean[0, 1]
        study = run_load_study(queue, Lcg128(101))
        assert (abs(study.mean_wait - predicted_wait)
                <= 0.5 * predicted_wait)
        assert (abs(study.rejected / study.submitted - predicted_block)
                <= 0.5 * predicted_block)
