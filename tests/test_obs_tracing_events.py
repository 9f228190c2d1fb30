"""Tests for repro.obs.tracing, repro.obs.events and repro.obs.log."""

from __future__ import annotations

import json
import logging

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.events import EventLog, EventTail, read_events
from repro.obs.log import configure_logging, install_null_handler
from repro.obs.tracing import Tracer


class FakeClock:
    """A settable clock standing in for time.monotonic / virtual time."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTracer:
    def test_span_context_times_the_block(self):
        clock = FakeClock(10.0)
        tracer = Tracer(clock=clock)
        with tracer.span("work", rank=3) as attrs:
            clock.advance(2.5)
            attrs["volume"] = 42
        (span,) = tracer.spans
        assert span.name == "work"
        assert span.duration == pytest.approx(2.5)
        assert span.attributes == {"rank": 3, "volume": 42}

    def test_epoch_shifts_to_run_relative(self):
        tracer = Tracer(clock=FakeClock(), epoch=100.0)
        span = tracer.record("w", 101.0, 103.0)
        assert span.start == pytest.approx(1.0)
        assert span.end == pytest.approx(3.0)

    def test_span_recorded_even_when_block_raises(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(RuntimeError):
            with tracer.span("w"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert tracer.spans[0].duration == pytest.approx(1.0)

    def test_cap_counts_drops_instead_of_growing(self):
        tracer = Tracer(clock=FakeClock(), max_spans=2)
        for index in range(5):
            tracer.record("w", 0.0, float(index))
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_backwards_span_rejected(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ConfigurationError):
            tracer.record("w", 2.0, 1.0)

    def test_by_name_filters(self):
        tracer = Tracer(clock=FakeClock())
        tracer.record("a", 0.0, 1.0)
        tracer.record("b", 0.0, 1.0)
        tracer.record("a", 1.0, 2.0)
        assert len(tracer.by_name("a")) == 2


class TestEventLog:
    def test_append_uses_the_clock(self):
        clock = FakeClock(5.0)
        log = EventLog(clock=clock)
        event = log.append("save", volume=10)
        assert event.ts == 5.0
        assert event.fields == {"volume": 10}

    def test_explicit_ts_shifted_by_epoch(self):
        log = EventLog(clock=FakeClock(), epoch=100.0)
        assert log.append("save", ts=101.5).ts == pytest.approx(1.5)

    def test_flush_appends_jsonl(self, tmp_path):
        path = tmp_path / "telemetry" / "events.jsonl"
        log = EventLog(clock=FakeClock(), path=path)
        log.append("a", rank=0)
        log.flush()
        log.append("b", rank=1)
        log.flush()
        log.flush()  # idempotent: nothing new to write
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1]) == {"ts": 0.0, "kind": "b", "rank": 1}

    def test_by_kind(self):
        log = EventLog(clock=FakeClock())
        log.append("a")
        log.append("b")
        log.append("a")
        assert len(log.by_kind("a")) == 2

    def test_read_events_round_trip_and_filter(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(clock=FakeClock(), path=path)
        log.append("save", volume=5)
        log.append("message", rank=2)
        log.flush()
        saves = list(read_events(path, kind="save"))
        assert len(saves) == 1
        assert saves[0].fields == {"volume": 5}

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"ts": 0.0, "kind": "a"}\n{"ts": 1.0, "ki')
        events = list(read_events(path))
        assert [e.kind for e in events] == ["a"]

    def test_garbage_mid_file_rejected(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('not json\n{"ts": 0.0, "kind": "a"}\n')
        with pytest.raises(ConfigurationError):
            list(read_events(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            list(read_events(tmp_path / "absent.jsonl"))



def _job_line(job, **fields):
    return json.dumps({"ts": 0.0, "kind": "job", "job": job, **fields}) + "\n"


class TestEventTail:
    def test_reads_each_complete_line_once(self, tmp_path):
        path = tmp_path / "status.jsonl"
        path.write_text(_job_line("a") + _job_line("b")[:10])
        tail = EventTail(path)
        events, fresh = tail.poll()
        assert [e.fields["job"] for e in events] == ["a"] and fresh
        # The torn line is read again once it is complete.
        with path.open("a") as stream:
            stream.write(_job_line("b")[10:])
        events, fresh = tail.poll()
        assert [e.fields["job"] for e in events] == ["b"] and not fresh
        assert tail.poll() == ([], False)

    @pytest.mark.parametrize("how", ["recreated", "rewritten"])
    @pytest.mark.parametrize("size", ["shorter", "longer"])
    def test_replaced_log_read_from_its_start(self, tmp_path, how, size):
        # A recreated log may reuse the old inode number, and a log
        # rewritten in place always keeps it: a shorter new log, or a
        # longer one whose byte before the old offset is mid-line, is
        # still told apart from the old one grown.
        path = tmp_path / "status.jsonl"
        path.write_text("".join(_job_line(f"old{i}") for i in range(20)))
        tail = EventTail(path)
        assert len(tail.poll()[0]) == 20
        pad = "x" * (path.stat().st_size if size == "longer" else 0)
        if how == "recreated":
            path.unlink()
        path.write_text(json.dumps({"ts": 0.0, "kind": "service",
                                    "pad": pad}) + "\n" + _job_line("new"))
        events, fresh = tail.poll(kind="job")
        assert fresh and [e.fields["job"] for e in events] == ["new"]

    def test_malformed_line_raises_until_replaced(self, tmp_path):
        path = tmp_path / "status.jsonl"
        path.write_text(_job_line("a") + "{torn\n" + _job_line("b"))
        tail = EventTail(path)
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                tail.poll()
        path.unlink()
        path.write_text(_job_line("c"))
        assert [e.fields["job"] for e in tail.poll()[0]] == ["c"]

    def test_missing_log_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            EventTail(tmp_path / "absent.jsonl").poll()


class TestLoggingHygiene:
    def test_null_handler_installed_on_import(self):
        # repro/__init__ calls install_null_handler(); importing the
        # library must leave the root logger configuration alone.
        root = logging.getLogger("repro")
        assert any(isinstance(h, logging.NullHandler)
                   for h in root.handlers)

    def test_install_is_idempotent(self):
        before = len(logging.getLogger("repro").handlers)
        install_null_handler()
        install_null_handler()
        assert len(logging.getLogger("repro").handlers) == before

    def test_configure_logging_is_idempotent_and_scoped(self):
        root_handlers = list(logging.getLogger().handlers)
        handler = configure_logging("DEBUG")
        try:
            assert configure_logging("DEBUG") is handler
            assert logging.getLogger("repro").level == logging.DEBUG
            assert logging.getLogger().handlers == root_handlers
        finally:
            logging.getLogger("repro").removeHandler(handler)
            logging.getLogger("repro").setLevel(logging.NOTSET)
