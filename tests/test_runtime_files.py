"""Tests for repro.runtime.files: result files, save-points, genparam."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ConfigurationError, ResumeError
from repro.rng.multiplier import DEFAULT_LEAPS
from repro.runtime import storage
from repro.runtime.files import (
    DataDirectory,
    read_genparam_file,
    render_ci_table,
    render_log,
    render_mean_matrix,
    write_genparam_file,
)
from repro.runtime.messages import MomentMessage, message_bytes
from repro.stats.accumulator import MomentAccumulator, MomentSnapshot
from repro.stats.estimators import Estimates

from test_runtime_format import reference_ci_table, reference_mean_matrix


@pytest.fixture
def estimates():
    accumulator = MomentAccumulator(2, 2)
    accumulator.add(np.array([[1.0, 2.0], [3.0, 4.0]]), compute_time=0.5)
    accumulator.add(np.array([[2.0, 2.0], [5.0, 4.0]]), compute_time=0.7)
    return accumulator.estimates()


class TestRendering:
    def test_mean_matrix_layout(self, estimates):
        text = render_mean_matrix(estimates)
        rows = text.strip().splitlines()
        assert len(rows) == 2
        first_row = [float(v) for v in rows[0].split()]
        assert first_row == pytest.approx([1.5, 2.0])

    def test_ci_table_columns(self, estimates):
        text = render_ci_table(estimates)
        lines = text.strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + 4
        fields = lines[1].split()
        assert fields[0] == "1" and fields[1] == "1"
        assert float(fields[2]) == pytest.approx(1.5)

    def test_log_contents(self, estimates):
        text = render_log(estimates, seqnum=3, processors=8, sessions=2,
                          elapsed=12.5)
        assert "total_sample_volume: 2" in text
        assert "seqnum: 3" in text
        assert "processors: 8" in text
        assert "sessions: 2" in text
        assert "elapsed_sec" in text
        assert "mean_time_per_realization_sec: 6.0" in text


def _one_realization(value):
    """Estimates at volume 1: zero variance, 0/0 and x/0 relative errors."""
    accumulator = MomentAccumulator(2, 2)
    accumulator.add(np.array([[value, 0.0], [-0.0, -value]]))
    return accumulator.estimates()


#: Any float64 — every magnitude from subnormal to 1e308, both zeros,
#: both infinities, nan — with the awkward ones drawn often.
_entries = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e300,
                     5e-324, 9.999999999999999e-5, 0.1, 1e15]))


@st.composite
def _estimates(draw):
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 7)))
    matrices = [draw(hnp.arrays(np.float64, shape, elements=_entries))
                for _ in range(4)]
    return Estimates(*matrices, volume=draw(st.integers(1, 10 ** 12)))


class TestRendererIdentity:
    """One ``%``-format over the flattened matrices writes the bytes
    the entry-by-entry loop wrote, for every shape and every float."""

    @settings(max_examples=150, deadline=None)
    @given(_estimates())
    @example(_one_realization(3.0))
    @example(_one_realization(1e-300))
    def test_both_files_match_the_double_loop(self, estimates):
        assert render_mean_matrix(estimates) \
            == reference_mean_matrix(estimates)
        assert render_ci_table(estimates) == reference_ci_table(estimates)


class TestResultsRoundtrip:
    def test_write_and_read_results(self, tmp_path, estimates):
        data = DataDirectory(tmp_path)
        data.write_results(estimates, seqnum=0, processors=2, sessions=1)
        mean = data.read_mean_matrix()
        assert np.allclose(mean, estimates.mean)
        log = data.read_log()
        assert log["total_sample_volume"] == "2"
        assert log["processors"] == "2"

    def test_read_missing_results(self, tmp_path):
        data = DataDirectory(tmp_path)
        with pytest.raises(ResumeError):
            data.read_mean_matrix()
        with pytest.raises(ResumeError):
            data.read_log()

    def test_directory_layout(self, tmp_path, estimates):
        data = DataDirectory(tmp_path).ensure()
        data.write_results(estimates, seqnum=0, processors=1, sessions=1)
        assert (tmp_path / "parmonc_data" / "results" / "func.dat").exists()
        assert (tmp_path / "parmonc_data" / "results"
                / "func_ci.dat").exists()
        assert (tmp_path / "parmonc_data" / "results"
                / "func_log.dat").exists()


class TestSavepoint:
    def test_roundtrip(self, tmp_path):
        data = DataDirectory(tmp_path)
        accumulator = MomentAccumulator(1, 2)
        accumulator.add(np.array([[1.0, 2.0]]))
        data.save_savepoint(accumulator.snapshot(), used_seqnums=(0, 2),
                            sessions=2)
        snapshot, meta = data.load_savepoint()
        assert snapshot.volume == 1
        assert meta.used_seqnums == (0, 2)
        assert meta.sessions == 2
        assert tuple(meta.shape) == (1, 2)

    def test_missing_savepoint(self, tmp_path):
        with pytest.raises(ResumeError):
            DataDirectory(tmp_path).load_savepoint()

    def test_corrupted_savepoint(self, tmp_path):
        data = DataDirectory(tmp_path).ensure()
        data.savepoint_path.write_text("{not json")
        with pytest.raises(ResumeError):
            data.load_savepoint()

    def test_savepoint_write_is_atomic(self, tmp_path):
        data = DataDirectory(tmp_path)
        data.save_savepoint(MomentSnapshot.zero(1, 1), used_seqnums=(0,),
                            sessions=1)
        # No temp file left behind.
        leftovers = list(data.root.glob("*.tmp"))
        assert leftovers == []

    def test_has_savepoint(self, tmp_path):
        data = DataDirectory(tmp_path)
        assert not data.has_savepoint()
        data.save_savepoint(MomentSnapshot.zero(1, 1), used_seqnums=(0,),
                            sessions=1)
        assert data.has_savepoint()

    def test_seqnums_deduplicated_and_sorted(self, tmp_path):
        data = DataDirectory(tmp_path)
        data.save_savepoint(MomentSnapshot.zero(1, 1),
                            used_seqnums=(3, 1, 3), sessions=1)
        _, meta = data.load_savepoint()
        assert meta.used_seqnums == (1, 3)

    def test_legacy_v1_savepoint_still_loads(self, tmp_path):
        # Pre-envelope save-points (no format/checksum wrapper) must
        # keep resuming: the bare document is treated as the payload.
        data = DataDirectory(tmp_path).ensure()
        accumulator = MomentAccumulator(1, 1)
        accumulator.add(5.0)
        legacy = {"version": 1,
                  "snapshot": accumulator.snapshot().to_dict(),
                  "shape": [1, 1], "used_seqnums": [0, 2], "sessions": 2}
        data.legacy_savepoint_path.write_text(json.dumps(legacy))
        snapshot, meta = data.load_savepoint()
        assert snapshot.volume == 1
        assert meta.used_seqnums == (0, 2)
        assert meta.sessions == 2
        assert meta.manifest is None
        assert meta.processors is None


class TestProcessorSnapshots:
    def test_roundtrip(self, tmp_path):
        data = DataDirectory(tmp_path)
        for rank in (0, 3):
            accumulator = MomentAccumulator(1, 1)
            accumulator.add(float(rank + 1))
            data.save_processor_snapshot(rank, accumulator.snapshot())
        snapshots = data.load_processor_snapshots()
        assert set(snapshots) == {0, 3}
        assert snapshots[3].sum1[0, 0] == 4.0

    def test_empty_directory(self, tmp_path):
        assert DataDirectory(tmp_path).load_processor_snapshots() == {}

    def test_clear(self, tmp_path):
        data = DataDirectory(tmp_path)
        data.save_processor_snapshot(0, MomentSnapshot.zero(1, 1))
        data.clear_processor_snapshots()
        assert data.load_processor_snapshots() == {}

    def test_corrupted_processor_file_quarantined(self, tmp_path):
        # A torn subtotal is set aside and skipped; the healthy ones
        # still load (manaver must not lose them over one bad file).
        data = DataDirectory(tmp_path).ensure()
        good = MomentAccumulator(1, 1)
        good.add(2.0)
        data.save_processor_snapshot(1, good.snapshot())
        data.processor_savepoint_path(0).write_text("garbage")
        snapshots = data.load_processor_snapshots()
        assert set(snapshots) == {1}
        assert not data.processor_savepoint_path(0).exists()
        quarantined = data.quarantined_files()
        assert len(quarantined) == 1
        assert quarantined[0].name == "processor_00000.bin.corrupt"

    def test_overwrite_keeps_latest(self, tmp_path):
        data = DataDirectory(tmp_path)
        first = MomentAccumulator(1, 1)
        first.add(1.0)
        data.save_processor_snapshot(0, first.snapshot())
        first.add(2.0)
        data.save_processor_snapshot(0, first.snapshot())
        snapshots = data.load_processor_snapshots()
        assert snapshots[0].volume == 2


class TestRegistry:
    def test_register_and_read(self, tmp_path):
        data = DataDirectory(tmp_path)
        data.register_experiment(seqnum=0, processors=4, maxsv=100, res=0)
        data.register_experiment(seqnum=1, processors=4, maxsv=100, res=1)
        lines = data.read_registry()
        assert len(lines) == 2
        assert "seqnum=0" in lines[0]
        assert "res=1" in lines[1]

    def test_empty_registry(self, tmp_path):
        assert DataDirectory(tmp_path).read_registry() == []

    @pytest.mark.parametrize("durable", [False, True])
    def test_append_honours_the_durability_switch(self, tmp_path,
                                                  monkeypatch, durable):
        data = DataDirectory(tmp_path)
        data.ensure()
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        with storage.durable_writes(durable):
            data.register_experiment(seqnum=0, processors=1, maxsv=1, res=0)
        assert len(synced) == int(durable)


class TestGenparamFile:
    def test_roundtrip(self, tmp_path):
        multipliers = DEFAULT_LEAPS.multipliers()
        path = write_genparam_file(tmp_path, 115, 98, 43, multipliers)
        assert path.name == "parmonc_genparam.dat"
        values = read_genparam_file(tmp_path)
        assert values["ne_exponent"] == 115
        assert values["A_nr"] == multipliers[2]

    def test_missing_file_returns_none(self, tmp_path):
        assert read_genparam_file(tmp_path) is None

    def test_malformed_value(self, tmp_path):
        (tmp_path / "parmonc_genparam.dat").write_text("ne_exponent: abc\n")
        with pytest.raises(ConfigurationError):
            read_genparam_file(tmp_path)

    def test_missing_keys(self, tmp_path):
        (tmp_path / "parmonc_genparam.dat").write_text("ne_exponent: 20\n")
        with pytest.raises(ConfigurationError):
            read_genparam_file(tmp_path)


class TestMessages:
    def test_message_validation(self):
        snapshot = MomentSnapshot.zero(1, 1)
        with pytest.raises(ConfigurationError):
            MomentMessage(rank=-1, snapshot=snapshot, sent_at=0.0)
        with pytest.raises(ConfigurationError):
            MomentMessage(rank=0, snapshot=snapshot, sent_at=-1.0)

    def test_paper_message_size(self):
        # §4: "the bulk of data which is periodically sent by every
        # processor ... is approximately 120 Kbytes" for the 1000x2
        # problem.
        size = message_bytes(1000, 2)
        assert 110_000 <= size <= 135_000

    def test_message_nbytes_property(self):
        message = MomentMessage(rank=0, snapshot=MomentSnapshot.zero(10, 2),
                                sent_at=1.0)
        assert message.nbytes == message_bytes(10, 2)

    def test_size_validation(self):
        with pytest.raises(ConfigurationError):
            message_bytes(0, 1)
