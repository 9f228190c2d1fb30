"""The binary save-point: trust boundary, legacy read path, write economy.

Save-points are the moment block of :func:`repro.runtime.messages
.pack_moments` sealed by :func:`repro.runtime.storage.write_sealed`.
A file on disk is outside input: every way it can be damaged must end
in quarantine-and-``ResumeError`` (or ``ArtifactVersionError`` for an
intact file of a newer version), never in a crash or a partial load.
Save-points written as JSON by versions 1-3 must still resume and
``manaver`` to the bytes those versions produced — the fixtures under
``fixtures/legacy_savepoints`` were generated at the last commit that
wrote JSON (see ``make_legacy_fixtures.py`` there).
"""

from __future__ import annotations

import json
import shutil
import struct
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import parmonc
from repro.cli.manaver import manual_average
from repro.exceptions import ArtifactVersionError, ResumeError
from repro.runtime import storage
from repro.runtime.bootstrap import start_session
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.files import (
    PROCESSOR_FORMAT,
    SAVEPOINT_FORMAT,
    SAVEPOINT_VERSION,
    DataDirectory,
)
from repro.runtime.messages import pack_moments
from repro.runtime.storage import CrashInjected
from repro.runtime.worker import run_worker
from repro.stats.accumulator import MomentAccumulator, MomentSnapshot
from repro.stats.statistic import create_statistic

FIXTURES = Path(__file__).parent / "fixtures" / "legacy_savepoints"
ERAS = ("v1", "v2", "v3")
STATISTICS = ["covariance", "histogram", "extrema", "counter"]
COMMON = dict(nrow=1, ncol=2, processors=2, perpass=0.0, peraver=0.0)


def pair(rng):
    """The routine the legacy fixtures were generated with."""
    return np.array([[rng.random(), rng.random() * 2.0 - 1.0]])


@pytest.fixture(autouse=True)
def _no_leaked_crashpoints():
    yield
    storage.clear_crashpoints()


def _snapshot():
    """Moments whose every awkward bit pattern must survive the disk."""
    return MomentSnapshot(
        sum1=np.array([[1.5, -0.0, 5e-324], [np.inf, 1e300, -1e-300]]),
        sum2=np.array([[2.25, 0.0, np.nan], [np.inf, 1e308, 1e-300]]),
        volume=7, compute_time=0.125)


def _saved(tmp_path, extras=None, **kwargs):
    """A data directory holding one small save-point; returns both."""
    data = DataDirectory(tmp_path)
    data.save_savepoint(replace(_snapshot(), extras=extras),
                        used_seqnums=(0, 3), sessions=2, **kwargs)
    return data, data.savepoint_path.read_bytes()


def _assert_quarantined(data):
    with pytest.raises(ResumeError, match="quarantined"):
        data.load_savepoint()
    assert not data.has_savepoint()
    assert [path.name for path in data.quarantined_files()] == [
        "savepoint.bin.corrupt"]
    data.quarantined_files()[0].unlink()


class TestRoundTrip:
    def test_every_bit_pattern_and_every_tail_field(self, tmp_path):
        statistics = {kind: create_statistic(kind, 2, 3)
                      for kind in STATISTICS}
        for statistic in statistics.values():
            statistic.update(np.arange(6.0).reshape(2, 3) - 2.0)
        manifest = {"shape": [2, 3], "processors": 5,
                    "leaps": {"ne_exponent": 115}, "genparam_sha256": None}
        alien = {"kind": "alien", "shape": [2, 3], "secret": [1, [2]]}
        data, _raw = _saved(tmp_path, manifest=manifest,
                            extras=statistics,
                            extra_payloads={"alien": alien})
        snapshot, meta = data.load_savepoint()
        assert snapshot.sum1.tobytes() == _snapshot().sum1.tobytes()
        assert snapshot.sum2.tobytes() == _snapshot().sum2.tobytes()
        assert (snapshot.volume, snapshot.compute_time) == (7, 0.125)
        assert meta.shape == (2, 3)
        assert meta.used_seqnums == (0, 3)
        assert meta.sessions == 2
        assert meta.manifest == manifest
        assert meta.processors == 5
        assert {kind: statistic.to_payload()
                for kind, statistic in snapshot.extras.items()} \
            == {kind: statistic.to_payload()
                for kind, statistic in statistics.items()}
        assert meta.unknown_payloads == {"alien": alien}

    def test_processor_subtotal_round_trip(self, tmp_path):
        data = DataDirectory(tmp_path)
        extras = {"extrema": create_statistic("extrema", 2, 3)}
        data.save_processor_snapshot(
            4, replace(_snapshot(), extras=extras), session=3)
        data.save_processor_snapshot(9, _snapshot())
        subtotals = data.load_processor_snapshots()
        assert sorted(subtotals) == [4, 9]
        assert subtotals[4].sum2.tobytes() == _snapshot().sum2.tobytes()
        # Rank 4 is tagged with session 3; rank 9 is untagged.
        assert sorted(data.load_processor_snapshots(
            absorbed_sessions=2)) == [4, 9]
        assert sorted(data.load_processor_snapshots(
            absorbed_sessions=3)) == [9]
        assert subtotals[4].extras["extrema"].to_payload() \
            == extras["extrema"].to_payload()
        assert subtotals[9].extras is None

    def test_savepoint_is_the_wire_block_sealed(self, tmp_path):
        # One codec: the bytes between the seal's prefix and digest are
        # exactly what pack_moments makes of the snapshot and its tail.
        data, raw = _saved(tmp_path)
        block = pack_moments(_snapshot(),
                             {"used_seqnums": [0, 3], "sessions": 2})
        prefix = 12 + len(SAVEPOINT_FORMAT)
        assert raw[prefix:-32] == block
        assert len(raw) == prefix + 48 + 16 * 6 + 35 + 32


class TestDamagedSavepoint:
    """Truncation, bit rot and lying fields: quarantine, never a load."""

    def test_every_truncation_length(self, tmp_path):
        data, raw = _saved(tmp_path)
        for length in range(len(raw)):
            data.savepoint_path.write_bytes(raw[:length])
            _assert_quarantined(data)

    def test_a_flipped_bit_anywhere(self, tmp_path):
        data, raw = _saved(tmp_path)
        for position in range(len(raw)):
            for bit in (0, 3, 7):
                damaged = bytearray(raw)
                damaged[position] ^= 1 << bit
                data.savepoint_path.write_bytes(damaged)
                _assert_quarantined(data)

    def test_trailing_garbage(self, tmp_path):
        data, raw = _saved(tmp_path)
        data.savepoint_path.write_bytes(raw + b"\0")
        _assert_quarantined(data)

    @pytest.mark.parametrize("field, value", [
        ("nrow", 3), ("nrow", 0), ("nrow", 2 ** 31), ("ncol", 2),
        ("ncol", 2 ** 32 - 1), ("tail_len", 0), ("tail_len", 35),
        ("tail_len", 2 ** 63), ("compute_time", float("nan")),
        ("compute_time", -1.0), ("sent_at", float("inf")),
    ])
    def test_a_lying_header_under_a_valid_seal(self, tmp_path, field,
                                               value):
        # The digest vouches for the bytes, not for what they claim.
        data = DataDirectory(tmp_path).ensure()
        block = bytearray(pack_moments(
            _snapshot(), {"used_seqnums": [0], "sessions": 1}))
        header = struct.Struct("<4IQ2dQ")
        fields = dict(zip(
            ("flags", "nrow", "ncol", "rank", "volume", "sent_at",
             "compute_time", "tail_len"), header.unpack_from(block)))
        fields[field] = value
        header.pack_into(block, 0, *fields.values())
        storage.write_sealed(data.savepoint_path, SAVEPOINT_FORMAT,
                             bytes(block), version=SAVEPOINT_VERSION)
        _assert_quarantined(data)

    @pytest.mark.parametrize("tail", [
        {"sessions": 1},                               # no used_seqnums
        {"used_seqnums": [0], "sessions": "many"},
        {"used_seqnums": ["x"], "sessions": 1},
        {"used_seqnums": [0], "sessions": 1, "manifest": [1]},
        {"used_seqnums": [0], "sessions": 1, "statistics": [1]},
        {"used_seqnums": [0], "sessions": 1,
         "statistics": {"extrema": {"kind": "extrema"}}},
    ])
    def test_a_mistyped_tail_under_a_valid_seal(self, tmp_path, tail):
        data = DataDirectory(tmp_path).ensure()
        storage.write_sealed(data.savepoint_path, SAVEPOINT_FORMAT,
                             pack_moments(_snapshot(), tail),
                             version=SAVEPOINT_VERSION)
        _assert_quarantined(data)

    @pytest.mark.parametrize("body", [
        b"", b"\0" * 47, b"[1]", pack_moments(_snapshot(), {})[:-1]])
    def test_a_body_that_is_no_moment_block(self, tmp_path, body):
        data = DataDirectory(tmp_path).ensure()
        storage.write_sealed(data.savepoint_path, SAVEPOINT_FORMAT, body,
                             version=SAVEPOINT_VERSION)
        _assert_quarantined(data)

    def test_a_tail_that_is_not_an_object(self, tmp_path):
        data = DataDirectory(tmp_path).ensure()
        block = bytearray(pack_moments(_snapshot(), {"a": 1}))
        block[-7:] = b"[1,2,3]"
        storage.write_sealed(data.savepoint_path, SAVEPOINT_FORMAT,
                             bytes(block), version=SAVEPOINT_VERSION)
        _assert_quarantined(data)

    def test_another_format_in_the_savepoints_place(self, tmp_path):
        data = DataDirectory(tmp_path)
        data.save_processor_snapshot(0, _snapshot())
        shutil.copy2(data.processor_savepoint_path(0), data.savepoint_path)
        _assert_quarantined(data)

    def test_a_newer_version_is_refused_and_left_alone(self, tmp_path):
        data, raw = _saved(tmp_path)
        block = pack_moments(_snapshot(),
                             {"used_seqnums": [0], "sessions": 1})
        storage.write_sealed(data.savepoint_path, SAVEPOINT_FORMAT, block,
                             version=SAVEPOINT_VERSION + 1)
        newer = data.savepoint_path.read_bytes()
        with pytest.raises(ResumeError, match="newer"):
            data.load_savepoint()
        assert data.savepoint_path.read_bytes() == newer
        assert data.quarantined_files() == []
        storage.write_sealed(data.processor_savepoint_path(0),
                             PROCESSOR_FORMAT, block,
                             version=SAVEPOINT_VERSION + 1)
        with pytest.raises(ArtifactVersionError):
            data.load_processor_snapshots()
        assert data.quarantined_files() == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fuzzed_files_never_crash_the_loader(self, tmp_path_factory,
                                                 data):
        root = tmp_path_factory.mktemp("fuzz")
        directory, raw = _saved(root)
        mutated = bytearray(raw)
        for _ in range(data.draw(st.integers(1, 4))):
            kind = data.draw(st.sampled_from(("set", "cut", "insert")))
            at = data.draw(st.integers(0, len(mutated)))
            if kind == "set" and at < len(mutated):
                mutated[at] = data.draw(st.integers(0, 255))
            elif kind == "cut":
                del mutated[at:at + data.draw(st.integers(1, 64))]
            else:
                mutated[at:at] = data.draw(st.binary(max_size=16))
        directory.savepoint_path.write_bytes(mutated)
        if bytes(mutated) == raw:
            directory.load_savepoint()
        else:
            with pytest.raises(ResumeError):
                directory.load_savepoint()
            assert not directory.has_savepoint()


class TestDamagedSubtotals:
    def test_one_bad_subtotal_costs_only_itself(self, tmp_path):
        data = DataDirectory(tmp_path)
        for rank in range(3):
            data.save_processor_snapshot(rank, _snapshot(), session=1)
        raw = data.processor_savepoint_path(1).read_bytes()
        for damaged in (raw[:60], raw[:-1], raw[:70] + b"\xff" + raw[71:]):
            data.processor_savepoint_path(1).write_bytes(damaged)
            assert sorted(data.load_processor_snapshots()) == [0, 2]
            [corrupt] = data.quarantined_files()
            assert corrupt.name == "processor_00001.bin.corrupt"
            corrupt.unlink()


def _block_with_extrema(tail, extrema_shape, rank=0):
    """Ten 1x2 realizations' moments, and an ``extrema`` statistic of
    ``extrema_shape`` over the same sample in the block's tail."""
    moments = MomentAccumulator(1, 2)
    extrema = create_statistic("extrema", *extrema_shape)
    for index in range(10):
        moments.add(np.array([[index, -index]], dtype=float))
        extrema.update(np.full(extrema_shape, float(index)))
    return pack_moments(moments.snapshot(),
                        dict(tail, statistics={"extrema":
                                               extrema.to_payload()}),
                        rank=rank)


class TestExtrasOfAnotherShape:
    """A statistic whose shape disagrees with its moment block is damage:
    the one tail parser refuses it, so the file is quarantined."""

    def test_manaver_quarantines_the_subtotal_and_recovers_the_rest(
            self, tmp_path):
        data = DataDirectory(tmp_path).ensure()
        for rank, shape in ((0, (1, 2)), (1, (2, 2))):
            storage.write_sealed(
                data.processor_savepoint_path(rank), PROCESSOR_FORMAT,
                _block_with_extrema({"session": 1}, shape, rank=rank),
                version=SAVEPOINT_VERSION)
        summary = manual_average(tmp_path)
        assert summary["volume"] == 10
        assert summary["processors_recovered"] == 1
        assert summary["quarantined"] == 1
        assert summary["statistics"]["extrema"].volume == 10
        assert [path.name for path in data.quarantined_files()] == [
            "processor_00001.bin.corrupt"]

    def test_a_savepoint_is_quarantined(self, tmp_path):
        data = DataDirectory(tmp_path).ensure()
        storage.write_sealed(
            data.savepoint_path, SAVEPOINT_FORMAT,
            _block_with_extrema({"used_seqnums": [0], "sessions": 1},
                                (2, 2)),
            version=SAVEPOINT_VERSION)
        _assert_quarantined(data)


def _expected(era, flow):
    root = FIXTURES / era / "expected" / flow
    return root, json.loads((root / "savepoint.json").read_text())


def _assert_matches(workdir, era, flow, statistics):
    """Result files and save-point equal what the JSON era produced."""
    root, expected = _expected(era, flow)
    data = DataDirectory(workdir)
    for name in ("func.dat", "func_ci.dat"):
        assert (data.results_dir / name).read_bytes() \
            == (root / name).read_bytes(), (era, flow, name)
    snapshot, meta = data.load_savepoint()
    assert snapshot.sum1.tobytes().hex() == expected["sum1"]
    assert snapshot.sum2.tobytes().hex() == expected["sum2"]
    assert snapshot.volume == expected["volume"]
    assert list(meta.used_seqnums) == expected["used_seqnums"]
    assert meta.sessions == expected["sessions"]
    assert {kind: statistic.to_payload()
            for kind, statistic in statistics.items()} \
        == expected["statistics"]
    # Written anew in the binary layout; nothing of the JSON era stays.
    assert data.savepoint_path.exists()
    assert not data.legacy_savepoint_path.exists()
    assert list(data.savepoints_dir.glob("processor_*")) == []


def _legacy_base(tmp_path, era):
    """A workdir holding only the era's merged ``savepoint.json``."""
    target = tmp_path / "parmonc_data"
    target.mkdir(parents=True)
    shutil.copy2(FIXTURES / era / "parmonc_data" / "savepoint.json", target)
    return tmp_path


def _resume(workdir, era):
    return parmonc(pair, maxsv=16, seqnum=2, res=1, workdir=workdir,
                   statistics=STATISTICS if era == "v3" else None,
                   **COMMON)


class TestLegacyJsonSavepoints:
    @pytest.mark.parametrize("era", ERAS)
    def test_manaver_recovers_the_same_bytes(self, tmp_path, era):
        shutil.copytree(FIXTURES / era / "parmonc_data",
                        tmp_path / "parmonc_data")
        summary = manual_average(tmp_path)
        assert summary["volume"] == 40
        assert summary["processors_recovered"] == 2
        assert summary["quarantined"] == 0
        _assert_matches(tmp_path, era, "manaver", summary["statistics"])

    @pytest.mark.parametrize("era", ERAS)
    def test_resume_continues_to_the_same_bytes(self, tmp_path, era):
        result = _resume(_legacy_base(tmp_path, era), era)
        assert result.total_volume == 40
        _assert_matches(tmp_path, era, "resume", result.statistics)

    @pytest.mark.parametrize("era", ERAS)
    def test_binary_base_resumes_like_the_json_it_replaced(self, tmp_path,
                                                          era):
        # Same estimates whether the base is the legacy file or the
        # binary save-point a load-and-save made of it.
        data = DataDirectory(_legacy_base(tmp_path, era))
        snapshot, meta = data.load_savepoint()
        data.save_savepoint(
            snapshot, used_seqnums=meta.used_seqnums,
            sessions=meta.sessions, manifest=meta.manifest)
        assert not data.legacy_savepoint_path.exists()
        result = _resume(tmp_path, era)
        _assert_matches(tmp_path, era, "resume", result.statistics)

    def test_binary_wins_and_both_are_cleared(self, tmp_path):
        data = DataDirectory(_legacy_base(tmp_path, "v3"))
        shutil.copy2(
            FIXTURES / "v3" / "parmonc_data" / "savepoints"
            / "processor_00000.json", data.ensure().savepoints_dir)
        storage.write_sealed(
            data.savepoint_path, SAVEPOINT_FORMAT,
            pack_moments(MomentSnapshot.zero(1, 2),
                         {"used_seqnums": [7], "sessions": 9}),
            version=SAVEPOINT_VERSION)
        _snapshot, meta = data.load_savepoint()
        assert (meta.sessions, meta.used_seqnums) == (9, (7,))
        # One rank, both eras on disk: the binary subtotal is the one.
        data.processor_savepoint_path(0).write_bytes(b"")
        shutil.copy2(data.savepoints_dir / "processor_00000.json",
                     data.savepoints_dir / "processor_00001.json")
        data.save_processor_snapshot(1, MomentSnapshot.zero(1, 2),
                                     session=9)
        assert not (data.savepoints_dir / "processor_00001.json").exists()
        assert sorted(data.load_processor_snapshots()) == [1]
        assert [path.name for path in data.quarantined_files()] == [
            "processor_00000.bin.corrupt"]
        data.clear_processor_snapshots()
        assert list(data.savepoints_dir.glob("processor_*")) == [
            data.savepoints_dir / "processor_00000.bin.corrupt"]
        # res=0 starts over whatever era left the sample behind.
        with pytest.warns(Warning):
            fresh = parmonc(pair, maxsv=8, seqnum=8, workdir=tmp_path,
                            **COMMON)
        assert fresh.total_volume == 8
        assert not data.legacy_savepoint_path.exists()

    def test_crash_between_rename_and_legacy_cleanup(self, tmp_path):
        # The new save-point is in place, the old savepoint.json still
        # beside it, the subtotals not yet cleared: the worst instant.
        _legacy_base(tmp_path, "v2")
        config = RunConfig(maxsv=16, seqnum=2, res=1, workdir=tmp_path,
                           **COMMON)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        # The last final's receive is the completion commit.
        with storage.crashpoint_installed("savepoint.after_rename"):
            with pytest.raises(CrashInjected):
                for rank in range(2):
                    run_worker(pair, config, rank,
                               config.worker_quota(rank),
                               send=lambda m: collector.receive(m, 0.0))
        assert data.savepoint_path.exists()
        assert data.legacy_savepoint_path.exists()
        snapshot, meta = data.load_savepoint()
        assert (snapshot.volume, meta.sessions) == (40, 2)
        # The session's subtotals are already inside the new file.
        summary = manual_average(tmp_path)
        assert summary["volume"] == 40
        assert summary["processors_recovered"] == 0
        _root, expected = _expected("v2", "resume")
        recovered, _meta = data.load_savepoint()
        assert recovered.sum1.tobytes().hex() == expected["sum1"]
        assert recovered.sum2.tobytes().hex() == expected["sum2"]
        # ... and the old file is gone for good, not resurrected.
        assert not data.legacy_savepoint_path.exists()
        resumed = parmonc(pair, maxsv=4, seqnum=5, res=1,
                          workdir=tmp_path, **COMMON)
        assert resumed.total_volume == 44
        assert not data.legacy_savepoint_path.exists()


class TestWriteEconomy:
    """Matrices are rendered once per ingest, the log once per save."""

    #: What the last JSON-writing commit left for this exact job.
    FUNC_DAT = b" 4.813701247747474e-01  2.167313318170711e-01\n"
    FUNC_CI_DAT = (
        b"# i j mean abs_error rel_error_percent variance\n"
        b"1 1  4.813701247747474e-01  2.702408650600981e-01  "
        b"5.613993e+01  8.114458349825573e-02\n"
        b"1 2  2.167313318170711e-01  4.803679809614954e-01  "
        b"2.216421e+02  2.563926634811374e-01\n")
    FUNC_LOG_DAT = (
        "total_sample_volume: 10\n"
        "abs_error_upper_bound: 4.803680e-01\n"
        "rel_error_upper_bound_percent: 2.216421e+02\n"
        "variance_upper_bound: 2.563927e-01\n"
        "matrix_shape: 1 2\nseqnum: 3\nprocessors: 2\nsessions: 1\n")

    def test_two_message_job(self, tmp_path):
        # Each worker ships only its final pass; peraver=0 saves on
        # the first, and the second's save is the completion commit:
        # one subtotal, the results twice, the save-point once.
        with storage.trace_crashpoints() as trace:
            result = parmonc(pair, nrow=1, ncol=2, maxsv=10, processors=2,
                             seqnum=3, perpass=1.0, peraver=0.0,
                             workdir=tmp_path)
        assert result.messages_received == 2
        assert result.saves_performed == 2
        assert [(volume, eps) for _, volume, eps in result.history] == [
            (5, 0.6467806317597886), (10, 0.48036798096149536)]
        results = DataDirectory(tmp_path).results_dir
        assert (results / "func.dat").read_bytes() == self.FUNC_DAT
        assert (results / "func_ci.dat").read_bytes() == self.FUNC_CI_DAT
        log = (results / "func_log.dat").read_text().splitlines(True)
        assert "".join(
            line for line in log if not line.startswith(
                ("written_at", "elapsed_sec",
                 "mean_time_per_realization_sec"))) == self.FUNC_LOG_DAT
        assert log[-1].startswith("elapsed_sec: ")  # the commit's
        passes = Counter(name.rsplit(".", 1)[0] for name in trace
                         if name.endswith(".after_rename"))
        assert passes == {"processor": 1, "results.func": 2,
                          "results.func_ci": 2, "results.func_log": 2,
                          "savepoint": 1}

    def test_an_interrupted_write_is_repeated(self, tmp_path):
        # "Written" means the whole set made it: a save that died
        # between func.dat and func_ci.dat does not excuse the next.
        config = RunConfig(maxsv=4, workdir=tmp_path)
        data, state = start_session(config)
        collector = Collector(config, state.base, data,
                              sessions=state.session_index)
        with storage.crashpoint_installed("results.func_ci.before_write"):
            with pytest.raises(CrashInjected):
                run_worker(lambda rng: rng.random(), config, 0, 4,
                           send=lambda m: collector.receive(m, 0.0))
        assert not (data.results_dir / "func_ci.dat").exists()
        with storage.trace_crashpoints() as trace:
            collector.save(1.0)
            collector.save(2.0)
        assert trace.count("results.func_ci.after_rename") == 1
        assert trace.count("results.func_log.after_rename") == 2
        assert collector.save_count == 3
