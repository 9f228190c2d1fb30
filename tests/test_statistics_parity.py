"""Cross-backend parity for the pluggable statistic pipeline.

The headline property, extended from the moment path: for a fixed
stream hierarchy every backend — sequential, multiprocess, simulated
cluster — produces *payload-identical* extra statistics, batched or
not.  Plus: savepoint round-trips, legacy moment-only artifacts,
unknown-kind preservation, manaver recovery, the wire-size model and
report rendering; and a worker that dies under ``"reassign"`` changes no
byte of any kind.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli.manaver import manual_average
from repro.cli.report import render_report
from repro.core.parmonc import parmonc
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory
from repro.runtime.messages import MomentMessage, message_bytes
from repro.stats.statistic import create_statistic, statistic_kinds

from test_runtime_engine import assert_same_bytes, make_crasher

ERA_FIXTURES = Path(__file__).parent / "fixtures" / "era_savepoints"
ALL_STATISTICS = ["covariance", "histogram", "extrema", "counter"]
BACKENDS = ("sequential", "multiprocess", "simcluster")


def pair(rng):
    """A 1x2 realization exercising both histogram tails and signs."""
    return np.array([[rng.random(), rng.random() * 2.0 - 1.0]])


def _run(backend, workdir, *, batch_size=None, maxsv=240, processors=3,
         res=0, seqnum=1, statistics=ALL_STATISTICS, **kwargs):
    return parmonc(pair, nrow=1, ncol=2, maxsv=maxsv, res=res,
                   seqnum=seqnum, processors=processors, backend=backend,
                   workdir=workdir, batch_size=batch_size,
                   statistics=statistics, **kwargs)


def _add_unknown_payload(data, kind, payload):
    """Rewrite the save-point with one more, unregistered, statistic."""
    snapshot, meta = data.load_savepoint()
    data.save_savepoint(
        snapshot, used_seqnums=meta.used_seqnums, sessions=meta.sessions,
        manifest=meta.manifest,
        extra_payloads=dict(meta.unknown_payloads, **{kind: payload}))


class TestCrossBackendParity:
    def test_all_backends_payload_identical(self, tmp_path):
        payloads = {}
        for backend in BACKENDS:
            result = _run(backend, tmp_path / backend)
            assert result.total_volume == 240
            assert set(result.statistics) == set(ALL_STATISTICS)
            payloads[backend] = {
                kind: statistic.to_payload()
                for kind, statistic in result.statistics.items()}
        assert payloads["multiprocess"] == payloads["sequential"]
        assert payloads["simcluster"] == payloads["sequential"]

    def test_batched_run_is_bit_identical(self, tmp_path):
        scalar = _run("sequential", tmp_path / "scalar")
        batched = _run("sequential", tmp_path / "batched", batch_size=16)
        assert np.array_equal(scalar.estimates.mean, batched.estimates.mean)
        for kind in ALL_STATISTICS:
            assert (batched.statistics[kind].to_payload()
                    == scalar.statistics[kind].to_payload())

    def test_statistics_match_direct_accumulation(self, tmp_path):
        from repro.rng.streams import StreamTree
        result = _run("sequential", tmp_path, maxsv=60, processors=2)
        config = RunConfig(nrow=1, ncol=2, maxsv=60, seqnum=1,
                           processors=2, workdir=tmp_path)
        tree = StreamTree()
        # Mirror the protocol: each rank accumulates sequentially, the
        # collector merges the per-rank statistics in rank order.
        reference = {}
        for rank in range(2):
            rank_statistics = {kind: create_statistic(kind, 1, 2)
                               for kind in ALL_STATISTICS}
            for index in range(config.worker_quota(rank)):
                matrix = pair(tree.rng(1, rank, index))
                for statistic in rank_statistics.values():
                    statistic.update(matrix)
            for kind, statistic in rank_statistics.items():
                if kind in reference:
                    reference[kind].merge(statistic)
                else:
                    reference[kind] = statistic
        for kind in ALL_STATISTICS:
            assert (result.statistics[kind].to_payload()
                    == reference[kind].to_payload())


class TestRecoveredParity:
    """A dead rank reruns on its own stream, so a recovered run ends on
    the fault-free bytes for every registered kind — covariance too,
    whose 1024-row blocks the death lands past."""

    @pytest.mark.parametrize("kind", statistic_kinds())
    def test_a_death_changes_no_byte(self, tmp_path, kind):
        run = dict(nrow=1, ncol=2, maxsv=2400, seqnum=1, processors=2,
                   perpass=0.0, peraver=0.0, statistics=[kind],
                   use_files=False)
        recovered = parmonc(make_crasher(tmp_path / "died", at=1100,
                                         draw=pair),
                            backend="multiprocess", start_method="fork",
                            on_worker_death="reassign", **run)
        reference = parmonc(pair, backend="sequential", **run)
        assert len(recovered.recovered_ranks) == 1
        assert_same_bytes(recovered, reference)


class TestReductionTransportParity:
    """The exchange topology never touches a result bit.

    Reducers forward untouched per-rank snapshots and the collector
    always folds in rank order, so every fanout (x batched) must
    reproduce the flat exchange exactly: same
    estimate bytes, same statistic payloads, same savepoint content
    (modulo the wall-clock compute-time field).
    """

    FANOUTS = (None, 2, 4, 8)

    @pytest.fixture(autouse=True)
    def _savepoint_reader(self, savepoint_content):
        self._savepoint_content = savepoint_content

    def _fingerprint(self, workdir, result):
        estimates = result.estimates
        return {
            "mean": estimates.mean.tobytes(),
            "variance": estimates.variance.tobytes(),
            "abs_error": estimates.abs_error.tobytes(),
            "volume": estimates.volume,
            "statistics": {kind: statistic.to_payload()
                           for kind, statistic
                           in result.statistics.items()},
            "savepoint": self._savepoint_content(workdir),
        }

    def _run_matrix(self, tmp_path, *, batch_size=None):
        label = "batched" if batch_size else "scalar"
        fingerprints = {}
        for fanout in self.FANOUTS:
            workdir = tmp_path / label / f"f{fanout or 0}"
            result = parmonc(pair, nrow=1, ncol=2, maxsv=60,
                             seqnum=1, processors=6, perpass=0.0,
                             peraver=0.0, backend="multiprocess",
                             start_method="fork",
                             batch_size=batch_size,
                             statistics=ALL_STATISTICS,
                             reduction_fanout=fanout, workdir=workdir)
            assert result.total_volume == 60, fanout
            fingerprints[fanout] = self._fingerprint(workdir, result)
        return fingerprints

    def test_every_fanout_is_bit_identical(self, tmp_path):
        fingerprints = self._run_matrix(tmp_path)
        reference = fingerprints[None]
        for fanout, fingerprint in fingerprints.items():
            assert fingerprint == reference, fanout

    def test_batched_matrix_matches_scalar_reference(self, tmp_path):
        reference = self._run_matrix(tmp_path / "ref")[None]
        fingerprints = self._run_matrix(tmp_path, batch_size=16)
        for fanout, fingerprint in fingerprints.items():
            assert fingerprint == reference, fanout

    def test_simcluster_tree_matches_flat(self, tmp_path):
        results = {}
        for fanout in (None, 4):
            results[fanout] = _run(
                "simcluster", tmp_path / f"sim{fanout or 0}",
                maxsv=120, processors=16, reduction_fanout=fanout)
        flat, tree = results[None], results[4]
        assert np.array_equal(flat.estimates.mean, tree.estimates.mean)
        assert (tree.statistics["histogram"].to_payload()
                == flat.statistics["histogram"].to_payload())

    def test_cli_accepts_reduction_flags(self, tmp_path, capsys):
        from repro.cli.run import main
        (tmp_path / "model.py").write_text(
            "def one(rng):\n    return rng.random()\n")
        code = main(["model:one", "--maxsv", "40", "--processors", "4",
                     "--backend", "multiprocess",
                     "--reduction-fanout", "2",
                     "--workdir", str(tmp_path)])
        assert code == 0
        assert "total sample volume: 40" in capsys.readouterr().out


class TestSavepointRoundTrip:
    def test_resume_carries_every_statistic(self, tmp_path):
        _run("sequential", tmp_path, maxsv=120, seqnum=1)
        resumed = _run("sequential", tmp_path, maxsv=120, seqnum=2, res=1)
        assert resumed.total_volume == 240
        for kind in ALL_STATISTICS:
            assert resumed.statistics[kind].volume == 240

    def test_resumed_equals_monolithic_for_integer_statistics(
            self, tmp_path):
        _run("sequential", tmp_path / "split", maxsv=100, seqnum=1)
        resumed = _run("sequential", tmp_path / "split", maxsv=100,
                       seqnum=2, res=1)
        # Reference: one pass over both experiments' realizations.
        from repro.rng.streams import StreamTree
        tree = StreamTree()
        config = RunConfig(nrow=1, ncol=2, maxsv=100, seqnum=1,
                           processors=3, workdir=tmp_path)
        reference = {kind: create_statistic(kind, 1, 2)
                     for kind in ("histogram", "extrema", "counter")}
        for seqnum in (1, 2):
            for rank in range(3):
                for index in range(config.worker_quota(rank)):
                    matrix = pair(tree.rng(seqnum, rank, index))
                    for statistic in reference.values():
                        statistic.update(matrix)
        for kind, statistic in reference.items():
            assert (resumed.statistics[kind].to_payload()
                    == statistic.to_payload())

    def test_moments_only_savepoint_has_no_statistics_block(
            self, tmp_path, savepoint_content):
        _run("sequential", tmp_path, statistics=None)
        assert "statistics" not in savepoint_content(tmp_path)["tail"]


def _era_savepoint(workdir, era):
    """A workdir holding the merged save-point the JSON era ``era`` left
    (24 realizations of ``pair``, seqnum 0), converted to the sealed
    format; its data directory."""
    data = DataDirectory(workdir).ensure()
    shutil.copy2(ERA_FIXTURES / era / "parmonc_data" / "savepoint.bin",
                 data.savepoint_path)
    return data


class TestLegacyArtifacts:
    def test_v2_moment_only_savepoint_loads(self, tmp_path):
        snapshot, meta = _era_savepoint(tmp_path, "v2").load_savepoint()
        assert snapshot.volume == 24
        assert snapshot.extras is None
        assert meta.unknown_payloads == {}

    def test_resume_from_v2_savepoint(self, tmp_path):
        _era_savepoint(tmp_path, "v2")
        resumed = _run("sequential", tmp_path, maxsv=100, seqnum=2, res=1)
        assert resumed.total_volume == 124
        # The v2 base had no extra statistics, so only the new
        # session's realizations feed them.
        for kind in ALL_STATISTICS:
            assert resumed.statistics[kind].volume == 100

    def test_unknown_kind_payload_survives_resume(self, tmp_path):
        _run("sequential", tmp_path, maxsv=100, seqnum=1)
        data = DataDirectory(tmp_path)
        alien = {"kind": "alien-statistic", "shape": [1, 2],
                 "volume": 5, "secret": [1, 2, 3]}
        _add_unknown_payload(data, "alien-statistic", alien)
        _snapshot, meta = data.load_savepoint()
        assert meta.unknown_statistics == ("alien-statistic",)
        resumed = _run("sequential", tmp_path, maxsv=100, seqnum=2, res=1)
        assert resumed.total_volume == 200
        _snapshot, rewritten = data.load_savepoint()
        assert rewritten.unknown_payloads == {"alien-statistic": alien}


class TestManaverRecovery:
    def test_recovers_statistics_from_subtotals(self, tmp_path):
        result = _run("sequential", tmp_path, maxsv=120, seqnum=1)
        data = DataDirectory(tmp_path)
        # Simulate a crashed second session that delivered one subtotal
        # before dying: its statistics must fold into the recovery.
        extra = {kind: create_statistic(kind, 1, 2)
                 for kind in ALL_STATISTICS}
        matrix = np.array([[0.25, -0.75]])
        from repro.stats.accumulator import MomentAccumulator
        moments = MomentAccumulator(1, 2)
        moments.add(matrix)
        for statistic in extra.values():
            statistic.update(matrix)
        data.save_processor_snapshot(0, moments.snapshot(extra), session=2)
        summary = manual_average(tmp_path)
        assert summary["volume"] == 121
        for kind in ALL_STATISTICS:
            assert summary["statistics"][kind].volume == 121
        # The recovered statistics persist for the next resume.
        snapshot, _meta = data.load_savepoint()
        for kind in ALL_STATISTICS:
            assert snapshot.extras[kind].volume == 121
        assert result.statistics["extrema"].volume == 120

    def test_moments_only_recovery_reports_no_statistics(self, tmp_path):
        _run("sequential", tmp_path, statistics=None)
        summary = manual_average(tmp_path)
        assert summary["statistics"] == {}


class TestWireSizeModel:
    def test_default_config_matches_paper_figure(self):
        # 1000x2 moments-only: 8 words/entry * 8 bytes * 2000 + 64-byte
        # header = 128064 bytes, the paper's "about 120 Kbytes".
        assert message_bytes(1000, 2) == 128_064

    def test_extras_raise_wire_size_by_their_nbytes(self):
        extras = [create_statistic(kind, 1, 2) for kind in ALL_STATISTICS]
        assert message_bytes(1, 2, extras) == (
            message_bytes(1, 2) + sum(s.nbytes for s in extras))

    def test_message_nbytes_derives_from_payloads(self):
        from repro.stats.accumulator import MomentAccumulator
        moments = MomentAccumulator(1, 2)
        moments.add(np.array([[1.0, 2.0]]))
        plain = MomentMessage(rank=0, snapshot=moments.snapshot(),
                              sent_at=0.0)
        assert plain.nbytes == message_bytes(1, 2)
        extras = {"extrema": create_statistic("extrema", 1, 2)}
        loaded = MomentMessage(rank=0, snapshot=moments.snapshot(extras),
                               sent_at=0.0)
        assert loaded.nbytes == plain.nbytes + extras["extrema"].nbytes


class TestReportRendering:
    def test_report_renders_known_statistics(self, tmp_path):
        _run("sequential", tmp_path)
        text = render_report(tmp_path)
        assert "extra statistics (merged):" in text
        assert "histogram" in text
        assert "covariance matrix" in text
        assert "extrema" in text

    def test_report_flags_unknown_statistics(self, tmp_path):
        _run("sequential", tmp_path)
        _add_unknown_payload(DataDirectory(tmp_path), "mystery",
                             {"kind": "mystery"})
        text = render_report(tmp_path)
        assert "unregistered" in text
        assert "mystery" in text


class TestCli:
    def test_run_cli_statistics_flag(self, tmp_path, capsys):
        from repro.cli.run import main
        (tmp_path / "model.py").write_text(
            "def one(rng):\n    return rng.random()\n")
        code = main(["model:one", "--maxsv", "50", "--processors", "2",
                     "--workdir", str(tmp_path),
                     "--statistics", "extrema,counter"])
        assert code == 0
        out = capsys.readouterr().out
        assert "statistic extrema" in out
        assert "statistic counter" in out
