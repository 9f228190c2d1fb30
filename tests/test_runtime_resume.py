"""Tests for repro.runtime.resume: §3.2 semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ResumeError, SupersededSampleWarning
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory
from repro.runtime.resume import prepare_resume
from repro.stats.accumulator import MomentAccumulator


def saved_session(tmp_path, *, volume=5, shape=(1, 1), seqnums=(0,),
                  sessions=1):
    data = DataDirectory(tmp_path)
    accumulator = MomentAccumulator(*shape)
    for i in range(volume):
        accumulator.add(np.full(shape, float(i)))
    data.save_savepoint(accumulator.snapshot(), used_seqnums=seqnums,
                        sessions=sessions)
    return data


class TestFreshRun:
    def test_res0_starts_from_zero(self, tmp_path):
        config = RunConfig(maxsv=10, workdir=tmp_path)
        state = prepare_resume(config, DataDirectory(tmp_path))
        assert state.base.volume == 0
        assert state.session_index == 1
        assert state.used_seqnums == (0,)

    def test_res0_ignores_existing_savepoint(self, tmp_path):
        saved_session(tmp_path)
        config = RunConfig(maxsv=10, res=0, workdir=tmp_path)
        with pytest.warns(SupersededSampleWarning):
            state = prepare_resume(config, DataDirectory(tmp_path))
        assert state.base.volume == 0

    def test_res0_carries_burnt_seqnums_forward(self, tmp_path):
        # Regression: a fresh res=0 session used to drop the previous
        # sample's seqnum history, letting a later res=1 session reuse
        # a burnt experiments subsequence and correlate substreams.
        saved_session(tmp_path, seqnums=(0, 3))
        config = RunConfig(maxsv=10, res=0, seqnum=1, workdir=tmp_path)
        with pytest.warns(SupersededSampleWarning):
            state = prepare_resume(config, DataDirectory(tmp_path))
        assert state.used_seqnums == (0, 1, 3)
        assert state.session_index == 1


class TestResumedRun:
    def test_res1_loads_previous_moments(self, tmp_path):
        data = saved_session(tmp_path, volume=7)
        config = RunConfig(maxsv=10, res=1, seqnum=1, workdir=tmp_path)
        state = prepare_resume(config, data)
        assert state.base.volume == 7
        assert state.session_index == 2
        assert state.used_seqnums == (0, 1)

    def test_res1_without_previous_simulation(self, tmp_path):
        config = RunConfig(maxsv=10, res=1, seqnum=1, workdir=tmp_path)
        with pytest.raises(ResumeError):
            prepare_resume(config, DataDirectory(tmp_path))

    def test_res1_rejects_reused_seqnum(self, tmp_path):
        # §3.2: "this argument must be different from the same argument
        # of the previous use".
        data = saved_session(tmp_path, seqnums=(0, 2))
        config = RunConfig(maxsv=10, res=1, seqnum=2, workdir=tmp_path)
        with pytest.raises(ResumeError, match="seqnum 2"):
            prepare_resume(config, data)

    def test_res1_rejects_shape_change(self, tmp_path):
        data = saved_session(tmp_path, shape=(2, 2))
        config = RunConfig(maxsv=10, res=1, seqnum=1, nrow=3, ncol=3,
                           workdir=tmp_path)
        with pytest.raises(ResumeError, match="shape"):
            prepare_resume(config, data)

    def test_res1_rejects_changed_leap_parameters(self, tmp_path):
        # A resumed session running on a different subsequence hierarchy
        # would place its "fresh" substreams on top of consumed ones.
        from repro.rng.multiplier import LeapSet
        from repro.runtime.resume import build_manifest
        old_config = RunConfig(maxsv=10, workdir=tmp_path,
                               leaps=LeapSet(110, 90, 40))
        data = DataDirectory(tmp_path)
        accumulator = MomentAccumulator(1, 1)
        accumulator.add(1.0)
        data.save_savepoint(accumulator.snapshot(), used_seqnums=(0,),
                            sessions=1, manifest=build_manifest(old_config))
        config = RunConfig(maxsv=10, res=1, seqnum=1, workdir=tmp_path)
        with pytest.raises(ResumeError, match="leap"):
            prepare_resume(config, data)

    def test_res1_accepts_matching_leap_parameters(self, tmp_path):
        from repro.rng.multiplier import LeapSet
        from repro.runtime.resume import build_manifest
        leaps = LeapSet(110, 90, 40)
        old_config = RunConfig(maxsv=10, workdir=tmp_path, leaps=leaps)
        data = DataDirectory(tmp_path)
        accumulator = MomentAccumulator(1, 1)
        accumulator.add(1.0)
        data.save_savepoint(accumulator.snapshot(), used_seqnums=(0,),
                            sessions=1, manifest=build_manifest(old_config))
        config = RunConfig(maxsv=10, res=1, seqnum=1, workdir=tmp_path,
                           leaps=leaps)
        state = prepare_resume(config, data)
        assert state.base.volume == 1

    def test_legacy_savepoint_without_manifest_still_resumes(self, tmp_path):
        # Pre-manifest save-points carry no leap record; tolerate them.
        data = saved_session(tmp_path)
        config = RunConfig(maxsv=10, res=1, seqnum=1, workdir=tmp_path)
        state = prepare_resume(config, data)
        assert state.base.volume == 5

    def test_multiple_sessions_accumulate_seqnums(self, tmp_path):
        data = saved_session(tmp_path, seqnums=(0, 1, 2), sessions=3)
        config = RunConfig(maxsv=10, res=1, seqnum=5, workdir=tmp_path)
        state = prepare_resume(config, data)
        assert state.session_index == 4
        assert state.used_seqnums == (0, 1, 2, 5)


def commit(data, state, merged):
    """End a session as a job does: one commit, no result files."""
    data.commit_session(state, merged, None, seqnum=0, processors=1,
                        sessions=state.session_index)


class TestFinalize:
    def test_finalize_persists_merged_state(self, tmp_path):
        data = DataDirectory(tmp_path)
        config = RunConfig(maxsv=10, workdir=tmp_path)
        state = prepare_resume(config, data)
        accumulator = MomentAccumulator(1, 1)
        accumulator.add(4.0)
        commit(data, state, accumulator.snapshot())
        snapshot, meta = data.load_savepoint()
        assert snapshot.volume == 1
        assert meta.used_seqnums == (0,)
        assert meta.sessions == 1

    def test_full_cycle_res0_then_res1(self, tmp_path):
        data = DataDirectory(tmp_path)
        # Session 1.
        config1 = RunConfig(maxsv=10, workdir=tmp_path)
        state1 = prepare_resume(config1, data)
        acc1 = MomentAccumulator(1, 1)
        acc1.add(1.0)
        acc1.add(3.0)
        commit(data, state1, acc1.snapshot())
        # Session 2 resumes and folds in more realizations.
        config2 = RunConfig(maxsv=10, res=1, seqnum=1, workdir=tmp_path)
        state2 = prepare_resume(config2, data)
        acc2 = MomentAccumulator(1, 1)
        acc2.merge_snapshot(state2.base)
        acc2.add(5.0)
        commit(data, state2, acc2.snapshot())
        snapshot, meta = data.load_savepoint()
        assert snapshot.volume == 3
        assert snapshot.estimates().mean[0, 0] == pytest.approx(3.0)
        assert meta.sessions == 2


class TestInMemorySession:
    def test_opens_nothing_on_disk(self, tmp_path, monkeypatch):
        from repro import parmonc
        from repro.runtime import resume

        def refuse(workdir):
            raise AssertionError(f"fingerprinted {workdir}")

        monkeypatch.setattr(resume, "genparam_fingerprint", refuse)
        result = parmonc(lambda rng: rng.random(), maxsv=10, processors=2,
                         workdir=tmp_path / "memory", use_files=False,
                         backend="sequential")
        assert result.total_volume == 10
        assert not (tmp_path / "memory").exists()
        monkeypatch.undo()
        parmonc(lambda rng: rng.random(), maxsv=10, workdir=tmp_path,
                backend="sequential")
        _snapshot, meta = DataDirectory(tmp_path).load_savepoint()
        assert meta.manifest["processors"] == 1
        assert meta.manifest["genparam_sha256"] is None
