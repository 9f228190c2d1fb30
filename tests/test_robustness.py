"""Failure injection and edge-case robustness across the stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BackendError,
    ConfigurationError,
    Lcg128,
    RealizationError,
    ReproError,
    ResumeError,
    initialize_rnd128,
    parmonc,
    rnd128,
)
from repro.rng import current_rnd128, install_rnd128
from repro.runtime.files import DataDirectory


class TestExceptionHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro.exceptions import (
            BackendError as B,
            CapacityError,
            ConfigurationError as C,
            RealizationError as R,
            ResumeError as Re,
        )
        for exc_type in (B, CapacityError, C, R, Re):
            assert issubclass(exc_type, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)

    def test_single_except_clause_covers_everything(self, tmp_path):
        caught = []
        for bad_call in (
                lambda: parmonc(lambda rng: 1.0, maxsv=0,
                                workdir=tmp_path),
                lambda: parmonc(lambda rng: 1.0, maxsv=1, res=1,
                                seqnum=1, workdir=tmp_path),
                lambda: Lcg128(state=2)):
            try:
                bad_call()
            except ReproError as exc:
                caught.append(type(exc).__name__)
        assert len(caught) == 3

    def test_realization_error_carries_coordinates(self, tmp_path):
        def explode(rng):
            raise RuntimeError("kaboom")

        with pytest.raises(RealizationError) as info:
            parmonc(explode, maxsv=4, seqnum=5, workdir=tmp_path)
        assert info.value.experiment == 5
        assert info.value.processor == 0
        assert info.value.realization == 0


class TestGlobalRnd128Api:
    def test_initialize_positions_the_stream(self, tree):
        initialize_rnd128(experiment=1, processor=2, realization=3)
        expected = tree.rng(1, 2, 3).random()
        assert rnd128() == expected

    def test_current_returns_installed_generator(self):
        generator = Lcg128()
        install_rnd128(generator)
        assert current_rnd128() is generator
        value = rnd128()
        assert generator.count == 1
        assert 0.0 < value < 1.0

    def test_install_rejects_non_generator(self):
        with pytest.raises(ConfigurationError):
            install_rnd128("not a generator")

    def test_initialize_returns_generator(self):
        generator = initialize_rnd128()
        assert isinstance(generator, Lcg128)
        assert current_rnd128() is generator


class TestCorruptionRecovery:
    def test_resume_from_truncated_savepoint(self, tmp_path):
        parmonc(lambda rng: rng.random(), maxsv=10, workdir=tmp_path)
        savepoint = DataDirectory(tmp_path).savepoint_path
        savepoint.write_bytes(savepoint.read_bytes()[:40])
        with pytest.raises(ResumeError):
            parmonc(lambda rng: rng.random(), maxsv=10, res=1, seqnum=1,
                    workdir=tmp_path)

    def test_resume_from_wrong_typed_savepoint(self, tmp_path):
        from repro.runtime import storage
        from repro.runtime.files import SAVEPOINT_FORMAT, SAVEPOINT_VERSION
        from repro.runtime.messages import pack_moments

        parmonc(lambda rng: rng.random(), maxsv=10, workdir=tmp_path)
        data = DataDirectory(tmp_path)
        snapshot, _meta = data.load_savepoint()
        # A sound moment block under a valid seal — but a tail field of
        # the wrong type.
        storage.write_sealed(
            data.savepoint_path, SAVEPOINT_FORMAT,
            pack_moments(snapshot, {"used_seqnums": [0], "sessions": "many"}),
            version=SAVEPOINT_VERSION)
        with pytest.raises(ResumeError, match="quarantined"):
            parmonc(lambda rng: rng.random(), maxsv=10, res=1, seqnum=1,
                    workdir=tmp_path)

    def test_fresh_run_recovers_from_corruption(self, tmp_path):
        parmonc(lambda rng: rng.random(), maxsv=10, workdir=tmp_path)
        DataDirectory(tmp_path).savepoint_path.write_text("garbage")
        result = parmonc(lambda rng: rng.random(), maxsv=10, res=0,
                         workdir=tmp_path)
        assert result.total_volume == 10


class TestRealizationMisbehaviour:
    def test_nan_realization_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            parmonc(lambda rng: float("nan"), maxsv=4, workdir=tmp_path)

    def test_wrong_shape_realization_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            parmonc(lambda rng: np.zeros((3, 3)), nrow=2, ncol=2,
                    maxsv=4, workdir=tmp_path)

    def test_exception_in_multiprocess_worker(self, tmp_path):
        with pytest.raises(BackendError):
            parmonc(_raise_in_worker, maxsv=4, processors=2,
                    backend="multiprocess", workdir=tmp_path)

    def test_string_returning_realization_rejected(self, tmp_path):
        with pytest.raises(Exception):
            parmonc(lambda rng: "oops", maxsv=4, workdir=tmp_path)


def _raise_in_worker(rng):
    raise ValueError("worker-side failure")


class TestBoundaryConditions:
    def test_single_realization_run(self, tmp_path):
        result = parmonc(lambda rng: 7.0, maxsv=1, workdir=tmp_path)
        assert result.total_volume == 1
        assert result.estimates.mean[0, 0] == 7.0
        assert result.estimates.variance[0, 0] == 0.0
        assert result.estimates.abs_error[0, 0] == 0.0

    def test_more_processors_than_realizations(self, tmp_path):
        result = parmonc(lambda rng: rng.random(), maxsv=3, processors=8,
                         workdir=tmp_path)
        assert result.total_volume == 3
        idle = [rank for rank, volume in result.per_rank_volumes.items()
                if volume == 0]
        assert len(idle) == 5

    def test_constant_realization_zero_error(self, tmp_path):
        result = parmonc(lambda rng: 2.5, maxsv=100, processors=4,
                         workdir=tmp_path)
        assert result.estimates.abs_error_max == 0.0
        assert result.estimates.rel_error_max == 0.0

    def test_negative_valued_realizations(self, tmp_path):
        result = parmonc(lambda rng: -rng.random(), maxsv=1000,
                         workdir=tmp_path)
        assert -0.6 < result.estimates.mean[0, 0] < -0.4
        assert result.estimates.rel_error[0, 0] > 0.0

    def test_huge_matrix_shape(self, tmp_path):
        # A 200 x 50 realization matrix: 10k entries per realization.
        result = parmonc(lambda rng: np.full((200, 50), rng.random()),
                         nrow=200, ncol=50, maxsv=20, workdir=tmp_path)
        assert result.estimates.shape == (200, 50)
        stored = DataDirectory(tmp_path).read_mean_matrix()
        assert stored.shape == (200, 50)

    def test_zero_argument_style_in_multiprocess(self, tmp_path):
        result = parmonc(_paper_style_square, maxsv=60, processors=3,
                         backend="multiprocess", workdir=tmp_path)
        reference = parmonc(lambda rng: rng.random() ** 2, maxsv=60,
                            processors=3, workdir=tmp_path / "ref")
        assert result.estimates.mean[0, 0] \
            == reference.estimates.mean[0, 0]


def _paper_style_square():
    value = rnd128()
    return value * value
