"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng.lcg128 import Lcg128
from repro.rng.multiplier import LeapSet
from repro.rng.streams import StreamTree


@pytest.fixture
def savepoint_content():
    """``content(workdir)``: a save-point minus its wall-clock field.

    Version, header fields, moment bytes and tail of the sealed
    ``savepoint.bin`` — everything except ``compute_time``, which
    records how long the run took and legitimately differs between two
    runs of the same experiment.
    """
    from repro.runtime import storage
    from repro.runtime.files import (SAVEPOINT_FORMAT, SAVEPOINT_VERSION,
                                     DataDirectory)
    from repro.runtime.messages import unpack_moments

    def content(workdir):
        body, version = storage.read_sealed(
            DataDirectory(workdir).savepoint_path, SAVEPOINT_FORMAT,
            max_version=SAVEPOINT_VERSION)
        flags, rank, sent_at, snapshot, tail = unpack_moments(body)
        return {"version": version, "flags": flags, "rank": rank,
                "sent_at": sent_at, "sum1": snapshot.sum1.tobytes(),
                "sum2": snapshot.sum2.tobytes(), "shape": snapshot.shape,
                "volume": snapshot.volume, "tail": tail}
    return content


@pytest.fixture(scope="session")
def default_certification(tmp_path_factory):
    """``(exit_code, report)``: one ``parmonc-rngtest`` run on the
    default generator (30 000 draws, 12 substreams), shared by every
    test that reads the certificate."""
    import contextlib
    import io

    from repro.cli.rngtest import main

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        code = main(["--draws", "30000", "--substreams", "12", "--workdir",
                     str(tmp_path_factory.mktemp("rngtest"))])
    return code, report.getvalue()


@pytest.fixture
def rng() -> Lcg128:
    """A fresh generator at the head of the general sequence."""
    return Lcg128()


@pytest.fixture
def tree() -> StreamTree:
    """A stream tree with the PARMONC default hierarchy."""
    return StreamTree()


@pytest.fixture
def small_leaps() -> LeapSet:
    """A tiny hierarchy useful for overlap/capacity experiments.

    n_e = 2**20, n_p = 2**12, n_r = 2**6: capacities 2**105
    experiments, 2**8 processors, 2**6 realizations, with realization
    subsequences only 64 draws long — small enough to actually walk.
    """
    return LeapSet(experiment_exponent=20, processor_exponent=12,
                   realization_exponent=6)


@pytest.fixture
def uniform_sample() -> np.ndarray:
    """100k uniforms from the reference generator (module-scope cache)."""
    return _UNIFORM_SAMPLE


def _make_sample() -> np.ndarray:
    from repro.rng.vectorized import VectorLcg128
    return VectorLcg128(1).uniforms(100_000)


_UNIFORM_SAMPLE = _make_sample()
