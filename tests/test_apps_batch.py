"""Tests for the vectorized batch kernels of the example applications.

Each ``make_batch_realization`` must be bit-identical to its scalar
``make_realization`` — same substreams, same draws, same floating-point
arithmetic — so a batched application run reproduces the scalar run's
estimates exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import finance, integration
from repro.rng.streams import StreamTree
from repro.runtime.config import RunConfig
from repro.runtime.engine import Engine
from repro.runtime.sequential import SequentialBackend

PROBLEMS = {
    "quarter_circle": integration.unit_square_quarter_circle,
    "product_of_powers": integration.product_of_powers,
    "oscillatory_genz": integration.oscillatory_genz,
    "exponential_peak": integration.exponential_peak,
}


def run(routine, nrow=1, ncol=1, maxsv=200):
    config = RunConfig(maxsv=maxsv, nrow=nrow, ncol=ncol, seqnum=1,
                       perpass=0.0)
    return Engine(SequentialBackend(), config, use_files=False).run(routine)


def assert_identical(left, right):
    assert np.array_equal(left.estimates.mean, right.estimates.mean)
    assert np.array_equal(left.estimates.abs_error,
                          right.estimates.abs_error)


class TestIntegrationBatch:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_bit_identical_to_scalar(self, name):
        problem = PROBLEMS[name]()
        scalar = run(integration.make_realization(problem))
        batched = run(integration.make_batch_realization(problem, 64))
        assert_identical(scalar, batched)

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_sample_points_match_sample_point(self, name):
        problem = PROBLEMS[name]()
        tree = StreamTree()
        block = tree.experiment(0).processor(0).realization_block(0, 16)
        points = problem.sample_points(block)
        assert points.shape == (16, problem.dimension)
        for i in range(16):
            rng = tree.rng(realization=i)
            assert np.array_equal(points[i], problem.sample_point(rng))

    def test_batch_integrand_consistent_with_scalar(self):
        """The vectorized integrands must equal the scalar ones exactly."""
        for name, factory in PROBLEMS.items():
            problem = factory()
            if problem.batch_integrand is None:
                continue
            rng = np.random.default_rng(5)
            points = problem.lower + (problem.upper - problem.lower) \
                * rng.random((50, problem.dimension))
            vectorized = np.asarray(problem.batch_integrand(points),
                                    dtype=np.float64)
            looped = np.array([problem.integrand(point)
                               for point in points])
            assert np.array_equal(vectorized, looped), name

    def test_partial_block(self):
        problem = integration.unit_square_quarter_circle()
        scalar = run(integration.make_realization(problem), maxsv=150)
        batched = run(integration.make_batch_realization(problem, 64),
                      maxsv=150)
        assert_identical(scalar, batched)


class TestFinanceBatch:
    def test_bit_identical_to_scalar(self):
        option = finance.EuropeanOption()
        scalar = run(finance.make_realization(option), nrow=1, ncol=2)
        batched = run(finance.make_batch_realization(option, 64),
                      nrow=1, ncol=2)
        assert_identical(scalar, batched)

    def test_rows_match_scalar_realizations(self):
        option = finance.EuropeanOption(spot=90.0, strike=100.0,
                                        rate=0.05, volatility=0.3)
        tree = StreamTree()
        block = tree.experiment(0).processor(0).realization_block(0, 32)
        batch = finance.make_batch_realization(option, 32)(block)
        assert batch.shape == (32, 1, 2)
        scalar = finance.make_realization(option)
        for i in range(32):
            row = scalar(tree.rng(realization=i))
            assert np.array_equal(batch[i], row)

    def test_prices_converge_to_black_scholes(self):
        option = finance.EuropeanOption()
        result = run(finance.make_batch_realization(option, 256),
                     nrow=1, ncol=2, maxsv=20_000)
        call = result.estimates.mean[0, 0]
        error = result.estimates.abs_error[0, 0]
        assert abs(call - option.black_scholes_call()) < 5 * error
