"""Tests for the integration, transport, population, queueing, finance
and Ising workloads — each against its analytic oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import parmonc
from repro.apps import finance, integration, ising, population, queueing, \
    transport
from repro.exceptions import ConfigurationError


def estimate(realization, nrow=1, ncol=1, maxsv=4000, processors=2):
    return parmonc(realization, nrow=nrow, ncol=ncol, maxsv=maxsv,
                   processors=processors, use_files=False).estimates


class TestIntegration:
    @pytest.mark.parametrize("factory", [
        integration.unit_square_quarter_circle,
        integration.product_of_powers,
        integration.exponential_peak,
        integration.oscillatory_genz,
    ])
    def test_estimates_match_exact_value(self, factory):
        problem = factory()
        estimates = estimate(integration.make_realization(problem),
                             maxsv=20_000)
        error = abs(estimates.mean[0, 0] - problem.exact)
        assert error <= 1.5 * estimates.abs_error[0, 0] + 1e-9, problem.name

    def test_volume_scaling_of_domain(self):
        problem = integration.IntegrationProblem(
            integrand=lambda x: 1.0,
            lower=np.array([0.0]), upper=np.array([4.0]), exact=4.0)
        estimates = estimate(integration.make_realization(problem),
                             maxsv=100)
        assert estimates.mean[0, 0] == pytest.approx(4.0)
        assert estimates.variance[0, 0] == pytest.approx(0.0)

    def test_sampling_consumes_one_uniform_per_dimension(self, tree):
        problem = integration.product_of_powers((1, 1, 1))
        generator = tree.rng(0, 0, 0)
        problem.sample_point(generator)
        assert generator.count == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            integration.IntegrationProblem(
                integrand=lambda x: 0.0, lower=np.array([0.0]),
                upper=np.array([0.0]))
        with pytest.raises(ConfigurationError):
            integration.product_of_powers((-1,))
        with pytest.raises(ConfigurationError):
            integration.oscillatory_genz(frequencies=())
        with pytest.raises(ConfigurationError):
            integration.exponential_peak(rate=0.0)

    def test_genz_exact_value_by_quadrature(self):
        problem = integration.oscillatory_genz(frequencies=(1.0, 2.0),
                                               offset=0.3)
        from scipy import integrate as scipy_integrate
        value, _ = scipy_integrate.dblquad(
            lambda y, x: problem.integrand(np.array([x, y])),
            0.0, 1.0, 0.0, 1.0)
        assert problem.exact == pytest.approx(value, abs=1e-9)


class TestTransport:
    def test_pure_absorption_closed_form(self):
        problem = transport.SlabProblem(depth=2.0, absorption=1.0)
        estimates = estimate(transport.make_realization(problem), ncol=3,
                             maxsv=20_000)
        assert abs(estimates.mean[0, 0] - math.exp(-2.0)) \
            <= 1.5 * estimates.abs_error[0, 0] + 1e-9
        # Pure absorption: no reflection possible on the first flight...
        # (a scattered particle never exists), so reflected == 0.
        assert estimates.mean[0, 1] == 0.0

    def test_probabilities_sum_to_one(self):
        problem = transport.SlabProblem(depth=1.0, absorption=0.4)
        estimates = estimate(transport.make_realization(problem), ncol=3,
                             maxsv=5_000)
        assert estimates.mean.sum() == pytest.approx(1.0)

    def test_scattering_increases_reflection(self):
        absorbing = transport.SlabProblem(depth=2.0, absorption=0.9)
        scattering = transport.SlabProblem(depth=2.0, absorption=0.1)
        reflective = estimate(transport.make_realization(scattering),
                              ncol=3, maxsv=8_000).mean[0, 1]
        dark = estimate(transport.make_realization(absorbing), ncol=3,
                        maxsv=8_000).mean[0, 1]
        assert reflective > dark

    def test_history_is_deterministic_per_stream(self, tree):
        problem = transport.SlabProblem()
        a = transport.simulate_particle(problem, tree.rng(0, 0, 9))
        b = transport.simulate_particle(problem, tree.rng(0, 0, 9))
        assert a == b

    def test_collision_cap_counts_as_absorption(self, tree):
        problem = transport.SlabProblem(depth=1000.0, absorption=0.0,
                                        max_collisions=5)
        outcome = transport.simulate_particle(problem, tree.rng(0, 0, 0))
        assert outcome[2] == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            transport.SlabProblem(depth=0.0)
        with pytest.raises(ConfigurationError):
            transport.SlabProblem(absorption=1.5)


class TestPopulation:
    def test_growth_curve_matches_exact_mean(self):
        process = population.BranchingProcess(offspring_mean=1.1,
                                              generations=6)
        estimates = estimate(population.make_realization(process),
                             nrow=6, ncol=2, maxsv=8_000)
        exact = process.exact_mean_sizes()
        deviation = np.abs(estimates.mean[:, 0] - exact)
        assert np.all(deviation <= 1.5 * estimates.abs_error[:, 0] + 1e-9)

    def test_subcritical_extinction_probability_high(self):
        process = population.BranchingProcess(offspring_mean=0.5,
                                              generations=15)
        estimates = estimate(population.make_realization(process),
                             nrow=15, ncol=2, maxsv=2_000)
        assert estimates.mean[-1, 1] > 0.95

    def test_extinction_indicator_monotone(self):
        process = population.BranchingProcess(offspring_mean=0.9,
                                              generations=10)
        estimates = estimate(population.make_realization(process),
                             nrow=10, ncol=2, maxsv=2_000)
        extinction = estimates.mean[:, 1]
        assert np.all(np.diff(extinction) >= -1e-12)

    def test_extinct_lineage_stays_extinct(self, tree):
        process = population.BranchingProcess(offspring_mean=0.1,
                                              generations=30)
        sizes = population.simulate_lineage(process, tree.rng(0, 0, 0))
        died = np.flatnonzero(sizes == 0.0)
        assert died.size > 0
        assert np.all(sizes[died[0]:] == 0.0)

    def test_large_population_normal_branch(self, tree):
        process = population.BranchingProcess(offspring_mean=2.0,
                                              generations=14,
                                              initial_size=100)
        sizes = population.simulate_lineage(process, tree.rng(0, 0, 0))
        # Growth should be roughly 2**g; allow wide tolerance.
        assert sizes[-1] > 100 * 2.0 ** 14 * 0.3

    def test_population_cap(self, tree):
        process = population.BranchingProcess(offspring_mean=3.0,
                                              generations=30,
                                              population_cap=1000)
        sizes = population.simulate_lineage(process, tree.rng(0, 0, 0))
        assert np.max(sizes) <= 1000

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            population.BranchingProcess(offspring_mean=-0.1)
        with pytest.raises(ConfigurationError):
            population.BranchingProcess(generations=0)
        with pytest.raises(ConfigurationError):
            population.BranchingProcess(initial_size=10, population_cap=5)


class TestQueueing:
    def test_long_horizon_approaches_steady_state(self):
        queue = queueing.MM1Queue(arrival_rate=0.5, service_rate=1.0,
                                  customers=3_000)
        # 60 days give an error bar (3 sigma) of 0.035 on W_q = 1.0,
        # a sixth of the 20% tolerance.
        estimates = estimate(queueing.make_realization(queue), ncol=2,
                             maxsv=60)
        # W_q -> rho/(mu - lambda) = 1.0; finite horizon biases low.
        assert estimates.mean[0, 0] == pytest.approx(
            queue.steady_state_waiting(), rel=0.2)
        assert estimates.mean[0, 1] == pytest.approx(
            queue.steady_state_sojourn(), rel=0.2)

    def test_sojourn_exceeds_waiting(self):
        queue = queueing.MM1Queue()
        estimates = estimate(queueing.make_realization(queue), ncol=2,
                             maxsv=200)
        assert estimates.mean[0, 1] > estimates.mean[0, 0]

    def test_utilization_property(self):
        queue = queueing.MM1Queue(arrival_rate=0.8, service_rate=1.0)
        assert queue.utilization == pytest.approx(0.8)

    def test_light_traffic_short_waits(self):
        light = queueing.MM1Queue(arrival_rate=0.1, service_rate=1.0,
                                  customers=500)
        heavy = queueing.MM1Queue(arrival_rate=0.9, service_rate=1.0,
                                  customers=500)
        light_wait = estimate(queueing.make_realization(light), ncol=2,
                              maxsv=200).mean[0, 0]
        heavy_wait = estimate(queueing.make_realization(heavy), ncol=2,
                              maxsv=200).mean[0, 0]
        assert heavy_wait > 5 * light_wait

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            queueing.MM1Queue(arrival_rate=1.0, service_rate=1.0)
        with pytest.raises(ConfigurationError):
            queueing.MM1Queue(arrival_rate=0.0)
        with pytest.raises(ConfigurationError):
            queueing.MM1Queue(customers=0)


class TestFinance:
    def test_call_matches_black_scholes(self):
        option = finance.EuropeanOption()
        estimates = estimate(finance.make_realization(option), ncol=2,
                             maxsv=40_000)
        assert abs(estimates.mean[0, 0] - option.black_scholes_call()) \
            <= 1.5 * estimates.abs_error[0, 0] + 1e-9

    def test_put_call_parity_exact_in_sample(self):
        # Call and put come from the same terminal price, so parity
        # holds realization-wise, not just in expectation.
        option = finance.EuropeanOption()
        estimates = estimate(finance.make_realization(option), ncol=2,
                             maxsv=5_000)
        discount = math.exp(-option.rate * option.maturity)
        parity = estimates.mean[0, 0] - estimates.mean[0, 1]
        expected = option.spot - option.strike * discount
        # Sample-exact parity up to the MC error of S_T itself.
        assert parity == pytest.approx(expected, abs=1.0)

    def test_black_scholes_put_from_parity(self):
        option = finance.EuropeanOption()
        discount = math.exp(-option.rate * option.maturity)
        assert option.black_scholes_put() == pytest.approx(
            option.black_scholes_call() - option.spot
            + option.strike * discount)

    def test_deep_in_the_money_call(self):
        option = finance.EuropeanOption(spot=200.0, strike=10.0,
                                        volatility=0.1)
        # Price ~ S - K e^{-rT}: intrinsic value dominates.
        assert option.black_scholes_call() == pytest.approx(
            200.0 - 10.0 * math.exp(-0.03), rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            finance.EuropeanOption(spot=-1.0)
        with pytest.raises(ConfigurationError):
            finance.EuropeanOption(volatility=0.0)


class TestIsing:
    def test_critical_temperature_value(self):
        assert ising.CRITICAL_TEMPERATURE == pytest.approx(2.269, abs=0.001)

    def test_spontaneous_magnetization_limits(self):
        cold = ising.IsingModel(temperature=1.0)
        hot = ising.IsingModel(temperature=5.0)
        assert cold.spontaneous_magnetization() > 0.99
        assert hot.spontaneous_magnetization() == 0.0

    def test_cold_lattice_orders(self, tree):
        model = ising.IsingModel(size=8, temperature=1.2,
                                 equilibration=60, measurement=20)
        magnetization, energy = ising.simulate_replica(model,
                                                       tree.rng(0, 0, 0))
        assert magnetization > 0.9
        assert energy < -1.8  # near the ground state energy -2

    def test_hot_lattice_disorders(self, tree):
        model = ising.IsingModel(size=8, temperature=10.0,
                                 equilibration=40, measurement=20)
        magnetization, _ = ising.simulate_replica(model, tree.rng(0, 0, 0))
        assert magnetization < 0.5

    def test_replicas_independent_and_deterministic(self, tree):
        model = ising.IsingModel(size=4, temperature=2.0,
                                 equilibration=5, measurement=5)
        a = ising.simulate_replica(model, tree.rng(0, 0, 0))
        b = ising.simulate_replica(model, tree.rng(0, 0, 0))
        c = ising.simulate_replica(model, tree.rng(0, 0, 1))
        assert a == b
        assert a != c

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ising.IsingModel(size=1)
        with pytest.raises(ConfigurationError):
            ising.IsingModel(temperature=0.0)
        with pytest.raises(ConfigurationError):
            ising.IsingModel(measurement=0)
