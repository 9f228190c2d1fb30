"""Financial-mathematics workload: option pricing under GBM (§2.1).

A realization draws one geometric-Brownian-motion terminal price and
returns the discounted payoff of a European call and put; the sample
means estimate the Black–Scholes prices, which this module also
computes in closed form as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng.batch import BatchStreams
from repro.rng.distributions import normal
from repro.rng.lcg128 import Lcg128
from repro.runtime.worker import batch_routine

__all__ = ["EuropeanOption", "terminal_price", "make_realization",
           "make_batch_realization"]


@dataclass(frozen=True)
class EuropeanOption:
    """A European option under geometric Brownian motion.

    Attributes:
        spot: Current underlying price ``S_0``.
        strike: Strike ``K``.
        rate: Risk-free rate ``r``.
        volatility: Volatility ``sigma``.
        maturity: Time to expiry ``T`` in years.
    """

    spot: float = 100.0
    strike: float = 105.0
    rate: float = 0.03
    volatility: float = 0.2
    maturity: float = 1.0

    def __post_init__(self) -> None:
        if min(self.spot, self.strike, self.maturity) <= 0.0:
            raise ConfigurationError(
                "spot, strike and maturity must be > 0")
        if self.volatility <= 0.0:
            raise ConfigurationError(
                f"volatility must be > 0, got {self.volatility}")

    def black_scholes_call(self) -> float:
        """Closed-form call price — the Monte Carlo oracle (needs scipy)."""
        from scipy.stats import norm
        d1 = (math.log(self.spot / self.strike)
              + (self.rate + 0.5 * self.volatility ** 2) * self.maturity) \
            / (self.volatility * math.sqrt(self.maturity))
        d2 = d1 - self.volatility * math.sqrt(self.maturity)
        discount = math.exp(-self.rate * self.maturity)
        return float(self.spot * norm.cdf(d1)
                     - self.strike * discount * norm.cdf(d2))

    def black_scholes_put(self) -> float:
        """Closed-form put price via put-call parity."""
        discount = math.exp(-self.rate * self.maturity)
        return (self.black_scholes_call()
                - self.spot + self.strike * discount)


def terminal_price(option: EuropeanOption, rng: Lcg128) -> float:
    """Draw one GBM terminal price ``S_T`` (exact lognormal sampling)."""
    z = normal(rng)
    drift = (option.rate - 0.5 * option.volatility ** 2) * option.maturity
    shock = option.volatility * math.sqrt(option.maturity) * z
    return option.spot * math.exp(drift + shock)


def make_realization(option: EuropeanOption
                     ) -> Callable[[Lcg128], np.ndarray]:
    """Build a PARMONC realization returning the 1x2 (call, put) payoffs.

    Both payoffs are computed from the *same* terminal price, so their
    estimates satisfy put-call parity to within Monte Carlo error.
    """
    discount = math.exp(-option.rate * option.maturity)

    def realization(rng: Lcg128) -> np.ndarray:
        price = terminal_price(option, rng)
        call = discount * max(price - option.strike, 0.0)
        put = discount * max(option.strike - price, 0.0)
        return np.array([[call, put]])

    return realization


def make_batch_realization(option: EuropeanOption,
                           batch_size: int = 256
                           ) -> Callable[[BatchStreams], np.ndarray]:
    """Build the batched (call, put) realization; a ``(B, 1, 2)`` block.

    Row ``i`` is bit-identical to :func:`make_realization` on the same
    substream.  The kernel vectorizes every operation whose numpy ufunc
    reproduces libm exactly (sqrt, cos, the GBM arithmetic); ``log`` and
    ``exp`` stay in scalar loops because numpy's SIMD variants differ
    from ``math.log``/``math.exp`` in the last bit on some platforms.
    """
    drift = (option.rate - 0.5 * option.volatility ** 2) * option.maturity
    scale = option.volatility * math.sqrt(option.maturity)
    discount = math.exp(-option.rate * option.maturity)
    strike = option.strike
    spot = option.spot

    @batch_routine(batch_size)
    def realization(streams: BatchStreams) -> np.ndarray:
        uniforms = streams.uniforms(2)
        log_u1 = np.array([math.log(u) for u in uniforms[:, 0].tolist()])
        radius = np.sqrt(-2.0 * log_u1)
        angle = 2.0 * math.pi * uniforms[:, 1]
        z = radius * np.cos(angle)
        shock = scale * z
        prices = np.array([spot * math.exp(drift + s)
                           for s in shock.tolist()])
        calls = discount * np.maximum(prices - strike, 0.0)
        puts = discount * np.maximum(strike - prices, 0.0)
        return np.stack((calls, puts), axis=1)[:, np.newaxis, :]

    return realization
