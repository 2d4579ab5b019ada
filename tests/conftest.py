"""Shared fixtures and random-model generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from waningsim.data import pertussis_config
from waningsim.model import ModelConfig, build_general


def random_config(
    rng: np.random.Generator,
    n_range=(1, 12),
    rate_low=1e-3,
    rate_high=50.0,
    p_high=1.0,
    force_beta_strict=False,
) -> ModelConfig:
    """Draw a valid random configuration with log-uniform rates."""

    def rate():
        return float(np.exp(rng.uniform(np.log(rate_low), np.log(rate_high))))

    n = int(rng.integers(n_range[0], n_range[1] + 1))
    beta = np.sort(np.exp(rng.uniform(np.log(rate_low), np.log(rate_high), size=n + 1)))
    if force_beta_strict and beta[0] >= beta[-1]:
        beta[-1] = beta[0] * 2.0 + 1.0
    p = rng.uniform(0.0, p_high, size=n + 1)
    p[0] = 0.0
    return build_general(n=n, beta=beta, delta=rate(), mu=rate(), r=rate(), omega=rate(), p=p)


def seeded_configs(count=200, seed=9):
    """``count`` configurations over the rate ranges of the benchmark notes:
    n from 1 to 8, beta sorted uniform times 10^U(-1, 3), delta 10^U(-3, 1),
    mu 10^U(-3, -0.5), r and omega 10^U(-1, 1.5)."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        n = int(rng.integers(1, 9))
        beta = np.sort(rng.uniform(0.0, 1.0, n + 1)) * 10.0 ** rng.uniform(-1, 3)
        delta, mu = 10.0 ** rng.uniform(-3, 1), 10.0 ** rng.uniform(-3, -0.5)
        r, omega = 10.0 ** rng.uniform(-1, 1.5, 2)
        p = rng.uniform(0.0, 1.0, n + 1)
        p[0] = 0.0
        configs.append(build_general(n, beta, delta, mu, r, omega, p))
    return configs


def tiny_rate_configs(count: int, seed: int) -> list[ModelConfig]:
    """``count`` configurations whose rates are drawn from ``{0, 1e-300,
    1e-12, 10^U(-3, 3)}``, every second with ``beta_0 = 0`` and every third
    with ``mu = 1e-300``: where ``mu`` or ``r`` is negligible beside the other
    rates, ``r + mu - beta . S(x)`` is rounding noise."""
    rng = np.random.default_rng(seed)

    def rate(choices=(0.0, 1e-300, 1e-12, None)):
        value = choices[rng.integers(len(choices))]
        return 10.0 ** rng.uniform(-3, 3) if value is None else value

    configs = []
    for k in range(count):
        n = int(rng.integers(1, 9))
        beta = sorted(rate() for _ in range(n + 1))
        if k % 2 == 0:
            beta[0] = 0.0
        delta, omega = rate(), rate()
        mu = 1e-300 if k % 3 == 0 else rate((1e-300, 1e-12, None))
        r = rate((1e-300, 1e-12, None))
        p = [0.0] + [round(float(v), 3) for v in rng.uniform(0, 1, n)]
        configs.append(build_general(n, beta, delta, mu, r, omega, p))
    return configs


def random_simplex_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random interior point of the simplex, normalized to sum 1."""
    y = rng.uniform(0.05, 1.0, size=n + 2)
    return y / y.sum()


@pytest.fixture(scope="session")
def pertussis():
    return pertussis_config()
