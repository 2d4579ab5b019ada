"""The prepared per-configuration rate vectors, terms at prevalence 0 and
unit rates: the equation layer agrees bit for bit with its formulas spelled
out at every call, no configuration sees another's vectors, an analysis or
an endemic sweep point forms the prefix product at prevalence 0 once, and a
fit's trial points never build them.  The spelled-out formulas also take
arrays, and the uniqueness proof's tests scan their grids through them."""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from waningsim import dfe
from waningsim.dfe import basic_reproduction_number, tier_weights
from waningsim.endemic import _equilibrium_condition, solve_susceptible_block
from waningsim.model import ModelConfig, build_general, diagonal_coefficients, unit_rates
from waningsim.reports import analyze_config
from waningsim.scanfit import FitOptions, SweepSpec, TimeSeries, fit, simulate_annual_prevalence, sweep
from waningsim.stability import jacobian

from conftest import seeded_configs, tiny_rate_configs
from oracles import (
    spelled_out_diagonal_coefficients,
    spelled_out_equilibrium_condition,
    spelled_out_jacobian,
    spelled_out_susceptible_block,
    spelled_out_tier_weights,
)


def same_bits(a, b) -> bool:
    """Equal values with equal signs of zero, at any shape."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def property_configs(count: int = 300, seed: int = 25) -> list[ModelConfig]:
    """n from 1 to 64 with log-uniform rates; every fourth config has no
    coverage, every fifth no waning, every sixth ``beta_0 = 0`` and every
    seventh a birth rate of 1e-300 or 1e-12."""
    rng = np.random.default_rng(seed)
    configs = []
    for k in range(count):
        n = int(rng.integers(1, 65))
        beta = np.sort(10.0 ** rng.uniform(-2, 3, n + 1))
        if k % 6 == 0:
            beta[0] = 0.0
        p = rng.uniform(0.0, 1.0, n + 1) * (rng.uniform(size=n + 1) < 0.8)
        p[0] = 0.0
        if k % 4 == 0:
            p[:] = 0.0
        delta = 0.0 if k % 5 == 0 else float(10.0 ** rng.uniform(-3, 2))
        mu = [1e-300, 1e-12][k % 2] if k % 7 == 0 else float(10.0 ** rng.uniform(-4, 0))
        r, omega = 10.0 ** rng.uniform(-1, 2, 2)
        configs.append(build_general(n, beta, delta, mu, float(r), float(omega), p))
    return configs


def float_prevalences(rng) -> list:
    """Prevalences as the root search passes them (Python floats: the ends,
    bisection midpoints, a random point) and as NumPy scalars."""
    return [0.0, 1.0, 0.5, 0.00390625, float(rng.uniform()), np.float64(rng.uniform()), np.float64(0.0)]


def assert_as_spelled_out(cfg: ModelConfig, rng) -> None:
    for x in float_prevalences(rng):
        assert same_bits(diagonal_coefficients(cfg, x), spelled_out_diagonal_coefficients(cfg, x))
        for got, expected in zip(tier_weights(cfg, x), spelled_out_tier_weights(cfg, x)):
            assert same_bits(got, expected)
        assert same_bits(solve_susceptible_block(cfg, x), spelled_out_susceptible_block(cfg, x))
        assert same_bits(_equilibrium_condition(cfg, x), spelled_out_equilibrium_condition(cfg, x))
    for x in (0.0, float(rng.uniform())):
        state = np.append(spelled_out_susceptible_block(cfg, x), x)
        assert same_bits(jacobian(cfg, state), spelled_out_jacobian(cfg, state))


def spelled_out_profile0(cfg: ModelConfig):
    ad, w = spelled_out_tier_weights(cfg, 0.0)
    return float(ad[-1]), w, float(w.sum()), float(w @ cfg.beta)


def assert_profile0_as_spelled_out(cfg: ModelConfig) -> None:
    prepared, expected = cfg._profile0, spelled_out_profile0(cfg)
    assert len(prepared) == 4 and type(prepared[0]) is type(prepared[2]) is type(prepared[3]) is float
    for got, want in zip(prepared, expected):
        assert same_bits(got, want)


def test_prepared_zero_prevalence_terms_bit_identical_to_the_spelled_out_formulas():
    for cfg in property_configs() + seeded_configs(500, seed=3) + tiny_rate_configs(200, seed=6):
        assert_profile0_as_spelled_out(cfg)


def test_equation_layer_bit_identical_to_the_spelled_out_formulas():
    rng = np.random.default_rng(26)
    for cfg in property_configs():
        assert_as_spelled_out(cfg, rng)


def test_equation_layer_bit_identical_on_the_uniqueness_proof_configs():
    # test_endemic.TestUniquenessProof scans these configurations through the
    # spelled-out formulas
    rng = np.random.default_rng(31)
    for cfg in seeded_configs(500, seed=3) + tiny_rate_configs(200, seed=6):
        assert_as_spelled_out(cfg, rng)


def test_replaced_configs_never_see_stale_prepared_vectors():
    rng = np.random.default_rng(27)
    for cfg in property_configs(count=60, seed=28):
        tier_weights(cfg, 0.5)  # the base config's vectors are built and cached
        basic_reproduction_number(cfg)  # and so are its terms at prevalence 0
        p = rng.uniform(0.0, 1.0, cfg.n + 1)
        p[0] = 0.0
        for changes in ({"mu": cfg.mu * 3.0}, {"p": p}, {"delta": cfg.delta + 0.5}, {"omega": cfg.omega * 0.5},
                        {"beta": cfg.beta * 2.0}):
            changed = cfg.replace(**changes)
            assert_as_spelled_out(changed, rng)
            expected = build_general(**{key: changes.get(key, getattr(cfg, key))
                                        for key in ("n", "beta", "delta", "mu", "r", "omega", "p")})
            assert same_bits(changed._outflow, expected._outflow)
            assert same_bits(changed._chain, expected._chain)
            assert_profile0_as_spelled_out(changed)
        assert_as_spelled_out(cfg, rng)


def spelled_out_unit_rates(cfg: ModelConfig):
    rates = (float(cfg.beta[0]), float(cfg.beta[-1]), cfg.mu, cfg.r, float(cfg.p[-1] * cfg.omega), cfg.delta)
    k = -math.frexp(max(rates))[1]
    return k, tuple(math.ldexp(v, k) for v in rates)


def test_replaced_configs_never_see_stale_unit_rates():
    rng = np.random.default_rng(29)
    for cfg in property_configs(count=60, seed=30):
        assert unit_rates(cfg) == spelled_out_unit_rates(cfg)  # built and cached
        p = rng.uniform(0.0, 1.0, cfg.n + 1)
        p[0] = 0.0
        for changes in ({"mu": cfg.mu * 3.0}, {"r": cfg.r * 40.0}, {"delta": cfg.delta + 500.0},
                        {"omega": cfg.omega * 1e3 + 1.0}, {"p": p}, {"beta": cfg.beta * 2.0**60}):
            changed = cfg.replace(**changes)
            assert unit_rates(changed) == spelled_out_unit_rates(changed), changes
        assert unit_rates(cfg) == spelled_out_unit_rates(cfg)


def test_unit_rates_are_computed_once_per_analysis(monkeypatch, pertussis):
    built = builds_of(monkeypatch, "_unit_rates")
    for cfg in (pertussis.replace(mu=0.03), pertussis.replace(delta=0.25)):  # sub- and supercritical
        analyze_config(cfg)
        assert built == [cfg]
        built.clear()


def test_prepared_vectors_are_read_only(pertussis):
    for vector in (pertussis._outflow, pertussis._chain, pertussis._profile0[1]):
        with pytest.raises(ValueError):
            vector[0] = 1.0


def test_profiles_at_prevalence_0_are_fresh_arrays(pertussis):
    # the steady profile at 0 is formed from the prepared w, never a view of it
    for profile in (solve_susceptible_block(pertussis, 0.0), basic_reproduction_number(pertussis).dfe.s):
        assert profile.flags.writeable and not np.shares_memory(profile, pertussis._profile0[1])
    assert same_bits(solve_susceptible_block(pertussis, 0.0), spelled_out_susceptible_block(pertussis, 0.0))


def zero_prevalence_products(monkeypatch) -> list:
    """The configuration of each forming of the prefix product ``w`` at
    prevalence 0: a build of the prepared terms, or an outflow at 0 formed
    in :mod:`waningsim.dfe`, from which ``tier_weights`` and
    ``_profile_terms`` form ``w``."""
    formed = builds_of(monkeypatch, "_profile0")
    original = dfe._tier_outflow

    def counted(config, prevalence):
        if prevalence == 0.0:
            formed.append(config)
        return original(config, prevalence)

    monkeypatch.setattr(dfe, "_tier_outflow", counted)
    return formed


def test_an_analysis_forms_the_zero_prevalence_product_once(monkeypatch, pertussis):
    formed = zero_prevalence_products(monkeypatch)
    for cfg in (pertussis.replace(mu=0.03), pertussis.replace(delta=0.25)):  # sub- and supercritical
        report = analyze_config(cfg)
        assert formed == [cfg]
        formed.clear()
    assert report["endemic"] is not None


def test_an_endemic_sweep_point_forms_the_zero_prevalence_product_once(monkeypatch, pertussis):
    formed = zero_prevalence_products(monkeypatch)
    spec = SweepSpec(base_config=pertussis, parameter="delta", grid=np.array([0.1, 0.2, 0.25, 0.3]),
                     observable="endemic_I")
    result = sweep(spec)
    assert [point.classification for point in result.points] == ["dfe_stable", "dfe_stable", "endemic", "endemic"]
    assert [cfg.delta for cfg in formed] == [0.1, 0.2, 0.25, 0.3]


def builds_of(monkeypatch, name: str) -> list:
    """The configurations that go on to build the cached property ``name``."""
    built = []
    original = ModelConfig.__dict__[name].func

    def counted(self):
        built.append(self)
        return original(self)

    prepared = functools.cached_property(counted)
    prepared.__set_name__(ModelConfig, name)
    monkeypatch.setattr(ModelConfig, name, prepared)
    return built


@pytest.fixture
def prepared_builds(monkeypatch):
    """The configurations that build their prepared outflow vector."""
    return builds_of(monkeypatch, "_outflow")


def test_preparation_is_lazy_and_once_per_config(pertussis, prepared_builds):
    cfg = pertussis.replace(mu=0.03)
    assert prepared_builds == []
    basic_reproduction_number(cfg)
    basic_reproduction_number(cfg)
    assert prepared_builds == [cfg]


def test_fit_trial_points_build_no_prepared_vector(prepared_builds):
    truth = build_general(2, (1.2, 2.0, 3.6), 0.08, 0.25, 1.1, 1.5, (0.0, 0.1, 0.5))
    years = np.arange(2000, 2010)
    data = TimeSeries(years=years, prevalence=simulate_annual_prevalence(truth, years, 1999, 1e-4))
    result = fit(truth.replace(omega=2.0), ["omega"], data, FitOptions(initial_prevalence=1e-4))
    assert result.evaluations > 1
    assert prepared_builds == []
