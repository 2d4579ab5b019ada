"""Jacobian structure, spectral factorization, and stability certificates."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from waningsim.dfe import solve_dfe_closed_form, susceptible_block_matrix
from waningsim.endemic import existence_margin, localize_endemic, refine_endemic
from waningsim.model import build_all_but_last, build_general, vector_field
from waningsim.stability import (
    StaleSolutionError,
    _sorted_eigs,
    dfe_spectrum,
    endemic_spectrum,
    jacobian,
)

from conftest import random_config, random_simplex_state
from oracles import characteristic_sign_report, column_discs, dfe_matches_r0, zero_waning_quadratic


def pair_distance(computed: np.ndarray, predicted: np.ndarray) -> float:
    """Greedy nearest matching between two eigenvalue multisets."""
    remaining = list(predicted)
    worst = 0.0
    for z in computed:
        gaps = [abs(z - w) for w in remaining]
        j = int(np.argmin(gaps))
        worst = max(worst, gaps[j])
        remaining.pop(j)
    return worst


class TestJacobian:
    def test_finite_difference_agreement(self, pertussis):
        rng = np.random.default_rng(31)
        configs = [pertussis] + [
            random_config(rng, n_range=(1, 6), rate_low=0.05, rate_high=20) for _ in range(10)
        ]
        step = 1e-7
        for cfg in configs:
            y = random_simplex_state(rng, cfg.n)
            jac = jacobian(cfg, y)
            for j in range(cfg.n + 2):
                e = np.zeros(cfg.n + 2)
                e[j] = step
                fd = (vector_field(cfg, y + e) - vector_field(cfg, y - e)) / (2 * step)
                scale = np.maximum(np.abs(jac[:, j]), 1.0)
                assert np.max(np.abs(fd - jac[:, j]) / scale) < 1e-6

    def test_column_sums_equal_minus_mu(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            cfg = random_config(rng, n_range=(1, 8), rate_low=0.01, rate_high=30)
            y = random_simplex_state(rng, cfg.n)
            jac = jacobian(cfg, y)
            np.testing.assert_allclose(jac.sum(axis=0), -cfg.mu, atol=1e-12 * max(1, cfg.mu))

    def test_structure_at_zero_prevalence(self, pertussis):
        dfe = solve_dfe_closed_form(pertussis)
        y = np.concatenate([dfe.s, [0.0]])
        jac = jacobian(pertussis, y)
        n = pertussis.n
        # last row vanishes except the corner, which holds transmission - (r+mu)
        np.testing.assert_array_equal(jac[n + 1, : n + 1], np.zeros(n + 1))
        expected_corner = float(pertussis.beta @ dfe.s) - pertussis.r - pertussis.mu
        assert jac[n + 1, n + 1] == pytest.approx(expected_corner, rel=1e-15)
        # infection column: recovery inflow at the top tier
        assert jac[0, n + 1] == pytest.approx(pertussis.r - pertussis.beta[0] * dfe.s[0], rel=1e-13)


class TestDfeSpectrum:
    def test_block_factorization_pairing(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            cfg = random_config(rng, n_range=(1, 5), rate_low=0.05, rate_high=5)
            dfe = solve_dfe_closed_form(cfg)
            predicted = np.concatenate(
                [
                    np.linalg.eigvals(susceptible_block_matrix(cfg)),
                    [complex(float(cfg.beta @ dfe.s) - cfg.r - cfg.mu)],
                ]
            )
            verdict = dfe_spectrum(cfg, dfe)
            assert pair_distance(verdict.eigenvalues, predicted) < 1e-9

    def test_block_form_equals_full_jacobian_eigensolve(self, pertussis):
        # oracle: the block-triangular form, the susceptible block's
        # eigenvalues plus the corner; the eigensolve of the whole (n+2)
        # Jacobian at the DFE gives them to the bit
        rng = np.random.default_rng(36)
        configs = [pertussis] + [random_config(rng, n_range=(1, 64)) for _ in range(200)]
        for cfg in configs:
            dfe = solve_dfe_closed_form(cfg)
            corner = float(cfg.beta @ dfe.s) - cfg.r - cfg.mu
            block = _sorted_eigs(np.append(np.linalg.eigvals(susceptible_block_matrix(cfg)), corner))
            assert np.array_equal(dfe_spectrum(cfg, dfe).eigenvalues, block)

    def test_spectral_abscissa_is_the_threshold_scalar_or_minus_mu(self, pertussis):
        # the susceptible block's abscissa is exactly -mu: its columns sum to
        # -mu, so -mu is an eigenvalue, and every column disc ends there
        rng = np.random.default_rng(38)
        configs = [pertussis] + [random_config(rng, n_range=(1, 64)) for _ in range(300)]
        for cfg in configs:
            dfe = solve_dfe_closed_form(cfg)
            transmission = float(cfg.beta @ dfe.s)
            expected = max(transmission - (cfg.r + cfg.mu), -cfg.mu)
            scale = float(np.max(np.abs(susceptible_block_matrix(cfg)))) + cfg.r + transmission
            verdict = dfe_spectrum(cfg, dfe)
            # the verdict is the closed form, and the eigensolve's abscissa agrees with it
            assert verdict.max_real_part == expected
            assert float(np.max(verdict.eigenvalues.real)) == pytest.approx(expected, rel=1e-12, abs=1e-12 * scale)

    def test_known_eigenvalue_present(self, pertussis):
        verdict = dfe_spectrum(pertussis, solve_dfe_closed_form(pertussis))
        corner = float(pertussis.beta @ solve_dfe_closed_form(pertussis).s) - pertussis.r - pertussis.mu
        assert min(abs(verdict.eigenvalues - corner)) < 1e-10

    def test_all_other_eigenvalues_left_of_minus_mu(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            cfg = random_config(rng, n_range=(1, 6), rate_low=0.01, rate_high=10)
            eigs = np.linalg.eigvals(susceptible_block_matrix(cfg))
            assert np.max(eigs.real) <= -cfg.mu + 1e-10

    def test_diagonal_case_spectrum(self):
        mu, r, beta_n = 0.3, 1.0, 2.5
        cfg = build_general(1, (1.0, beta_n), 0.0, mu, r, 0.0, (0.0, 0.0))
        verdict = dfe_spectrum(cfg, solve_dfe_closed_form(cfg))
        predicted = sorted([-mu, -mu, beta_n - r - mu])
        np.testing.assert_allclose(sorted(verdict.eigenvalues.real), predicted, atol=1e-12)
        assert np.max(np.abs(verdict.eigenvalues.imag)) < 1e-12

    def test_all_but_last_stable_when_beta_n_small(self):
        cfg = build_all_but_last(2, (0.1, 0.5, 1.0), 0.3, 0.2, 1.5, 9.0, (0.7,))
        verdict = dfe_spectrum(cfg, solve_dfe_closed_form(cfg))
        assert verdict.classification == "asymptotically_stable"
        centers, radii = column_discs(susceptible_block_matrix(cfg))
        assert np.all(centers + radii <= -cfg.mu + 1e-12 * (1.0 + cfg.mu + radii.max()))

    def test_classification_matches_r0_regime(self):
        rng = np.random.default_rng(35)
        for _ in range(40):
            cfg = random_config(rng, n_range=(1, 6), rate_low=0.05, rate_high=20)
            assert dfe_matches_r0(cfg)


class TestGershgorin:
    def test_disc_arithmetic_and_conventions(self, pertussis):
        centers, radii = column_discs(susceptible_block_matrix(pertussis))
        # conventions: no vaccination return from the top tier, no waning
        # outflow from the bottom tier
        assert radii[0] == pertussis.delta_i[0]
        assert radii[-1] == pertussis.omega_i[-1]
        for rightmost in centers + radii:
            assert rightmost == pytest.approx(-pertussis.mu, abs=1e-13)

    def test_eigenvalues_inside_disc_union(self):
        rng = np.random.default_rng(36)
        for _ in range(60):
            cfg = random_config(rng, n_range=(1, 8), rate_low=0.01, rate_high=10)
            a = susceptible_block_matrix(cfg)
            centers, radii = column_discs(a)
            assert np.all(centers + radii <= -cfg.mu + 1e-12 * (1.0 + cfg.mu + radii.max()))
            for z in np.linalg.eigvals(a):
                dist = np.min(np.abs(z - centers) - radii)
                assert dist <= 1e-9 * (1 + abs(z))


class TestEndemicSpectrum:
    def test_zero_waning_reduced_quadratic_oracle(self):
        rng = np.random.default_rng(37)
        found = 0
        while found < 20:
            n = int(rng.integers(1, 5))
            beta = np.sort(rng.uniform(0.5, 10, n + 1))
            mu, r = float(rng.uniform(0.1, 1)), float(rng.uniform(0.1, 3))
            p = np.zeros(n + 1)
            p[n] = rng.uniform(0, 1)
            omega = float(rng.uniform(0, 5))
            cfg = build_general(n, beta, 0.0, mu, r, omega, p)
            if existence_margin(cfg) <= 1e-3:
                continue
            found += 1
            sol = refine_endemic(cfg)
            verdict = endemic_spectrum(cfg, sol)
            quad_a, quad_b = zero_waning_quadratic(cfg, sol)
            roots = np.roots([1.0, quad_a, quad_b])
            interior = [
                -(cfg.omega_i[i] + cfg.mu + cfg.beta[i] * sol.i_star) for i in range(1, n)
            ]
            predicted = np.concatenate([roots.astype(complex), interior, [-cfg.mu]])
            assert pair_distance(verdict.eigenvalues, predicted) < 1e-10
            assert quad_a > 0 and quad_b > 0
            assert verdict.classification == "asymptotically_stable"

    def test_small_waning_continuity_of_classification(self):
        base = build_general(2, (1.0, 2.0, 4.0), 0.0, 0.3, 1.2, 2.0, (0.0, 0.0, 0.5))
        assert existence_margin(base) > 0
        sol0 = refine_endemic(base)
        v0 = endemic_spectrum(base, sol0)
        perturbed = base.replace(delta=1e-3)
        sol1 = refine_endemic(perturbed)
        v1 = endemic_spectrum(perturbed, sol1)
        assert v0.classification == v1.classification == "asymptotically_stable"

    def test_stale_solution_rejected(self):
        cfg = build_general(1, (2.0, 3.0), 0.0, 0.5, 0.5, 0.0, (0.0, 0.0))
        sol = refine_endemic(cfg)
        stale = dataclasses.replace(sol, residual=1e-3)
        with pytest.raises(StaleSolutionError):
            endemic_spectrum(cfg, stale)


class TestCharacteristicSigns:
    def test_sir_limit_expansion(self):
        beta, r, mu = 2.0, 0.5, 0.5
        cfg = build_general(1, (beta, beta), 0.0, mu, r, 0.0, (0.0, 0.0))
        sol = refine_endemic(cfg)
        report = characteristic_sign_report(cfg, sol)
        quad_a, quad_b = zero_waning_quadratic(cfg, sol)
        # det(zI - J) = (z + mu)(z^2 + a z + b)
        expected = [1.0, mu + quad_a, quad_a * mu + quad_b, quad_b * mu]
        np.testing.assert_allclose(report.coefficients, expected, rtol=1e-10, atol=1e-14)
        assert report.sign_changes == 0

    def test_pertussis_variant_no_sign_changes(self, pertussis):
        cfg = pertussis.replace(delta=0.25)
        sol = refine_endemic(cfg)
        report = characteristic_sign_report(cfg, sol)
        assert not report.has_sign_change

    def test_random_small_systems_sign_survey(self):
        # the all-positive-coefficients behaviour is conjectured for general
        # waning rates: survey it and report counterexamples without asserting
        # the conjecture itself
        rng = np.random.default_rng(38)
        found = 0
        counterexamples = 0
        while found < 15:
            beta = np.sort(rng.uniform(0.5, 10, 4))
            mu, r = float(rng.uniform(0.1, 1)), float(rng.uniform(0.1, 3))
            delta = float(rng.uniform(0.0, 2.0))
            p = rng.uniform(0, 1, 4)
            p[0] = 0
            cfg = build_general(3, beta, delta, mu, r, float(rng.uniform(0, 5)), p)
            try:
                sol = refine_endemic(cfg)
            except Exception:
                continue
            found += 1
            if characteristic_sign_report(cfg, sol).has_sign_change:
                counterexamples += 1
        assert found == 15
        print(f"sign-change counterexamples among {found} endemic systems: {counterexamples}")

    def test_large_n_rejected(self):
        rng = np.random.default_rng(39)
        cfg = random_config(rng, n_range=(7, 9))
        sol_like = None
        with pytest.raises(ValueError, match="n <= 6"):
            characteristic_sign_report(cfg, sol_like)


class TestRegimeConsistency:
    def test_margin_sign_equals_zero_waning_r0_sign(self):
        # the existence margin is exactly the sign of R0(delta->0) - 1
        rng = np.random.default_rng(41)
        for _ in range(40):
            cfg = random_config(rng, n_range=(1, 6), rate_low=0.05, rate_high=20)
            r0_zero = (cfg.omega_n * cfg.beta[0] + cfg.mu * cfg.beta[-1]) / (
                (cfg.omega_n + cfg.mu) * (cfg.r + cfg.mu)
            )
            assert (existence_margin(cfg) > 0) == (r0_zero > 1.0)

    def test_small_waning_dichotomy(self):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 30:
            cfg = random_config(rng, n_range=(1, 5), rate_low=0.05, rate_high=20)
            cfg = cfg.replace(delta=min(cfg.delta, 1e-4))
            loc = localize_endemic(cfg)
            if not loc.validity or abs(loc.margin) < 1e-6:
                continue
            checked += 1
            if loc.margin < 0:
                assert loc.exists == "none"
            else:
                assert loc.exists == "unique"
                sol = refine_endemic(cfg)
                assert endemic_spectrum(cfg, sol).classification == "asymptotically_stable"
