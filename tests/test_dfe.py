"""Disease-free equilibrium: closed forms against dense-solve oracles."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from waningsim import dfe
from waningsim.dfe import (
    DfeSolution,
    NonFiniteThresholdError,
    basic_reproduction_number,
    solve_dfe_closed_form,
    susceptible_block_matrix,
)
from waningsim.model import ConfigError, build_all_but_last, build_general, build_last_only

from conftest import random_config
from oracles import last_only_transmission_threshold, matrix_determinant, solve_dfe_numeric


class TestSusceptibleBlockMatrix:
    def test_n1_no_vaccination_structure(self):
        delta, mu = 0.4, 0.1
        cfg = build_general(1, (0.0, 2.0), delta, mu, 1.0, 0.0, (0.0, 0.0))
        a = susceptible_block_matrix(cfg)
        np.testing.assert_array_equal(a, [[-(delta + mu), 0.0], [delta, -mu]])

    def test_column_sums_equal_minus_mu_at_zero_prevalence(self, pertussis):
        a = susceptible_block_matrix(pertussis)
        np.testing.assert_allclose(a.sum(axis=0), -pertussis.mu, rtol=0, atol=1e-13)

    def test_left_ones_vector_eigen_identity(self, pertussis):
        # (1,...,1) A = -mu (1,...,1)
        a = susceptible_block_matrix(pertussis)
        v = np.ones(pertussis.n + 1)
        assert np.max(np.abs(v @ a + pertussis.mu * v)) < 1e-13

    def test_rank_one_decomposition_is_exact(self, pertussis):
        a = susceptible_block_matrix(pertussis)
        lower = a.copy()
        lower[0, 1:] = 0.0
        rank_one = np.outer(np.eye(pertussis.n + 1)[0], pertussis.omega_i)
        np.testing.assert_array_equal(lower + rank_one, a)
        assert np.array_equal(lower, np.tril(lower))

    def test_sparsity_pattern(self):
        rng = np.random.default_rng(0)
        cfg = random_config(rng, n_range=(4, 6))
        a = susceptible_block_matrix(cfg, prevalence=0.2)
        expected_nonzero = np.zeros_like(a, dtype=bool)
        expected_nonzero[np.diag_indices(cfg.n + 1)] = True
        expected_nonzero[0, :] = True
        sub = np.arange(cfg.n)
        expected_nonzero[sub + 1, sub] = True
        assert not np.any(a[~expected_nonzero])


class TestDeterminant:
    def test_no_vaccination_lower_triangular_case(self):
        # omega=0 leaves the bidiagonal factor only: (-1)^(n+1) (delta+mu)^n mu
        for n in (1, 3, 6):
            cfg = build_general(n, np.linspace(0, 2, n + 1), 0.7, 0.3, 1.0, 0.0, np.zeros(n + 1))
            expected = (-1) ** (n + 1) * (0.7 + 0.3) ** n * 0.3
            assert matrix_determinant(cfg) == pytest.approx(expected, rel=1e-14)

    def test_last_only_explicit_formula(self):
        for n, delta, mu, omega_n in [(2, 0.2, 0.02, 12.4), (4, 1.3, 0.5, 3.0), (1, 0.0, 1.0, 2.0)]:
            cfg = build_last_only(n, np.linspace(1, 2, n + 1), delta, mu, 1.0, omega_n, 1.0)
            nu = 1.0 - (delta / (delta + mu)) ** n * omega_n / (omega_n + mu)
            expected = (-1) ** (n + 1) * nu * (omega_n + mu) * (delta + mu) ** n
            assert matrix_determinant(cfg) == pytest.approx(expected, rel=1e-13)

    def test_against_lu_factorization_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            cfg = random_config(rng)
            lu_det = float(np.linalg.det(susceptible_block_matrix(cfg)))
            assert matrix_determinant(cfg) == pytest.approx(lu_det, rel=1e-10)

    def test_nonzero_at_positive_prevalence(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cfg = random_config(rng)
            prevalence = float(rng.uniform(0, 1))
            lu_det = float(np.linalg.det(susceptible_block_matrix(cfg, prevalence)))
            assert matrix_determinant(cfg, prevalence) == pytest.approx(lu_det, rel=1e-10)
            assert matrix_determinant(cfg, prevalence) != 0.0


class TestClosedFormDfe:
    def test_uncovered_last_tier_concentrates_everything_there(self):
        cfg = build_all_but_last(3, (0.0, 1.0, 2.0, 3.0), 0.3, 0.1, 2.0, 25.0, (0.5, 0.9))
        sol = solve_dfe_closed_form(cfg)
        np.testing.assert_array_equal(sol.s, [0.0, 0.0, 0.0, 1.0])

    def test_zero_waning_last_only_two_point_profile(self):
        omega_n, mu = 5.0, 0.25
        cfg = build_last_only(3, (1.0, 1.5, 2.0, 4.0), 0.0, mu, 1.0, omega_n, 1.0)
        sol = solve_dfe_closed_form(cfg)
        np.testing.assert_allclose(
            sol.s, [omega_n / (omega_n + mu), 0.0, 0.0, mu / (omega_n + mu)], rtol=1e-15
        )

    def test_last_only_geometric_profile(self):
        n, delta, mu, omega_n = 4, 0.6, 0.15, 3.5
        cfg = build_last_only(n, np.linspace(0.5, 3, n + 1), delta, mu, 1.0, omega_n, 1.0)
        sol = solve_dfe_closed_form(cfg)
        sigma = delta / (delta + mu)
        nu = 1.0 - sigma**n * omega_n / (omega_n + mu)
        expected = [
            (mu / (delta + mu)) * (omega_n / (omega_n + mu)) * sigma**k / nu for k in range(n)
        ] + [mu / (omega_n + mu) / nu]
        np.testing.assert_allclose(sol.s, expected, rtol=1e-13)

    def test_equal_rates_case_matches_direct_linear_solve(self):
        cfg = build_last_only(2, (0.5, 1.0, 2.0), 0.7, 0.7, 1.0, 0.7, 1.0)
        a = susceptible_block_matrix(cfg)
        b = np.zeros(3)
        b[2] = -cfg.mu
        direct = np.linalg.solve(a, b)
        np.testing.assert_allclose(solve_dfe_closed_form(cfg).s, direct, rtol=1e-12)

    def test_invariants_on_random_configs(self):
        rng = np.random.default_rng(77)
        for _ in range(150):
            cfg = random_config(rng)
            sol = solve_dfe_closed_form(cfg)
            assert np.all(sol.s >= 0)
            assert abs(math.fsum(sol.s.tolist()) - 1.0) < 1e-12
            a = susceptible_block_matrix(cfg)
            residual = a @ sol.s + cfg.mu * np.eye(cfg.n + 1)[cfg.n]
            assert np.max(np.abs(residual)) < 1e-12

    def test_closed_form_vs_numeric(self, pertussis):
        rng = np.random.default_rng(8)
        configs = [pertussis, random_config(rng, n_range=(10, 10))] + [
            random_config(rng) for _ in range(60)
        ]
        for cfg in configs:
            closed = solve_dfe_closed_form(cfg).s
            numeric = solve_dfe_numeric(cfg).s
            assert np.max(np.abs(closed - numeric)) < 1e-10

    @pytest.mark.parametrize("n, delta, omega", [(300, 15.0, 2.0), (300, 0.005, 0.05), (512, 25.6, 2.0)])
    def test_constants_out_of_double_range_are_nan(self, n, delta, omega):
        # the determinant is a product of about n rates; out of range it is
        # NaN, never a false 0.0, while neither solver raises and both
        # profiles stay finite
        p = np.full(n + 1, 0.3)
        p[0] = 0.0
        cfg = build_general(n, np.linspace(1.5, 40, n + 1), delta, 0.02, 17.0, omega, p)
        for sol in (solve_dfe_closed_form(cfg), solve_dfe_numeric(cfg)):
            assert np.all(np.isfinite(sol.s))
        assert math.isnan(matrix_determinant(cfg))

    def test_numeric_path_singular_to_working_precision(self):
        # the columns sum to -mu, which vanishes beside the other rates
        cfg = build_general(1, (1.0, 2.0), 0.5, 1e-300, 1.0, 1.0, (0.0, 0.5))
        with pytest.raises(np.linalg.LinAlgError, match="singular to working precision"):
            solve_dfe_numeric(cfg)
        assert np.all(np.isfinite(solve_dfe_closed_form(cfg).s))

    def test_numeric_path_zero_coverage(self):
        cfg = build_last_only(2, (0.0, 1.0, 2.0), 0.4, 0.1, 1.0, 5.0, 0.0)
        np.testing.assert_allclose(solve_dfe_numeric(cfg).s, [0, 0, 1.0], atol=1e-14)


class TestR0:
    def test_all_but_last_critical_example(self):
        cfg = build_all_but_last(2, (0.5, 1.0, 2.0), 0.3, 1.0, 1.0, 4.0, (0.6,))
        rep = basic_reproduction_number(cfg)
        assert rep.r0 == 1.0
        assert rep.regime == "critical"

    def test_all_but_last_reduces_to_last_beta(self):
        cfg = build_all_but_last(3, (0.1, 0.2, 0.5, 1.2), 0.4, 0.3, 2.0, 9.0, (0.2, 0.8))
        rep = basic_reproduction_number(cfg)
        assert rep.threshold_sum == 1.2
        assert rep.r0 == 1.2 / (2.0 + 0.3)
        assert rep.regime == "stable"

    def test_all_but_last_invariant_under_omega_and_interior_coverage(self):
        beta = (0.3, 1.0, 2.0, 3.5)
        baseline = None
        for omega in (0.0, 1.0, 7.0, 33.0):
            for p1, p2 in [(0.0, 0.0), (0.2, 0.9), (1.0, 0.5)]:
                cfg = build_all_but_last(3, beta, 0.25, 0.1, 2.0, omega, (p1, p2))
                rep = basic_reproduction_number(cfg)
                if baseline is None:
                    baseline = rep
                assert rep.r0 == baseline.r0  # bitwise: the DFE is the last basis vector
                assert rep.regime == baseline.regime

    def test_zero_waning_last_only_formula(self):
        beta0, beta_n, r, mu, omega_n = 1.0, 6.0, 2.0, 0.5, 4.0
        cfg = build_last_only(2, (beta0, 3.0, beta_n), 0.0, mu, r, omega_n, 1.0)
        rep = basic_reproduction_number(cfg)
        expected = (omega_n * beta0 + mu * beta_n) / ((omega_n + mu) * (r + mu))
        assert rep.r0 == pytest.approx(expected, rel=1e-14)

    def test_last_only_r0_strictly_decreasing_in_omega_n(self):
        beta = (0.5, 1.0, 2.5)
        values = []
        for omega_n in np.linspace(0.0, 50.0, 51):
            cfg = build_last_only(2, beta, 0.3, 0.1, 1.5, max(omega_n, 1e-300), 1.0)
            values.append(basic_reproduction_number(cfg).r0)
        diffs = np.diff(values)
        assert np.all(diffs < 0)

    def test_last_only_strictly_below_uncovered_value(self):
        beta = (0.5, 1.0, 2.5)
        r, mu = 1.5, 0.1
        uncovered = beta[-1] / (r + mu)
        cfg = build_last_only(2, beta, 0.3, mu, r, 4.0, 1.0)
        assert basic_reproduction_number(cfg).r0 < uncovered

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_threshold_raises_instead_of_a_regime(self, pertussis, monkeypatch, bad):
        s = np.full(pertussis.n + 1, bad)
        monkeypatch.setattr(dfe, "solve_dfe_closed_form", lambda config: DfeSolution(s=s))
        with pytest.raises(NonFiniteThresholdError, match="disease-free equilibrium"):
            basic_reproduction_number(pertussis)


class TestTransmissionThreshold:
    def test_zero_return_rate_gives_last_beta(self):
        cfg = build_last_only(2, (0.5, 1.0, 2.5), 0.3, 0.1, 1.5, 1.0, 1.0)
        assert last_only_transmission_threshold(cfg, 0.0) == 2.5

    def test_large_return_rate_limit(self):
        n, delta, mu = 3, 0.4, 0.2
        beta = np.array([0.5, 0.8, 1.1, 3.0])
        cfg = build_last_only(n, beta, delta, mu, 1.0, 1.0, 1.0)
        sigma = delta / (delta + mu)
        nu_hat = 1.0 - sigma**n
        expected = float(np.sum(beta[:-1] * sigma ** np.arange(n))) * mu / (nu_hat * (delta + mu))
        assert last_only_transmission_threshold(cfg, 1e8) == pytest.approx(expected, rel=1e-7)

    def test_matches_dfe_transmission_sum_on_grid(self):
        beta = (0.5, 1.0, 1.7, 2.5)
        for omega_n in np.linspace(0.0, 30.0, 40):
            ref_cfg = build_last_only(3, beta, 0.3, 0.1, 1.5, omega_n if omega_n else 0.0, 1.0)
            direct = float(ref_cfg.beta @ solve_dfe_closed_form(ref_cfg).s)
            curve = last_only_transmission_threshold(ref_cfg, omega_n)
            assert curve == pytest.approx(direct, abs=1e-10)

    def test_rearranged_form_identity(self):
        # T = T_o + ((A - beta_n) * sigma^-n + beta_n) / (1 - sigma^n * xi)
        # with T_o = (beta_n - A) * sigma^-n; valid whenever sigma > 0
        n, delta, mu = 3, 0.6, 0.15
        beta = np.array([0.5, 0.8, 1.1, 3.0])
        cfg = build_last_only(n, beta, delta, mu, 1.0, 1.0, 1.0)
        sigma = delta / (delta + mu)
        a_const = mu / (delta + mu) * float(np.sum(beta[:-1] * sigma ** np.arange(n)))
        t_o = (beta[-1] - a_const) * sigma**-n
        for omega_n in (0.0, 0.7, 5.0, 40.0):
            xi = omega_n / (omega_n + mu)
            rearranged = t_o + ((a_const - beta[-1]) * sigma**-n + beta[-1]) / (1 - sigma**n * xi)
            assert last_only_transmission_threshold(cfg, omega_n) == pytest.approx(
                rearranged, rel=1e-12
            )

    def test_strictly_decreasing_when_beta_spread(self):
        cfg = build_last_only(2, (0.5, 1.0, 2.5), 0.3, 0.1, 1.5, 1.0, 1.0)
        grid = np.linspace(0.0, 40.0, 30)
        values = [last_only_transmission_threshold(cfg, w) for w in grid]
        assert np.all(np.diff(values) < 0)

    def test_constant_when_beta_flat(self):
        cfg = build_last_only(2, (2.0, 2.0, 2.0), 0.3, 0.1, 1.5, 1.0, 1.0)
        values = [last_only_transmission_threshold(cfg, w) for w in (0.0, 1.0, 10.0, 100.0)]
        assert np.allclose(values, 2.0, rtol=1e-14)

    def test_scheme_mismatch_rejected(self, pertussis):
        with pytest.raises(ConfigError, match="last-tier-only"):
            last_only_transmission_threshold(pertussis, 1.0)


class TestSerialization:
    def test_dfe_solution_round_trip(self, pertussis):
        sol = solve_dfe_closed_form(pertussis)
        data = json.loads(json.dumps(sol.to_dict()))
        assert data["s"] == [float(x) for x in sol.s]  # repr round-trips exactly
        assert data["i"] == 0.0

    def test_r0_report_round_trip(self, pertussis):
        rep = basic_reproduction_number(pertussis)
        data = json.loads(json.dumps(rep.to_dict()))
        assert data["r0"] == rep.r0
        assert data["regime"] == rep.regime
