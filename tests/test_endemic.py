"""Endemic localization, refinement with Brent's method (against SciPy's), and
the perturbation bound chain."""

from __future__ import annotations

import math

import numpy as np
import pytest

from waningsim import endemic
from waningsim.dfe import (
    basic_reproduction_number,
    solve_dfe_closed_form,
    susceptible_block_matrix,
    tier_weights,
)
from waningsim.endemic import (
    EndemicSolution,
    NoEndemicEquilibriumError,
    RefinementError,
    _brentq,
    _equilibrium_condition,
    existence_margin,
    localize_endemic,
    prevalence_quadratic,
    refine_endemic,
    solve_susceptible_block,
)
from waningsim.model import build_general, build_last_only, vector_field

from conftest import random_config, seeded_configs, tiny_rate_configs
from oracles import (
    equilibrium_transmission,
    equilibrium_transmission_no_waning,
    perturbation_norms,
    prevalence_linear_root,
    scipy_brentq,
    solve_dfe_numeric,
    spelled_out_equilibrium_condition,
    spelled_out_tier_weights,
    transmission_gap_bound,
)


def bisect_no_waning_root(cfg, lo=0.0, hi=1.0, iters=80):
    """Independent bisection oracle on r + mu - F_no_waning(x)."""

    def g(x):
        return cfg.r + cfg.mu - equilibrium_transmission_no_waning(cfg, x)

    glo = g(lo)
    assert glo * g(hi) < 0, "oracle needs a bracket"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (g(mid) < 0) == (glo < 0):
            lo, glo = mid, g(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def equilibrium_rhs(cfg, prevalence):
    """Steady-state right-hand side: recovery inflow into the top tier,
    births into the bottom tier, both negated."""
    b = np.zeros(cfg.n + 1)
    b[0] = -cfg.r * prevalence
    b[-1] = -cfg.mu
    return b


class TestBlockSolve:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            cfg = random_config(rng, n_range=(1, 8), rate_low=0.01, rate_high=20)
            prevalence = float(rng.uniform(0, 1))
            fast = solve_susceptible_block(cfg, prevalence)
            dense = np.linalg.solve(susceptible_block_matrix(cfg, prevalence), equilibrium_rhs(cfg, prevalence))
            np.testing.assert_allclose(fast, dense, rtol=1e-9, atol=1e-12)

    def test_large_n_matches_dense_solve(self):
        # the prefix product stays in range where products of n rates do not
        rng = np.random.default_rng(64)
        for _ in range(200):
            n = int(np.exp(rng.uniform(np.log(64), np.log(2048))))
            cfg = random_config(rng, n_range=(n, n))
            prevalence = float(rng.uniform(0, 1))
            for fast, a, b in (
                (solve_susceptible_block(cfg, prevalence), susceptible_block_matrix(cfg, prevalence), equilibrium_rhs(cfg, prevalence)),
                (solve_dfe_closed_form(cfg).s, susceptible_block_matrix(cfg), equilibrium_rhs(cfg, 0.0)),
            ):
                dense = np.linalg.solve(a, b)
                assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestTransmissionFunctions:
    def test_zero_waning_closed_form_matches_matrix_path(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cfg = random_config(rng, n_range=(1, 6), rate_low=0.01, rate_high=20)
            cfg0 = cfg.replace(delta=0.0)
            for x in np.linspace(0.0, 1.0, 7):
                matrix_path = equilibrium_transmission(cfg0, x)
                closed = equilibrium_transmission_no_waning(cfg0, x)
                assert closed == pytest.approx(matrix_path, rel=1e-12, abs=1e-12)

    def test_at_zero_prevalence_ties_to_dfe_transmission(self):
        # G(0) = r + mu - beta . S(0), with S(0) from the dense solve
        rng = np.random.default_rng(4)
        for _ in range(25):
            cfg = random_config(rng, n_range=(1, 8), rate_low=0.01, rate_high=20)
            dfe_sum = float(cfg.beta @ solve_dfe_numeric(cfg).s)
            removal = cfg.r + cfg.mu
            assert _equilibrium_condition(cfg, 0.0) == pytest.approx(removal - dfe_sum, abs=1e-10 * (removal + dfe_sum))

    def test_condition_is_scaled_defect_of_dense_profile(self):
        # G(x) = (r + mu - beta . S(x)) (mu + x beta . w/sum(w))/mu on [0, 1]
        rng = np.random.default_rng(6)
        grid = np.linspace(0.0, 1.0, 9)
        for _ in range(25):
            cfg = random_config(rng, n_range=(1, 8), rate_low=0.01, rate_high=20)
            for x in grid:
                _, w = tier_weights(cfg, x)
                k = (cfg.mu + x * (w @ cfg.beta) / w.sum()) / cfg.mu
                g = _equilibrium_condition(cfg, x)
                dense = np.linalg.solve(susceptible_block_matrix(cfg, x), equilibrium_rhs(cfg, x))
                transmission = float(cfg.beta @ dense)
                removal = cfg.r + cfg.mu
                assert g == pytest.approx((removal - transmission) * k, abs=1e-10 * (removal + transmission) * k)

    def test_no_waning_value_at_zero_prevalence(self):
        beta0, beta_n, mu, omega_n = 1.0, 6.0, 0.5, 4.0
        cfg = build_last_only(2, (beta0, 3.0, beta_n), 0.0, mu, 2.0, omega_n, 1.0)
        expected = (beta0 * omega_n + beta_n * mu) / (omega_n + mu)
        assert equilibrium_transmission_no_waning(cfg, 0.0) == pytest.approx(expected, rel=1e-15)

    def test_gap_bound_at_pertussis_shape(self, pertussis):
        # the bundled config inside its certified waning range
        cfg = pertussis.replace(delta=1e-3)
        assert 2 * cfg.delta * math.sqrt(cfg.n + 1) / cfg.mu < 0.5
        x = 0.01
        gap = abs(
            equilibrium_transmission(cfg, x) - equilibrium_transmission_no_waning(cfg, x)
        )
        assert gap <= transmission_gap_bound(cfg, x)

    def test_gap_bound_holds_on_grid(self):
        # precondition: the contraction certificate must hold at prevalence 0
        rng = np.random.default_rng(5)
        checked = 0
        for delta in (1e-4, 1e-3, 1e-2):
            for _ in range(20):
                cfg = random_config(rng, n_range=(1, 8), rate_low=0.2, rate_high=20)
                cfg = cfg.replace(delta=delta)
                assert 2 * delta * math.sqrt(cfg.n + 1) / cfg.mu < 0.5
                for x in (0.0, 0.01, 0.1, 0.3, 0.7, 1.0):
                    gap = abs(
                        equilibrium_transmission(cfg, x)
                        - equilibrium_transmission_no_waning(cfg, x)
                    )
                    assert gap <= transmission_gap_bound(cfg, x)
                    checked += 1
        assert checked == 360


class TestPrevalenceQuadratic:
    def test_sir_limit_factorization(self):
        cfg = build_general(1, (2.0, 2.0), 0.0, 0.5, 0.5, 0.0, (0.0, 0.0))
        quad = prevalence_quadratic(cfg)
        assert quad.real
        assert quad.y1 == pytest.approx(-0.25, abs=1e-15)
        assert quad.y2 == pytest.approx(0.5, abs=1e-15)

    def test_roots_satisfy_polynomial(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            cfg = random_config(rng, rate_low=0.05, rate_high=20)
            if cfg.beta[0] == 0:
                continue
            quad = prevalence_quadratic(cfg)
            if quad.real:
                for y in (quad.y1, quad.y2):
                    scale = y * y + abs(quad.a * y) + abs(quad.b) + 1.0
                    assert abs(quad(y)) < 1e-12 * scale

    def test_negative_margin_gives_positive_coefficients_and_no_unit_roots(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 30:
            cfg = random_config(rng, rate_low=0.05, rate_high=10)
            if cfg.beta[0] == 0 or existence_margin(cfg) >= 0:
                continue
            found += 1
            quad = prevalence_quadratic(cfg)
            assert quad.a > 0 and quad.b > 0
            if quad.real:
                assert not (0.0 <= quad.y1 <= 1.0)
                assert not (0.0 <= quad.y2 <= 1.0)

    def test_positive_margin_gives_single_root_in_unit_interval(self):
        rng = np.random.default_rng(8)
        found = 0
        while found < 30:
            cfg = random_config(rng, rate_low=0.05, rate_high=30)
            if cfg.beta[0] == 0 or existence_margin(cfg) <= 0:
                continue
            found += 1
            quad = prevalence_quadratic(cfg)
            assert quad.real
            assert quad.y1 < 0 < quad.y2 < 1

    def test_root_agrees_with_bisection_oracle(self):
        cfg = build_general(
            2, (4.0, 30.0, 60.0), 0.01, 0.4, 3.0, 6.0, (0.0, 0.2, 0.62)
        )
        assert existence_margin(cfg) > 0
        quad = prevalence_quadratic(cfg)
        assert quad.y2 == pytest.approx(bisect_no_waning_root(cfg), abs=1e-10)

    def test_double_root_rounded_to_a_complex_pair(self):
        # the discriminant is (u - v + 1)^2 + 4 mu (1/beta0 - 1/beta_n), with
        # u = (mu + omega_n)/beta_n and v = (mu + r)/beta0: 0 at equal betas
        # and r = beta + omega_n, where rounding leaves it just below 0
        cfg = build_last_only(1, (0.5, 0.5), 0.0, 0.1, 0.75, 0.25, 1.0)
        quad = prevalence_quadratic(cfg)
        assert (quad.real, quad.y1, quad.y2) == (False, None, None)
        assert quad.a == pytest.approx(1.4, rel=1e-15) and quad.b == pytest.approx(0.49, rel=1e-15)
        assert -1e-15 < quad.a * quad.a - 4.0 * quad.b < 0.0

    def test_beta0_zero_directed_to_linear_case(self):
        cfg = build_general(1, (0.0, 2.0), 0.1, 0.5, 0.5, 0.0, (0.0, 0.0))
        with pytest.raises(ValueError, match="linear"):
            prevalence_quadratic(cfg)


class TestLinearCase:
    def make(self, beta_n, r=1.0, mu=1.0, omega_n=1.0):
        return build_last_only(1, (0.0, beta_n), 0.0, mu, r, omega_n, 1.0)

    def test_boundary_root_at_zero(self):
        assert prevalence_linear_root(self.make(4.0)) == 0.0

    def test_interior_root(self):
        assert prevalence_linear_root(self.make(6.0)) == pytest.approx(1 / 6, rel=1e-15)

    def test_no_root(self):
        assert prevalence_linear_root(self.make(2.0)) is None

    def test_rejects_positive_beta0(self):
        cfg = build_general(1, (1.0, 2.0), 0.0, 1.0, 1.0, 0.0, (0.0, 0.0))
        with pytest.raises(ValueError):
            prevalence_linear_root(cfg)

    def test_no_transmission_has_no_root(self):
        cfg = self.make(0.0)
        assert prevalence_linear_root(cfg) is None
        loc = localize_endemic(cfg)
        assert loc.roots == (None, None) and loc.exists == "none"
        with pytest.raises(NoEndemicEquilibriumError):
            refine_endemic(cfg)


class TestLocalization:
    def test_negative_margin_small_delta_reports_none(self):
        cfg = build_last_only(2, (0.2, 0.5, 1.0), 1e-4, 0.5, 2.0, 3.0, 1.0)
        assert existence_margin(cfg) < 0
        loc = localize_endemic(cfg)
        assert loc.exists == "none"
        assert loc.validity

    def test_margin_sign_survives_underflowing_products(self):
        # beta_n mu = 2.5e-584 and (omega_n + mu)(mu + r) = 1e-600 both round
        # to 0; the rates scaled by one power of two keep the sign
        cfg = build_general(1, (0.0, 2.5e-284), 0.0, 1e-300, 5e-324, 0.0, (0.0, 0.0))
        assert existence_margin(cfg) == 0.0
        loc = localize_endemic(cfg)
        assert loc.exists == "unique" and loc.margin == 0.0
        assert refine_endemic(cfg).i_star == 1.0

    def test_normal_margin_is_the_unscaled_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            cfg = random_config(rng, n_range=(1, 4))
            beta0, beta_n, mu, r, omega_n = cfg.beta[0], cfg.beta[-1], cfg.mu, cfg.r, cfg.omega_n
            margin = existence_margin(cfg)
            assert margin == beta0 * omega_n + beta_n * mu - (omega_n + mu) * (mu + r)
            assert localize_endemic(cfg).exists == ("unique" if _equilibrium_condition(cfg, 0.0) < 0.0 else "none")

    @pytest.mark.parametrize("beta0", [0.0, 1.0], ids=["linear", "quadratic"])
    def test_margin_overflows_to_infinity(self, beta0):
        # beta_n mu and (omega_n + mu)(mu + r) both overflow, and their
        # difference was inf - inf = NaN; the margin of the unit_rates rates is
        # positive, and scaled back it overflows to +inf
        cfg = build_general(1, (beta0, 2e200), 0.0, 1e200, 1.0, 0.0, (0.0, 0.0))
        assert existence_margin(cfg) == math.inf
        assert localize_endemic(cfg).margin == math.inf

    def test_validity_flag_tracks_contraction_precondition(self):
        small = build_general(1, (1.0, 2.0), 1e-3, 0.5, 1.0, 0.0, (0.0, 0.0))
        large = small.replace(delta=1.0)
        assert localize_endemic(small).validity
        assert not localize_endemic(large).validity

    def test_long_run_prevalence_lands_in_interval(self):
        # integration oracle: two-tier coverage, small waning rate
        from waningsim.dynamics import integrate
        from waningsim.model import epidemic_start

        cfg = build_general(2, (2.0, 4.0, 8.0), 1e-5, 0.5, 2.0, 3.0, (0.0, 0.2, 0.62))
        loc = localize_endemic(cfg)
        assert loc.exists == "unique" and loc.validity
        traj = integrate(cfg, epidemic_start(cfg), 2000.0)
        assert traj.final_prevalence == pytest.approx(refine_endemic(cfg).i_star, rel=0.0, abs=1e-7)


class TestRefine:
    def test_classic_sir_endemic_exact(self):
        beta, r, mu = 2.0, 0.5, 0.5
        cfg = build_general(1, (beta, beta), 0.0, mu, r, 0.0, (0.0, 0.0))
        sol = refine_endemic(cfg)
        assert sol.i_star == pytest.approx((beta - r - mu) / beta, abs=1e-14)
        assert sol.certification == "certified-unique"
        assert sol.residual < 1e-12

    def test_small_delta_perturbation_stays_within_interval_width(self):
        beta, r, mu, delta = 2.0, 0.5, 0.5, 1e-4
        cfg = build_general(2, (beta, beta, beta), delta, mu, r, 0.0, (0.0, 0.0, 0.0))
        sol = refine_endemic(cfg)
        # every tier transmits at beta, so waning moves no one's risk and i*
        # is the no-waning root (beta - r - mu)/beta = 0.5
        assert sol.i_star == pytest.approx(0.5, rel=0.0, abs=1e-7)
        assert sol.residual < 1e-10

    def test_equilibrium_identities(self):
        rng = np.random.default_rng(12)
        found = 0
        while found < 25:
            cfg = random_config(rng, n_range=(1, 6), rate_low=0.05, rate_high=20)
            cfg = cfg.replace(delta=min(cfg.delta, 1e-3))
            if existence_margin(cfg) <= 0 or not localize_endemic(cfg).validity:
                continue
            found += 1
            sol = refine_endemic(cfg)
            assert 0 < sol.i_star <= 1
            total = sol.i_star + math.fsum(sol.s_star.tolist())
            assert abs(total - 1.0) < 1e-10
            assert sol.residual < 1e-10
            assert sol.vf_norm < 1e-9
            assert np.all(sol.s_star >= 0)

    def test_rounding_level_two_cycle_is_accepted(self):
        # pertussis-scale rates under a valid certificate, where the rounding
        # noise of the equilibrium condition is about 1e-13 in prevalence
        cfg = build_general(
            4,
            (47.91068635947344, 58.26298704242893, 61.77673101565805, 167.93631386184282, 278.7321769996347),
            0.0007688885862420106,
            0.02,
            17.0,
            20.0,
            (0.0, 0.4491001936557365, 0.39878599213166555, 0.26340148529094404, 0.28766869750999086),
        )
        assert localize_endemic(cfg).validity
        sol = refine_endemic(cfg)
        assert sol.certification == "certified-unique"
        assert sol.residual < 1e-10
        assert sol.i_star == pytest.approx(0.64528, abs=1e-5)

    def test_unstable_dfe_pertussis_variant_residual(self, pertussis):
        # past the waning-rate bifurcation the reconstructed config is endemic
        cfg = pertussis.replace(delta=0.25)
        sol = refine_endemic(cfg)
        assert sol.certification == "certified-unique"
        assert sol.vf_norm < 1e-9
        state = np.concatenate([sol.s_star, [sol.i_star]])
        assert np.linalg.norm(vector_field(cfg, state)) < 1e-9

    def test_raises_when_no_equilibrium_exists(self):
        cfg = build_last_only(2, (0.2, 0.5, 1.0), 1e-4, 0.5, 2.0, 3.0, 1.0)
        with pytest.raises(NoEndemicEquilibriumError):
            refine_endemic(cfg)

    def test_uncertified_none_raises_too(self, pertussis):
        # R0 < 1 for the baseline reconstruction: G(0) > 0, so no root exists
        with pytest.raises(NoEndemicEquilibriumError):
            refine_endemic(pertussis)

    def test_root_separation_violation_reported(self):
        # R0 = 1.0001 puts both no-waning roots within delta^(1/3) of each
        # other while the contraction certificate holds; the proof of
        # uniqueness needs no separation, and the one root is reported
        cfg = build_general(1, (10.0, 10.002), 1e-4, 1e-3, 10.0, 0.0, (0.0, 0.0))
        quad = prevalence_quadratic(cfg)
        assert quad.real and 0 < quad.y2 - quad.y1 < cfg.delta ** (1 / 3)
        loc = localize_endemic(cfg)
        assert loc.validity
        assert loc.exists == "unique"
        sol = refine_endemic(cfg)
        assert sol.i_star == pytest.approx(4.340373425564806e-05, rel=1e-12, abs=0.0)
        assert sol.certification == "certified-unique"


class TestEvaluationCount:
    """``refine_endemic`` evaluates the equilibrium condition once per
    point: once at 0, once per bisection and once per new iterate of
    Brent's method, which reuses the bisection's values at the ends of the
    bracket; only an upper end of 1.0 costs one evaluation more."""

    # an SIR-like configuration with R0 near 1000 whose root, near 0.998,
    # lies in the last cell [255/256, 1]
    NEAR_ONE = build_general(1, (1000.0, 1000.0), 0.0, 1.0, 1e-3, 0.0, (0.0, 0.0))

    @pytest.fixture
    def counted(self, monkeypatch):
        """The prevalences the condition is evaluated at, and the brackets
        handed to Brent's method, of the last ``refine_endemic`` call."""
        points, brackets = [], []
        condition, brentq = endemic._equilibrium_condition, endemic._brentq

        def counted_condition(config, x):
            points.append(x)
            return condition(config, x)

        def recorded_brentq(f, a, b, xtol, maxiter):
            brackets.append((a, b))
            return brentq(f, a, b, xtol, maxiter)

        monkeypatch.setattr(endemic, "_equilibrium_condition", counted_condition)
        monkeypatch.setattr(endemic, "_brentq", recorded_brentq)
        return points, brackets

    def test_one_evaluation_per_point(self, counted):
        points, brackets = counted
        searched = last_cell = 0
        for cfg in seeded_configs(600, seed=3) + tiny_rate_configs(300, seed=5) + [self.NEAR_ONE]:
            points.clear()
            brackets.clear()
            try:
                solution = refine_endemic(cfg)
            except NoEndemicEquilibriumError:
                assert points == [0.0]
                continue
            assert len(set(points)) == len(points), points
            if not brackets:  # a bisection midpoint is the root
                assert solution.iterations == 0 and len(points) <= 1 + endemic.BISECTION_STEPS
                continue
            (_, hi), = brackets
            assert len(points) == endemic.BISECTION_STEPS + solution.iterations + (hi == 1.0)
            searched += 1
            last_cell += hi == 1.0
        assert searched > 300 and last_cell >= 1

    def test_the_last_cell_evaluates_the_upper_end(self, counted):
        points, brackets = counted
        solution = refine_endemic(self.NEAR_ONE)
        assert brackets == [(255 / 256, 1.0)] and 255 / 256 < solution.i_star < 1.0
        assert points.count(1.0) == 1 and points[1 + endemic.BISECTION_STEPS] == 1.0  # Brent's first point


def ported_brentq(f, a, b, xtol, maxiter):
    """:func:`waningsim.endemic._brentq`, or the type and message of what it
    raised, as :func:`oracles.scipy_brentq` reports them."""
    try:
        return _brentq(f, a, b, xtol, maxiter)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestBrent:
    """The package's Brent's method is SciPy's ``brentq``, root for root and
    iteration for iteration."""

    def test_every_endemic_root_and_iteration_count_is_scipys(self, monkeypatch):
        calls = []

        def both(f, a, b, xtol, maxiter):
            ours = _brentq(f, a, b, xtol, maxiter)
            calls.append((ours, scipy_brentq(f, a, b, xtol, maxiter)))
            return ours

        monkeypatch.setattr(endemic, "_brentq", both)
        for cfg in seeded_configs(3000, seed=3) + tiny_rate_configs(1500, seed=5):
            try:
                refine_endemic(cfg)
            except NoEndemicEquilibriumError:
                pass
        assert len(calls) > 2000
        for ours, theirs in calls:
            assert ours[1] == theirs[1] and ours[0].hex() == theirs[0].hex()

    @pytest.mark.parametrize("f", [
        lambda x: x**3 - 0.3,
        lambda x: math.tanh(50.0 * (x - 0.37)),
        lambda x: -1.0 if x < 0.61 else 1e-3 * (x - 0.61),  # a plateau: f(x_pre) = f(x_blk)
        lambda x: 2.0**-700 * (x**3 - 0.3),  # products of the values underflow to 0
        lambda x: 2.0**-1070 * (x - 0.3),  # subnormal values
    ], ids=["cubic", "tanh", "plateau", "underflowing-denominators", "subnormal"])
    @pytest.mark.parametrize("xtol", [2.0 * math.ulp(0.0), 1e-12])
    def test_equals_scipy(self, f, xtol):
        ours = ported_brentq(f, 0.0, 1.0, xtol, 1000)
        assert ours == scipy_brentq(f, 0.0, 1.0, xtol, 1000)

    def test_zero_denominators_bisect(self):
        # the same cubic scaled by a power of two: its Brent iterates are the
        # same until an interpolation denominator underflows to 0, where C
        # divides to an infinity or NaN and bisects, and Python raises
        xtol = 2.0 * math.ulp(0.0)
        root, iterations = _brentq(lambda x: x**3 - 0.3, 0.0, 1.0, xtol, 1000)
        scaled_root, scaled_iterations = _brentq(lambda x: 2.0**-700 * (x**3 - 0.3), 0.0, 1.0, xtol, 1000)
        assert scaled_root == root and scaled_iterations > iterations

    @pytest.mark.parametrize("f, a, b, maxiter", [
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, 100),
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 100),
        (lambda x: x - 2.0, 0.0, 1.0, 100),
        (lambda x: 1e-200, 0.3, 0.7, 100),
        (lambda x: x**3 - 0.3, 0.0, 1.0, 2),
        (lambda x: x**3 - 0.3, 0.0, 1.0, 0),
    ], ids=["nan-at-an-end", "nan-at-an-iterate", "no-sign-change", "tiny-values-of-one-sign", "maxiter",
            "no-iteration"])
    def test_raises_as_scipy(self, f, a, b, maxiter):
        ours = ported_brentq(f, a, b, 1e-12, maxiter)
        assert ours == scipy_brentq(f, a, b, 1e-12, maxiter)
        assert ours[0] in (ValueError, RuntimeError)

    @pytest.mark.parametrize("f", [lambda x: x - 0.25, lambda x: x - 1.0, lambda x: 0.0, lambda x: -0.0])
    def test_an_end_point_root_is_returned_after_no_iteration(self, f):
        root, iterations = _brentq(f, 0.25, 1.0, 1e-12, 100)
        assert root == scipy_brentq(f, 0.25, 1.0, 1e-12, 100)[0] and f(root) == 0.0 and iterations == 0

    @pytest.mark.parametrize("condition, message", [
        (lambda cfg, x: -1.0 if x < 0.3 else math.nan, "Brent's method failed on the bracket .* is NaN"),
        (lambda cfg, x: -1.0, r"Brent's method failed on the bracket \[0.99609375, 1.0\]: f\(a\) and f\(b\) must"),
    ], ids=["nan", "no-sign-change"])
    def test_refine_endemic_wraps_a_failure(self, monkeypatch, condition, message):
        monkeypatch.setattr(endemic, "_equilibrium_condition", condition)
        with pytest.raises(RefinementError, match=message):
            refine_endemic(build_general(1, (2.0, 3.0), 0.1, 0.1, 1.0, 0.5, (0.0, 0.5)))

    def test_refine_endemic_wraps_exhausted_iterations(self, monkeypatch):
        monkeypatch.setattr(endemic, "_brentq", lambda f, a, b, xtol, maxiter: _brentq(f, a, b, xtol, 2))
        with pytest.raises(RefinementError, match="Failed to converge after 2 iterations"):
            refine_endemic(build_general(1, (2.0, 3.0), 0.1, 0.1, 1.0, 0.5, (0.0, 0.5)))


class TestUniquenessProof:
    """Each step of the existence and uniqueness proof in the ``endemic``
    module docstring, checked on 500 configurations over the benchmark-note
    rate ranges and 200 with rates near the bottom of the double range.

    The package takes one prevalence per call; steps 3 and 6 scan their
    grids through the formulas spelled out in ``oracles``, which take
    arrays and which ``test_prepared_rates`` pins the package to, bit for
    bit, on these same configurations."""

    @pytest.fixture(scope="class")
    def configs(self):
        return seeded_configs(500, seed=3) + tiny_rate_configs(200, seed=6)

    @staticmethod
    def beta_w(cfg, x):
        _, w = spelled_out_tier_weights(cfg, x)
        return (w @ cfg.beta) / w.sum(axis=-1)

    def test_step_1_signs_at_the_ends(self, configs):
        for cfg in configs:
            regime = basic_reproduction_number(cfg).regime
            if regime != "critical":
                assert (_equilibrium_condition(cfg, 0.0) < 0.0) == (regime == "unstable")
            mu, r, beta_n, omega_n = cfg.mu, cfg.r, cfg.beta[-1], cfg.omega_n
            bound = r + mu * ((omega_n + mu) / (omega_n + mu + beta_n))
            assert _equilibrium_condition(cfg, 1.0) >= bound * (1.0 - 1e-12)

    def test_step_3_transmission_average_does_not_rise(self, configs):
        grid = np.linspace(0.0, 1.0, 65)
        for cfg in configs:
            beta_w = self.beta_w(cfg, grid)
            assert np.all(beta_w[1:] <= beta_w[:-1] * (1.0 + 1e-12))

    def test_steps_4_and_5_at_the_root(self, configs):
        found = 0
        for cfg in configs:
            try:
                x = refine_endemic(cfg).i_star
            except NoEndemicEquilibriumError:
                continue
            found += 1
            ad, _ = tier_weights(cfg, x)
            assert 1.0 - x - cfg.mu / ad[-1] >= -1e-12
            h = 0.5 * min(x, 1e-6)
            slope = (_equilibrium_condition(cfg, x + h) - _equilibrium_condition(cfg, x - h)) / (2.0 * h)
            assert slope >= self.beta_w(cfg, x) * (1.0 - 1e-6)
        assert found > 300

    def test_step_6_one_sign_change(self, configs):
        grid = np.linspace(0.0, 1.0, 1025)
        for cfg in configs:
            negative = spelled_out_equilibrium_condition(cfg, grid) < 0.0
            assert np.count_nonzero(negative[1:] != negative[:-1]) <= 1


class TestClassificationAgreement:
    def test_margin_is_r0_at_zero_waning(self):
        # existence_margin = (omega_n + mu)(r + mu)(R0(delta=0) - 1): the
        # zero-waning verdict of R0, not a second test of existence
        for cfg in seeded_configs(200, seed=9):
            r0 = basic_reproduction_number(cfg.replace(delta=0.0)).r0
            scale = (cfg.omega_n + cfg.mu) * (cfg.r + cfg.mu)
            assert abs(existence_margin(cfg) - scale * (r0 - 1.0)) <= 1e-13 * scale * max(r0, 1.0), cfg

    def test_refine_succeeds_iff_margin_positive(self):
        rng = np.random.default_rng(13)
        tried = 0
        while tried < 40:
            cfg = random_config(rng, n_range=(1, 5), rate_low=0.05, rate_high=20)
            cfg = cfg.replace(delta=min(cfg.delta, 5e-4))
            if not localize_endemic(cfg).validity:
                continue
            tried += 1
            margin = existence_margin(cfg)
            if abs(margin) < 1e-6:
                continue
            if margin > 0:
                assert isinstance(refine_endemic(cfg), EndemicSolution)
            else:
                with pytest.raises(NoEndemicEquilibriumError):
                    refine_endemic(cfg)

    def test_all_but_last_condition_reduces_to_beta_n(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            beta = np.sort(rng.uniform(0.1, 10, n + 1))
            mu, r = rng.uniform(0.1, 2), rng.uniform(0.1, 5)
            interior = rng.uniform(0, 1, max(n - 1, 0))
            from waningsim.model import build_all_but_last

            cfg = build_all_but_last(n, beta, 1e-5, mu, r, 5.0, interior)
            assert (existence_margin(cfg) > 0) == (beta[-1] > r + mu)

    def test_omega_equals_delta_variant_reduces_to_beta_n(self):
        # when the vaccination rate equals the (small) waning rate the
        # existence condition collapses to beta_n > r + mu
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            beta = np.sort(rng.uniform(0.1, 10, n + 1))
            mu, r = rng.uniform(0.2, 2), rng.uniform(0.1, 5)
            if abs(beta[-1] - (r + mu)) < 2e-2:
                continue
            delta = 1e-5
            p = rng.uniform(0, 1, n + 1)
            p[0] = 0
            cfg = build_general(n, beta, delta, mu, r, delta, p)
            assert localize_endemic(cfg).validity
            assert (existence_margin(cfg) > 0) == (beta[-1] > r + mu)


class TestPerturbationNorms:
    def test_zero_waning_difference_vanishes(self):
        cfg = build_general(2, (1.0, 2.0, 3.0), 0.0, 0.5, 1.0, 2.0, (0.0, 0.5, 0.5))
        diag = perturbation_norms(cfg, 0.3)
        assert diag.diff_norm == 0.0
        assert diag.diff_bound == 0.0

    def test_difference_norm_below_schur_bound_power_iteration_oracle(self):
        rng = np.random.default_rng(16)
        from oracles import _no_waning_matrix

        for _ in range(30):
            cfg = random_config(rng, n_range=(1, 8), rate_low=0.05, rate_high=20)
            prevalence = float(rng.uniform(0, 1))
            diff = susceptible_block_matrix(cfg, prevalence) - _no_waning_matrix(cfg, prevalence)
            # power iteration on diff^T diff
            v = rng.normal(size=cfg.n + 1)
            v /= np.linalg.norm(v)
            for _ in range(500):
                v = diff.T @ (diff @ v)
                norm = np.linalg.norm(v)
                if norm == 0:
                    break
                v /= norm
            oracle = math.sqrt(norm) if norm else 0.0
            assert oracle <= 2.0 * cfg.delta * (1 + 1e-10)
            diag = perturbation_norms(cfg, prevalence)
            assert diag.diff_norm == pytest.approx(oracle, rel=1e-6, abs=1e-12)

    def test_explicit_inverse_is_correct_and_bounded(self):
        rng = np.random.default_rng(17)
        from oracles import _no_waning_inverse, _no_waning_matrix

        for _ in range(30):
            cfg = random_config(rng, n_range=(1, 8), rate_low=0.05, rate_high=20)
            prevalence = float(rng.uniform(0, 1))
            a0 = _no_waning_matrix(cfg, prevalence)
            inv = _no_waning_inverse(cfg, prevalence)
            np.testing.assert_allclose(a0 @ inv, np.eye(cfg.n + 1), atol=1e-12)
            diag = perturbation_norms(cfg, prevalence)
            assert diag.inverse_norm <= diag.inverse_bound * (1 + 1e-12)
