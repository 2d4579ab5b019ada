"""Integrator behaviour, the infection-free closed form, and rate fitting."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

from waningsim import stepper
from waningsim._stepper_py import _A, _ERR
from waningsim.dynamics import IntegrationError, integrate
from waningsim.endemic import refine_endemic
from waningsim.model import StateVector, build_general, build_last_only, config_digest, epidemic_start, vector_field
from waningsim.stability import endemic_spectrum

from oracles import convergence_rate, infection_free_solution


@pytest.fixture
def waning_chain():
    # no coverage anywhere: the infection-free closed form applies
    return build_general(3, (0.0, 0.5, 1.0, 2.0), 0.1, 0.02, 1.0, 0.0, np.zeros(4))


ENDEMIC_CFG = build_general(2, (1.5, 2.0, 4.0), 0.05, 0.3, 1.2, 2.0, (0.0, 0.1, 0.5))


class TestIntegrate:
    def test_zero_infection_matches_closed_form(self, waning_chain):
        rng = np.random.default_rng(51)
        s0 = rng.uniform(0.1, 1.0, 4)
        s0 /= s0.sum()
        y0 = np.concatenate([s0, [0.0]])
        grid = np.linspace(1.0, 80.0, 40)
        traj = integrate(waning_chain, y0, 80.0, t_eval=grid)
        closed = infection_free_solution(waning_chain)
        for t, state in zip(grid, traj.sample(grid)):
            assert np.max(np.abs(state[:-1] - closed.evaluate(s0, t))) < 1e-8
            assert state[-1] == 0.0

    def test_dfe_initial_state_is_stationary(self):
        cfg = build_general(2, (0.0, 1.0, 2.0), 0.3, 0.05, 2.0, 8.0, (0.0, 0.4, 0.0))
        y0 = np.array([0.0, 0.0, 1.0, 0.0])
        traj = integrate(cfg, y0, 50.0, t_eval=np.linspace(1, 50, 10))
        assert np.max(np.abs(traj.states - y0)) < 1e-12

    def test_terminal_prevalence_matches_refined_equilibrium(self):
        sol = refine_endemic(ENDEMIC_CFG)
        traj = integrate(
            ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 2000.0, stop_at_equilibrium=True
        )
        assert traj.terminal_status == "converged_endemic"
        assert abs(traj.final_prevalence - sol.i_star) < 1e-7

    def test_conservation_and_positivity_along_trajectory(self):
        traj = integrate(ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 300.0)
        assert traj.conservation_drift() < 1e-9
        assert np.min(traj.states) >= 0.0  # roundoff negatives are clamped

    def test_sample_times_hit_exactly(self):
        grid = np.array([0.3, 1.7, 2.0, 11.25])
        traj = integrate(ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 20.0, t_eval=grid)
        for t in grid:
            assert t in traj.times
        assert traj.times[-1] == 20.0
        with pytest.raises(KeyError):
            traj.sample([0.31])

    def test_sample_takes_exact_hits_only_in_any_time_unit(self, pertussis):
        # the grid's spacing, 2.5e-9, is below an absolute tolerance of 1e-9:
        # a time between two stored times is not on the grid
        grid = np.linspace(0.0, 1e-8, 5)[1:]
        traj = integrate(pertussis, epidemic_start(pertussis), 1e-8, t_eval=grid)
        with pytest.raises(KeyError):
            traj.at_times([4.7e-9])
        with pytest.raises(KeyError):
            traj.sample([5e-9 + 1e-24])
        with pytest.raises(KeyError):
            traj.sample([math.nan])
        np.testing.assert_array_equal(traj.at_times(grid).times, grid)

    def test_sample_time_within_allowance_is_the_horizon(self):
        traj = integrate(ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 20.0, t_eval=[5.0, 20.0])
        late = traj.at_times([5.0, 20.0 + 5e-13])
        np.testing.assert_array_equal(late.times, [5.0, 20.0])
        np.testing.assert_array_equal(late.states, traj.sample([5.0, 20.0]))
        with pytest.raises(KeyError):
            traj.sample([20.0 + 2e-12])
        # a restriction that ends before the horizon folds nothing into its last time
        with pytest.raises(KeyError):
            traj.at_times([5.0]).sample([5.0 + 5e-13])
        np.testing.assert_array_equal(late.at_times([20.0 + 5e-13]).times, [20.0])

    def test_sample_time_within_allowance_folds_into_t_end(self):
        traj = integrate(ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 20.0, t_eval=[5.0, 20.0 + 5e-13])
        assert traj.times[-1] == 20.0
        assert traj.times[-2] < 20.0
        with pytest.raises(ValueError, match="t_eval"):
            integrate(ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 20.0, t_eval=[20.0 + 1e-9])

    def test_tableau_linear_order_conditions(self):
        # b . A^(k-1) . 1 = 1/k! for k up to the order: what a linear system
        # such as the waning chain sees of a Runge-Kutta method
        a = np.zeros((7, 7))
        for row, coefficients in enumerate(_A, start=1):
            a[row, : len(coefficients)] = coefficients
        b = a[6]  # FSAL: the last stage row is the propagated weights
        b_hat = b - _ERR  # the error estimate is the fifth- minus the fourth-order solution
        for weights, order in ((b, 5), (b_hat, 4)):
            terms = [weights @ np.linalg.matrix_power(a, k - 1) @ np.ones(7) for k in range(1, order + 2)]
            expected = [1.0 / math.factorial(k) for k in range(1, order + 2)]
            np.testing.assert_allclose(terms[:order], expected[:order], rtol=1e-14)
            assert abs(terms[order] - expected[order]) > 1e-6 * expected[order]  # and no higher

    def test_first_step_is_one_dormand_prince_step(self):
        y0 = epidemic_start(ENDEMIC_CFG).as_array()
        traj = integrate(ENDEMIC_CFG, y0, 10.0)
        h = traj.times[1]
        k = [vector_field(ENDEMIC_CFG, y0)]
        for coefficients in _A:
            k.append(vector_field(ENDEMIC_CFG, y0 + h * sum(c * kj for c, kj in zip(coefficients, k))))
        np.testing.assert_allclose(traj.states[1], y0 + h * sum(c * kj for c, kj in zip(_A[-1], k)),
                                   rtol=0, atol=1e-14)

    def test_stiff_budget_exhaustion_reports_time(self):
        # near its endemic point this config has a contraction rate ~1e6/yr;
        # its run reaches 1000 y in about 430 attempted steps, most of them
        # explicit steps before the switch to the implicit step, so a budget
        # of 200 runs out on the way
        stiff = build_general(1, (1e6, 1e6), 0.0, 1.0, 1.0, 0.0, (0.0, 0.0))
        with pytest.raises(IntegrationError, match="step budget exhausted") as exc_info:
            integrate(stiff, epidemic_start(stiff), 1000.0, max_steps=200)
        assert 0.0 <= exc_info.value.t_reached < 1000.0

    def test_stiff_run_finishes_on_the_implicit_step(self):
        # the same config under the default budget: explicit steps capped at
        # ~1e-6 years would need about 1e9 of them; the stiffness test hands
        # the run to the Rosenbrock step, which reaches the horizon
        stiff = build_general(1, (1e6, 1e6), 0.0, 1.0, 1.0, 0.0, (0.0, 0.0))
        traj = integrate(stiff, epidemic_start(stiff), 1000.0)
        assert traj.times[-1] == 1000.0
        assert traj.n_implicit > 0 and traj.n_accepted + traj.n_rejected < 1000
        assert traj.final_prevalence == pytest.approx(refine_endemic(stiff).i_star, rel=0.0, abs=1e-9)

    def test_deep_trough_negativity_is_retried_not_fatal(self, monkeypatch, pertussis):
        # at loose tolerances the subcritical pertussis run's decaying
        # prevalence dips past -1e-12 on steps the error controller accepts;
        # those steps must be rejected and retried smaller rather than
        # aborting the run.  With the retry switched off (an infinite
        # threshold) the run differs, so the retries actually happened.
        python_kernel = stepper.kernels()["python"]
        monkeypatch.setattr(stepper, "integrate_core", python_kernel.integrate_core)

        def run():
            return integrate(pertussis, epidemic_start(pertussis), 2000.0, rtol=1e-8, atol=1e-8,
                             stop_at_equilibrium=True)

        traj = run()
        monkeypatch.setattr(python_kernel, "NEG_CLAMP", math.inf)
        unguarded = run()
        assert traj.n_rejected > unguarded.n_rejected
        assert np.min(traj.states) >= 0.0
        assert traj.terminal_status == "converged_dfe" and traj.final_prevalence < 1e-10

    def test_rejects_off_simplex_start(self):
        with pytest.raises(ValueError):
            integrate(ENDEMIC_CFG, np.array([0.5, 0.1, 0.1, 0.1]), 10.0)
        with pytest.raises(ValueError, match="length"):
            integrate(ENDEMIC_CFG, np.array([0.5, 0.5]), 10.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"t_end": float("nan")},
            {"t_end": float("inf")},
            {"t_end": 0.0},
            {"rtol": float("nan")},
            {"atol": float("inf")},
            {"rtol": -1e-10},
            {"atol": -1e-12},
            {"rtol": 0.0, "atol": 0.0},
            {"max_steps": 0},
            {"t_end": -1.0},
            {"t_eval": [-1.0, 5.0]},
            {"t_eval": [5.0, 11.0]},
            {"t_eval": [float("nan"), 5.0]},
        ],
    )
    def test_rejects_bad_arguments(self, bad):
        kwargs = {"t_end": 10.0, **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            integrate(ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), **kwargs)

    def test_tolerance_tightening_reduces_error(self, waning_chain):
        rng = np.random.default_rng(53)
        s0 = rng.uniform(0.1, 1.0, 4)
        s0 /= s0.sum()
        y0 = np.concatenate([s0, [0.0]])
        closed = infection_free_solution(waning_chain)
        ref = closed.evaluate(s0, 40.0)
        errs = []
        for rtol in (1e-6, 1e-10):
            traj = integrate(waning_chain, y0, 40.0, rtol=rtol, atol=rtol * 1e-2)
            errs.append(np.max(np.abs(traj.final_state[:-1] - ref)))
        assert errs[1] < errs[0]

    def test_csv_round_trip(self):
        traj = integrate(ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 5.0, t_eval=[1.0, 5.0])
        text = traj.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "t,S_0,S_1,S_2,I"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed[:, 0], traj.times)
        np.testing.assert_array_equal(parsed[:, 1:], traj.states)

    @pytest.mark.parametrize("formatter", ["compiled", "python"])
    def test_csv_bytes_are_those_of_repr(self, formatter, monkeypatch):
        if formatter == "python":
            monkeypatch.setattr(stepper, "format_floats", None)
        elif stepper.format_floats is None:
            pytest.skip("compiled library not built")
        traj = integrate(ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 50.0, t_eval=np.linspace(0.5, 50.0, 100))
        rows = "".join(repr(float(t)) + "," + ",".join(repr(float(v)) for v in row) + "\n"
                       for t, row in zip(traj.times, traj.states))
        assert traj.to_csv() == "t,S_0,S_1,S_2,I\n" + rows

    def test_json_dict_carries_config_digest_and_exact_floats(self):
        traj = integrate(ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 5.0, t_eval=[1.0, 5.0])
        doc = traj.to_json_dict()
        assert doc["config_hash"] == config_digest(ENDEMIC_CFG)
        assert doc["times"].dtype == np.float64 and doc["states"].dtype == np.float64
        np.testing.assert_array_equal(doc["times"], traj.times)
        np.testing.assert_array_equal(doc["states"], traj.states)


class TestInfectionFreeSolution:
    def test_projector_is_idempotent_all_ones_bottom_row(self, waning_chain):
        closed = infection_free_solution(waning_chain)
        p = closed.projector
        assert np.array_equal(p[-1], np.ones(4))
        assert np.array_equal(p[:-1], np.zeros((3, 4)))
        assert np.max(np.abs(p @ p - p)) < 1e-13

    def test_generator_spectrum(self, waning_chain):
        closed = infection_free_solution(waning_chain)
        eigs = np.linalg.eigvals(closed.generator())
        assert set(np.round(eigs, 12)) == {
            round(-(waning_chain.delta + waning_chain.mu), 12),
            round(-waning_chain.mu, 12),
        }

    def test_propagator_against_scaling_and_squaring(self, waning_chain):
        closed = infection_free_solution(waning_chain)
        gen = closed.generator()
        for t in (0.0, 0.3, 2.0, 25.0):
            oracle = scipy.linalg.expm(gen * t)
            np.testing.assert_allclose(closed.propagator(t), oracle, rtol=1e-12, atol=1e-14)

    def test_long_time_limit_is_pure_susceptible_state(self, waning_chain):
        closed = infection_free_solution(waning_chain)
        rng = np.random.default_rng(54)
        s0 = rng.uniform(0, 1, 4)
        s0 /= s0.sum()
        t_late = 40.0 / waning_chain.mu
        assert np.linalg.norm(closed.evaluate(s0, t_late) - np.eye(4)[3]) < 1e-8

    def test_zero_waning_decouples(self):
        cfg = build_general(2, (0.0, 1.0, 2.0), 0.0, 0.4, 1.0, 0.0, np.zeros(3))
        closed = infection_free_solution(cfg)
        s0 = np.array([0.3, 0.2, 0.5])
        for t in (0.5, 3.0, 10.0):
            expected = np.array(
                [
                    0.3 * np.exp(-0.4 * t),
                    0.2 * np.exp(-0.4 * t),
                    1.0 - (0.3 + 0.2) * np.exp(-0.4 * t),
                ]
            )
            np.testing.assert_allclose(closed.evaluate(s0, t), expected, rtol=1e-13)

    def test_matches_integrator(self, waning_chain):
        rng = np.random.default_rng(55)
        s0 = rng.uniform(0.1, 1, 4)
        s0 /= s0.sum()
        closed = infection_free_solution(waning_chain)
        grid = np.linspace(0.5, 60, 24)
        traj = integrate(waning_chain, np.concatenate([s0, [0.0]]), 60.0, t_eval=grid)
        for t, state in zip(grid, traj.sample(grid)):
            assert np.linalg.norm(state[:-1] - closed.evaluate(s0, t)) < 1e-9

    def test_vaccination_scheme_rejected(self):
        cfg = build_last_only(2, (0.0, 1.0, 2.0), 0.1, 0.05, 1.0, 5.0, 0.5)
        with pytest.raises(ValueError, match="coverage"):
            infection_free_solution(cfg)


class TestConvergenceRate:
    def test_infection_free_rate_window(self):
        cfg = build_general(2, (0.0, 1.0, 2.0), 0.1, 0.02, 1.0, 0.0, np.zeros(3))
        y0 = np.array([0.6, 0.3, 0.1, 0.0])
        traj = integrate(cfg, y0, 40.0 / cfg.mu, t_eval=np.linspace(1, 40 / cfg.mu, 400))
        target = np.array([0.0, 0.0, 1.0, 0.0])
        fit = convergence_rate(traj, target)
        assert not fit.envelope
        assert 0.95 * cfg.mu <= fit.kappa <= cfg.mu + cfg.delta + 1e-6

    def test_decoupled_case_rate_is_exactly_mu(self):
        cfg = build_general(1, (0.0, 1.0), 0.0, 0.05, 1.0, 0.0, (0.0, 0.0))
        y0 = np.array([0.4, 0.6, 0.0])
        traj = integrate(cfg, y0, 400.0, t_eval=np.linspace(1, 400, 200))
        fit = convergence_rate(traj, np.array([0.0, 1.0, 0.0]))
        assert fit.kappa == pytest.approx(cfg.mu, rel=1e-6)

    def test_oscillatory_endemic_approach_uses_envelope(self):
        # classic SIR shape: the recovered tier is fully protected, giving the
        # familiar damped interepidemic oscillations; R0 < 2 keeps the
        # oscillatory pair dominant over the unexcited conservation mode
        cfg = build_general(1, (0.0, 18.0), 0.0, 0.05, 10.0, 0.0, (0.0, 0.0))
        sol = refine_endemic(cfg)
        verdict = endemic_spectrum(cfg, sol)
        assert np.max(np.abs(verdict.eigenvalues.imag)) > 0.1  # genuinely oscillatory
        target = np.concatenate([sol.s_star, [sol.i_star]])
        traj = integrate(cfg, epidemic_start(cfg, 1e-3), 600.0, t_eval=np.linspace(1, 600, 3000))
        fit = convergence_rate(traj, target)
        assert fit.envelope
        sigma = abs(verdict.max_real_part)
        assert abs(fit.kappa - sigma) < 0.2 * sigma

    def test_tail_too_short(self):
        cfg = build_general(1, (0.0, 1.0), 0.0, 0.05, 1.0, 0.0, (0.0, 0.0))
        y0 = np.array([0.0, 1.0, 0.0])  # already at the equilibrium
        traj = integrate(cfg, y0, 5.0)
        with pytest.raises(ValueError, match="tail"):
            convergence_rate(traj, np.array([0.0, 1.0, 0.0]))


class TestDetectEquilibrium:
    """The kernels' equilibrium stop rule, seen through ``terminal_status``."""

    def test_dfe_start_converges_immediately(self):
        cfg = build_general(2, (0.0, 1.0, 2.0), 0.3, 0.05, 2.0, 8.0, (0.0, 0.4, 0.0))
        y0 = np.array([0.0, 0.0, 1.0, 0.0])
        traj = integrate(cfg, y0, 10.0)
        assert traj.terminal_status == "converged_dfe"
        np.testing.assert_array_equal(traj.final_state, y0)

    def test_supercritical_run_lands_in_localization_interval(self):
        traj = integrate(
            ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 2000.0, stop_at_equilibrium=True
        )
        assert traj.terminal_status == "converged_endemic"
        i_star = refine_endemic(ENDEMIC_CFG).i_star
        assert traj.final_prevalence == pytest.approx(i_star, rel=0.0, abs=1e-7)

    def test_short_run_reports_max_time(self):
        traj = integrate(ENDEMIC_CFG, epidemic_start(ENDEMIC_CFG), 0.5)
        assert traj.terminal_status == "max_time"

    def test_near_zero_waning_run_converges_to_its_endemic_point(self):
        # the retry test's former config: waning 4e-5/yr and 99% last-tier
        # coverage; the explicit steps alone ran the whole 2000 y (1,688
        # accepted, 507 rejected) and ended max_time
        cfg = build_general(1, (2.1137067898803426, 13.832407591446508), 4.131923257730322e-05,
                            0.5988729732430255, 3.336228921140153, 0.7072302365475842, (0.0, 0.9878715818465336))
        traj = integrate(cfg, epidemic_start(cfg), 2000.0, stop_at_equilibrium=True)
        assert traj.terminal_status == "converged_endemic"
        assert np.min(traj.states) >= 0.0
        assert abs(traj.final_prevalence - refine_endemic(cfg).i_star) < 1e-7

    @pytest.mark.parametrize("beta0, scale", [(18.0, 1.0), (19.0, 1.0), (20.0, 1.0), (None, 3.0), (None, 5.0)],
                             ids=["beta0=18", "beta0=19", "beta0=20", "beta*3", "beta*5"])
    def test_stop_rule_fires_past_the_explicit_noise_floor(self, pertussis, beta0, scale):
        # explicit steps at their stability limit keep |f| near 1e-10, so
        # these runs used to go the whole 2000 y (26,792-498,994 steps) and
        # end max_time; the implicit phase's few long steps reach the
        # horizon quiet
        beta = pertussis.beta * scale
        if beta0 is not None:
            beta[0] = beta0
        cfg = pertussis.replace(beta=beta)
        traj = integrate(cfg, epidemic_start(cfg), 2000.0, stop_at_equilibrium=True)
        assert traj.terminal_status == "converged_endemic"
        assert traj.n_implicit > 0 and traj.n_accepted + traj.n_rejected <= 1000
        assert abs(traj.final_prevalence - refine_endemic(cfg).i_star) < 1e-9


class TestStateVectorBridge:
    def test_statevector_input_accepted(self):
        start = StateVector(s=np.array([0.1, 0.2, 0.7 - 1e-6]), i=1e-6)
        traj = integrate(ENDEMIC_CFG, start, 1.0)
        assert traj.times[0] == 0.0
        first = traj.state_at(0)
        np.testing.assert_array_equal(first.as_array(), start.as_array())
