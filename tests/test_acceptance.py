"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Random draws are seeded; each criterion states its tolerance inline.
"""

from __future__ import annotations

import math
import time

import numpy as np

from waningsim.data import pertussis_config
from waningsim.dfe import (
    basic_reproduction_number,
    solve_dfe_closed_form,
    susceptible_block_matrix,
)
from waningsim.dynamics import integrate
from waningsim.endemic import (
    NoEndemicEquilibriumError,
    contraction_precondition_holds,
    existence_margin,
    localize_endemic,
    refine_endemic,
)
from waningsim.model import build_all_but_last, build_general, build_last_only, epidemic_start
from waningsim.reports import analyze_config
from waningsim.scanfit import (
    FitOptions,
    SweepSpec,
    TimeSeries,
    fit,
    simulate_annual_prevalence,
    substitute_parameter,
)
from waningsim.stability import dfe_spectrum, endemic_spectrum

from conftest import random_config
from oracles import (
    column_discs,
    convergence_rate,
    equilibrium_transmission,
    equilibrium_transmission_no_waning,
    find_bifurcation,
    infection_free_solution,
    solve_dfe_numeric,
    transmission_gap_bound,
)


def conclude(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def draw_certified_supercritical(rng, count):
    """Small-waning configs with a certified unique endemic equilibrium."""
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 5))
        mu = float(rng.uniform(0.1, 0.8))
        r = float(rng.uniform(0.2, 4.0))
        beta = np.sort(rng.uniform(0.3, 15.0, n + 1))
        beta[-1] = max(beta[-1], 1.3 * (r + mu) + 0.5)
        beta = np.sort(beta)
        p = rng.uniform(0, 1, n + 1)
        p[0] = 0.0
        delta_cap = min(1e-2, 0.2 * mu / math.sqrt(n + 1))
        delta = float(np.exp(rng.uniform(np.log(2e-5), np.log(delta_cap))))
        cfg = build_general(n, beta, delta, mu, r, float(rng.uniform(0, 4)), p)
        if existence_margin(cfg) <= 0 or not contraction_precondition_holds(cfg):
            continue
        if basic_reproduction_number(cfg).r0 <= 1.0:
            continue
        out.append(cfg)
    return out


def draw_certified_subcritical(rng, count):
    """Small-waning configs whose DFE is clearly stable (R0 <= 0.9)."""
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 5))
        mu = float(rng.uniform(0.2, 1.0))
        r = float(rng.uniform(0.5, 4.0))
        beta = np.sort(rng.uniform(0.05, 2.5 * (r + mu), n + 1))
        p = rng.uniform(0, 1, n + 1)
        p[0] = 0.0
        p[n] = float(rng.uniform(0.3, 1.0))
        delta_cap = min(1e-2, 0.2 * mu / math.sqrt(n + 1))
        delta = float(np.exp(rng.uniform(np.log(2e-5), np.log(delta_cap))))
        cfg = build_general(n, beta, delta, mu, r, float(rng.uniform(0.5, 6)), p)
        if existence_margin(cfg) >= 0 or not contraction_precondition_holds(cfg):
            continue
        if basic_reproduction_number(cfg).r0 > 0.9:
            continue
        out.append(cfg)
    return out


def test_criterion_1_closed_form_vs_numeric_dfe():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        cfg = random_config(rng)  # n in 1..12, rates log-uniform in [1e-3, 50]
        gap = float(np.max(np.abs(solve_dfe_closed_form(cfg).s - solve_dfe_numeric(cfg).s)))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    conclude(1, ok, f"max componentwise gap {worst:.3e} (tol 1e-10) over 500 configs in {elapsed:.2f}s")


def test_criterion_2_r0_theorems():
    rng = np.random.default_rng(1002)
    failures = []

    # (b) invariance of the uncovered-last-tier scheme under omega and interior coverage
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        beta = np.sort(np.exp(rng.uniform(np.log(1e-2), np.log(30), n + 1)))
        mu, r = float(rng.uniform(0.05, 2)), float(rng.uniform(0.1, 10))
        interior = rng.uniform(0, 1, max(n - 1, 0))
        omega = float(rng.uniform(0, 40))
        cfg = build_all_but_last(n, beta, float(rng.uniform(0, 3)), mu, r, omega, interior)
        expected = beta[-1] / (r + mu)
        rel = abs(basic_reproduction_number(cfg).r0 - expected) / expected
        worst_rel = max(worst_rel, rel)
    if worst_rel > 1e-15:
        failures.append(f"(b) invariance off by {worst_rel:.2e}")

    # (c) strict monotone decrease in the last-tier return rate
    violations = 0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        beta = np.sort(rng.uniform(0.05, 20, n + 1))
        if beta[0] >= beta[-1]:
            beta[-1] = beta[0] * 2 + 1
        cfg = build_last_only(n, beta, float(rng.uniform(0, 3)), float(rng.uniform(0.05, 2)),
                              float(rng.uniform(0.1, 10)), 1.0, 1.0)
        grid = np.linspace(0.0, 40.0, 50)
        values = [basic_reproduction_number(substitute_parameter(cfg, "omega_n", max(w, 1e-12))).r0
                  for w in grid]
        violations += int(np.any(np.diff(values) >= 0))
    if violations:
        failures.append(f"(c) {violations} monotonicity violations")

    # (d) zero-waning limit formula at delta = 1e-6
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        beta = np.sort(rng.uniform(0.0, 20, n + 1))
        mu, r = float(rng.uniform(0.5, 5)), float(rng.uniform(0.5, 5))
        omega_n = float(rng.uniform(0, 10))
        cfg = build_last_only(n, beta, 1e-6, mu, r, max(omega_n, 1e-12), 1.0)
        limit = (omega_n * beta[0] + mu * beta[-1]) / ((omega_n + mu) * (r + mu))
        worst_gap = max(worst_gap, abs(basic_reproduction_number(cfg).r0 - limit))
    if worst_gap > 1e-4:
        failures.append(f"(d) limit gap {worst_gap:.2e}")

    conclude(2, not failures,
             failures[0] if failures else
             f"(b) rel {worst_rel:.1e} <= 1e-15, (c) 0 violations, (d) gap {worst_gap:.1e} < 1e-4")


def test_criterion_3_perturbation_bound():
    rng = np.random.default_rng(1003)
    checked = 0
    violations = 0
    for delta in (1e-4, 1e-3, 1e-2):
        for _ in range(25):
            cfg = random_config(rng, n_range=(1, 8), rate_low=0.2, rate_high=20).replace(delta=delta)
            assert contraction_precondition_holds(cfg)
            for x in (0.0, 0.01, 0.1, 0.3, 0.7, 1.0):
                gap = abs(equilibrium_transmission(cfg, x) - equilibrium_transmission_no_waning(cfg, x))
                if gap > transmission_gap_bound(cfg, x):
                    violations += 1
                checked += 1
    conclude(3, violations == 0, f"{violations} bound violations over {checked} (config, prevalence) points")


def test_criterion_4_endemic_oracle_dichotomy():
    rng = np.random.default_rng(1004)
    failures = []

    for cfg in draw_certified_supercritical(rng, 50):
        sol = refine_endemic(cfg)
        traj = integrate(cfg, epidemic_start(cfg), 2000.0, stop_at_equilibrium=True)
        gap = abs(sol.i_star - traj.final_prevalence)
        if gap >= 1e-7:
            failures.append(f"supercritical gap {gap:.2e} vs tol 1e-7")

    for cfg in draw_certified_subcritical(rng, 50):
        loc = localize_endemic(cfg)
        if loc.exists != "none":
            failures.append(f"subcritical config localized {loc.exists}")
            continue
        traj = integrate(cfg, epidemic_start(cfg), 2000.0, stop_at_equilibrium=True)
        if traj.final_prevalence >= 1e-10:
            failures.append(f"subcritical terminal prevalence {traj.final_prevalence:.2e}")

    conclude(4, not failures,
             failures[0] if failures else
             "50 supercritical refinements match 2000-year terminals; 50 subcritical runs die out")


def test_criterion_5_sir_limit_exactness():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(20):
        r = float(rng.uniform(0.1, 5.0))
        mu = float(rng.uniform(0.05, 2.0))
        beta = float(rng.uniform(r + mu + 0.2, 4 * (r + mu)))
        n = int(rng.integers(1, 3))
        cfg = build_general(n, np.full(n + 1, beta), 0.0, mu, r, 0.0, np.zeros(n + 1))
        sol = refine_endemic(cfg)
        worst = max(worst, abs(sol.i_star - (beta - r - mu) / beta))
    conclude(5, worst < 1e-12, f"max |I* - (beta-r-mu)/beta| = {worst:.2e} (tol 1e-12) over 20 triples")


def greedy_pair_distance(computed, predicted) -> float:
    remaining = list(predicted)
    worst = 0.0
    for z in computed:
        gaps = [abs(z - w) for w in remaining]
        j = int(np.argmin(gaps))
        worst = max(worst, gaps[j])
        remaining.pop(j)
    return worst


def test_criterion_6_stability_certificates():
    rng = np.random.default_rng(1006)
    failures = []

    # factorization of the DFE Jacobian spectrum
    worst_pairing = 0.0
    configs = [pertussis_config()] + [
        random_config(rng, n_range=(1, 5), rate_low=0.05, rate_high=5.0) for _ in range(60)
    ]
    for cfg in configs:
        dfe = solve_dfe_closed_form(cfg)
        predicted = np.concatenate([
            np.linalg.eigvals(susceptible_block_matrix(cfg)),
            [complex(float(cfg.beta @ dfe.s) - cfg.r - cfg.mu)],
        ])
        worst_pairing = max(worst_pairing, greedy_pair_distance(dfe_spectrum(cfg, dfe).eigenvalues, predicted))
    if worst_pairing >= 1e-9:
        failures.append(f"factorization pairing error {worst_pairing:.2e}")

    # Gersgorin membership over the full random corpus
    for _ in range(200):
        cfg = random_config(rng)
        a = susceptible_block_matrix(cfg)
        centers, radii = column_discs(a)
        certified = np.all(centers + radii <= -cfg.mu + 1e-12 * (1.0 + cfg.mu + radii.max()))
        eigs = np.linalg.eigvals(a)
        if not certified or np.max(eigs.real) > -cfg.mu + 1e-10:
            failures.append(f"Gersgorin violation: max Re {np.max(eigs.real):.2e} vs -mu {-cfg.mu:.2e}")
            break

    # certified endemic equilibria are linearly stable
    for cfg in draw_certified_supercritical(rng, 40):
        sol = refine_endemic(cfg)
        verdict = endemic_spectrum(cfg, sol)
        if verdict.max_real_part >= 0:
            failures.append(f"unstable certified endemic: max Re {verdict.max_real_part:.2e}")
            break

    # the analyze-level consistency check never fires across the corpus
    corpus = (
        [pertussis_config(), pertussis_config().replace(delta=0.25)]
        + draw_certified_supercritical(rng, 20)
        + draw_certified_subcritical(rng, 20)
        + [random_config(rng, n_range=(1, 5), rate_low=0.05, rate_high=20) for _ in range(20)]
    )
    for cfg in corpus:
        report = analyze_config(cfg)
        if report["consistency"]["checked"] and not report["consistency"]["consistent"]:
            failures.append(f"consistency violation: {report['consistency']['note']}")
            break

    conclude(6, not failures,
             failures[0] if failures else
             f"pairing {worst_pairing:.1e} < 1e-9; Gersgorin x200; certified endemics stable; zero exit-4 events")


def test_criterion_7_infection_free_dynamics():
    failures = []
    cases = [
        build_general(2, (0.0, 1.0, 2.0), 0.1, 0.02, 1.0, 0.0, np.zeros(3)),
        build_general(5, np.linspace(0, 4, 6), 1.3, 0.4, 2.0, 0.0, np.zeros(6)),
    ]
    rng = np.random.default_rng(1007)
    for cfg in cases:
        closed = infection_free_solution(cfg)
        s0 = rng.uniform(0.05, 1.0, cfg.n + 1)
        s0 /= s0.sum()
        horizon = 40.0 / cfg.mu
        grid = np.linspace(horizon / 100.0, horizon, 100)
        traj = integrate(cfg, np.concatenate([s0, [0.0]]), horizon, t_eval=grid)
        worst = max(
            float(np.linalg.norm(state[:-1] - closed.evaluate(s0, t)))
            for t, state in zip(grid, traj.sample(grid))
        )
        if worst >= 1e-9:
            failures.append(f"trajectory error {worst:.2e} (mu={cfg.mu})")
        target = np.concatenate([np.eye(cfg.n + 1)[cfg.n], [0.0]])
        fitted = convergence_rate(traj, target)
        if fitted.kappa < 0.95 * cfg.mu:
            failures.append(f"decay rate {fitted.kappa:.4f} below 0.95*mu={0.95 * cfg.mu:.4f}")
    conclude(7, not failures,
             failures[0] if failures else
             "closed form within 1e-9 on 100-point grids; fitted decay >= 0.95*mu")


def test_criterion_8_reconstructed_pertussis_structure():
    failures = []
    base = pertussis_config()  # reconstructed values; qualitative structure only

    # a transmission threshold for the most-immune tier separates outcomes
    beta0_spec = SweepSpec(base, "beta0", np.linspace(0.0, 15.0, 16), "r0")
    beta0_star = find_bifurcation(beta0_spec, "r0")
    if not 0.0 < beta0_star < 15.0:
        failures.append(f"no interior beta0 threshold: {beta0_star}")
    low = substitute_parameter(base, "beta0", max(beta0_star - 2.0, 0.0))
    high = substitute_parameter(base, "beta0", beta0_star + 2.0)
    t_low = integrate(low, epidemic_start(low), 500.0, stop_at_equilibrium=True).final_prevalence
    t_high = integrate(high, epidemic_start(high), 500.0, stop_at_equilibrium=True).final_prevalence
    if not (t_low < 1e-10 <= 1e-8 < t_high):
        failures.append(f"outcomes do not flip across beta0*: {t_low:.2e} vs {t_high:.2e}")

    # a vaccination-rate threshold exists for the beta0=9 variant
    at9 = substitute_parameter(base, "beta0", 9.0)
    omega_spec = SweepSpec(at9, "omega", np.linspace(5.0, 30.0, 26), "r0")
    omega_star = find_bifurcation(omega_spec, "r0")
    if not 5.0 < omega_star < 30.0:
        failures.append(f"no interior omega threshold: {omega_star}")

    # waning transcritical point: R0 crossing agrees with the endemic flip
    delta_grid = np.linspace(0.002, 0.4, 21)
    delta_spec = SweepSpec(at9, "delta", delta_grid, "r0")
    delta_star = find_bifurcation(delta_spec, "r0")
    if not delta_grid[0] < delta_star < delta_grid[-1]:
        failures.append(f"no interior delta transcritical point: {delta_star}")

    def endemic_found(delta: float) -> bool:
        try:
            refine_endemic(substitute_parameter(at9, "delta", delta))
            return True
        except NoEndemicEquilibriumError:
            return False

    flags = [endemic_found(d) for d in delta_grid]
    flips = [j for j in range(len(flags) - 1) if flags[j] != flags[j + 1]]
    if len(flips) != 1:
        failures.append(f"endemic existence flips {len(flips)} times across the waning grid")
    else:
        lo, hi = delta_grid[flips[0]], delta_grid[flips[0] + 1]
        step = delta_grid[1] - delta_grid[0]
        if not (lo - step <= delta_star <= hi + step):
            failures.append(
                f"R0 crossing {delta_star:.4f} disagrees with existence flip in [{lo:.4f}, {hi:.4f}]"
            )

    detail = (
        failures[0]
        if failures
        else f"thresholds exist: beta0*={beta0_star:.2f}, omega*={omega_star:.1f}, "
        f"delta*={delta_star:.3f}; R0 crossing matches the endemic flip"
    )
    conclude(8, not failures, detail)


def test_criterion_9_fit_round_trip():
    truth = build_general(2, (1.2, 2.0, 3.6), 0.08, 0.25, 1.1, 1.5, (0.0, 0.1, 0.5))
    years = np.arange(2000, 2025)
    start = int(years[0]) - 1
    clean_values = simulate_annual_prevalence(truth, years, start, 1e-4, rtol=1e-11, atol=1e-13)
    clean = TimeSeries(years=years, prevalence=clean_values)
    failures = []

    t0 = time.perf_counter()
    template = truth.replace(delta=0.05, omega=2.5)
    options = FitOptions(initial_prevalence=1e-4, rtol=1e-11, atol=1e-13)
    result = fit(template, ["beta_scale", "delta", "omega"], clean, options)
    zero_noise_seconds = time.perf_counter() - t0
    expected = {"beta_scale": 1.0, "delta": truth.delta, "omega": truth.omega}
    for name, value in expected.items():
        rel = abs(result.parameters[name] - value) / max(abs(value), 1e-3)
        if rel > 1e-4:
            failures.append(f"{name} off by {rel:.2e} relative")
    if zero_noise_seconds >= 60.0:
        failures.append(f"zero-noise fit took {zero_noise_seconds:.1f}s")

    rng = np.random.default_rng(1009)
    noisy_values = np.clip(clean_values * (1.0 + 0.05 * rng.standard_normal(years.size)), 0, 1)
    noisy = TimeSeries(years=years, prevalence=noisy_values)
    noise_floor = float(np.sum((noisy_values - clean_values) ** 2))
    t0 = time.perf_counter()
    noisy_template = truth.replace(delta=0.05)  # offset only the freed parameters
    noisy_result = fit(noisy_template, ["beta_scale", "delta"], noisy, FitOptions(initial_prevalence=1e-4))
    noisy_seconds = time.perf_counter() - t0
    if noisy_result.sse > 2.0 * noise_floor:
        failures.append(f"noisy sse {noisy_result.sse:.3e} above 2x floor {noise_floor:.3e}")
    if noisy_seconds >= 60.0:
        failures.append(f"noisy fit took {noisy_seconds:.1f}s")

    conclude(9, not failures,
             failures[0] if failures else
             f"3-parameter recovery at 1e-4; noisy sse {noisy_result.sse:.2e} <= 2x floor; "
             f"fits in {zero_noise_seconds:.1f}s / {noisy_seconds:.1f}s")
