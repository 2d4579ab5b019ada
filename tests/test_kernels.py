"""Parity between the compiled stepper kernel and the pure-NumPy fallback."""

from __future__ import annotations

import ctypes
import functools
import importlib
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from waningsim import _stepper_py, stepper
from waningsim._stepper_py import TINY, _rhs
from waningsim.data import pertussis_config, synthetic_truth_config
from waningsim.dynamics import integrate
from waningsim.model import build_general, epidemic_start, vector_field
from waningsim.scanfit import simulate_annual_prevalence
from waningsim.stability import jacobian

from conftest import random_config, random_simplex_state
from oracles import dop853_states

CFG = build_general(2, (1.5, 2.0, 4.0), 0.05, 0.3, 1.2, 2.0, (0.0, 0.1, 0.5))


def run_kernel(impl, cfg, t_end=50.0, targets=None):
    y0 = epidemic_start(cfg).as_array()
    return impl.integrate_core(
        cfg.beta,
        cfg.omega_i,
        cfg.delta_i,
        cfg.mu,
        cfg.r,
        y0,
        1e-10,
        1e-12,
        np.array([t_end]) if targets is None else targets,
        1_000_000,
        False,
    )


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc is not on PATH")
def test_compiled_source_has_no_warnings():
    source = Path(stepper.__file__).with_name("_stepper.c")
    proc = subprocess.run(["gcc", "-std=c99", "-Wall", "-Wextra", "-Wpedantic", "-Werror", "-fsyntax-only", str(source)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_python_rhs_matches_vector_field():
    rng = np.random.default_rng(61)
    for _ in range(20):
        cfg = random_config(rng, n_range=(1, 8), rate_low=0.01, rate_high=30)
        y = random_simplex_state(rng, cfg.n)
        out = np.empty(cfg.n + 2)
        _rhs(cfg.beta, cfg.omega_i, cfg.delta_i, cfg.mu, cfg.r, y, out)
        np.testing.assert_allclose(out, vector_field(cfg, y), rtol=1e-13, atol=1e-15)


def test_python_kernel_is_deterministic():
    a = run_kernel(stepper.kernels()["python"], CFG)
    b = run_kernel(stepper.kernels()["python"], CFG)
    np.testing.assert_array_equal(a[1], b[1])
    assert a[2:] == b[2:]


@pytest.mark.skipif("c" not in stepper.kernels(), reason="compiled kernel not built")
class TestCompiledKernel:
    def test_terminal_state_parity(self):
        results = {name: run_kernel(impl, CFG, t_end=200.0) for name, impl in stepper.kernels().items()}
        py, c = results["python"], results["c"]
        assert py[2] == c[2]  # status
        np.testing.assert_allclose(py[1][-1], c[1][-1], rtol=1e-7, atol=1e-10)

    def test_first_accepted_step_near_bitwise(self):
        # one step exercises every tableau coefficient and the initial-step
        # rule in both kernels
        py = run_kernel(stepper.kernels()["python"], CFG, t_end=0.25)
        c = run_kernel(stepper.kernels()["c"], CFG, t_end=0.25)
        assert py[0][1] == c[0][1]
        np.testing.assert_allclose(py[1][1], c[1][1], rtol=1e-14, atol=1e-17)

    def test_compiled_kernel_is_deterministic(self):
        a = run_kernel(stepper.kernels()["c"], CFG)
        b = run_kernel(stepper.kernels()["c"], CFG)
        np.testing.assert_array_equal(a[1], b[1])

    def test_equilibrium_early_stop_parity(self):
        y0 = epidemic_start(CFG).as_array()
        out = {}
        for name, impl in stepper.kernels().items():
            out[name] = impl.integrate_core(
                CFG.beta, CFG.omega_i, CFG.delta_i, CFG.mu, CFG.r, y0,
                1e-10, 1e-12, np.array([2000.0]), 5_000_000, True,
            )
        assert out["python"][2] == out["c"][2] == stepper.STATUS_CONVERGED
        np.testing.assert_allclose(
            out["python"][1][-1], out["c"][1][-1], rtol=1e-7, atol=1e-10
        )

    def test_strided_and_integer_arguments_match_float64_copies(self):
        # the C kernel reads raw addresses: the wrapper must pass contiguous
        # float64 copies of whatever arrays it is given
        c = stepper.kernels()["c"]
        y0 = epidemic_start(CFG).as_array()
        beta = np.repeat(CFG.beta, 2)[::2]
        targets = np.array([1, 5, 20])
        assert not beta.flags.c_contiguous and targets.dtype.kind == "i"
        got = c.integrate_core(beta, CFG.omega_i, CFG.delta_i, CFG.mu, CFG.r, y0, 1e-10, 1e-12, targets,
                               1_000_000, False)
        want = c.integrate_core(np.array(CFG.beta), CFG.omega_i, CFG.delta_i, CFG.mu, CFG.r, y0, 1e-10, 1e-12,
                                targets.astype(np.float64), 1_000_000, False)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2:] == want[2:]
        assert got[0][-1] == 20.0

    @pytest.mark.parametrize("targets", [[1, 5], np.array(5.0), 5.0], ids=["list", "0-d-array", "scalar"])
    def test_lists_and_scalars_match_arrays(self, targets):
        # as in the NumPy kernel, a scalar target is a vector of one
        c = stepper.kernels()["c"]
        y0 = epidemic_start(CFG).as_array()
        got = c.integrate_core(CFG.beta.tolist(), CFG.omega_i.tolist(), CFG.delta_i.tolist(), CFG.mu, CFG.r,
                               y0.tolist(), 1e-10, 1e-12, targets, 1_000_000, False)
        want = c.integrate_core(CFG.beta, CFG.omega_i, CFG.delta_i, CFG.mu, CFG.r, y0, 1e-10, 1e-12,
                                np.atleast_1d(np.asarray(targets, dtype=float)), 1_000_000, False)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert got[2:] == want[2:]

    @pytest.mark.parametrize("change, message", [
        ({"beta": CFG.beta[:-1]}, "rate arrays must have length 3"),
        ({"delta_i": np.append(CFG.delta_i, 0.0)}, "rate arrays must have length 3"),
        ({"y0": np.ones((1, 4)) / 4}, "rate arrays must have length 3"),
        ({"y0": np.ones(1)}, "rate arrays must have length 0"),
        ({"targets": np.array([])}, "targets must be a non-empty 1-d array"),
        ({"targets": np.array([[1.0, 5.0]])}, "targets must be a non-empty 1-d array"),
    ], ids=["short-rates", "long-rates", "2-d-state", "one-component-state", "no-targets", "2-d-targets"])
    def test_bad_shapes_are_rejected_before_the_kernel_runs(self, change, message):
        args = dict(beta=CFG.beta, omega_i=CFG.omega_i, delta_i=CFG.delta_i, mu=CFG.mu, r=CFG.r,
                    y0=epidemic_start(CFG).as_array(), rtol=1e-10, atol=1e-12, targets=np.array([5.0]),
                    max_steps=1_000_000, stop_at_equilibrium=False)
        with pytest.raises(ValueError, match=message):
            stepper.kernels()["c"].integrate_core(**{**args, **change})

    def test_active_kernel_reports_compiled(self):
        assert stepper.active_kernel() == "c"

    def test_step_record_grows_past_initial_capacity(self, pertussis):
        # 4096 rows are allocated up front; 5000 sample times are 5000 rows
        # and more, whichever step the run is on
        targets = np.linspace(0.0, 1200.0, 5001)[1:]
        results = {name: run_kernel(impl, pertussis, targets=targets) for name, impl in stepper.kernels().items()}
        py, c = results["python"], results["c"]
        assert c[3] > 4096
        assert c[0].shape == (c[3] + 1,) and c[1].shape == (c[3] + 1, pertussis.n + 2)
        assert py[2] == c[2]
        np.testing.assert_allclose(py[1][-1], c[1][-1], rtol=1e-7, atol=1e-10)


@functools.cache
def subcritical_run(name):
    # the bundled config below R0 = 1: I decays to 0 through the subnormal range
    cfg = pertussis_config().replace(delta=0.17)
    y0 = epidemic_start(cfg, 1e-6).as_array()
    targets = np.linspace(0.0, 600.0, 201)[1:]
    return stepper.kernels()[name].integrate_core(
        cfg.beta, cfg.omega_i, cfg.delta_i, cfg.mu, cfg.r, y0, 1e-10, 1e-12, targets, 1_000_000, False
    )


@pytest.mark.parametrize("name", list(stepper.kernels()))
def test_components_below_the_normal_range_are_set_to_zero(name):
    times, states, *_ = subcritical_run(name)
    assert times[-1] == 600.0
    assert not ((states > 0.0) & (states < TINY)).any()
    assert states[-1, -1] == 0.0
    np.testing.assert_allclose(states[-1], subcritical_run("python")[1][-1], rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("t_end, t_eval", [(10.0, [1e-16, 5.0]), (1e-15, np.linspace(0.0, 1e-15, 201))],
                         ids=["first-sample-1e-16", "horizon-1e-15"])
def test_times_below_the_least_step_are_reached(monkeypatch, pertussis, t_end, t_eval):
    # both lie below 16 ulp(1), the least step the underflow test passes at
    # t = 0; the first step's bounds stop there, and clipping lands the step
    # on its target
    runs = {}
    for name, impl in stepper.kernels().items():
        monkeypatch.setattr(stepper, "integrate_core", impl.integrate_core)
        runs[name] = integrate(pertussis, epidemic_start(pertussis), t_end, t_eval=t_eval)
    for run in runs.values():
        assert run.times[-1] == t_end and run.terminal_status == runs["python"].terminal_status
        np.testing.assert_allclose(run.final_state, runs["python"].final_state, rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("max_steps", [2**63, 2**64 + 1])
def test_step_budget_beyond_int64_is_rejected(monkeypatch, max_steps):
    # the compiled kernel's int64 argument would wrap: 2**63 to a negative
    # budget, 2**64 + 1 to 1
    for name, impl in stepper.kernels().items():
        monkeypatch.setattr(stepper, "integrate_core", impl.integrate_core)
        with pytest.raises(ValueError, match=r"max_steps must be >= 1 and < 2\*\*63"):
            integrate(CFG, epidemic_start(CFG), 5.0, max_steps=max_steps)
        assert integrate(CFG, epidemic_start(CFG), 5.0, max_steps=2**63 - 1).times[-1] == 5.0, name


def test_unusable_compiler_falls_back_to_python(monkeypatch, tmp_path):
    # a compiler that cannot be run, and one that runs and fails
    for cc in (str(tmp_path / "no-such-compiler"), shlex.join([sys.executable, "-c", "raise SystemExit(1)"])):
        try:
            with monkeypatch.context() as patch:
                patch.setenv("CC", cc)
                patch.setenv("XDG_CACHE_HOME", str(tmp_path))
                importlib.reload(stepper)
                assert stepper.active_kernel() == "python", cc
                assert list(stepper.kernels()) == ["python"]
        finally:
            importlib.reload(stepper)


def implicit_solve(name, cfg, y, sigma, b):
    """``(sigma I - J(y)) x = b`` by the named kernel's O(n) solve."""
    if name == "python":
        factors = _stepper_py._implicit_factors(cfg.beta, cfg.omega_i, cfg.delta_i, cfg.mu, cfg.r, y, sigma)
        return _stepper_py._implicit_solve(factors, b, np.empty_like(b))
    solve = stepper._lib.ws_implicit_solve
    address = ctypes.c_void_p
    solve.restype = ctypes.c_int
    solve.argtypes = [ctypes.c_int64, address, address, address, ctypes.c_double, ctypes.c_double, address,
                      ctypes.c_double, address, address]
    x = np.empty_like(b)
    status = solve(y.size, cfg.beta.ctypes.data, cfg.omega_i.ctypes.data, cfg.delta_i.ctypes.data, cfg.mu, cfg.r,
                   y.ctypes.data, sigma, b.ctypes.data, x.ctypes.data)
    assert status == 0
    return x


def implicit_solve_cases():
    """Seeded configs with each rate that can vanish or sit at the bottom of
    the normal range doing so, up to n = 2048."""
    rng = np.random.default_rng(73)
    cases = []
    variants = ("plain", "delta=0", "omega=0", "p_n=0", "mu=tiny")
    for n, variant in [(n, v) for n in (1, 3, 12, 40) for v in variants] + [(2048, "plain"), (2048, "mu=tiny")]:
        cfg = random_config(rng, n_range=(n, n), rate_low=1e-3, rate_high=50.0)
        if variant == "delta=0":
            cfg = cfg.replace(delta=0.0)
        elif variant == "omega=0":
            cfg = cfg.replace(omega=0.0)
        elif variant == "p_n=0":
            cfg = cfg.replace(p=np.append(cfg.p[:-1], 0.0))
        elif variant == "mu=tiny":
            cfg = cfg.replace(mu=TINY)
        y = random_simplex_state(rng, n)
        b = rng.standard_normal(n + 2)
        sigma = float(10.0 ** rng.uniform(-2, 4))
        cases.append(pytest.param(cfg, y, sigma, b, id=f"n{n}-{variant}"))
    return cases


@pytest.mark.parametrize("name", list(stepper.kernels()))
@pytest.mark.parametrize("cfg, y, sigma, b", implicit_solve_cases())
def test_implicit_solve_matches_dense_solve(name, cfg, y, sigma, b):
    # the Rosenbrock step's O(n) solve of (sigma I - J) x = b: chain
    # substitution, Sherman-Morrison and a Schur complement, no matrix
    matrix = sigma * np.eye(cfg.n + 2) - jacobian(cfg, y)
    x = implicit_solve(name, cfg, y, sigma, b)
    dense = np.linalg.solve(matrix, b)
    scale = np.abs(matrix).sum(axis=1).max()
    assert np.abs(matrix @ x - b).max() <= 1e-12 * scale * np.abs(x).max()
    np.testing.assert_allclose(x, dense, rtol=1e-8, atol=1e-12 * np.abs(dense).max())


@functools.cache
def sampled_run(name, delta):
    # the bundled config over 600 y, 200 samples: the run switches to the
    # implicit step within its first decade
    cfg = pertussis_config().replace(delta=delta)
    targets = np.linspace(0.0, 600.0, 201)[1:]
    return cfg, stepper.kernels()[name].integrate_core(
        cfg.beta, cfg.omega_i, cfg.delta_i, cfg.mu, cfg.r, epidemic_start(cfg).as_array(), 1e-10, 1e-12, targets,
        1_000_000, False)


@pytest.mark.parametrize("name", list(stepper.kernels()))
@pytest.mark.parametrize("delta", [0.17, 0.26], ids=["below-R0=1", "above-R0=1"])
def test_both_phases_match_dop853(name, delta):
    cfg, (times, states, status, n_accepted, n_rejected, n_implicit, t_reached) = sampled_run(name, delta)
    assert t_reached == 600.0 and 0 < n_implicit < n_accepted
    samples = np.linspace(0.0, 600.0, 201)
    idx = np.searchsorted(times, samples)
    np.testing.assert_array_equal(times[idx], samples)
    reference = dop853_states(cfg, states[0], samples)
    np.testing.assert_allclose(states[idx], reference, rtol=0.0, atol=1e-8)


@pytest.mark.skipif("c" not in stepper.kernels(), reason="compiled kernel not built")
@pytest.mark.parametrize("delta", [0.17, 0.26], ids=["below-R0=1", "above-R0=1"])
def test_kernel_parity_through_the_switch(delta):
    _, py = sampled_run("python", delta)
    _, c = sampled_run("c", delta)
    assert py[2] == c[2] and py[5] == c[5] > 0  # status, implicit steps
    samples = np.linspace(0.0, 600.0, 201)
    np.testing.assert_allclose(py[1][np.searchsorted(py[0], samples)], c[1][np.searchsorted(c[0], samples)],
                               rtol=1e-7, atol=1e-10)


@pytest.mark.parametrize("name", list(stepper.kernels()))
def test_tight_tolerance_runs_take_few_steps(monkeypatch, name):
    # at the tolerances the package fits and simulates at, the explicit step
    # is bound by accuracy, where an eighth-order pair takes long steps.
    # A Dormand-Prince 5(4) pair took 198 steps for one fit trial point and
    # 458 for the bundled run's first 5 years (SciPy's DOP853: 81)
    runs = []
    kernel = stepper.kernels()[name].integrate_core

    def counting(*args):
        runs.append(kernel(*args))
        return runs[-1]

    monkeypatch.setattr(stepper, "integrate_core", counting)
    simulate_annual_prevalence(synthetic_truth_config(), np.arange(2000, 2025), 1999, 1e-4, rtol=1e-9, atol=1e-12)
    pertussis = pertussis_config()
    integrate(pertussis, epidemic_start(pertussis), 5.0)
    (_, _, fit_status, fit_accepted, _, _, fit_reached), (_, _, status, accepted, _, implicit, reached) = runs
    assert fit_status == status == stepper.STATUS_REACHED_END and (fit_reached, reached) == (26.0, 5.0)
    assert fit_accepted <= 70
    assert accepted <= 120 and implicit == 0


@pytest.mark.parametrize("name", list(stepper.kernels()))
def test_long_erlang_chain_stays_on_the_flow(name):
    # an Erlang delay of 5 y over 640 tiers, beta only on the last one: the
    # explicit step is held at its stability limit, where the Rosenbrock
    # step is no longer and drifts off the flow (1.4e-4 when the run stayed
    # implicit); the implicit windows that gain too little send it back
    n = 640
    cfg = build_general(n, np.append(np.zeros(n), 200.0), n / 5.0, 0.02, 17.0, 0.0, np.zeros(n + 1))
    samples = np.linspace(0.0, 200.0, 201)
    prevalence = []
    for rtol, atol in ((1e-6, 1e-9), (1e-10, 1e-12)):
        times, states, status, *_ = stepper.kernels()[name].integrate_core(
            cfg.beta, cfg.omega_i, cfg.delta_i, cfg.mu, cfg.r, epidemic_start(cfg).as_array(), rtol, atol,
            samples[1:], 1_000_000, False)
        assert status == stepper.STATUS_REACHED_END
        prevalence.append(states[np.searchsorted(times, samples), -1])
    assert np.abs(prevalence[0] - prevalence[1]).max() <= 1e-5
