"""Reference computations for the benchmark's output checks.

Everything here is written from the model equations, not from ``waningsim``:
the susceptible block and the right-hand side are assembled from the config
dict, equilibria come from ``numpy.linalg.solve`` and ``scipy.optimize.brentq``,
and trajectories from SciPy's DOP853.  The model, with ``v_k = p_k * omega``
(vaccination back to ``S_0``) and ``w_k = (1 - p_k) * delta`` (waning to
``S_{k+1}``, ``w_n = 0``)::

    S_0' = sum_{k>=1} v_k S_k - (w_0 + mu + beta_0 I) S_0 + r I
    S_k' = w_{k-1} S_{k-1} - (w_k + v_k + mu + beta_k I) S_k  (+ mu when k = n)
    I'   = (beta . S - r - mu) I
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

SIMPLEX_TOL = 1e-9


class CheckError(AssertionError):
    """A program output disagrees with the reference or with a property
    the method must have."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def expect_close(actual, wanted, rel: float, abs_: float, what: str) -> None:
    actual = np.asarray(actual, dtype=float)
    wanted = np.asarray(wanted, dtype=float)
    expect(actual.shape == wanted.shape, f"{what}: shape {actual.shape} != {wanted.shape}")
    gap = float(np.max(np.abs(actual - wanted)))
    limit = abs_ + rel * float(np.max(np.abs(wanted)))
    expect(gap <= limit, f"{what}: off by {gap:.3g} (limit {limit:.3g})")


class Model:
    """The model of one config dict (the CLI's JSON config format)."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.n = int(cfg["n"])
        self.beta = np.asarray(cfg["beta"], dtype=float)
        self.mu, self.r = float(cfg["mu"]), float(cfg["r"])
        p = np.asarray(cfg["p"], dtype=float)
        self.vacc = p * float(cfg["omega"])
        self.wane = (1.0 - p) * float(cfg["delta"])
        self.wane[-1] = 0.0
        static = np.diag(-(self.wane + self.vacc + self.mu))
        static[0, 1:] += self.vacc[1:]
        k = np.arange(self.n)
        static[k + 1, k] = self.wane[:-1]
        self._static = static

    def block(self, prevalence: float) -> np.ndarray:
        return self._static - np.diag(self.beta * prevalence)

    def inflow(self, prevalence: float) -> np.ndarray:
        b = np.zeros(self.n + 1)
        b[0] = self.r * prevalence
        b[-1] += self.mu
        return b

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        s, i = y[:-1], y[-1]
        out = np.empty_like(y)
        out[:-1] = self._static @ s - self.beta * s * i + self.inflow(i)
        out[-1] = (self.beta @ s - self.r - self.mu) * i
        return out

    def susceptible_at(self, prevalence: float) -> np.ndarray:
        """Steady susceptible profile at a fixed prevalence."""
        return np.linalg.solve(self.block(prevalence), -self.inflow(prevalence))

    def dfe(self) -> np.ndarray:
        return self.susceptible_at(0.0)

    def r0(self) -> float:
        return float(self.beta @ self.dfe()) / (self.r + self.mu)

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        s, i = y[:-1], y[-1]
        m = self.n + 2
        j = np.zeros((m, m))
        j[:-1, :-1] = self.block(i)
        j[:-1, -1] = -self.beta * s
        j[0, -1] += self.r
        j[-1, :-1] = self.beta * i
        j[-1, -1] = self.beta @ s - self.r - self.mu
        return j

    def dfe_max_real_part(self) -> float:
        y = np.append(self.dfe(), 0.0)
        return float(np.max(np.linalg.eigvals(self.jacobian(y)).real))

    def endemic_roots(self, grid: int = 1024) -> list:
        """Prevalences in (0, 1] where ``beta . S(x) = r + mu``."""

        def g(x: float) -> float:
            return float(self.beta @ self.susceptible_at(x)) - (self.r + self.mu)

        xs = np.linspace(0.0, 1.0, grid + 1)[1:]
        gs = [g(x) for x in xs]
        roots = [float(x) for x, v in zip(xs, gs) if v == 0.0]
        for j in range(grid - 1):
            if gs[j] * gs[j + 1] < 0.0:
                roots.append(brentq(g, xs[j], xs[j + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps))
        return sorted(roots)

    def trajectory(self, y0, times) -> np.ndarray:
        """States at ``times`` (starting at 0) by DOP853."""
        times = np.asarray(times, dtype=float)
        sol = solve_ivp(
            self.rhs,
            (0.0, float(times[-1])),
            np.asarray(y0, dtype=float),
            method="DOP853",
            t_eval=times,
            rtol=1e-11,
            atol=1e-13,
        )
        expect(sol.success, f"reference DOP853 failed: {sol.message}")
        return sol.y.T

    # -- property checks ---------------------------------------------------

    def check_state(self, y, what: str) -> None:
        """``y`` lies on the simplex."""
        y = np.asarray(y, dtype=float)
        expect(y.shape == (self.n + 2,), f"{what}: state has shape {y.shape}")
        expect(float(np.min(y)) >= 0.0, f"{what}: negative component {float(np.min(y))!r}")
        total = math.fsum(y.tolist())
        expect(abs(total - 1.0) <= SIMPLEX_TOL, f"{what}: components sum to {total!r}")

    def check_equilibrium(self, y, what: str) -> None:
        """``y`` lies on the simplex and zeroes the right-hand side."""
        self.check_state(y, what)
        y = np.asarray(y, dtype=float)
        scale = 1.0 + float(np.max(self.beta)) + self.r + float(np.max(self.vacc))
        residual = float(np.max(np.abs(self.rhs(0.0, y))))
        expect(residual <= 1e-10 * scale, f"{what}: right-hand side {residual:.3g} at the endemic state")

    def check_endpoint(self, y, what: str) -> None:
        """A converged endpoint equals an equilibrium of the model."""
        y = np.asarray(y, dtype=float)
        if y[-1] < 1e-9:
            expect_close(y[:-1], self.dfe(), 1e-6, 1e-9, f"{what}: disease-free endpoint")
            return
        roots = self.endemic_roots()
        expect(roots, f"{what}: endpoint prevalence {y[-1]!r} but the model has no endemic root")
        nearest = min(roots, key=lambda x: abs(x - y[-1]))
        expect_close(y[-1], nearest, 1e-6, 0.0, f"{what}: endpoint prevalence vs the equilibrium root")
        expect_close(y[:-1], self.susceptible_at(nearest), 1e-6, 1e-12, f"{what}: endpoint susceptibles")


def substitute(cfg: dict, parameter: str, value: float) -> dict:
    """The config with one swept parameter replaced (sweep semantics)."""
    out = {k: (list(v) if isinstance(v, list) else v) for k, v in cfg.items()}
    if parameter == "beta0":
        out["beta"][0] = value
    elif parameter in ("delta", "omega"):
        out[parameter] = value
    else:
        raise ValueError(f"no reference substitution for {parameter!r}")
    return out
