"""Endemic equilibria: perturbative localization and root refinement.

At an endemic steady state the susceptible profile solves a linear system in
the prevalence ``x`` whose solution is one prefix product of tier ratios, so
the equilibrium condition reduces to a scalar equation
``transmission(x) = r + mu`` costing a fixed handful of array operations at
any number of tiers.  With the waning rate set to zero that transmission
function has an explicit rational form whose numerator is a monic quadratic
``Q(x) = x^2 + a x + b``; for small waning rates the true prevalence is
trapped in intervals of width ``O(sqrt(delta))`` around the roots of ``Q``,
and under the contraction certificate the sign analysis of ``Q`` decides
whether an equilibrium exists and is unique.  The root itself is always
found the same way: the condition is scanned on a grid over ``[0, 1]`` and
every sign change is refined with Brent's method.  A root is labelled
certified only when the certificate holds, the localization says it is
unique, the scan finds exactly one and it lies within one grid cell of a
localization interval.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .dfe import tier_weights
from .model import ModelConfig, vector_field

__all__ = [
    "NoEndemicEquilibriumError",
    "RefinementError",
    "SingularBlockError",
    "PrevalenceQuadratic",
    "LocalizationResult",
    "EndemicSolution",
    "solve_susceptible_block",
    "equilibrium_transmission",
    "prevalence_quadratic",
    "existence_margin",
    "localize_endemic",
    "refine_endemic",
    "sign_change_brackets",
]

BISECTION_GRID = 256


class NoEndemicEquilibriumError(ValueError):
    """No endemic equilibrium exists (or none was found) for this configuration."""


class RefinementError(RuntimeError):
    """The endemic root could not be computed: the uniqueness certificate
    failed, or Brent's method failed on a sign-change bracket."""


class SingularBlockError(ArithmeticError):
    """Susceptible-block solve failed at a given prevalence.

    Signals that the small-waning-rate regime assumption broke down at this
    infection level.
    """

    def __init__(self, prevalence: float):
        super().__init__(f"susceptible block is numerically singular at prevalence {prevalence!r}")
        self.prevalence = prevalence


def _profile_terms(config: ModelConfig, prevalence):
    """``w``, ``mu/|d_n|`` and ``c`` of the steady susceptible profile
    ``S = c w + (mu/|d_n|) e_n``, which solves
    ``(L + e_0 omega^T) S = -r x e_0 - mu e_n``: with ``L^{-1} e_0 = -w`` the
    Sherman-Morrison step gives ``c = (r x + omega_n mu/|d_n|) / (1 - omega . w)``.
    """
    x = np.asarray(prevalence, dtype=float)
    ad, w = tier_weights(config, x)
    births = config.mu / ad[..., -1]
    denom = 1.0 - w @ config.omega_i
    singular = ~np.isfinite(denom) | (np.abs(denom) < 1e-300)
    if singular.any():
        raise SingularBlockError(float(x[singular][0]))
    return w, births, (config.r * x + config.omega_n * births) / denom


def solve_susceptible_block(config: ModelConfig, prevalence) -> np.ndarray:
    """Steady susceptible profile at one prevalence or at an array of them.

    Recovery inflow ``r x`` enters the top tier and births ``mu`` the bottom
    tier.  For ``prevalence`` of shape ``P`` the solution has shape
    ``P + (n+1,)``; it costs one prefix product over the tiers.

    Raises:
        SingularBlockError: at the first prevalence where the rank-one
            correction breaks down.
    """
    w, births, c = _profile_terms(config, prevalence)
    s = c[..., None] * w
    s[..., -1] += births
    return s


def equilibrium_transmission(config: ModelConfig, prevalence):
    """Transmission sum ``beta . S`` of the steady susceptible profile at the
    given prevalence (elementwise for an array); an endemic equilibrium
    solves ``equilibrium_transmission(x) = r + mu``.  Two dot products with
    the tier weights, ``beta . w`` and ``omega . w``, give it."""
    w, births, c = _profile_terms(config, prevalence)
    return c * (w @ config.beta) + births * config.beta[-1]


def existence_margin(config: ModelConfig) -> float:
    """Positive iff a unique endemic equilibrium exists in the small-waning
    regime: ``beta0*omega_n + beta_n*mu - (omega_n + mu)(mu + r)``."""
    return _margin(float(config.beta[0]), float(config.beta[-1]), config.mu, config.r, config.omega_n)


def _margin(beta0, beta_n, mu, r, omega_n):
    return beta0 * omega_n + beta_n * mu - (omega_n + mu) * (mu + r)


@dataclass(frozen=True)
class PrevalenceQuadratic:
    """Monic quadratic whose roots locate candidate endemic prevalences
    (requires ``beta[0] > 0``)."""

    a: float
    b: float
    real: bool
    y1: float | None
    y2: float | None

    def __call__(self, x: float) -> float:
        return x * x + self.a * x + self.b


def prevalence_quadratic(config: ModelConfig) -> PrevalenceQuadratic:
    """Coefficients and roots of ``Q(x) = x^2 + a x + b``.

    ``b`` shares its sign with ``(omega_n + mu)(mu + r) - (beta0*omega_n +
    beta_n*mu)``; a negative ``b`` forces exactly one root inside ``(0, 1)``.
    ``a`` and ``b`` do not change when every rate is multiplied by one
    factor, so they are formed from the rates scaled by the power of two
    that brings the largest near 1, exactly and away from subnormal
    products.  Where ``beta0 * beta_n`` still underflows or ``a * a``
    overflows (rates far apart in magnitude) the roots come from
    ``beta0 Q``, whose coefficients stay finite; ``a`` and ``b`` may then be
    infinite.

    Raises:
        ValueError: when ``beta[0] == 0``; :func:`localize_endemic` then
            solves the linear prevalence equation.
    """
    beta0, beta_n = float(config.beta[0]), float(config.beta[-1])
    if beta0 == 0.0:
        raise ValueError("prevalence polynomial is linear when beta[0] == 0; use localize_endemic")
    rates = (beta0, beta_n, config.mu, config.r, config.omega_n)
    shift = -math.frexp(max(rates))[1]
    beta0, beta_n, mu, r, omega_n = (math.ldexp(v, shift) for v in rates)
    margin = _margin(beta0, beta_n, mu, r, omega_n)
    lead, disc = 1.0, math.nan
    product = beta0 * beta_n
    if product >= sys.float_info.min:
        a = (beta0 * (mu + omega_n) + beta_n * (mu + r - beta0)) / product
        b = -margin / product
        disc = a * a - 4.0 * b
    if not math.isfinite(disc):
        # beta0 * beta_n underflows or a * a overflows: solve beta0 Q(x) =
        # beta0 x^2 + a x + b instead, finite since beta0 <= beta_n
        lead = beta0
        a = beta0 / beta_n * (mu + omega_n) + (mu + r - beta0)
        b = -margin / beta_n
        disc = a * a - 4.0 * lead * b
    if disc < 0.0:
        return PrevalenceQuadratic(a=a / lead, b=b / lead, real=False, y1=None, y2=None)
    sq = math.sqrt(disc)
    q = -(a + math.copysign(sq, a)) / 2.0
    roots = sorted((q / lead, b / q)) if q != 0.0 else sorted((0.0, -a / lead))
    return PrevalenceQuadratic(a=a / lead, b=b / lead, real=True, y1=float(roots[0]), y2=float(roots[1]))


@dataclass(frozen=True)
class LocalizationResult:
    """Interval localization of endemic prevalences.

    ``intervals`` are closed intervals clipped to ``[0, 1]``.  ``exists`` is
    ``"unique"``/``"none"`` from the sign analysis of the no-waning
    polynomial, or ``"indeterminate"`` when two nearly coincident roots make
    the uniqueness hypothesis fail.  ``validity`` records whether the
    contraction precondition held over the whole prevalence range; when it is
    False the perturbative theory is silent and downstream refinement is
    numeric-only.
    """

    intervals: tuple
    half_width: float
    hat_c: float
    exists: str
    validity: bool
    roots: tuple
    margin: float

    def to_dict(self) -> dict:
        return {
            "intervals": [[float(a), float(b)] for a, b in self.intervals],
            "half_width": self.half_width,
            "hat_c": self.hat_c,
            "exists": self.exists,
            "validity": self.validity,
            "roots": [None if x is None else float(x) for x in self.roots],
            "margin": self.margin,
        }


def contraction_precondition_holds(config: ModelConfig) -> bool:
    """Bound-level contraction certificate over the whole prevalence range.

    Uses the Schur-test bound ``2*delta`` on the waning perturbation and the
    worst-case (prevalence 0) inverse bound ``sqrt(n+1)/mu``.
    """
    return 2.0 * config.delta * math.sqrt(config.n + 1) / config.mu < 0.5


def _interval_constant(config: ModelConfig) -> float:
    """Constant ``hat_c`` in the interval half-width ``sqrt(2*delta*hat_c)``.

    Instantiated from the explicit perturbation bound
    ``4 (n+1)^{3/2} beta_n (r+mu) delta / (beta0 x + mu)^2`` at its worst
    point ``x = 0``, times the maximum of the denominator product over
    ``[0, 1]``.
    """
    beta0, beta_n = float(config.beta[0]), float(config.beta[-1])
    mu, r, omega_n = config.mu, config.r, config.omega_n
    n = config.n
    scale = mu**3 * beta0  # 0 once mu**3 underflows, and the constant is then infinite
    c_tilde = 4.0 * (n + 1) ** 1.5 * (r + mu) / scale if scale else math.inf
    return c_tilde * (beta0 + mu) * (beta_n + mu + omega_n)


def localize_endemic(config: ModelConfig) -> LocalizationResult:
    """Locate candidate endemic prevalences in explicit intervals.

    For positive ``beta[0]`` the intervals are centered at the roots of the
    no-waning quadratic with half-width ``sqrt(2*delta*hat_c)``; for
    ``beta[0] == 0`` the prevalence equation is linear and the width is
    linear in ``delta``.  With no waning (``delta == 0``) the width is 0,
    also where ``hat_c`` is infinite.
    """
    beta0 = float(config.beta[0])
    margin = existence_margin(config)
    validity = contraction_precondition_holds(config)
    delta = config.delta

    if beta0 > 0.0:
        quad = prevalence_quadratic(config)
        hat_c = _interval_constant(config)
        half = math.sqrt(2.0 * delta * hat_c) if delta else 0.0
        roots = (quad.y1, quad.y2)
        if not quad.real:
            return LocalizationResult((), half, hat_c, "none", validity, roots, margin)
    else:
        beta_n, mu, omega_n = float(config.beta[-1]), config.mu, config.omega_n
        hat_c = 4.0 * (config.n + 1) ** 1.5 * (beta_n + mu + omega_n) / mu**2 if mu**2 else math.inf
        half = hat_c * delta if delta else 0.0
        # with beta_n == 0 as well no tier transmits: the equation has no root;
        # two quotients, since the product beta_n * (r + mu) can underflow
        root = mu / (config.r + mu) - (omega_n + mu) / beta_n if beta_n else None
        roots = (root, None)

    intervals = []
    for y in roots:
        if y is None:
            continue
        lo, hi = max(y - half, 0.0), min(y + half, 1.0)
        if hi >= lo and hi > 0.0:
            intervals.append((lo, hi))

    if beta0 > 0.0 and None not in roots and abs(roots[1] - roots[0]) < delta ** (1.0 / 3.0) and intervals:
        exists = "indeterminate"
    elif margin > 0.0:
        exists = "unique"
    else:
        exists = "none"
    return LocalizationResult(tuple(intervals), half, hat_c, exists, validity, roots, margin)


@dataclass(frozen=True)
class EndemicSolution:
    """Endemic equilibrium point with its certification status.

    ``residual`` is the defect in the scalar equilibrium identity
    ``beta . S* = r + mu``; ``certification`` is ``"certified-contraction"``
    when the contraction certificate holds, the localization says the
    equilibrium is unique and the grid scan found exactly one root (a sign
    change proves it exists) within one grid cell of a localization
    interval, and ``"numeric-uncertified"`` otherwise.
    ``iterations`` counts Brent iterations summed over all sign-change
    brackets; ``candidates`` is the number of positive roots found.
    """

    i_star: float
    s_star: np.ndarray
    residual: float
    iterations: int
    certification: str
    vf_norm: float
    candidates: int = 1

    def to_dict(self) -> dict:
        return {
            "i_star": self.i_star,
            "s_star": [float(x) for x in self.s_star],
            "residual": self.residual,
            "iterations": self.iterations,
            "certification": self.certification,
            "vf_norm": self.vf_norm,
            "candidates": self.candidates,
        }


def _finish_solution(config, i_star, iterations, certification, candidates) -> EndemicSolution:
    s_star = solve_susceptible_block(config, i_star)
    if np.min(s_star) < -1e-12:
        raise RefinementError(f"negative susceptible component at prevalence {i_star}: {s_star}")
    s_star = np.maximum(s_star, 0.0)
    residual = abs(float(config.beta @ s_star) - (config.r + config.mu))
    state = np.concatenate([s_star, [i_star]])
    vf_norm = float(np.linalg.norm(vector_field(config, state)))
    return EndemicSolution(
        i_star=float(i_star),
        s_star=s_star,
        residual=residual,
        iterations=iterations,
        certification=certification,
        vf_norm=vf_norm,
        candidates=candidates,
    )


def refine_endemic(
    config: ModelConfig,
    localization: LocalizationResult | None = None,
) -> EndemicSolution:
    """Compute the endemic equilibrium.

    Where the contraction certificate holds the localization decides first:
    ``"none"`` raises :class:`NoEndemicEquilibriumError` and
    ``"indeterminate"`` raises :class:`RefinementError`.  Every other
    configuration takes one search: the equilibrium condition
    ``r + mu - beta . S(x)`` is sampled on ``BISECTION_GRID`` cells over
    ``[0, 1]``, every sign change is refined by Brent's method, and the
    largest positive root is returned.  The result is
    ``"certified-contraction"`` when the certificate holds, the localization
    says the root is unique and the scan finds exactly one root, within one
    grid cell of a localization interval, and ``"numeric-uncertified"``
    otherwise.  Brent's method stops at the default relative tolerance
    (4 eps) at any normal root, however small.

    Raises:
        NoEndemicEquilibriumError: when the localization says no equilibrium
            exists (certified regime) or the grid scan finds no sign change.
        RefinementError: root-separation violation, or Brent's method failed
            on a bracket.
    """
    loc = localization if localization is not None else localize_endemic(config)

    if loc.validity and loc.exists == "none":
        raise NoEndemicEquilibriumError(
            f"no endemic equilibrium in the certified small-waning regime (margin {loc.margin:g})"
        )
    if loc.validity and loc.exists == "indeterminate":
        raise RefinementError(
            "roots too close for the uniqueness certificate "
            f"(separation below delta^(1/3) = {config.delta ** (1 / 3):g})"
        )

    def g(x):
        return config.r + config.mu - equilibrium_transmission(config, x)

    grid = np.linspace(0.0, 1.0, BISECTION_GRID + 1)
    values = g(grid)
    # g(1) = mu * sum(S(1)) >= 0 exactly, so a value rounded below 0 is a root
    # at 1, unless the last cell already brackets a sign change
    if values[-2] < 0.0:
        values[-1] = max(values[-1], 0.0)
    # xtol is the smallest tolerance whose half is not 0, so the default rtol
    # (4 eps) ends the search at any normal root however small; Brent (1973,
    # ch. 4) bounds the search by about the square of the bisection count from
    # one grid cell down to that tolerance
    xtol = 2.0 * math.ulp(0.0)
    maxiter = (round(-math.log2(xtol) - math.log2(BISECTION_GRID)) + 1) ** 2
    roots = []
    total_iterations = 0
    for lo, hi in sign_change_brackets(grid, values):
        if lo == hi:
            roots.append(lo)
            continue
        try:
            root, info = brentq(g, lo, hi, xtol=xtol, maxiter=maxiter, full_output=True)
        except (ValueError, RuntimeError) as exc:
            raise RefinementError(f"Brent's method failed on the bracket [{lo!r}, {hi!r}]: {exc}") from exc
        roots.append(root)
        total_iterations += info.iterations
    roots = [x for x in roots if x > 0.0]
    if not roots:
        raise NoEndemicEquilibriumError("no sign change of the equilibrium condition on (0, 1]")
    # the root must also lie within one grid cell of a localization interval
    # (at delta = 0 an interval is a single point, met only up to rounding)
    cell = 1.0 / BISECTION_GRID
    certified = (
        loc.validity
        and loc.exists == "unique"
        and len(roots) == 1
        and any(a - cell <= roots[0] <= b + cell for a, b in loc.intervals)
    )
    label = "certified-contraction" if certified else "numeric-uncertified"
    return _finish_solution(config, max(roots), total_iterations, label, len(roots))


def sign_change_brackets(grid, values) -> list:
    """Grid cells that hold a root of a sampled function, in grid order.

    A sample that is exactly zero gives the degenerate cell ``(a, a)``;
    adjacent nonzero samples of opposite sign give ``(a, b)``, a bracket for
    :func:`scipy.optimize.brentq`.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    zero, negative = values == 0.0, values < 0.0
    change = (negative[:-1] != negative[1:]) & ~zero[:-1] & ~zero[1:]
    cells = [(j, j) for j in np.flatnonzero(zero)] + [(j, j + 1) for j in np.flatnonzero(change)]
    return [(float(grid[a]), float(grid[b])) for a, b in sorted(cells)]
