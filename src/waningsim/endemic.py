"""Endemic equilibria: existence, uniqueness, perturbative localization and
the root.

At an endemic steady state the susceptible profile is one prefix product of
tier ratios ``w`` (:func:`waningsim.dfe.tier_weights`), ``S(x) = c w + b e_n``
with ``b = mu/|d_n|``, ``c = (r x + omega_n b)/D`` and the Sherman-Morrison
denominator ``D = 1 - omega . w = mu sum(w) + x beta . w`` (the tier balance
``|d_k| w_k = delta_{k-1} w_{k-1}`` summed over the tiers).  The condition
``beta . S(x) = r + mu`` is solved as ``G(x) = (r + mu - beta . S(x)) D/mu``,
whose ``r x beta . w/mu`` terms cancel in the algebra, so its sign is right
however small ``mu`` is beside ``r``.  With ``pi = w/sum(w)``, ``beta_w =
beta . pi`` and ``|d_n| = omega_n + mu + beta_n x`` it is ``G/sum(w) = H(x) =
r + mu - (1 - x) beta_w - b (beta_n - beta_w)``.

**Exactly one endemic equilibrium exists iff R0 > 1, at every waning rate,
tier count and coverage scheme.**  ``sum(w) > 0``, so ``G`` and ``H`` share
their zeros and signs on ``[0, 1]``.

1. At ``x = 0``, ``beta . S(0) = (1 - b) beta_w + b beta_n``, so ``H(0) =
   r + mu - beta . S(0) = (r + mu)(1 - R0)``.  As ``beta_w >= 0``, ``H(1) >=
   r + mu - b beta_n = r + mu (omega_n + mu)/(omega_n + mu + beta_n) > 0``.
2. ``b' = -mu beta_n/|d_n|^2``, so ``H' = beta_w + beta_w' (b - (1 - x)) +
   mu beta_n (beta_n - beta_w)/|d_n|^2``.
3. ``d log w_k/dx = -Lambda_k`` with ``Lambda_k = sum_{i<=k} beta_i/|d_i|``,
   so ``beta_w' = -Cov_pi(beta, Lambda)``.  ``beta`` is non-decreasing in
   ``k`` (validated by :func:`waningsim.model.build_general`) and so is
   ``Lambda``, a sum of non-negative terms; by Chebyshev's sum inequality
   ``beta_w' <= 0``.
4. At a root ``beta . S = r + mu``.  The tier equations summed give the
   population balance ``mu sum(S) = r x + mu - x beta . S``, so ``sum(S) =
   1 - x`` there, and ``1 - x - b = c sum(w) >= 0``.
5. By 3 and 4 the middle term of 2 is ``>= 0`` at a root, and ``beta_n >=
   beta_w``, so ``H' >= beta_w + mu beta_n (beta_n - beta_w)/|d_n|^2 > 0``:
   where ``beta_w = 0`` the root condition ``b beta_n = r + mu`` forces
   ``beta_n > 0``, and the last term is positive.
6. Every zero of ``H`` is therefore a strict up-crossing, so ``H`` has at
   most one zero on ``[0, 1]``.  With 1, there is exactly one in ``(0, 1)``
   when R0 > 1 and none in ``(0, 1]`` otherwise.

So :func:`refine_endemic` decides existence from the sign of ``G(0)`` and
brackets the one root with no scan of ``[0, 1]``.

With the waning rate set to zero the transmission function has an explicit
rational form whose numerator is a monic quadratic ``Q(x) = x^2 + a x + b``;
for small waning rates the true prevalence lies near a root of ``Q``.
:func:`localize_endemic` reports those roots, the perturbative prediction of
where the root lies, beside the existence margin; :func:`refine_endemic`
finds the root itself.  The roots are formed in the time unit of
:func:`waningsim.model.unit_rates` (largest rate ``rho`` in ``[1/2, 1)``):
its products cannot overflow, and no answer but the margin depends on the
time unit.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dfe import _profile_terms, _steady_profile
from .model import ModelConfig, unit_rates, vector_field

__all__ = [
    "NoEndemicEquilibriumError",
    "RefinementError",
    "PrevalenceQuadratic",
    "LocalizationResult",
    "EndemicSolution",
    "solve_susceptible_block",
    "prevalence_quadratic",
    "existence_margin",
    "localize_endemic",
    "refine_endemic",
]

# bisection steps before Brent's method: the last cell is one of the 256
# cells of ``[0, 1]`` between multiples of 1/256
BISECTION_STEPS = 8
# the relative tolerance of Brent's method, SciPy's least allowed ``rtol``
BRENT_RTOL = 4.0 * sys.float_info.epsilon


class NoEndemicEquilibriumError(ValueError):
    """No endemic equilibrium exists for this configuration (R0 <= 1)."""


class RefinementError(RuntimeError):
    """Brent's method failed on the bracket of the endemic root."""


def solve_susceptible_block(config: ModelConfig, prevalence) -> np.ndarray:
    """Steady susceptible profile at one prevalence.

    Recovery inflow ``r x`` enters the top tier and births ``mu`` the bottom
    tier.  The solution costs one prefix product over the tiers, and every
    component is non-negative.

    Raises:
        TypeError: if ``prevalence`` is an array, a string, bytes or a bool.
        ValueError: naming the prevalence, if it is negative, NaN or infinite.
    """
    return _steady_profile(config, prevalence)


def _equilibrium_condition(config: ModelConfig, x):
    """``G(x)/sum(w)`` (module docstring) at one prevalence.

    With ``beta_w = beta . w/sum(w)``, ``1 - b = (omega_n + beta_n x)/|d_n|``
    and ``mu = b (omega_n + mu + beta_n x)`` it is ``r + b (omega_n + mu +
    x beta_w) - (1 - x)(beta_n b + (1 - b) beta_w)``: nothing is subtracted at
    ``x = 1``, and no term exceeds the largest rate, so it stays finite where
    ``S(x)`` overflows.  At a float ``x``, as the bisection, Brent's method
    and :func:`localize_endemic` pass, the scalars are Python floats and the
    prevalence check is one comparison.
    """
    ad_n, _, total, beta_dot_w = _profile_terms(config, x)
    x = float(x)  # checked by _profile_terms
    beta_w = beta_dot_w / total
    mu, r, beta_n, omega_n = config.mu, config.r, float(config.beta[-1]), config.omega_n
    b = mu / ad_n
    return r + b * (omega_n + mu + x * beta_w) - (1.0 - x) * (beta_n * b + (omega_n + beta_n * x) / ad_n * beta_w)


def existence_margin(config: ModelConfig) -> float:
    """R0's verdict at zero waning, ``beta0*omega_n + beta_n*mu - (omega_n +
    mu)(mu + r) = (omega_n + mu)(r + mu)(R0(delta=0) - 1)``; not a second
    test of existence, which is the sign of ``G(0)`` (module docstring).

    It is formed from the rates of :func:`waningsim.model.unit_rates` and
    scaled back by ``4**-k``, so its sign is right where the products in the
    given time unit round to 0 or overflow; its value may still round to 0
    or overflow to an infinity.
    """
    k, (beta0, beta_n, mu, r, omega_n, _) = unit_rates(config)
    margin = _margin(beta0, beta_n, mu, r, omega_n)
    try:
        return math.ldexp(margin, -2 * k)
    except OverflowError:  # beyond the largest double
        return math.copysign(math.inf, margin)


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
    ``a`` and ``b`` do not change with the time unit, so they are formed
    from the rates of :func:`waningsim.model.unit_rates`.  Where ``beta0 *
    beta_n`` still underflows or ``a * a`` overflows (rates far apart in
    magnitude) the roots come from ``beta0 Q``, whose coefficients stay
    finite; ``a`` and ``b`` may then be infinite.

    Raises:
        ValueError: when ``beta[0] == 0``; :func:`localize_endemic` then
            solves the linear prevalence equation.
    """
    if config.beta[0] == 0.0:
        raise ValueError("prevalence polynomial is linear when beta[0] == 0; use localize_endemic")
    beta0, beta_n, mu, r, omega_n, _ = unit_rates(config)[1]
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
    """Existence of an endemic equilibrium, and the perturbative prediction
    of where it lies.

    ``exists`` is ``"unique"`` when ``G(0) < 0`` (R0 > 1) and ``"none"``
    otherwise, which the module docstring proves at every waning rate.
    ``roots`` are the roots of the no-waning prevalence equation, ``None``
    where there is no real root; ``validity`` records whether the
    contraction precondition is met over the whole prevalence range.
    ``margin`` is :func:`existence_margin`, R0's verdict at zero waning
    ``(omega_n + mu)(r + mu)(R0(delta=0) - 1)``, not an existence test.
    """

    exists: str
    validity: bool
    roots: tuple
    margin: float

    def to_dict(self) -> dict:
        return {
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


def localize_endemic(config: ModelConfig) -> LocalizationResult:
    """Decide whether an endemic equilibrium exists, and predict where it
    lies by the roots of the no-waning prevalence equation.

    The roots are formed in the time unit of
    :func:`waningsim.model.unit_rates`.  Where ``beta[0]`` is positive there
    they are those of the quadratic ``Q`` (:func:`prevalence_quadratic`);
    where it is 0 the equation is linear and has one root.  ``exists`` is
    the sign of ``G(0)``.
    """
    beta0, beta_n, mu, r, omega_n, _ = unit_rates(config)[1]
    if beta0 > 0.0:
        # complex roots are (None, None), with a margin <= 0
        quad = prevalence_quadratic(config)
        roots = (quad.y1, quad.y2)
    else:
        # with beta_n == 0 as well no tier transmits: the equation has no root;
        # two quotients, since the product beta_n * (r + mu) can underflow
        root = mu / (r + mu) - (omega_n + mu) / beta_n if beta_n else None
        roots = (root, None)
    exists = "unique" if _equilibrium_condition(config, 0.0) < 0.0 else "none"
    return LocalizationResult(exists, contraction_precondition_holds(config), roots, existence_margin(config))


@dataclass(frozen=True, eq=False)
class EndemicSolution:
    """The endemic equilibrium point; solutions compare by identity.

    ``residual`` is the defect in the scalar equilibrium identity
    ``beta . S* = r + mu``; ``certification`` is ``"certified-unique"``,
    naming the proof of existence and uniqueness in the module docstring.
    ``iterations`` counts the iterations of Brent's method (0 when a
    bisection midpoint is the root).
    """

    i_star: float
    s_star: np.ndarray
    residual: float
    iterations: int
    certification: str
    vf_norm: float

    def to_dict(self) -> dict:
        return {
            "i_star": self.i_star,
            "s_star": [float(x) for x in self.s_star],
            "residual": self.residual,
            "iterations": self.iterations,
            "certification": self.certification,
            "vf_norm": self.vf_norm,
        }


def _finish_solution(config, i_star, iterations) -> EndemicSolution:
    s_star = solve_susceptible_block(config, i_star)
    residual = abs(float(config.beta @ s_star) - (config.r + config.mu))
    state = np.concatenate([s_star, [i_star]])
    vf_norm = float(np.linalg.norm(vector_field(config, state)))
    return EndemicSolution(
        i_star=float(i_star),
        s_star=s_star,
        residual=residual,
        iterations=iterations,
        certification="certified-unique",
        vf_norm=vf_norm,
    )


def refine_endemic(config: ModelConfig) -> EndemicSolution:
    """Compute the endemic equilibrium, the one root of ``G`` in ``(0, 1]``.

    By the module docstring a root exists iff ``G(0) < 0`` (R0 > 1), and it
    is unique.  ``BISECTION_STEPS`` bisections of ``[0, 1]`` on the sign of
    ``G`` narrow the bracket to one cell of width 1/256 (a midpoint where
    ``G`` is exactly 0 is the root), and Brent's method refines it; it stops
    at the relative tolerance ``BRENT_RTOL`` (4 eps) at any normal root,
    however small.  ``G`` is evaluated once per point: Brent's method reuses
    the bisection's values at the ends of the bracket, so the search costs
    ``BISECTION_STEPS`` plus Brent's iterations evaluations, and one more
    where the upper end is 1.0.  The result is labelled
    ``"certified-unique"``.

    Raises:
        NoEndemicEquilibriumError: when ``G(0) >= 0``.
        RefinementError: Brent's method failed on the bracket.
    """
    g = functools.partial(_equilibrium_condition, config)
    g_lo = g(0.0)
    if not g_lo < 0.0:
        raise NoEndemicEquilibriumError("no endemic equilibrium: R0 <= 1, the equilibrium condition is >= 0 at 0")
    # G(1) >= 0 in floating point too, as nothing is subtracted at x = 1
    # (_equilibrium_condition): the last cell always brackets the root
    lo, hi = 0.0, 1.0
    known = {lo: g_lo}  # G at every point evaluated so far
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        value = g(mid)
        if value == 0.0:
            return _finish_solution(config, mid, 0)
        if value < 0.0:
            lo = mid
        else:
            hi = mid
        known[mid] = value

    def g_bracket(x):
        # Brent's method starts at both ends of the bracket, whose values
        # are known unless the upper end is still 1.0
        value = known.get(x)
        return g(x) if value is None else value

    # xtol is the smallest tolerance whose half is not 0, so BRENT_RTOL ends
    # the search at any normal root however small; Brent (1973, ch. 4) bounds
    # the search by about the square of the bisection count from the last
    # cell down to that tolerance
    xtol = 2.0 * math.ulp(0.0)
    maxiter = (round(-math.log2(xtol)) - BISECTION_STEPS + 1) ** 2
    try:
        root, iterations = _brentq(g_bracket, lo, hi, xtol, maxiter)
    except (ValueError, RuntimeError) as exc:
        raise RefinementError(f"Brent's method failed on the bracket [{lo!r}, {hi!r}]: {exc}") from exc
    return _finish_solution(config, root, iterations)


def _brentq(f, a, b, xtol, maxiter):
    """A root of the float function ``f`` in ``[a, b]`` by Brent's method
    (Brent 1973, ch. 4), and the number of iterations it took.

    This is SciPy's ``brentq`` (``scipy/optimize/Zeros/brentq.c``) statement
    for statement at ``rtol = BRENT_RTOL``, so roots and iteration counts
    are SciPy's to the bit.  Where C divides by zero, the infinity or NaN
    it gets fails the short-step test and the step bisects; Python raises
    instead, and the step bisects all the same.  An end point where ``f``
    is 0 is returned after no iteration.

    Raises:
        ValueError: ``f`` is NaN at some point, or ``f(a)`` and ``f(b)``
            have the same sign.
        RuntimeError: no convergence within ``maxiter`` iterations.
    """

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    # the values are not 0 or NaN, so their sign bits are these comparisons
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for iterations in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations
        stry = math.nan  # fails the short-step test: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # a good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
