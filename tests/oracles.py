"""Test oracles: closed forms, bounds and cross-checks of the paper's theory
that the package's answer pipeline does not use, and SciPy's root finder,
least-squares driver and LAPACK wrapper as the references for the
package's own Brent's method, the fit's trust-region loop and its SVD.

Among them: the dense LU solve of the disease-free equilibrium, SciPy's
DOP853 trajectories, the closed-form solution of the infection-free waning
chain, a fitted
exponential convergence rate of a trajectory, the threshold locator (grid
scan plus Brent's method on R0 - 1 or the existence margin) and the
explicit transmission threshold of a last-tier-only coverage scheme as a
function of the last-tier return rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg.lapack
import scipy.optimize
from scipy.optimize._lsq.common import solve_lsq_trust_region
from scipy.special import gammainc, gammaln

from waningsim.dfe import DfeSolution, basic_reproduction_number, susceptible_block_matrix, tier_weights
from waningsim.dynamics import Trajectory
from waningsim.endemic import (
    BRENT_RTOL,
    EndemicSolution,
    existence_margin,
    localize_endemic,
    solve_susceptible_block,
)
from waningsim.model import ConfigError, ModelConfig, vector_field
from waningsim.scanfit import FIT_FTOL, FIT_XTOL, SweepSpec, substitute_parameter
from waningsim.stability import _require_fresh, dfe_spectrum, jacobian

BIFURCATION_XTOL = 1e-8


def column_discs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of the column Gersgorin discs of ``matrix``."""
    centers = np.diag(matrix)
    return centers, np.abs(matrix - np.diag(centers)).sum(axis=0)


def matrix_determinant(config: ModelConfig, prevalence: float = 0.0) -> float:
    """Closed-form determinant of :func:`susceptible_block_matrix`.

    Splitting off the first-row vaccination entries leaves a lower-bidiagonal
    factor, and the rank-one update contributes ``1 - omega . w`` with the
    :func:`tier_weights` ``w``.  The result is nonzero for every valid
    configuration, so the matrix is always invertible; it is NaN where
    ``prod_k d_k`` leaves the double range.
    """
    ad, w = tier_weights(config, prevalence)
    correction = math.fsum([1.0] + (-config.omega_i * w).tolist())
    det = math.prod((-ad).tolist()) * correction
    return det if det != 0.0 and math.isfinite(det) else math.nan


def solve_dfe_numeric(config: ModelConfig) -> DfeSolution:
    """Disease-free equilibrium by dense LU solve, the reference for the
    closed form.

    One iterative-refinement step with an extended-precision residual keeps
    the forward error near machine level even for poorly scaled rate
    combinations.

    Raises:
        numpy.linalg.LinAlgError: the matrix is singular to working
            precision, as when ``mu`` is negligible beside the other rates
            (the columns sum to ``-mu``).
    """
    n = config.n
    a = susceptible_block_matrix(config, 0.0)
    b = np.zeros(n + 1)
    b[n] = -config.mu
    try:
        x = np.linalg.solve(a, b)
        residual = b - (a.astype(np.longdouble) @ x.astype(np.longdouble)).astype(float)
        x = x + np.linalg.solve(a, residual)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("susceptible block matrix is singular to working precision") from exc
    return DfeSolution(s=x)


def equilibrium_transmission(config: ModelConfig, prevalence) -> float:
    """Transmission sum ``beta . S`` of the steady susceptible profile at the
    given prevalence; an endemic equilibrium solves
    ``equilibrium_transmission(x) = r + mu``."""
    return solve_susceptible_block(config, prevalence) @ config.beta


def equilibrium_transmission_no_waning(config: ModelConfig, prevalence: float) -> float:
    """Closed form of :func:`equilibrium_transmission` for zero waning rate.

    With no waning the interior tiers are empty at equilibrium and the
    transmission sum collapses to three rational terms in the prevalence.
    """
    beta0, beta_n = float(config.beta[0]), float(config.beta[-1])
    mu, r, omega_n = config.mu, config.r, config.omega_n
    x = float(prevalence)
    d0 = beta0 * x + mu
    dn = beta_n * x + mu + omega_n
    return beta0 * mu * omega_n / (d0 * dn) + beta0 * r * x / d0 + beta_n * mu / dn


def prevalence_linear_root(config: ModelConfig) -> float | None:
    """Root of the degenerate (``beta[0] == 0``) linear prevalence equation.

    Returns the root when it lies in ``[0, 1]`` (it does exactly when
    ``beta_n * mu >= (r + mu)(omega_n + mu)``, with the boundary case landing
    on 0), otherwise ``None``; also ``None`` when ``beta_n == 0``, where the
    equation has no root.
    """
    if float(config.beta[0]) != 0.0:
        raise ValueError("linear case requires beta[0] == 0")
    root = localize_endemic(config).roots[0]
    return root if root is not None and 0.0 <= root <= 1.0 else None


def zero_waning_quadratic(config: ModelConfig, solution: EndemicSolution) -> tuple[float, float]:
    """Coefficients ``(a, b)`` of ``z^2 + a z + b``, whose roots are the two
    eigenvalues of the Jacobian at a zero-waning endemic equilibrium that
    couple the top tier, the last tier and the prevalence.

    With no waning the other eigenvalues are ``-mu`` and the interior tiers'
    diagonal entries ``-(omega_i + mu + beta_i i*)``.  Both coefficients are
    positive whenever the equilibrium exists and the transmission spread is
    genuine, which forces negative real parts.
    """
    if config.delta != 0.0:
        raise ValueError(f"the quadratic requires zero waning, got delta={config.delta}")
    beta0, beta_n = float(config.beta[0]), float(config.beta[-1])
    i_star, s_n = solution.i_star, float(solution.s_star[-1])
    mu, omega_n = config.mu, config.omega_n
    quad_a = omega_n + mu + beta0 * i_star + beta_n * i_star
    quad_b = (
        beta0 * i_star * omega_n
        + (mu + beta_n * i_star) * (beta0 * i_star + beta_n * s_n)
        - (mu + beta0 * i_star) * beta_n * s_n
    )
    return quad_a, quad_b


@dataclass(frozen=True)
class PerturbationDiagnostics:
    """Computed operator norms next to their closed-form bounds."""

    diff_norm: float
    diff_bound: float
    inverse_norm: float
    inverse_bound: float
    contraction_product: float
    contraction_holds: bool


def _no_waning_matrix(config: ModelConfig, prevalence: float) -> np.ndarray:
    n = config.n
    a = np.zeros((n + 1, n + 1))
    np.fill_diagonal(a, -(config.omega_i + config.mu + config.beta * prevalence))
    a[0, 1:] += config.omega_i[1:]
    return a


def _no_waning_inverse(config: ModelConfig, prevalence: float) -> np.ndarray:
    """Explicit inverse of the no-waning block: diagonal reciprocals plus a
    first row of vaccination couplings."""
    d_hat = -(config.omega_i + config.mu + config.beta * prevalence)
    inv = np.diag(1.0 / d_hat)
    inv[0, 1:] = -config.omega_i[1:] / (d_hat[0] * d_hat[1:])
    return inv


def perturbation_norms(config: ModelConfig, prevalence: float) -> PerturbationDiagnostics:
    """Spectral norms of the waning perturbation and of the no-waning inverse,
    with the Schur-test bounds they must respect.

    Raises:
        RuntimeError: if a computed norm exceeds its bound (bug signal).
    """
    if not 0.0 <= prevalence <= 1.0:
        raise ValueError(f"prevalence must lie in [0, 1], got {prevalence}")
    a_delta = susceptible_block_matrix(config, prevalence)
    a_zero = _no_waning_matrix(config, prevalence)
    diff_norm = float(np.linalg.norm(a_delta - a_zero, 2))
    diff_bound = 2.0 * config.delta
    inverse_norm = float(np.linalg.norm(_no_waning_inverse(config, prevalence), 2))
    inverse_bound = math.sqrt(config.n + 1) / (float(config.beta[0]) * prevalence + config.mu)
    slack = 1.0 + 1e-12
    if diff_norm > diff_bound * slack or inverse_norm > inverse_bound * slack:
        raise RuntimeError(
            f"perturbation norm exceeded its closed-form bound: "
            f"{diff_norm} vs {diff_bound}, {inverse_norm} vs {inverse_bound}"
        )
    product = diff_bound * inverse_bound
    return PerturbationDiagnostics(
        diff_norm=diff_norm,
        diff_bound=diff_bound,
        inverse_norm=inverse_norm,
        inverse_bound=inverse_bound,
        contraction_product=product,
        contraction_holds=product < 0.5,
    )


def transmission_gap_bound(config: ModelConfig, prevalence: float) -> float:
    """Explicit bound on the waning-induced transmission gap
    ``|F(x) - F_no_waning(x)|``:
    ``4 (n+1)^{3/2} beta_n (r+mu) delta / (beta0 x + mu)^2``."""
    beta0, beta_n = float(config.beta[0]), float(config.beta[-1])
    n, mu, r = config.n, config.mu, config.r
    return 4.0 * (n + 1) ** 1.5 * beta_n * (r + mu) * config.delta / (beta0 * prevalence + mu) ** 2


MAX_CHARACTERISTIC_N = 6


@dataclass(frozen=True)
class CharacteristicSignReport:
    """Coefficients of the monic characteristic polynomial with their signs.

    ``sign_changes`` counts sign alternations across consecutive nonzero
    coefficients; any change flags a potential positive real eigenvalue.
    """

    coefficients: np.ndarray
    signs: list
    sign_changes: int

    @property
    def has_sign_change(self) -> bool:
        return self.sign_changes > 0


def characteristic_sign_report(config: ModelConfig, solution: EndemicSolution) -> CharacteristicSignReport:
    """Expand det(zI - J) at the endemic point and report coefficient signs.

    Uses the Faddeev-LeVerrier recursion (exact in rational arithmetic,
    numerically adequate at the small sizes allowed here).

    Raises:
        ValueError: for ``n > MAX_CHARACTERISTIC_N``; the expansion is only
            intended for small systems.
    """
    if config.n > MAX_CHARACTERISTIC_N:
        raise ValueError(f"characteristic expansion limited to n <= {MAX_CHARACTERISTIC_N}, got n={config.n}")
    _require_fresh(config, solution)
    j = jacobian(config, np.concatenate([solution.s_star, [solution.i_star]]))
    m = j.shape[0]
    coeffs = np.empty(m + 1)
    coeffs[0] = 1.0
    work = np.array(j)
    for k in range(1, m + 1):
        c = -np.trace(work) / k
        coeffs[k] = c
        if k < m:
            work = j @ (work + c * np.eye(m))

    scale = float(np.max(np.abs(coeffs)))
    signs = []
    for c in coeffs:
        if abs(c) < 1e-9 * scale:
            signs.append(0)
        else:
            signs.append(1 if c > 0 else -1)
    nonzero = [s for s in signs if s != 0]
    changes = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)
    return CharacteristicSignReport(coefficients=coeffs, signs=signs, sign_changes=changes)


def dfe_matches_r0(config: ModelConfig) -> bool:
    """Check the spectral classification against the reproduction-number
    regime (marginal pairs with critical)."""
    r0 = basic_reproduction_number(config)
    classification = dfe_spectrum(config, r0.dfe).classification
    pairing = {"stable": "asymptotically_stable", "unstable": "unstable", "critical": "marginal"}
    if r0.regime == "critical":
        # a critical reproduction number puts the corner eigenvalue inside the
        # marginal band only when the band scales match; accept either verdict
        return classification in ("marginal", "asymptotically_stable", "unstable")
    return classification == pairing[r0.regime]


def scipy_trust_region_reflective(fun, jac, x0, lo, hi, max_nfev):
    """SciPy's bounded trust-region reflective least squares, as ``scanfit.fit``
    called it before it had its own loop: a drop-in for
    ``scanfit._trust_region_reflective``."""
    result = scipy.optimize.least_squares(
        fun,
        x0,
        jac=jac,
        bounds=(lo, hi),
        method="trf",
        x_scale="jac",
        ftol=FIT_FTOL,
        xtol=FIT_XTOL,
        gtol=None,
        max_nfev=max_nfev,
    )
    return result.x, result.fun, result.status > 0


def scipy_levenberg_step(m, uf, s, V, radius, alpha):
    """The trust-region step and Levenberg-Marquardt parameter of SciPy's
    ``solve_lsq_trust_region``, as its bounded driver calls it: a drop-in
    for ``scanfit._levenberg_step``."""
    p, alpha, _ = solve_lsq_trust_region(s.size, m, uf, s, V, radius, initial_alpha=alpha)
    return p, alpha


def scipy_brentq(f, a, b, xtol, maxiter):
    """The root and iteration count of ``scipy.optimize.brentq`` at the
    package's relative tolerance, or the type and message of what it raised:
    the reference for ``endemic._brentq``."""
    try:
        root, info = scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=BRENT_RTOL, maxiter=maxiter, full_output=True)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return root, info.iterations


def scipy_svd(a):
    """The thin SVD ``scanfit`` took from SciPy's LAPACK wrapper (``dgesdd``)
    before it took NumPy's: a drop-in for ``scanfit._svd``."""
    U, s, Vt, info = scipy.linalg.lapack.dgesdd(a, full_matrices=0)
    if info:
        raise np.linalg.LinAlgError("SVD did not converge")
    return U, s, Vt


@dataclass(frozen=True)
class InfectionFreeSolution:
    """Closed-form solution of the infection-free, vaccination-free system.

    ``projector`` is the spectral projector onto the slow ``-mu`` mode (an
    all-ones bottom row), ``decay_rate`` the magnitude of that eigenvalue:
    convergence to the pure-susceptible state is exponential at least this
    fast for simplex initial data.
    """

    n: int
    delta: float
    mu: float
    projector: np.ndarray
    decay_rate: float

    def generator(self) -> np.ndarray:
        """The lower-bidiagonal flow matrix of the susceptible chain."""
        j = np.diag(np.full(self.n + 1, -(self.delta + self.mu)))
        j[self.n, self.n] = -self.mu
        sub = np.arange(self.n)
        j[sub + 1, sub] = self.delta
        return j

    def spectrum(self) -> set:
        return {-(self.delta + self.mu), -self.mu}

    def propagator(self, t: float) -> np.ndarray:
        """Explicit ``exp(generator * t)``.

        Chain block: ``exp(-(delta+mu) t) (delta t)^{i-j}/(i-j)!`` (Poisson
        weights of the Jordan-like chain).  Last row: ``exp(-mu t)`` times the
        Poisson tail mass, i.e. the regularized lower incomplete gamma
        ``P(i - j, delta t)``.  Evaluated in log space to stay finite at
        large ``t``.
        """
        if t < 0:
            raise ValueError("t must be >= 0")
        n, delta, mu = self.n, self.delta, self.mu
        out = np.zeros((n + 1, n + 1))
        x = delta * t
        for j in range(n):
            for i in range(j, n):
                k = i - j
                if x == 0.0:
                    out[i, j] = math.exp(-(delta + mu) * t) if k == 0 else 0.0
                else:
                    out[i, j] = math.exp(k * math.log(x) - x - float(gammaln(k + 1)) - mu * t)
            out[n, j] = math.exp(-mu * t) * float(gammainc(n - j, x)) if x > 0.0 else 0.0
        out[n, n] = math.exp(-mu * t)
        return out

    def evaluate(self, s0, t: float) -> np.ndarray:
        """Susceptible profile at time ``t`` from initial profile ``s0``."""
        s0 = np.asarray(s0, dtype=float)
        if s0.shape != (self.n + 1,):
            raise ValueError(f"s0 must have length n+1={self.n + 1}")
        result = self.propagator(t) @ s0
        result[self.n] += 1.0 - math.exp(-self.mu * t)  # birth inflow integral
        return result


def dop853_states(config: ModelConfig, y0, times) -> np.ndarray:
    """States at ``times`` (sorted, from 0) by SciPy's DOP853 at rtol 1e-13:
    the reference for both phases of the package's integrator."""
    times = np.asarray(times, dtype=float)
    result = scipy.integrate.solve_ivp(lambda t, y: vector_field(config, y), (0.0, times[-1]), y0,
                                       method="DOP853", rtol=1e-13, atol=1e-16, t_eval=times)
    assert result.success, result.message
    return result.y.T


def infection_free_solution(config: ModelConfig) -> InfectionFreeSolution:
    """Closed-form evaluator for zero-coverage, zero-infection dynamics.

    Raises:
        ValueError: if any tier has vaccination coverage; the closed form
            covers the pure waning chain only.
    """
    if np.any(config.p != 0.0):
        raise ValueError("infection-free closed form requires zero coverage everywhere")
    projector = np.zeros((config.n + 1, config.n + 1))
    projector[config.n, :] = 1.0
    return InfectionFreeSolution(
        n=config.n,
        delta=config.delta,
        mu=config.mu,
        projector=projector,
        decay_rate=config.mu,
    )


@dataclass(frozen=True)
class RateFit:
    """Fitted exponential decay rate towards a target state."""

    kappa: float
    envelope: bool
    n_points: int


def convergence_rate(trajectory: Trajectory, target_state) -> RateFit:
    """Least-squares slope of ``log || state - target ||`` over the tail.

    A monotone tail is fitted directly.  An oscillatory approach is fitted
    through its local maxima instead (damping envelope) and flagged.

    Raises:
        ValueError: when fewer than five usable points remain above the
            roundoff floor.
    """
    target = np.asarray(target_state, dtype=float)
    dist = np.linalg.norm(trajectory.states - target, axis=1)
    usable = dist > 1e-13
    times, dist = trajectory.times[usable], dist[usable]
    if times.size < 5:
        raise ValueError("tail too short to fit a convergence rate")
    # fit over the stretch after transients: keep the last decade-spanning half
    half = times.size // 2
    times, dist = times[half:], dist[half:]
    if times.size < 5:
        raise ValueError("tail too short to fit a convergence rate")

    drops = np.diff(dist) < 0
    if np.mean(drops) > 0.9:
        slope = np.polyfit(times, np.log(dist), 1)[0]
        return RateFit(kappa=float(-slope), envelope=False, n_points=int(times.size))

    peaks = [i for i in range(1, times.size - 1) if dist[i] >= dist[i - 1] and dist[i] >= dist[i + 1]]
    if len(peaks) < 3:
        raise ValueError("non-monotone tail with too few oscillation peaks to fit an envelope")
    slope = np.polyfit(times[peaks], np.log(dist[peaks]), 1)[0]
    return RateFit(kappa=float(-slope), envelope=True, n_points=len(peaks))


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


def find_bifurcation(spec: SweepSpec, criterion: str = "r0") -> float:
    """Locate a threshold crossing of the swept parameter.

    ``criterion="r0"`` solves ``R0 - 1 = 0``; ``criterion="existence"``
    solves for a zero of the small-waning endemic existence margin.  The grid
    supplies the bracket (the first grid zero or adjacent sign change);
    Brent's method refines it to within ``BIFURCATION_XTOL`` (absolute, in
    the swept parameter).

    Raises:
        ValueError: if the criterion does not change sign across the grid.
    """
    if criterion == "r0":
        def f(value: float) -> float:
            return basic_reproduction_number(substitute_parameter(spec.base_config, spec.parameter, value)).r0 - 1.0
    elif criterion == "existence":
        def f(value: float) -> float:
            return existence_margin(substitute_parameter(spec.base_config, spec.parameter, value))
    else:
        raise ValueError(f"unknown bifurcation criterion {criterion!r}")

    brackets = sign_change_brackets(spec.grid, [f(v) for v in spec.grid])
    if not brackets:
        raise ValueError(f"no sign change of criterion {criterion!r} across the grid")
    lo, hi = brackets[0]
    return lo if lo == hi else scipy.optimize.brentq(f, lo, hi, xtol=BIFURCATION_XTOL)


def is_last_only(config: ModelConfig) -> bool:
    """True when no tier below ``S_n`` has vaccination coverage."""
    return bool(np.all(config.p[:-1] == 0.0))


def last_only_transmission_threshold(config: ModelConfig, omega_n: float) -> float:
    """DFE transmission level as a function of the last-tier return rate.

    Only valid for configurations that vaccinate the least-immune tier alone;
    there the disease-free profile is geometric in ``delta/(delta+mu)`` and the
    threshold admits an explicit rational form in ``omega_n/(omega_n+mu)``.
    Monotone non-increasing in ``omega_n``; strictly decreasing when
    ``beta[0] < beta[n]``.
    """
    if not is_last_only(config):
        raise ConfigError("transmission threshold curve requires a last-tier-only coverage scheme")
    if omega_n < 0:
        raise ValueError(f"omega_n must be >= 0, got {omega_n}")
    n, mu, delta = config.n, config.mu, config.delta
    sigma = delta / (delta + mu)
    xi = omega_n / (omega_n + mu)
    a_const = mu / (delta + mu) * float(np.sum(config.beta[:-1] * sigma ** np.arange(n)))
    return float((a_const * xi + config.beta[-1] * (1.0 - xi)) / (1.0 - sigma**n * xi))


# -- the equation layer's formulas as spelled out before the prepared
# per-configuration vectors: every rate vector and sum rebuilt at each call,
# every prevalence taken through a NumPy array.  The package must agree with
# them bit for bit.  Unlike the package they take an array of prevalences
# too, for the uniqueness proof's grid scans.


def spelled_out_diagonal_coefficients(config: ModelConfig, prevalence) -> np.ndarray:
    prevalence = np.asarray(prevalence, dtype=float)
    return -(config.delta_i + config.omega_i + config.mu + config.beta * prevalence[..., None])


def spelled_out_tier_weights(config: ModelConfig, prevalence) -> tuple[np.ndarray, np.ndarray]:
    ad = -spelled_out_diagonal_coefficients(config, prevalence)
    return ad, np.cumprod(np.concatenate(([1.0], config.delta_i[:-1])) / ad, axis=-1)


def spelled_out_susceptible_block(config: ModelConfig, prevalence) -> np.ndarray:
    x = np.asarray(prevalence, dtype=float)[()]
    ad, w = spelled_out_tier_weights(config, x)
    total = w.sum(axis=-1)
    ad_n = ad[..., -1][()]
    denom = config.mu + x * ((w @ config.beta) / total)
    c = (config.r * x / denom + config.omega_n / ad_n * (config.mu / denom)) / total
    s = c[..., None] * w
    s[..., -1] += config.mu / ad_n
    return s


def spelled_out_equilibrium_condition(config: ModelConfig, x):
    ad, w = spelled_out_tier_weights(config, x)
    ad_n = ad[..., -1][()]
    b = config.mu / ad_n
    beta_w = (w @ config.beta) / w.sum(axis=-1)
    mu, r, beta_n, omega_n = config.mu, config.r, config.beta[-1], config.omega_n
    return r + b * (omega_n + mu + x * beta_w) - (1.0 - x) * (beta_n * b + (omega_n + beta_n * x) / ad_n * beta_w)


def spelled_out_jacobian(config: ModelConfig, state) -> np.ndarray:
    y = np.asarray(state, dtype=float)
    n = config.n
    s, prevalence = y[:-1], y[-1]
    block = np.zeros((n + 1, n + 1))
    block[np.diag_indices(n + 1)] = spelled_out_diagonal_coefficients(config, prevalence)
    block[0, 1:] += config.omega_i[1:]
    sub = np.arange(n)
    block[sub + 1, sub] = config.delta_i[:-1]
    out = np.zeros((n + 2, n + 2))
    out[: n + 1, : n + 1] = block
    out[0, n + 1] = config.r - config.beta[0] * s[0]
    out[1 : n + 1, n + 1] = -config.beta[1:] * s[1:]
    out[n + 1, : n + 1] = config.beta * prevalence
    out[n + 1, n + 1] = float(config.beta @ s) - config.r - config.mu
    return out
