"""Test oracles: closed forms, bounds and cross-checks of the paper's theory
that the package's answer pipeline does not use, and SciPy's least-squares
driver as the reference for the fit's own trust-region loop."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from waningsim.dfe import basic_reproduction_number, susceptible_block_matrix, tier_weights
from waningsim.endemic import EndemicSolution, localize_endemic
from waningsim.model import ModelConfig
from waningsim.scanfit import FIT_FTOL, FIT_XTOL
from waningsim.stability import _require_fresh, dfe_spectrum, jacobian


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
