"""Disease-free equilibrium and reproduction-number machinery.

The susceptible block of the model linearizes (at a fixed infection level)
to a lower-bidiagonal matrix plus a dense first row carrying the vaccination
return flows.  That structure gives a closed-form determinant (by the matrix
determinant lemma) and a closed-form disease-free equilibrium (by Cramer's
rule), both implemented here alongside an independent dense-solve path used
as a trust anchor in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ConfigError, ModelConfig, diagonal_coefficients, is_last_only

__all__ = [
    "DfeSolution",
    "R0Report",
    "susceptible_block_matrix",
    "matrix_determinant",
    "solve_dfe_closed_form",
    "solve_dfe_numeric",
    "basic_reproduction_number",
    "last_only_transmission_threshold",
]

CRITICAL_BAND = 1e-12


def susceptible_block_matrix(config: ModelConfig, prevalence: float = 0.0) -> np.ndarray:
    """(n+1) x (n+1) matrix governing the susceptible tiers at a fixed
    infection level.

    Diagonal entries are the total per-tier outflow coefficients, the
    subdiagonal carries the waning chain, and the first row carries the
    vaccination returns into the most-immune tier.  At ``prevalence == 0``
    this is the linear system whose solution is the disease-free equilibrium.
    """
    n = config.n
    a = np.zeros((n + 1, n + 1))
    d = diagonal_coefficients(config, prevalence)
    a[np.diag_indices(n + 1)] = d
    a[0, 1:] += config.omega_i[1:]
    sub = np.arange(n)
    a[sub + 1, sub] = config.delta_i[:-1]
    return a


def matrix_determinant(config: ModelConfig, prevalence: float = 0.0) -> float:
    """Closed-form determinant of :func:`susceptible_block_matrix`.

    Splitting off the first-row vaccination entries leaves a lower-bidiagonal
    factor, and the rank-one update contributes
    ``1 - sum_k (omega_k / |d_k|) * prod_{i<k} delta_i / |d_i|``
    (empty product = 1).  The result is nonzero for every valid
    configuration, so the matrix is always invertible.
    """
    d = diagonal_coefficients(config, prevalence)
    ad = np.abs(d)
    ratios = config.delta_i[:-1] / ad[:-1]
    # prefix[k] = prod_{i<k} delta_i/|d_i|
    prefix = np.concatenate(([1.0], np.cumprod(ratios)))
    terms = config.omega_i / ad * prefix
    correction = math.fsum([1.0] + [-t for t in terms.tolist()])
    return float(np.prod(d)) * correction


@dataclass(frozen=True)
class DfeSolution:
    """Disease-free equilibrium: susceptible profile, normalization constant
    of the Cramer solution, and the block-matrix determinant."""

    s: np.ndarray
    c: float
    det: float

    @property
    def i(self) -> float:
        return 0.0

    def to_dict(self) -> dict:
        return {"s": [float(x) for x in self.s], "i": 0.0, "c": self.c, "det": self.det}


def solve_dfe_closed_form(config: ModelConfig) -> DfeSolution:
    """Disease-free equilibrium via the Cramer closed form.

    The profile is proportional to products of waning rates and outflow
    magnitudes, with the constant ``c`` fixed equivalently by the determinant
    identity ``c = omega_n * mu / |det|`` or by the normalization condition.
    The normalization route is used here because it involves only positive
    quantities (forward-stable); the determinant identity is preserved as a
    cross-check invariant.  With no coverage on the least-immune tier the
    whole population ends up there (the profile is the last basis vector,
    independent of the vaccination rate and interior coverages).
    """
    n = config.n
    d = diagonal_coefficients(config, 0.0)
    ad = np.abs(d)
    det = matrix_determinant(config, 0.0)

    # prefix_delta[k] = prod_{i<k} delta_i ; tail_d[k] = prod_{i=k+1}^{n-1} |d_i|
    prefix_delta = np.concatenate(([1.0], np.cumprod(config.delta_i[:-1])))
    tail_d = np.ones(n + 1)
    tail_d[: n - 1] = np.cumprod(ad[n - 1 : 0 : -1])[::-1]

    shape = np.empty(n + 1)
    shape[:n] = prefix_delta[:n] * tail_d[:n]
    shape[n] = prefix_delta[n] / ad[n]
    if config.omega_n > 0.0:
        # sum(c * shape) must equal 1 - mu/|d_n| = omega_n/(omega_n + mu)
        c = config.omega_n / ((config.omega_n + config.mu) * math.fsum(shape.tolist()))
    else:
        c = 0.0
    s = c * shape
    s[n] += config.mu / ad[n]
    return DfeSolution(s=s, c=c, det=det)


def solve_dfe_numeric(config: ModelConfig) -> DfeSolution:
    """Disease-free equilibrium by dense LU solve (oracle path).

    One iterative-refinement step with an extended-precision residual keeps
    the forward error near machine level even for poorly scaled rate
    combinations.  A singular matrix here would be a bug signal, not a
    reachable state.
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
        raise ArithmeticError(
            "susceptible block matrix is singular; this should be unreachable "
            "for a valid configuration"
        ) from exc
    det = float(np.linalg.det(a))
    return DfeSolution(s=x, c=config.omega_n * config.mu / abs(det), det=det)


@dataclass(frozen=True)
class R0Report:
    """Basic reproduction number with its stability classification.

    ``threshold_sum`` is the transmission level at the disease-free
    equilibrium; the infection grows iff it exceeds the removal rate
    ``r + mu``.  ``regime`` is ``"critical"`` inside a relative band of
    ``1e-12`` around the threshold so callers near criticality get an
    explicit flag rather than a silently chosen side.  ``dfe`` is the
    equilibrium it was computed from, not part of the report's value.
    """

    r0: float
    threshold_sum: float
    regime: str
    dfe: DfeSolution = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"r0": self.r0, "threshold_sum": self.threshold_sum, "regime": self.regime}


def basic_reproduction_number(config: ModelConfig) -> R0Report:
    """R0 = (transmission at the DFE) / (removal rate)."""
    dfe = solve_dfe_closed_form(config)
    threshold = float(config.beta @ dfe.s)
    removal = config.r + config.mu
    if abs(threshold - removal) < CRITICAL_BAND * removal:
        regime = "critical"
    elif threshold < removal:
        regime = "stable"
    else:
        regime = "unstable"
    return R0Report(r0=threshold / removal, threshold_sum=threshold, regime=regime, dfe=dfe)


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
