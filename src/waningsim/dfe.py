"""Disease-free equilibrium and reproduction-number machinery.

The susceptible block of the model linearizes (at a fixed infection level)
to a lower-bidiagonal matrix plus a dense first row carrying the vaccination
return flows.  One prefix product of tier ratios solves the bidiagonal part
and gives the disease-free equilibrium in closed form at any number of
tiers.  An independent dense solve is the ``dfe`` command's explicit check
of that form.
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
    "tier_weights",
    "solve_dfe_closed_form",
    "solve_dfe_numeric",
    "basic_reproduction_number",
    "last_only_transmission_threshold",
    "NonFiniteThresholdError",
]

CRITICAL_BAND = 1e-12


class NonFiniteThresholdError(ArithmeticError):
    """The transmission level at the disease-free equilibrium is not a finite
    number, so no regime can be assigned to the configuration."""


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


def tier_weights(config: ModelConfig, prevalence=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Outflow magnitudes ``|d|`` and ``w = -L^{-1} e_0``, where ``L`` is the
    lower-bidiagonal part of :func:`susceptible_block_matrix`, at one
    prevalence or an array of them (both of shape ``P + (n+1,)``).

    ``w`` is the prefix product of ``1/|d_0|, delta_0/|d_1|, ...,
    delta_{n-1}/|d_n|``.  Each ``w_k = prod_{i<k} (delta_i/|d_i|) / |d_k|``
    is at most ``1/mu``, so no partial product overflows at any ``n``.
    """
    ad = -diagonal_coefficients(config, prevalence)
    return ad, np.cumprod(np.concatenate(([1.0], config.delta_i[:-1])) / ad, axis=-1)


@dataclass(frozen=True)
class DfeSolution:
    """Disease-free equilibrium: the susceptible profile (prevalence 0)."""

    s: np.ndarray

    @property
    def i(self) -> float:
        return 0.0

    def to_dict(self) -> dict:
        return {"s": [float(x) for x in self.s], "i": 0.0}


def solve_dfe_closed_form(config: ModelConfig) -> DfeSolution:
    """Disease-free equilibrium ``s = c' w + (mu/|d_n|) e_n`` from the
    :func:`tier_weights` ``w``.

    ``c'`` is fixed by the normalization condition, which involves only
    positive quantities (forward-stable), so the profile is finite at any
    ``n``.  With no coverage on the least-immune tier the whole population
    ends up there (the profile is the last basis vector, independent of the
    vaccination rate and interior coverages).
    """
    ad, w = tier_weights(config, 0.0)
    # sum(c' * w) must equal 1 - mu/|d_n| = omega_n/(omega_n + mu)
    scale = config.omega_n / ((config.omega_n + config.mu) * math.fsum(w.tolist()))
    s = scale * w
    s[-1] += config.mu / ad[-1]
    return DfeSolution(s=s)


def solve_dfe_numeric(config: ModelConfig) -> DfeSolution:
    """Disease-free equilibrium by dense LU solve, the ``dfe`` command's check.

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
    """R0 = (transmission at the DFE) / (removal rate).

    Raises:
        NonFiniteThresholdError: if that transmission level is NaN or infinite.
    """
    dfe = solve_dfe_closed_form(config)
    threshold = float(config.beta @ dfe.s)
    if not math.isfinite(threshold):
        raise NonFiniteThresholdError(f"transmission level at the disease-free equilibrium is {threshold}")
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
