"""Disease-free equilibrium and reproduction-number machinery.

The susceptible block of the model linearizes (at a fixed infection level)
to a lower-bidiagonal matrix plus a dense first row carrying the vaccination
return flows.  One prefix product of tier ratios solves the bidiagonal part
and gives the steady susceptible profile, and with it the disease-free
equilibrium, in closed form at any prevalence and any number of tiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, _profile_terms_of, _tier_outflow, diagonal_coefficients

__all__ = [
    "DfeSolution",
    "R0Report",
    "susceptible_block_matrix",
    "tier_weights",
    "solve_dfe_closed_form",
    "basic_reproduction_number",
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
    a = np.zeros((config.n + 1, config.n + 1))
    _write_susceptible_block(a, config, prevalence)
    return a


def _write_susceptible_block(a: np.ndarray, config: ModelConfig, prevalence) -> None:
    """Write the nonzero entries of :func:`susceptible_block_matrix` into the
    leading ``(n+1) x (n+1)`` block of the zero C-contiguous matrix ``a``."""
    n, m = config.n, a.shape[1]
    flat = a.reshape(-1)  # a view: the diagonal and subdiagonal are strided slices
    flat[:: m + 1][: n + 1] = diagonal_coefficients(config, prevalence)
    flat[m :: m + 1][:n] = config.delta_i[:-1]
    a[0, 1 : n + 1] = config.omega_i[1:]


def tier_weights(config: ModelConfig, prevalence=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Outflow magnitudes ``|d|`` and ``w = -L^{-1} e_0``, where ``L`` is the
    lower-bidiagonal part of :func:`susceptible_block_matrix`, at one
    prevalence.

    ``w`` is the prefix product of ``1/|d_0|, delta_0/|d_1|, ...,
    delta_{n-1}/|d_n|``.  Each ``w_k = prod_{i<k} (delta_i/|d_i|) / |d_k|``
    is at most ``1/mu``, so no partial product overflows at any ``n``.
    """
    ad = _tier_outflow(config, prevalence)
    return ad, _profile_terms_of(config, ad)[1]


def _profile_terms(config: ModelConfig, x):
    """``(|d_n|, w, sum(w), beta . w)`` with the :func:`tier_weights` ``w`` at
    prevalence ``x``.  At the float 0.0 (or -0.0, the same terms) they are
    the configuration's prepared ``_profile0``, with ``w`` read-only."""
    if type(x) is float and x == 0.0:
        return config._profile0
    return _profile_terms_of(config, _tier_outflow(config, x))


def _steady_profile(config: ModelConfig, prevalence=0.0) -> np.ndarray:
    """Steady susceptible profile ``S(x)`` at one prevalence.

    ``S`` solves ``(L + e_0 omega^T) S = -r x e_0 - mu e_n``.  With the
    :func:`tier_weights` ``w`` and ``b = mu/|d_n|``, Sherman-Morrison gives
    ``S = c w + b e_n``, ``c = (r x + omega_n b)/D``, ``D = 1 - omega . w``;
    the tier balance ``|d_k| w_k = delta_{k-1} w_{k-1}`` summed over ``k``
    makes ``D = mu sum(w) + x beta . w``, a sum of non-negative terms, so
    ``S >= 0``.  ``S`` is formed from ``w/sum(w)`` (it is scale-free), for
    which ``D >= mu > 0``.  Off an equilibrium ``sum(S) = 1 + x (r - beta .
    S)/mu`` can overflow, so the root search evaluates ``G = (r + mu - beta .
    S) D/mu`` alone (:func:`waningsim.endemic._equilibrium_condition`).
    """
    ad_n, w, total, beta_dot_w = _profile_terms(config, prevalence)
    x = float(prevalence)  # checked by _profile_terms
    denom = config.mu + x * (beta_dot_w / total)
    # omega_n b/D as (omega_n/|d_n|)(mu/D): both factors stay normal where
    # b = mu/|d_n| is subnormal
    c = (config.r * x / denom + config.omega_n / ad_n * (config.mu / denom)) / total
    s = c * w
    s[-1] += config.mu / ad_n
    return s


@dataclass(frozen=True, eq=False)
class DfeSolution:
    """Disease-free equilibrium: the susceptible profile (prevalence 0);
    solutions compare by identity."""

    s: np.ndarray

    @property
    def i(self) -> float:
        return 0.0

    def to_dict(self) -> dict:
        return {"s": [float(x) for x in self.s], "i": 0.0}


def solve_dfe_closed_form(config: ModelConfig) -> DfeSolution:
    """Disease-free equilibrium ``S(0) = (omega_n/|d_n|) w/sum(w) + b e_n``,
    the :func:`_steady_profile` at prevalence 0.

    There ``D = 1 - omega . w = mu sum(w)`` (the tier balance
    ``|d_k| w_k = delta_{k-1} w_{k-1}`` summed over the tiers), and ``G(0) =
    (r + mu) sum(w) - beta_n b sum(w) - (omega_n/|d_n|) beta . w`` has the
    sign of ``1 - R0``.  Every term is non-negative, so the profile is finite
    at any ``n``.  With no coverage on the least-immune tier the whole
    population ends up there.
    """
    return DfeSolution(s=_steady_profile(config, 0.0))


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
