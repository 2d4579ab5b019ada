"""Jacobian assembly and linear stability classification.

Both equilibria are classified by one dense eigensolve of the flow's
Jacobian at the equilibrium state.  At the disease-free equilibrium the
Jacobian is block triangular: its spectrum is the susceptible block's, whose
column Gersgorin discs all end at ``-mu``, plus the scalar ``transmission -
(r + mu)``, so the verdict is the sign of that scalar, the R0 threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dfe import DfeSolution, susceptible_block_matrix
from .endemic import EndemicSolution
from .model import ModelConfig, StateVector

__all__ = [
    "StaleSolutionError",
    "StabilityVerdict",
    "jacobian",
    "dfe_spectrum",
    "endemic_spectrum",
]

MARGINAL_BAND = 1e-10

STALE_RESIDUAL = 1e-9


class StaleSolutionError(ValueError):
    """The endemic solution's residual is too large to trust its spectrum."""


def jacobian(config: ModelConfig, state) -> np.ndarray:
    """Dense (n+2) x (n+2) Jacobian of the flow at a state.

    The susceptible block reuses :func:`susceptible_block_matrix`; the last
    column carries the sensitivities to the prevalence and the last row the
    infection pressure.  Every column sums to ``-mu``: the flow conserves
    total population, so mass leaves the system only through deaths.
    """
    y = state.as_array() if isinstance(state, StateVector) else np.asarray(state, dtype=float)
    n = config.n
    if y.shape != (n + 2,):
        raise ValueError(f"state must have length n+2={n + 2}, got shape {y.shape}")
    s, prevalence = y[:-1], y[-1]
    transmission = float(config.beta @ s)

    out = np.zeros((n + 2, n + 2))
    out[: n + 1, : n + 1] = susceptible_block_matrix(config, prevalence)
    out[0, n + 1] = config.r - config.beta[0] * s[0]
    out[1 : n + 1, n + 1] = -config.beta[1:] * s[1:]
    out[n + 1, : n + 1] = config.beta * prevalence
    out[n + 1, n + 1] = transmission - config.r - config.mu
    return out


@dataclass(frozen=True)
class StabilityVerdict:
    """Eigenvalues with a sign-of-spectral-abscissa classification.

    ``classification`` is ``"marginal"`` when the largest real part sits
    inside ``+-1e-10``; near-marginal points are reported as such rather than
    rounded to a side.
    """

    eigenvalues: np.ndarray
    max_real_part: float
    classification: str

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "max_real_part": self.max_real_part,
            "classification": self.classification,
        }


def _classify(max_real: float) -> str:
    if max_real < -MARGINAL_BAND:
        return "asymptotically_stable"
    if max_real > MARGINAL_BAND:
        return "unstable"
    return "marginal"


def _sorted_eigs(values: np.ndarray) -> np.ndarray:
    return values[np.lexsort((values.imag, values.real))]


def _spectrum(config: ModelConfig, state) -> StabilityVerdict:
    """Sorted eigenvalues of the :func:`jacobian` at ``state``, their largest
    real part and its classification."""
    eigs = _sorted_eigs(np.linalg.eigvals(jacobian(config, state)))
    max_real = float(np.max(eigs.real))
    return StabilityVerdict(eigenvalues=eigs, max_real_part=max_real, classification=_classify(max_real))


def dfe_spectrum(config: ModelConfig, dfe: DfeSolution) -> StabilityVerdict:
    """Spectrum and classification of the Jacobian at the disease-free
    equilibrium ``dfe``.

    The Jacobian there is block triangular: the susceptible-block
    eigenvalues plus the corner ``transmission_at_dfe - (r + mu)``.  The
    susceptible-block eigenvalues have real part at most ``-mu``: column
    ``i`` holds the diagonal ``-(omega_i + delta_i + mu)`` and the
    off-diagonal entries ``delta_i`` (waning out) and ``omega_i`` (return to
    ``S_0``), with ``omega_0 = delta_n = 0``, so every column Gersgorin disc
    ends at ``-mu``.
    """
    return _spectrum(config, np.append(dfe.s, 0.0))


def _require_fresh(config: ModelConfig, solution: EndemicSolution) -> None:
    # the residual |beta . S* - (r + mu)| is in the units of r + mu
    bound = STALE_RESIDUAL * max(1.0, config.r + config.mu)
    if solution.residual >= bound:
        raise StaleSolutionError(f"endemic solution residual {solution.residual:g} exceeds {bound:g}")


def endemic_spectrum(config: ModelConfig, solution: EndemicSolution) -> StabilityVerdict:
    """Spectrum and classification of the Jacobian at an endemic equilibrium.

    Raises:
        StaleSolutionError: if the solution's residual is too large to
            trust its spectrum.
    """
    _require_fresh(config, solution)
    return _spectrum(config, np.append(solution.s_star, solution.i_star))
