"""Jacobian assembly and linear stability classification.

At the disease-free equilibrium the Jacobian is block triangular, and
:func:`dfe_spectrum` computes its spectrum from the blocks: the eigenvalues
of the susceptible-block matrix plus the single scalar ``transmission -
(r + mu)``.  Every column Gersgorin disc of the susceptible block ends at
``-mu``, so the spectral abscissa has the sign of that scalar.  Endemic
points are classified by a dense eigensolve; with zero waning the
interesting part of the spectrum reduces to an explicit quadratic that
serves as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    rounded to a side.  ``reduced_quadratic`` carries the zero-waning
    analytic block coefficients ``(a, b)`` when applicable.
    """

    eigenvalues: np.ndarray
    max_real_part: float
    classification: str
    reduced_quadratic: tuple | None = field(default=None)

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "max_real_part": self.max_real_part,
            "classification": self.classification,
            "reduced_quadratic": list(self.reduced_quadratic) if self.reduced_quadratic else None,
        }


def _classify(max_real: float) -> str:
    if max_real < -MARGINAL_BAND:
        return "asymptotically_stable"
    if max_real > MARGINAL_BAND:
        return "unstable"
    return "marginal"


def _sorted_eigs(values: np.ndarray) -> np.ndarray:
    return values[np.lexsort((values.imag, values.real))]


def dfe_spectrum(config: ModelConfig, dfe: DfeSolution) -> StabilityVerdict:
    """Spectrum and classification of the Jacobian at the disease-free
    equilibrium ``dfe``, from its block-triangular structure: the
    susceptible-block eigenvalues plus the corner
    ``transmission_at_dfe - (r + mu)``.

    The susceptible-block eigenvalues have real part at most ``-mu``: column
    ``i`` holds the diagonal ``-(omega_i + delta_i + mu)`` and the
    off-diagonal entries ``delta_i`` (waning out) and ``omega_i`` (return to
    ``S_0``), with ``omega_0 = delta_n = 0``, so every column Gersgorin disc
    ends at ``-mu``.
    """
    corner = float(config.beta @ dfe.s) - config.r - config.mu
    eigs = _sorted_eigs(np.append(np.linalg.eigvals(susceptible_block_matrix(config)), corner))
    max_real = float(np.max(eigs.real))
    return StabilityVerdict(eigenvalues=eigs, max_real_part=max_real, classification=_classify(max_real))


def _require_fresh(config: ModelConfig, solution: EndemicSolution) -> None:
    # the residual |beta . S* - (r + mu)| is in the units of r + mu
    bound = STALE_RESIDUAL * max(1.0, config.r + config.mu)
    if solution.residual >= bound:
        raise StaleSolutionError(f"endemic solution residual {solution.residual:g} exceeds {bound:g}")


def endemic_spectrum(config: ModelConfig, solution: EndemicSolution) -> StabilityVerdict:
    """Spectrum and classification of the Jacobian at an endemic equilibrium.

    With zero waning the nontrivial eigenvalues are the roots of an explicit
    quadratic ``z^2 + a z + b`` (returned in ``reduced_quadratic`` as an
    independent certificate); both coefficients are positive whenever the
    equilibrium exists and the transmission spread is genuine, which forces
    negative real parts.
    """
    _require_fresh(config, solution)
    state = np.concatenate([solution.s_star, [solution.i_star]])
    eigs = _sorted_eigs(np.linalg.eigvals(jacobian(config, state)))
    max_real = float(np.max(eigs.real))

    reduced = None
    if config.delta == 0.0:
        beta0, beta_n = float(config.beta[0]), float(config.beta[-1])
        i_star, s_n = solution.i_star, float(solution.s_star[-1])
        mu, omega_n = config.mu, config.omega_n
        quad_a = omega_n + mu + beta0 * i_star + beta_n * i_star
        quad_b = (
            beta0 * i_star * omega_n
            + (mu + beta_n * i_star) * (beta0 * i_star + beta_n * s_n)
            - (mu + beta0 * i_star) * beta_n * s_n
        )
        reduced = (quad_a, quad_b)

    return StabilityVerdict(
        eigenvalues=eigs,
        max_real_part=max_real,
        classification=_classify(max_real),
        reduced_quadratic=reduced,
    )
