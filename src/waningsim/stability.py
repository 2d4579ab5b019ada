"""Jacobian assembly and linear stability classification.

Each spectrum is one dense eigensolve of the flow's Jacobian at the
equilibrium state, and the endemic verdict is its largest real part.  At the
disease-free equilibrium the Jacobian is block triangular: its spectrum is
the susceptible block's, whose column Gersgorin discs all end at the
eigenvalue ``-mu``, plus the scalar ``transmission - (r + mu)``, so the
verdict is the closed form ``max(transmission - (r + mu), -mu)``, which needs
no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dfe import DfeSolution, _write_susceptible_block
from .endemic import EndemicSolution
from .model import ModelConfig, _as_state_array

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

    The susceptible block is :func:`susceptible_block_matrix`'s, written in
    place; the last column carries the sensitivities to the prevalence and
    the last row the infection pressure.  Every column sums to ``-mu``: the flow conserves
    total population, so mass leaves the system only through deaths.
    """
    y = _as_state_array(config, state)
    n = config.n
    s, prevalence = y[:-1], y[-1]
    transmission = float(config.beta @ s)

    out = np.zeros((n + 2, n + 2))
    _write_susceptible_block(out, config, prevalence)
    out[0, n + 1] = config.r - config.beta[0] * s[0]
    out[1 : n + 1, n + 1] = -config.beta[1:] * s[1:]
    out[n + 1, : n + 1] = config.beta * prevalence
    out[n + 1, n + 1] = transmission - config.r - config.mu
    return out


@dataclass(frozen=True, eq=False)
class StabilityVerdict:
    """Eigenvalues with a sign-of-spectral-abscissa classification; verdicts
    compare by identity.

    ``classification`` is ``"marginal"`` when the largest real part sits
    inside ``+-1e-10 rho``, ``rho`` the largest rate (so the label does not
    depend on the time unit); near-marginal points are reported as such
    rather than rounded to a side.
    """

    eigenvalues: np.ndarray
    max_real_part: float
    classification: str

    def to_dict(self) -> dict:
        """``eigenvalues`` as a float64 array of ``(real, imag)`` rows, a view
        of the complex array, which the artifact writer formats in one call."""
        return {
            "eigenvalues": self.eigenvalues.view(np.float64).reshape(-1, 2),
            "max_real_part": self.max_real_part,
            "classification": self.classification,
        }


def _classify(config: ModelConfig, max_real: float) -> str:
    band = MARGINAL_BAND * max(float(config.beta[0]), float(config.beta[-1]), config.mu, config.r, config.omega_n,
                               config.delta)
    if max_real < -band:
        return "asymptotically_stable"
    if max_real > band:
        return "unstable"
    return "marginal"


def _sorted_eigs(values: np.ndarray) -> np.ndarray:
    """``values`` sorted by real, then imaginary part, as a new complex128
    array (``eigvals`` returns a real array when no eigenvalue is complex)."""
    return values[np.lexsort((values.imag, values.real))].astype(np.complex128, copy=False)


def _eigenvalues(config: ModelConfig, state) -> np.ndarray:
    """Sorted eigenvalues of the :func:`jacobian` at ``state``."""
    return _sorted_eigs(np.linalg.eigvals(jacobian(config, state)))


def _verdict(config: ModelConfig, eigs: np.ndarray, max_real: float) -> StabilityVerdict:
    return StabilityVerdict(eigenvalues=eigs, max_real_part=max_real, classification=_classify(config, max_real))


def _dfe_max_real_part(config: ModelConfig, dfe: DfeSolution) -> float:
    """Largest real part of the Jacobian's spectrum at the disease-free
    equilibrium ``dfe``, ``max(beta . S* - (r + mu), -mu)`` (see
    :func:`dfe_spectrum`); the sweep's ``max_real_part`` observable too."""
    return max(float(config.beta @ dfe.s) - (config.r + config.mu), -config.mu)


def dfe_spectrum(config: ModelConfig, dfe: DfeSolution) -> StabilityVerdict:
    """Spectrum and classification of the Jacobian at the disease-free
    equilibrium ``dfe``.

    The Jacobian there is block triangular: the susceptible-block
    eigenvalues plus the corner ``transmission_at_dfe - (r + mu)``.  The
    susceptible-block eigenvalues have real part at most ``-mu``: column
    ``i`` holds the diagonal ``-(omega_i + delta_i + mu)`` and the
    off-diagonal entries ``delta_i`` (waning out) and ``omega_i`` (return to
    ``S_0``), with ``omega_0 = delta_n = 0``, so every column Gersgorin disc
    ends at ``-mu``; and ``-mu`` is an eigenvalue, as every column sums to
    ``-mu``.  The largest real part and the classification are therefore
    the closed form :func:`_dfe_max_real_part`; the one eigensolve gives
    only the eigenvalue list.
    """
    return _verdict(config, _eigenvalues(config, np.append(dfe.s, 0.0)), _dfe_max_real_part(config, dfe))


def _require_fresh(config: ModelConfig, solution: EndemicSolution) -> None:
    # the residual |beta . S* - (r + mu)| is a rate: the bound is relative,
    # so it does not depend on the time unit
    bound = STALE_RESIDUAL * (config.r + config.mu)
    if solution.residual >= bound:
        raise StaleSolutionError(f"endemic solution residual {solution.residual:g} exceeds {bound:g}")


def endemic_spectrum(config: ModelConfig, solution: EndemicSolution) -> StabilityVerdict:
    """Spectrum and classification of the Jacobian at an endemic equilibrium.

    Raises:
        StaleSolutionError: if the solution's residual is too large to
            trust its spectrum.
    """
    _require_fresh(config, solution)
    eigs = _eigenvalues(config, np.append(solution.s_star, solution.i_star))
    return _verdict(config, eigs, float(np.max(eigs.real)))
