"""Time integration.

Integration uses the adaptive embedded Runge-Kutta 8(5,3) pair of Dormand
and Prince (Hairer's DOP853) with defaults tight enough that trajectories
double as equilibrium oracles (absolute tolerance 1e-12, relative 1e-10);
at such tolerances the step is bound by accuracy, where an eighth-order pair
takes long steps.  Once Hairer's stiffness estimate says the explicit step
is held at its stability limit (``h |lambda|`` above ``STIFF_LIMIT`` on
``STIFF_RUN`` accepted steps), the run goes on to a linearly implicit
Rosenbrock 4(3) step whose linear solves cost O(n), at the same tolerances,
for as long as its steps are ``IMPLICIT_GAIN`` times as long as the explicit
ones were.  The switch is never silent: ``Trajectory.n_implicit`` counts the
implicit steps, so a record says how it was integrated.  Steps are clipped
to requested sample times, so sampled values carry no interpolation error.
A failing run is reported with the time it reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import stepper
from .model import ModelConfig, StateVector, config_digest

__all__ = ["IntegrationError", "Trajectory", "integrate"]

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
DEFAULT_MAX_STEPS = 5_000_000
DFE_PREVALENCE_THRESHOLD = 1e-10

_STATUS_MESSAGES = {
    stepper.STATUS_UNDERFLOW: "step size underflow",
    stepper.STATUS_MAX_STEPS: "step budget exhausted",
    stepper.STATUS_NONFINITE: "non-finite state encountered",
    stepper.STATUS_NEGATIVE: "state component fell below the -1e-12 negativity threshold",
}


class IntegrationError(RuntimeError):
    """Integration failed; ``t_reached`` holds the last successful time."""

    def __init__(self, message: str, t_reached: float):
        super().__init__(f"{message} at t={t_reached:.6g}")
        self.t_reached = t_reached


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Accepted-step record of one integration.

    Records compare by identity: two integrations are two records.

    ``times`` are strictly increasing and include every requested sample time
    exactly.  ``terminal_status`` is ``"converged_dfe"``,
    ``"converged_endemic"`` or ``"max_time"``.  ``n_implicit`` of the
    ``n_accepted`` steps are Rosenbrock steps, taken after the stiffness
    switch (0 for a run that never switched).  ``t_end`` is the horizon of
    the integration, which a converged or restricted record ends before.
    ``config`` is the integrated configuration; its digest is computed only
    when asked for.
    """

    times: np.ndarray
    states: np.ndarray
    terminal_status: str
    n_accepted: int
    n_rejected: int
    n_implicit: int
    rtol: float
    atol: float
    t_end: float
    config: ModelConfig

    @property
    def config_hash(self) -> str:
        return config_digest(self.config)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_prevalence(self) -> float:
        return float(self.states[-1, -1])

    def state_at(self, index: int) -> StateVector:
        return StateVector.from_array(self.states[index])

    def _indices(self, times) -> tuple:
        """``(times, idx)``: the requested times as floats and the index of
        each in the stored grid, on exact hits only.  On a record that ends at
        its horizon a time at most 1e-12 above it is the horizon, as in
        :func:`integrate`'s ``t_eval``."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if self.times[-1] == self.t_end:
            times = np.where((times > self.t_end) & (times <= self.t_end + 1e-12), self.t_end, times)
        idx = np.minimum(np.searchsorted(self.times, times), self.times.size - 1)
        bad = self.times[idx] != times
        if bad.any():
            raise KeyError(f"times not on the stored grid: {times[bad]}")
        return times, idx

    def sample(self, times) -> np.ndarray:
        """States at previously requested sample times (exact hits only)."""
        return self.states[self._indices(times)[1]]

    def conservation_drift(self) -> float:
        return float(np.max(np.abs(self.states.sum(axis=1) - 1.0)))

    def at_times(self, times) -> "Trajectory":
        """Restriction of the record to a subset of stored times."""
        times, idx = self._indices(times)
        return replace(self, times=times, states=self.states[idx])

    def to_csv(self) -> str:
        """CSV with header ``t,S_0,...,S_n,I``, each float as ``repr``
        writes it, formatted by one compiled call when the library is loaded."""
        n = self.states.shape[1] - 2
        table = np.column_stack((self.times, self.states))
        body = None
        if stepper.format_floats is not None:
            body = stepper.format_floats(table, n + 3, ",", "\n")
        if body is None:
            body = "\n".join(",".join(map(repr, row)) for row in table.tolist())
        return "t," + ",".join(f"S_{i}" for i in range(n + 1)) + ",I\n" + body + "\n"

    def to_json_dict(self) -> dict:
        """The record for :func:`reports.json_document`.  ``times`` and
        ``states`` are the float64 arrays themselves: the writer puts each in
        the artifact exactly as its ``tolist()`` would be, with one compiled
        formatter call per array when the library is loaded."""
        return {
            "config_hash": self.config_hash,
            "rtol": self.rtol,
            "atol": self.atol,
            "terminal_status": self.terminal_status,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "n_implicit": self.n_implicit,
            "times": self.times,
            "states": self.states,
        }


def _run_kernel(config: ModelConfig, y0, rtol, atol, targets, max_steps, stop_at_equilibrium):
    """The package's one call of the active kernel, ``stepper.integrate_core``
    (looked up per call, so a test or a tracer can replace it).

    ``y0`` is a simplex state and ``targets`` a sorted float array in
    ``(0, horizon]``, both checked by the caller; the tolerances and the step
    budget are checked here, and a failing status becomes the one
    :class:`IntegrationError`.  Returns ``(times, states, status,
    n_accepted, n_rejected, n_implicit)``.

    Raises:
        ValueError: on bad ``rtol``/``atol`` or ``max_steps``.
        IntegrationError: for every failing kernel status.
    """
    if not (math.isfinite(rtol) and math.isfinite(atol) and rtol >= 0 and atol >= 0) or rtol == atol == 0:
        raise ValueError(f"rtol and atol must be finite, >= 0 and not both 0, got rtol={rtol}, atol={atol}")
    if not 1 <= max_steps < 2**63:  # the compiled kernel takes an int64
        raise ValueError(f"max_steps must be >= 1 and < 2**63, got {max_steps}")
    times, states, status, n_acc, n_rej, n_impl, t_reached = stepper.integrate_core(
        config.beta,
        config.omega_i,
        config.delta_i,
        config.mu,
        config.r,
        y0,
        float(rtol),
        float(atol),
        targets,
        int(max_steps),
        bool(stop_at_equilibrium),
    )
    if status < 0:
        raise IntegrationError(_STATUS_MESSAGES[status], t_reached)
    return times, states, status, n_acc, n_rej, n_impl


def integrate(
    config: ModelConfig,
    initial_state,
    t_end: float,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    t_eval=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    stop_at_equilibrium: bool = False,
) -> Trajectory:
    """Integrate the model from a simplex state over ``[0, t_end]``.

    After each accepted step a component that is negative within roundoff,
    or positive but below the smallest normal double (2.2250738585072014e-308),
    is set to 0.  That moves a value by less than 2.2e-308, some 296 orders
    of magnitude under the default ``atol``; ``I = 0`` is invariant under the
    flow, so a subcritical infection that decays out of the normal range ends
    exactly at 0 instead of in subnormal values, which are slow to step.

    The first step is at most ``t_end/10`` and the first sample time, each
    bound floored at ``16 ulp(1)`` (about 3.6e-15), the least step the
    underflow test passes at t = 0; clipping lands the step on a nearer time.

    Args:
        t_eval: optional sample times in ``[0, t_end]``; each is hit exactly
            by step clipping.  ``t_end`` is always included, and a time less
            than 1e-12 above it counts as ``t_end``.
        stop_at_equilibrium: stop early once the derivative norm stays below
            ``EQUILIBRIUM_VF_TOL`` for ``EQUILIBRIUM_RUN`` accepted steps in a
            row (constants of ``_stepper_py``, twinned in ``_stepper.c``).
            A run that reaches ``t_end`` with every step of its implicit
            phase that quiet has converged too.

    Raises:
        ValueError: on a bad ``t_end``, ``rtol``/``atol``, ``max_steps`` or
            ``t_eval`` (checks below), or an off-simplex initial state.
        IntegrationError: on step-size underflow, exhausted step budget,
            non-finite states, or negativity beyond the roundoff clamp.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    raw = not isinstance(initial_state, StateVector)
    y0 = np.asarray(initial_state, dtype=float) if raw else initial_state.as_array()
    if y0.shape != (config.n + 2,):
        raise ValueError(f"initial state must have length n+2={config.n + 2}")
    if raw:  # a StateVector checked its simplex membership when it was built
        StateVector.from_array(y0)

    t_end = float(t_end)
    targets = np.unique(np.asarray(() if t_eval is None else t_eval, dtype=float))
    if not np.isfinite(targets).all():
        raise ValueError("t_eval times must be finite")
    if targets.size and (targets[0] < 0 or targets[-1] > t_end + 1e-12):
        raise ValueError("t_eval times must lie in [0, t_end]")
    # the kernel's horizon is targets[-1]: t_end exactly, which absorbs times
    # within the allowance above it
    targets = np.append(targets[(targets > 0) & (targets < t_end)], t_end)

    times, states, status, n_acc, n_rej, n_impl = _run_kernel(
        config, y0, rtol, atol, targets, max_steps, stop_at_equilibrium
    )
    if status == stepper.STATUS_CONVERGED:
        terminal = (
            "converged_dfe"
            if states[-1, -1] < DFE_PREVALENCE_THRESHOLD
            else "converged_endemic"
        )
    else:
        terminal = "max_time"
    return Trajectory(
        times=times,
        states=states,
        terminal_status=terminal,
        n_accepted=n_acc,
        n_rejected=n_rej,
        n_implicit=n_impl,
        rtol=rtol,
        atol=atol,
        t_end=t_end,
        config=config,
    )
