"""Pure-NumPy adaptive Runge-Kutta 5(4) stepper (Dormand-Prince pair).

Reference implementation of the integration kernel.  The compiled C twin in
``_stepper.c`` mirrors this algorithm statement by statement; keep the two
in sync.  The kernel works on raw parameter arrays and integrates from t = 0
to the last of its sample times, ``targets[-1]``.

Status codes returned by :func:`integrate_core`:

*  0 - reached ``targets[-1]``
*  1 - equilibrium detected (derivative norm below ``EQUILIBRIUM_VF_TOL`` for
       ``EQUILIBRIUM_RUN`` accepted steps in a row)
* -1 - step size underflow (stiffness signal)
* -2 - step budget exhausted (stiffness signal)
* -3 - non-finite state encountered
* -4 - component fell below the negativity clamp threshold

After every accepted step the clamp sets to 0 each component that is
negative (down to ``-NEG_CLAMP``; below it the step is retried smaller) or
positive but below ``TINY``, the smallest normal double (2.2250738585072014e-308);
an exact 0 is left alone.  A positive component thus moves by less than
2.2e-308, some 296 orders of magnitude under the default atol of 1e-12.
``I = 0`` is invariant under the flow, so an infection that decays out of the
normal range is extinct from then on, rather than carried through every later
step as subnormal operands (about 3x slower per step in the compiled kernel).
A clamped step re-evaluates the derivative at the clamped state.

The first step is the least of the derivative estimate ``0.01 d0/d1``, a
tenth of the horizon and the first sample time.  The last two bounds are
floored at ``H_START = 16 ulp(1)``, the least step the underflow test passes
at t = 0; clipping lands the step on a nearer target.
"""

from __future__ import annotations

import math

import numpy as np

KERNEL_NAME = "python"

STATUS_REACHED_END = 0
STATUS_CONVERGED = 1
STATUS_UNDERFLOW = -1
STATUS_MAX_STEPS = -2
STATUS_NONFINITE = -3
STATUS_NEGATIVE = -4

NEG_CLAMP = 1e-12
EQUILIBRIUM_VF_TOL = 1e-10
EQUILIBRIUM_RUN = 50

# Dormand-Prince 5(4) tableau (FSAL: stage 7 equals the propagated solution)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
SAFETY = 0.9
TINY = float(np.finfo(float).tiny)  # the smallest normal double, 2.2250738585072014e-308
H_FLOOR = 1e3 * TINY
H_START = 16.0 * math.ulp(1.0)  # 2**-48, the floor of the first step's bounds


def _rhs(beta, omega_i, delta_i, mu, r, y, out):
    """Model right-hand side on raw arrays, written into ``out``; the single
    Python copy, also behind :func:`waningsim.model.vector_field`."""
    s = y[:-1]
    i = y[-1]
    inf = beta * s * i
    out[0] = omega_i @ s - delta_i[0] * s[0] + r * i - inf[0] - mu * s[0]
    out[1:-1] = -omega_i[1:] * s[1:] + delta_i[:-1] * s[:-1] - delta_i[1:] * s[1:] - inf[1:] - mu * s[1:]
    out[-2] += mu  # births enter the least-immune tier
    out[-1] = (beta @ s) * i - r * i - mu * i
    return out


def _initial_step(f0, y0, t_span, atol, rtol, first_gap):
    scale = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / scale) ** 2)))
    h = 0.01 * d0 / d1 if d1 > 1e-30 else t_span / 100.0
    return min(h, max(t_span / 10.0, H_START), max(first_gap, H_START))


def integrate_core(
    beta,
    omega_i,
    delta_i,
    mu,
    r,
    y0,
    rtol,
    atol,
    targets,
    max_steps,
    stop_at_equilibrium,
):
    """Integrate the model ODE from t=0 to ``t_end = targets[-1]``.

    ``targets`` is a non-empty sorted array of times in ``(0, t_end]``; steps
    are clipped so each target is hit exactly (no dense-output interpolation
    error at sample times).  Every accepted step is recorded.

    Returns ``(times, states, status, n_accepted, n_rejected, t_reached)``.
    """
    beta = np.ascontiguousarray(beta, dtype=float)
    omega_i = np.ascontiguousarray(omega_i, dtype=float)
    delta_i = np.ascontiguousarray(delta_i, dtype=float)
    y = np.array(y0, dtype=float)
    m = y.size
    targets = np.ascontiguousarray(targets, dtype=float)
    t_end = float(targets[-1])

    k = np.empty((7, m))
    rows = list(k)  # stage rows as views made once, not on every step
    y_new, acc = np.empty(m), np.empty(m)
    times = [0.0]
    states = [y.copy()]

    _rhs(beta, omega_i, delta_i, mu, r, y, rows[0])
    h = _initial_step(rows[0], y, t_end, atol, rtol, targets[0])

    t = 0.0
    idx = 0
    n_accepted = 0
    n_rejected = 0
    quiet_run = 0
    status = STATUS_REACHED_END

    while t < t_end:
        if n_accepted + n_rejected >= max_steps:
            return _finish(times, states, STATUS_MAX_STEPS, n_accepted, n_rejected, t)
        h = max(h, H_FLOOR)
        if h < 16.0 * math.ulp(max(abs(t), 1.0)):
            return _finish(times, states, STATUS_UNDERFLOW, n_accepted, n_rejected, t)

        # clip to the next requested sample time; the 2% stretch prevents a
        # sliver step from being left behind after a near-exact hit
        target = targets[idx]
        clipped = 1.02 * h >= target - t
        h_use = target - t if clipped else h

        # seven stages; rows[6] is the derivative at the proposed solution (FSAL)
        for stage in range(1, 7):
            np.multiply(rows[0], _A[stage - 1][0], out=acc)
            for j in range(1, stage):
                acc += _A[stage - 1][j] * rows[j]
            np.multiply(acc, h_use, out=acc)
            np.add(y, acc, out=y_new if stage == 6 else acc)
            _rhs(beta, omega_i, delta_i, mu, r, y_new if stage == 6 else acc, rows[stage])

        if not np.isfinite(y_new).all():
            return _finish(times, states, STATUS_NONFINITE, n_accepted, n_rejected, t)

        err = (_ERR @ k) * h_use
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        accept = err_norm <= 1.0

        if accept and (y_new < -NEG_CLAMP).any():
            # a component dipped below the roundoff clamp: retry smaller, and
            # only give up once the step cannot shrink any further
            if h_use <= 32.0 * math.ulp(max(abs(t), 1.0)):
                return _finish(times, states, STATUS_NEGATIVE, n_accepted, n_rejected, t)
            n_rejected += 1
            h = h_use * 0.25
            continue

        if accept:
            t = target if clipped else t + h_use
            if clipped:
                idx += 1
            # the clamp of the module docstring
            below = (y_new < TINY) & (y_new != 0.0)
            clamped = below.any()
            y_new[below] = 0.0
            y[:] = y_new
            if clamped:
                _rhs(beta, omega_i, delta_i, mu, r, y, rows[6])
            rows[0][:] = rows[6]
            n_accepted += 1
            times.append(t)
            states.append(y.copy())

            fnorm = float(np.sqrt(rows[0] @ rows[0]))
            quiet_run = quiet_run + 1 if fnorm < EQUILIBRIUM_VF_TOL else 0
            if stop_at_equilibrium and quiet_run >= EQUILIBRIUM_RUN:
                return _finish(times, states, STATUS_CONVERGED, n_accepted, n_rejected, t)
        else:
            n_rejected += 1

        factor = MAX_FACTOR if err_norm == 0.0 else SAFETY * err_norm ** -0.2
        factor = min(MAX_FACTOR, max(MIN_FACTOR, factor))
        if not accept:
            h = h_use * min(factor, 1.0)
        elif clipped:
            # a clipped step says nothing against the controller's preference
            h = max(h, h_use * factor)
        else:
            h = h_use * factor

    if quiet_run >= EQUILIBRIUM_RUN or (quiet_run == n_accepted and n_accepted >= 1):
        status = STATUS_CONVERGED
    return _finish(times, states, status, n_accepted, n_rejected, t)


def _finish(times, states, status, n_accepted, n_rejected, t):
    return np.array(times), np.array(states), status, n_accepted, n_rejected, t
