"""Pure-NumPy adaptive stepper: Dormand-Prince 5(4), then a linearly implicit
Rosenbrock 4(3) step once the run turns stiff.

Reference implementation of the integration kernel.  The compiled C twin in
``_stepper.c`` mirrors this algorithm statement by statement; keep the two
in sync.  The kernel works on raw parameter arrays and integrates from t = 0
to the last of its sample times, ``targets[-1]``.

A run has two phases.  It starts on the explicit Dormand-Prince pair.  After
each accepted step the kernel computes Hairer's stiffness estimate of
``h |lambda|``, ``h ||k7 - k6|| / ||y7 - y6||`` (the last two stages and the
points they were evaluated at; Hairer & Wanner, *Solving ODEs II*, §IV.2).
Once it has exceeded ``STIFF_LIMIT`` on ``STIFF_RUN`` accepted steps (the
count restarts after ``NONSTIFF_RESET`` steps in a row below it), the step
is bound by stability, not accuracy, and the run goes on to its horizon on
Shampine's Rosenbrock 4(3) step (``gamma = 1/2``; Shampine, *ACM TOMS* 8,
1982; the parameter set of Numerical Recipes' ``stiff``): three derivative
evaluations and four solves of ``(sigma I - J) x = b``, ``sigma = 1/(gamma
h)``, per step, with the same tolerances, error norm, clipping, clamp,
negativity retry and stop rule, and the controller exponent ``-1/4``.  A
run whose estimate never fires is a plain Dormand-Prince run.

``J`` is the model's Jacobian: the lower-bidiagonal waning chain, plus the
vaccination row ``e_0 omega^T``, bordered by the ``I`` row and column
(``omega_i[0] = 0``, since ``p[0] = 0``).  :func:`_implicit_factors` and
:func:`_implicit_solve` solve it in O(n) without forming a matrix: forward
substitution on the chain, Sherman-Morrison for ``e_0 omega^T`` (its
denominator ``1 - omega . z`` is ``sigma sum(z) + (mu + I beta) . z``, a sum
of positive terms: the algebra of ``dfe._steady_profile``), and a scalar
Schur complement for ``I``.

Status codes returned by :func:`integrate_core`:

*  0 - reached ``targets[-1]``
*  1 - equilibrium detected: the derivative norm was below
       ``EQUILIBRIUM_VF_TOL`` after ``EQUILIBRIUM_RUN`` accepted steps in a
       row.  At the horizon a shorter trailing quiet run counts too if it
       covers the whole run or, once the run has gone implicit, at least the
       second half of ``[0, t_end]``: the implicit phase's few long steps
       reach the horizon well before ``EQUILIBRIUM_RUN`` of them
* -1 - step size underflow
* -2 - step budget exhausted
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

# Hairer's DOPRI5 stiffness test: h |lambda| above STIFF_LIMIT on STIFF_RUN
# accepted steps switches the run to the Rosenbrock step; NONSTIFF_RESET
# accepted steps in a row below it restart the count
STIFF_LIMIT = 3.25
STIFF_RUN = 15
NONSTIFF_RESET = 6

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

# Shampine's Rosenbrock 4(3) parameters for an autonomous system: the stage
# points y + A21 g1 and y + A31 g1 + A32 g2, the couplings C../h, the
# solution weights B and the error weights E
_ROS_GAMMA = 0.5
_ROS_A21, _ROS_A31, _ROS_A32 = 2.0, 48 / 25, 6 / 25
_ROS_C21, _ROS_C31, _ROS_C32 = -8.0, 372 / 25, 12 / 5
_ROS_C41, _ROS_C42, _ROS_C43 = -112 / 125, -54 / 125, -2 / 5
_ROS_B = (19 / 9, 1 / 2, 25 / 108, 125 / 108)
_ROS_E = (17 / 54, 7 / 36, 0.0, 125 / 108)

MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
SAFETY = 0.9
TINY = float(np.finfo(float).tiny)  # the smallest normal double, 2.2250738585072014e-308
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


def _chain_solve(q, lower, b):
    """``B^-1 b`` for the waning chain ``B``, lower bidiagonal with diagonal
    ``1/q`` and subdiagonal ``-delta_i[:-1]``: ``x_k = b_k q_k + lower_k
    x_{k-1}`` with ``lower_k = delta_{k-1} q_k``."""
    x = b * q
    for k in range(1, x.size):
        x[k] += lower[k] * x[k - 1]
    return x


def _implicit_factors(beta, omega_i, delta_i, mu, r, y, sigma):
    """What :func:`_implicit_solve` needs of ``sigma I - J(y)``, in O(n).

    With ``A = B - e_0 omega^T`` the susceptible block and ``z = B^-1 e_0``,
    Sherman-Morrison gives ``A^-1 b = B^-1 b + (omega . B^-1 b) z/D`` with
    ``D = sigma sum(z) + (mu + I beta) . z``; ``w = A^-1 u`` is the solve of
    the ``I`` column ``u`` and ``schur = sigma - c - v . w`` the Schur
    complement of the ``I`` row ``v`` and corner ``c``.
    """
    s, i = y[:-1], y[-1]
    q = 1.0 / (sigma + delta_i + omega_i + mu + beta * i)
    lower = np.empty_like(q)
    lower[0] = 0.0
    lower[1:] = delta_i[:-1] * q[1:]
    z = np.empty_like(q)
    z[0] = q[0]
    for k in range(1, z.size):
        z[k] = lower[k] * z[k - 1]
    zd = z / (sigma * z.sum() + (mu + i * beta) @ z)
    u = -beta * s
    u[0] += r
    w = _chain_solve(q, lower, u)
    w += (omega_i @ w) * zd
    v = beta * i
    schur = sigma - (beta @ s - r - mu) - v @ w
    return q, lower, omega_i, zd, w, v, v @ zd, schur


def _implicit_solve(factors, b, out):
    """``(sigma I - J) x = b`` into ``out``, from :func:`_implicit_factors`."""
    q, lower, omega_i, zd, w, v, vz, schur = factors
    x = _chain_solve(q, lower, b[:-1])
    wx = omega_i @ x
    x_i = (b[-1] + v @ x + wx * vz) / schur
    out[:-1] = x + wx * zd + x_i * w
    out[-1] = x_i
    return out


def _rosenbrock_step(beta, omega_i, delta_i, mu, r, y, f0, h, g, y_new, err):
    """One Rosenbrock 4(3) step of size ``h`` from ``y`` (``f0 = f(y)``):
    the solution into ``y_new``, the error estimate into ``err``."""
    factors = _implicit_factors(beta, omega_i, delta_i, mu, r, y, 1.0 / (_ROS_GAMMA * h))
    f = np.empty_like(y)
    _implicit_solve(factors, f0, g[0])
    _rhs(beta, omega_i, delta_i, mu, r, y + _ROS_A21 * g[0], f)
    _implicit_solve(factors, f + _ROS_C21 * g[0] / h, g[1])
    _rhs(beta, omega_i, delta_i, mu, r, y + _ROS_A31 * g[0] + _ROS_A32 * g[1], f)
    _implicit_solve(factors, f + (_ROS_C31 * g[0] + _ROS_C32 * g[1]) / h, g[2])
    _implicit_solve(factors, f + (_ROS_C41 * g[0] + _ROS_C42 * g[1] + _ROS_C43 * g[2]) / h, g[3])
    np.add(y, _ROS_B[0] * g[0] + _ROS_B[1] * g[1] + _ROS_B[2] * g[2] + _ROS_B[3] * g[3], out=y_new)
    np.copyto(err, _ROS_E[0] * g[0] + _ROS_E[1] * g[1] + _ROS_E[2] * g[2] + _ROS_E[3] * g[3])


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

    Returns ``(times, states, status, n_accepted, n_rejected, n_implicit,
    t_reached)``; ``n_implicit`` of the ``n_accepted`` steps are Rosenbrock
    steps.
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
    y_new, acc, err = np.empty(m), np.empty(m), np.empty(m)
    g = np.empty((4, m))
    times = [0.0]
    states = [y.copy()]

    _rhs(beta, omega_i, delta_i, mu, r, y, rows[0])
    h = _initial_step(rows[0], y, t_end, atol, rtol, targets[0])

    t = 0.0
    idx = 0
    n_accepted = 0
    n_rejected = 0
    n_implicit = 0
    quiet_run = 0
    quiet_since = 0.0  # the time the trailing quiet run began
    stiff_run = 0
    nonstiff_run = 0
    implicit = False
    status = STATUS_REACHED_END

    while t < t_end:
        if n_accepted + n_rejected >= max_steps:
            return _finish(times, states, STATUS_MAX_STEPS, n_accepted, n_rejected, n_implicit, t)
        if h < 16.0 * math.ulp(max(abs(t), 1.0)):
            return _finish(times, states, STATUS_UNDERFLOW, n_accepted, n_rejected, n_implicit, t)

        # clip to the next requested sample time; the 2% stretch prevents a
        # sliver step from being left behind after a near-exact hit
        target = targets[idx]
        clipped = 1.02 * h >= target - t
        h_use = target - t if clipped else h

        if implicit:
            _rosenbrock_step(beta, omega_i, delta_i, mu, r, y, rows[0], h_use, g, y_new, err)
        else:
            # seven stages; rows[6] is the derivative at the proposed solution
            # (FSAL), and acc keeps the sixth stage's point for the stiffness test
            for stage in range(1, 7):
                dest = y_new if stage == 6 else acc
                np.multiply(rows[0], _A[stage - 1][0], out=dest)
                for j in range(1, stage):
                    dest += _A[stage - 1][j] * rows[j]
                np.multiply(dest, h_use, out=dest)
                np.add(y, dest, out=dest)
                _rhs(beta, omega_i, delta_i, mu, r, dest, rows[stage])
            np.multiply(_ERR @ k, h_use, out=err)

        if not np.isfinite(y_new).all():
            return _finish(times, states, STATUS_NONFINITE, n_accepted, n_rejected, n_implicit, t)

        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        accept = err_norm <= 1.0

        if accept and (y_new < -NEG_CLAMP).any():
            # a component dipped below the roundoff clamp: retry smaller, and
            # only give up once the step cannot shrink any further
            if h_use <= 32.0 * math.ulp(max(abs(t), 1.0)):
                return _finish(times, states, STATUS_NEGATIVE, n_accepted, n_rejected, n_implicit, t)
            n_rejected += 1
            h = h_use * 0.25
            continue

        if accept:
            if not implicit:
                # Hairer's estimate of h |lambda| from the last two stages
                num = float((rows[6] - rows[5]) @ (rows[6] - rows[5]))
                den = float((y_new - acc) @ (y_new - acc))
                if h_use * h_use * num > STIFF_LIMIT * STIFF_LIMIT * den:  # h ||dk||/||dy|| > limit
                    stiff_run += 1
                    nonstiff_run = 0
                else:
                    nonstiff_run += 1
                    if nonstiff_run == NONSTIFF_RESET:
                        stiff_run = 0
            t = target if clipped else t + h_use
            if clipped:
                idx += 1
            # the clamp of the module docstring
            below = (y_new < TINY) & (y_new != 0.0)
            clamped = below.any()
            y_new[below] = 0.0
            y[:] = y_new
            if implicit:
                n_implicit += 1
                _rhs(beta, omega_i, delta_i, mu, r, y, rows[0])
            else:
                if clamped:
                    _rhs(beta, omega_i, delta_i, mu, r, y, rows[6])
                rows[0][:] = rows[6]
            n_accepted += 1
            times.append(t)
            states.append(y.copy())

            fnorm = float(np.sqrt(rows[0] @ rows[0]))
            quiet_run = quiet_run + 1 if fnorm < EQUILIBRIUM_VF_TOL else 0
            if not quiet_run:
                quiet_since = t
            if stop_at_equilibrium and quiet_run >= EQUILIBRIUM_RUN:
                return _finish(times, states, STATUS_CONVERGED, n_accepted, n_rejected, n_implicit, t)
        else:
            n_rejected += 1

        factor = MAX_FACTOR if err_norm == 0.0 else SAFETY * err_norm ** (-0.25 if implicit else -0.2)
        factor = min(MAX_FACTOR, max(MIN_FACTOR, factor))
        if not accept:
            h = h_use * min(factor, 1.0)
        elif clipped:
            # a clipped step says nothing against the controller's preference
            h = max(h, h_use * factor)
        else:
            h = h_use * factor
        implicit = implicit or stiff_run >= STIFF_RUN

    if quiet_run >= 1 and (quiet_run >= EQUILIBRIUM_RUN or quiet_run == n_accepted
                           or (n_implicit >= 1 and 2.0 * quiet_since <= t)):
        status = STATUS_CONVERGED
    return _finish(times, states, status, n_accepted, n_rejected, n_implicit, t)


def _finish(times, states, status, n_accepted, n_rejected, n_implicit, t):
    return np.array(times), np.array(states), status, n_accepted, n_rejected, n_implicit, t
