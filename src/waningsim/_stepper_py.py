"""Pure-NumPy adaptive stepper: Dormand-Prince 8(5,3), then a linearly
implicit Rosenbrock 4(3) step once the run turns stiff.

Reference implementation of the integration kernel.  The compiled C twin in
``_stepper.c`` mirrors this algorithm statement by statement; keep the two
in sync.  The kernel works on raw parameter arrays and integrates from t = 0
to the last of its sample times, ``targets[-1]``; only a failure ends a run
before it.

A run has two phases.  It starts on the explicit Dormand-Prince 8(5,3) pair
(Hairer's DOP853; Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.10):
twelve stages, the derivative at the accepted point reused as the next
step's first stage, and Hairer's error norm ``h err5^2 / sqrt((err5^2 + 0.01
err3^2) m)``, which damps the fifth-order estimate ``err5`` where the
third-order one ``err3`` is small beside it, both scaled by ``atol + rtol
max(|y|, |y_new|)``; the controller exponent is ``-1/8``.  After each
accepted step the kernel computes Hairer's stiffness estimate of ``h
|lambda|``, ``h ||f(y_new) - k12|| / ||y_new - y12||`` (stage 12 sits at c =
1; Hairer & Wanner, *Solving ODEs II*, §IV.2).  Once it has exceeded
``STIFF_LIMIT`` on ``STIFF_RUN`` accepted steps (the count restarts after
``NONSTIFF_RESET`` steps in a row below it), the step is bound by
stability, not accuracy, and the run goes on to Shampine's Rosenbrock 4(3)
step (``gamma = 1/2``; Shampine, *ACM TOMS* 8, 1982; the parameter set of
Numerical Recipes' ``stiff``): three derivative evaluations and four solves
of ``(sigma I - J) x = b``, ``sigma = 1/(gamma h)``, per step, with the same
tolerances, clipping, clamp and negativity retry, the root-mean-square
error norm and the controller exponent ``-1/4``.

The implicit phase is kept only while it gains.  It runs in windows of
``STIFF_RUN`` accepted steps, and a window that covers less than
``IMPLICIT_GAIN`` times as much time as ``STIFF_RUN`` of the last explicit
step sends the run back to DOP853; the next switch then needs twice the
stiff run.  On a long Erlang chain the explicit step is held at its
stability limit, yet the solution moves on that time scale too, so the
Rosenbrock step is no longer, and its error estimate lets it drift off the
flow.  Near an equilibrium its steps are 25 to several thousand times
longer.  A run whose estimate never fires is a plain DOP853 run.

``J`` is the model's Jacobian: the lower-bidiagonal waning chain, plus the
vaccination row ``e_0 omega^T``, bordered by the ``I`` row and column
(``omega_i[0] = 0``, since ``p[0] = 0``).  :func:`_implicit_factors` and
:func:`_implicit_solve` solve it in O(n) without forming a matrix: forward
substitution on the chain, Sherman-Morrison for ``e_0 omega^T`` (its
denominator ``1 - omega . z`` is ``sigma sum(z) + (mu + I beta) . z``, a sum
of positive terms: the algebra of ``dfe._steady_profile``), and a scalar
Schur complement for ``I``.

The kernel only integrates.  Each recorded row carries ``|f(y)|``, the
derivative norm the next step's first stage already holds, and
:mod:`waningsim.dynamics` judges from that column whether the flow has come
to rest at the horizon.  Status codes returned by :func:`integrate_core`:

*  0 - reached ``targets[-1]``
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
The derivative at the new point is evaluated at the clamped state.

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
STATUS_UNDERFLOW = -1
STATUS_MAX_STEPS = -2
STATUS_NONFINITE = -3
STATUS_NEGATIVE = -4

NEG_CLAMP = 1e-12

# Hairer's DOP853 stiffness test: h |lambda| above STIFF_LIMIT on STIFF_RUN
# accepted steps switches the run to the Rosenbrock step; NONSTIFF_RESET
# accepted steps in a row below it restart the count
STIFF_LIMIT = 6.1
STIFF_RUN = 15
NONSTIFF_RESET = 6
# the implicit phase runs in windows of STIFF_RUN accepted steps; a window
# shorter than IMPLICIT_GAIN times as many of the last explicit step sends the
# run back to DOP853, and the next switch needs twice the stiff run
IMPLICIT_GAIN = 2.0

# Dormand-Prince 8(5,3) tableau (Hairer's DOP853), as Hairer's decimal
# literals, which _stepper.c spells the same way: the stage rows _A (stage 12
# sits at c = 1), the propagated weights _B, the fifth-order error weights
# _E5, and _BHH, the third-order weights of stages 1, 9 and 12
_A = tuple(np.array(row) for row in (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
))
_B = np.array([5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
               1.89151789931450038304281599044, -5.8012039600105847814672114227,
               3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
               2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2])
_E5 = np.array([0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e+1,
                -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
                -0.3503288487499736816886487290, 0.3341791187130174790297318841,
                0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1])
_BHH = (0.244094488188976377952755905512, 0.733846688281611857341361741547,
        0.220588235294117647058823529412e-1)

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


def integrate_core(beta, omega_i, delta_i, mu, r, y0, rtol, atol, targets, max_steps):
    """Integrate the model ODE from t=0 to ``t_end = targets[-1]``.

    ``targets`` is a non-empty sorted array of times in ``(0, t_end]``; steps
    are clipped so each target is hit exactly (no dense-output interpolation
    error at sample times).  Every accepted step is recorded.

    Returns ``(times, states, status, n_accepted, n_rejected, n_implicit,
    t_reached, fnorm)``; ``n_implicit`` of the ``n_accepted`` steps are
    Rosenbrock steps, and ``fnorm[i]`` is ``|f(states[i])|``.
    """
    beta = np.ascontiguousarray(beta, dtype=float)
    omega_i = np.ascontiguousarray(omega_i, dtype=float)
    delta_i = np.ascontiguousarray(delta_i, dtype=float)
    y = np.array(y0, dtype=float)
    m = y.size
    targets = np.ascontiguousarray(targets, dtype=float)
    t_end = float(targets[-1])

    k = np.empty((12, m))
    rows = list(k)  # stage rows as views made once, not on every step
    y_new, acc, err = np.empty(m), np.empty(m), np.empty(m)
    g = np.empty((4, m))
    _rhs(beta, omega_i, delta_i, mu, r, y, rows[0])
    times = [0.0]
    states = [y.copy()]
    fnorms = [float(np.sqrt(rows[0] @ rows[0]))]
    h = _initial_step(rows[0], y, t_end, atol, rtol, targets[0])

    t = 0.0
    idx = 0
    n_accepted = 0
    n_rejected = 0
    n_implicit = 0
    stiff_run = 0
    nonstiff_run = 0
    stiff_needed = STIFF_RUN  # the stiff run that switches; doubled after each window that gains too little
    t_switch = 0.0  # the time the implicit window began
    h_explicit = 0.0  # the last explicit step
    implicit = False

    while t < t_end:
        if n_accepted + n_rejected >= max_steps:
            return _finish(times, states, fnorms, STATUS_MAX_STEPS, n_accepted, n_rejected, n_implicit, t)
        if h < 16.0 * math.ulp(max(abs(t), 1.0)):
            return _finish(times, states, fnorms, STATUS_UNDERFLOW, n_accepted, n_rejected, n_implicit, t)

        # clip to the next requested sample time; the 2% stretch prevents a
        # sliver step from being left behind after a near-exact hit
        target = targets[idx]
        clipped = 1.02 * h >= target - t
        h_use = target - t if clipped else h

        if implicit:
            _rosenbrock_step(beta, omega_i, delta_i, mu, r, y, rows[0], h_use, g, y_new, err)
        else:
            # eleven new stages; acc keeps the last one's point (c = 1) for
            # the stiffness test, err the fifth-order error and err3 the
            # third-order one
            for stage, a in enumerate(_A, start=1):
                np.dot(a, k[:stage], out=acc)
                acc *= h_use
                acc += y
                _rhs(beta, omega_i, delta_i, mu, r, acc, rows[stage])
            increment = _B @ k
            np.multiply(increment, h_use, out=y_new)
            y_new += y
            np.dot(_E5, k, out=err)
            err3 = increment - _BHH[0] * rows[0] - _BHH[1] * rows[8] - _BHH[2] * rows[11]

        if not np.isfinite(y_new).all():
            return _finish(times, states, fnorms, STATUS_NONFINITE, n_accepted, n_rejected, n_implicit, t)

        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        if implicit:
            err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        else:
            # Hairer's norm: the fifth-order estimate, damped where the
            # third-order one is small beside it
            err5 = float(np.sum((err / scale) ** 2))
            deno = err5 + 0.01 * float(np.sum((err3 / scale) ** 2))
            err_norm = h_use * err5 / math.sqrt(deno * m) if deno > 0.0 else 0.0
        accept = err_norm <= 1.0

        if accept and (y_new < -NEG_CLAMP).any():
            # a component dipped below the roundoff clamp: retry smaller, and
            # only give up once the step cannot shrink any further
            if h_use <= 32.0 * math.ulp(max(abs(t), 1.0)):
                return _finish(times, states, fnorms, STATUS_NEGATIVE, n_accepted, n_rejected, n_implicit, t)
            n_rejected += 1
            h = h_use * 0.25
            continue

        if accept:
            t = target if clipped else t + h_use
            if clipped:
                idx += 1
            # the clamp of the module docstring
            y_new[(y_new < TINY) & (y_new != 0.0)] = 0.0
            y[:] = y_new
            _rhs(beta, omega_i, delta_i, mu, r, y, rows[0])  # the next step's first stage
            if implicit:
                n_implicit += 1
                # an implicit phase starts and ends on a multiple of STIFF_RUN
                # implicit steps, so this is a window's end
                if n_implicit % STIFF_RUN == 0:
                    # the implicit steps gain too little: back to DOP853
                    if t - t_switch < IMPLICIT_GAIN * STIFF_RUN * h_explicit:
                        implicit = False
                        stiff_needed *= 2
                    t_switch = t
            else:
                h_explicit = h_use
                # Hairer's estimate of h |lambda| from the last stage and the new point
                num = float((rows[0] - rows[11]) @ (rows[0] - rows[11]))
                den = float((y - acc) @ (y - acc))
                if h_use * h_use * num > STIFF_LIMIT * STIFF_LIMIT * den:  # h ||dk||/||dy|| > limit
                    stiff_run += 1
                    nonstiff_run = 0
                else:
                    nonstiff_run += 1
                    if nonstiff_run == NONSTIFF_RESET:
                        stiff_run = 0
            n_accepted += 1
            times.append(t)
            states.append(y.copy())
            fnorms.append(float(np.sqrt(rows[0] @ rows[0])))
        else:
            n_rejected += 1

        factor = MAX_FACTOR if err_norm == 0.0 else SAFETY * err_norm ** (-0.25 if implicit else -0.125)
        factor = min(MAX_FACTOR, max(MIN_FACTOR, factor))
        if not accept:
            h = h_use * min(factor, 1.0)
        elif clipped:
            # a clipped step says nothing against the controller's preference
            h = max(h, h_use * factor)
        else:
            h = h_use * factor
        if not implicit and stiff_run >= stiff_needed:
            implicit = True
            stiff_run = 0
            t_switch = t

    return _finish(times, states, fnorms, STATUS_REACHED_END, n_accepted, n_rejected, n_implicit, t)


def _finish(times, states, fnorms, status, n_accepted, n_rejected, n_implicit, t):
    return np.array(times), np.array(states), status, n_accepted, n_rejected, n_implicit, t, np.array(fnorms)
