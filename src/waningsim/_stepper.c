/* Compiled adaptive stepper, Dormand-Prince 5(4) and then, once the run turns
 * stiff, a linearly implicit Rosenbrock 4(3) step: the statement-by-statement
 * twin of _stepper_py.integrate_core, whose docstring describes the two
 * phases, the stiffness test, the O(n) solve and the stop rule; keep the two
 * in sync.  Also the artifact writers' float formatter, ws_format, which
 * writes doubles byte for byte as Python's float.__repr__ does.  Plain C99
 * without Python or NumPy headers, compiled by stepper.py on first import
 * and called through ctypes. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { REACHED_END = 0, CONVERGED = 1, UNDERFLOW = -1, MAX_STEPS = -2, NONFINITE = -3, NEGATIVE = -4,
       NO_MEMORY = -5 };

static const double NEG_CLAMP = 1e-12, MIN_FACTOR = 0.2, MAX_FACTOR = 10.0, SAFETY = 0.9;
static const double EQUILIBRIUM_VF_TOL = 1e-10; /* equilibrium: |f| below this ... */
static const int64_t EQUILIBRIUM_RUN = 50;      /* ... over this many accepted steps in a row */
static const double STIFF_LIMIT = 3.25;     /* Hairer's test: h |lambda| above this ... */
static const int64_t STIFF_RUN = 15;        /* ... on this many accepted steps switches to Rosenbrock; */
static const int64_t NONSTIFF_RESET = 6;    /* this many in a row below it restart the count */
static const double TINY = 2.2250738585072014e-308; /* DBL_MIN, np.finfo(float).tiny */
static const double H_START = 0x1p-48; /* 16 ulp(1): the floor of the first step's bounds */
static const int64_t INITIAL_CAPACITY = 4096; /* rows */

/* Python's min(a, b) and max(a, b), which keep a unless b is strictly beyond */
#define PY_MIN(a, b) ((b) < (a) ? (b) : (a))
#define PY_MAX(a, b) ((b) > (a) ? (b) : (a))

typedef struct {
    double *rows; /* n_rows x (m + 1) */
    int64_t n_rows, n_accepted, n_rejected, n_implicit;
    double t_reached;
} ws_record;

/* Dormand-Prince 5(4) tableau (FSAL: stage 7 equals the propagated solution) */
static const double A_TAB[6][6] = {
    {1.0 / 5},
    {3.0 / 40, 9.0 / 40},
    {44.0 / 45, -56.0 / 15, 32.0 / 9},
    {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
    {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
    {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
};
static const double E_TAB[7] = {71.0 / 57600, 0.0, -71.0 / 16695, 71.0 / 1920, -17253.0 / 339200,
                                22.0 / 525, -1.0 / 40};

/* Shampine's Rosenbrock 4(3) parameters (see _stepper_py) */
static const double ROS_GAMMA = 0.5, ROS_A21 = 2.0, ROS_A31 = 48.0 / 25, ROS_A32 = 6.0 / 25;
static const double ROS_C21 = -8.0, ROS_C31 = 372.0 / 25, ROS_C32 = 12.0 / 5;
static const double ROS_C41 = -112.0 / 125, ROS_C42 = -54.0 / 125, ROS_C43 = -2.0 / 5;
static const double ROS_B[4] = {19.0 / 9, 1.0 / 2, 25.0 / 108, 125.0 / 108};
static const double ROS_E[4] = {17.0 / 54, 7.0 / 36, 0.0, 125.0 / 108};

/* Model right-hand side for the state y = (S_0, ..., S_n, I). */
static void rhs(int64_t n, const double *beta, const double *omega_i, const double *delta_i,
                double mu, double r, const double *y, double *out)
{
    double i = y[n + 1], vacc = 0.0, transmission = 0.0;
    for (int64_t j = 0; j < n + 1; j++) {
        vacc += omega_i[j] * y[j];
        transmission += beta[j] * y[j];
    }
    out[0] = vacc - delta_i[0] * y[0] + r * i - beta[0] * i * y[0] - mu * y[0];
    for (int64_t j = 1; j < n + 1; j++)
        out[j] = -omega_i[j] * y[j] + delta_i[j - 1] * y[j - 1] - delta_i[j] * y[j]
                 - beta[j] * i * y[j] - mu * y[j];
    out[n] += mu; /* births enter the least-immune tier */
    out[n + 1] = transmission * i - r * i - mu * i;
}

/* What implicit_solve needs of sigma I - J(y) (_stepper_py._implicit_factors):
 * five vectors of n + 1 and two scalars. */
typedef struct {
    double *q, *lower, *zd, *w, *v;
    double vz, schur;
} factors;

/* x = B^-1 b on the waning chain (_stepper_py._chain_solve); x may be b */
static void chain_solve(int64_t n, const factors *fc, const double *b, double *x)
{
    x[0] = b[0] * fc->q[0];
    for (int64_t j = 1; j < n + 1; j++)
        x[j] = b[j] * fc->q[j] + fc->lower[j] * x[j - 1];
}

static void implicit_factors(int64_t n, const double *beta, const double *omega_i, const double *delta_i,
                             double mu, double r, const double *y, double sigma, factors *fc)
{
    double i = y[n + 1], zsum = 0.0, zbeta = 0.0, ow = 0.0, vw = 0.0, vz = 0.0, transmission = 0.0;
    double *q = fc->q, *lower = fc->lower, *zd = fc->zd, *w = fc->w, *v = fc->v;
    for (int64_t j = 0; j < n + 1; j++)
        q[j] = 1.0 / (sigma + delta_i[j] + omega_i[j] + mu + beta[j] * i);
    lower[0] = 0.0;
    zd[0] = q[0];
    for (int64_t j = 1; j < n + 1; j++) {
        lower[j] = delta_i[j - 1] * q[j];
        zd[j] = lower[j] * zd[j - 1];
    }
    for (int64_t j = 0; j < n + 1; j++) {
        zsum += zd[j];
        zbeta += (mu + i * beta[j]) * zd[j];
        w[j] = -beta[j] * y[j];
    }
    double denom = sigma * zsum + zbeta;
    w[0] += r;
    chain_solve(n, fc, w, w);
    for (int64_t j = 0; j < n + 1; j++) {
        zd[j] /= denom;
        ow += omega_i[j] * w[j];
    }
    for (int64_t j = 0; j < n + 1; j++) {
        w[j] += ow * zd[j];
        v[j] = beta[j] * i;
        transmission += beta[j] * y[j];
        vw += v[j] * w[j];
        vz += v[j] * zd[j];
    }
    fc->schur = sigma - (transmission - r - mu) - vw;
    fc->vz = vz;
}

/* (sigma I - J) x = b in place: b holds the right-hand side and gets x */
static void implicit_solve(int64_t n, const factors *fc, const double *omega_i, double *b)
{
    double b_i = b[n + 1], wx = 0.0, vx = 0.0;
    chain_solve(n, fc, b, b);
    for (int64_t j = 0; j < n + 1; j++) {
        wx += omega_i[j] * b[j];
        vx += fc->v[j] * b[j];
    }
    double x_i = (b_i + vx + wx * fc->vz) / fc->schur;
    for (int64_t j = 0; j < n + 1; j++)
        b[j] = b[j] + wx * fc->zd[j] + x_i * fc->w[j];
    b[n + 1] = x_i;
}

/* One Rosenbrock 4(3) step of size h from y, f0 = f(y) (_stepper_py._rosenbrock_step):
 * the solution into y_new and the error estimate into err; g holds the four
 * increments, stage and f one point and its derivative. */
static void rosenbrock_step(int64_t n, const double *beta, const double *omega_i, const double *delta_i,
                            double mu, double r, const double *y, const double *f0, double h, factors *fc,
                            double *g, double *stage, double *f, double *y_new, double *err)
{
    int64_t m = n + 2;
    double *g1 = g, *g2 = g + m, *g3 = g + 2 * m, *g4 = g + 3 * m;
    implicit_factors(n, beta, omega_i, delta_i, mu, r, y, 1.0 / (ROS_GAMMA * h), fc);
    memcpy(g1, f0, (size_t)m * sizeof(double));
    implicit_solve(n, fc, omega_i, g1);
    for (int64_t j = 0; j < m; j++)
        stage[j] = y[j] + ROS_A21 * g1[j];
    rhs(n, beta, omega_i, delta_i, mu, r, stage, f);
    for (int64_t j = 0; j < m; j++)
        g2[j] = f[j] + ROS_C21 * g1[j] / h;
    implicit_solve(n, fc, omega_i, g2);
    for (int64_t j = 0; j < m; j++)
        stage[j] = y[j] + ROS_A31 * g1[j] + ROS_A32 * g2[j];
    rhs(n, beta, omega_i, delta_i, mu, r, stage, f);
    for (int64_t j = 0; j < m; j++)
        g3[j] = f[j] + (ROS_C31 * g1[j] + ROS_C32 * g2[j]) / h;
    implicit_solve(n, fc, omega_i, g3);
    for (int64_t j = 0; j < m; j++)
        g4[j] = f[j] + (ROS_C41 * g1[j] + ROS_C42 * g2[j] + ROS_C43 * g3[j]) / h;
    implicit_solve(n, fc, omega_i, g4);
    for (int64_t j = 0; j < m; j++) {
        y_new[j] = y[j] + (ROS_B[0] * g1[j] + ROS_B[1] * g2[j] + ROS_B[2] * g3[j] + ROS_B[3] * g4[j]);
        err[j] = ROS_E[0] * g1[j] + ROS_E[1] * g2[j] + ROS_E[2] * g3[j] + ROS_E[3] * g4[j];
    }
}

/* (sigma I - J(y)) x = b for the m = n + 2 component model, by
 * implicit_factors and implicit_solve: the tests' check of the O(n) solve
 * against a dense one.  Returns 0, or NO_MEMORY. */
int ws_implicit_solve(int64_t m, const double *beta, const double *omega_i, const double *delta_i,
                      double mu, double r, const double *y, double sigma, const double *b, double *x)
{
    double *work = malloc((size_t)(5 * m) * sizeof(double));
    if (work == NULL) return NO_MEMORY;
    factors fc = {work, work + m, work + 2 * m, work + 3 * m, work + 4 * m, 0.0, 0.0};
    implicit_factors(m - 2, beta, omega_i, delta_i, mu, r, y, sigma, &fc);
    memcpy(x, b, (size_t)m * sizeof(double));
    implicit_solve(m - 2, &fc, omega_i, x);
    free(work);
    return 0;
}

/* Python's math.ulp(max(abs(t), 1.0)) */
static double ulp_from_one(double t)
{
    double x = PY_MAX(fabs(t), 1.0);
    return nextafter(x, INFINITY) - x;
}

/* Append the row (t, y), doubling the capacity when full; 0 if out of memory. */
static int record(ws_record *rec, int64_t *cap, int64_t m, double t, const double *y)
{
    if (rec->n_rows == *cap) {
        double *grown = realloc(rec->rows, (size_t)(2 * *cap * (m + 1)) * sizeof(double));
        if (grown == NULL) return 0;
        rec->rows = grown;
        *cap *= 2;
    }
    double *row = rec->rows + rec->n_rows++ * (m + 1);
    row[0] = t;
    memcpy(row + 1, y, (size_t)m * sizeof(double));
    return 1;
}

void ws_free(ws_record *rec) { free(rec->rows); }

/* Integrate the m = n + 2 component model ODE from t = 0 to the last of the
 * n_targets >= 1 sample times, t_end = targets[n_targets - 1] (see
 * _stepper_py.integrate_core), recording every accepted step as a row
 * (t, y_0, ..., y_{m-1}) in rec->rows, grown with realloc and released by
 * ws_free.  Returns a _stepper_py status code, or NO_MEMORY. */
int ws_integrate(int64_t m, const double *beta, const double *omega_i, const double *delta_i,
                 double mu, double r, const double *y0, double rtol, double atol,
                 const double *targets, int64_t n_targets, int64_t max_steps,
                 int stop_at_equilibrium, ws_record *rec)
{
    int64_t n = m - 2, cap = INITIAL_CAPACITY;
    double t_end = targets[n_targets - 1];
    /* seven stage rows, three states, the error, four Rosenbrock increments,
     * a derivative and the five vectors of the factors */
    double *k = malloc((size_t)(21 * m) * sizeof(double));
    *rec = (ws_record){malloc((size_t)(cap * (m + 1)) * sizeof(double)), 0, 0, 0, 0, 0.0};
    if (k == NULL || rec->rows == NULL) { free(k); return NO_MEMORY; }
    double *y = k + 7 * m, *y_new = y + m, *stage_y = y_new + m, *err = stage_y + m, *g = err + m;
    double *f = g + 4 * m, *work = f + m;
    factors fc = {work, work + m, work + 2 * m, work + 3 * m, work + 4 * m, 0.0, 0.0};
    memcpy(y, y0, (size_t)m * sizeof(double));
    record(rec, &cap, m, 0.0, y);
    rhs(n, beta, omega_i, delta_i, mu, r, y, k);

    double d0 = 0.0, d1 = 0.0;
    for (int64_t j = 0; j < m; j++) {
        double sc = atol + rtol * fabs(y[j]);
        d0 += (y[j] / sc) * (y[j] / sc);
        d1 += (k[j] / sc) * (k[j] / sc);
    }
    d0 = sqrt(d0 / m);
    d1 = sqrt(d1 / m);
    double h = d1 > 1e-30 ? 0.01 * d0 / d1 : t_end / 100.0;
    h = PY_MIN(h, PY_MAX(t_end / 10.0, H_START));
    h = PY_MIN(h, PY_MAX(targets[0], H_START));

    double t = 0.0, quiet_since = 0.0; /* the time the trailing quiet run began */
    int64_t idx = 0, n_accepted = 0, n_rejected = 0, n_implicit = 0, quiet_run = 0;
    int64_t stiff_run = 0, nonstiff_run = 0;
    int implicit = 0, status = REACHED_END;
    while (t < t_end) {
        if (n_accepted + n_rejected >= max_steps) { status = MAX_STEPS; break; }
        if (h < 16.0 * ulp_from_one(t)) { status = UNDERFLOW; break; }

        /* clip to the next requested sample time; the 2% stretch prevents a
         * sliver step from being left behind after a near-exact hit */
        double target = targets[idx];
        int clipped = 1.02 * h >= target - t;
        double h_use = clipped ? target - t : h;

        if (implicit) {
            rosenbrock_step(n, beta, omega_i, delta_i, mu, r, y, k, h_use, &fc, g, stage_y, f, y_new, err);
        } else {
            /* seven stages; k[6] is the derivative at the proposed solution
             * (FSAL), and stage_y keeps the sixth stage's point for the
             * stiffness test */
            for (int stage = 1; stage < 7; stage++) {
                double *dest = stage == 6 ? y_new : stage_y;
                for (int64_t j = 0; j < m; j++) {
                    double acc = A_TAB[stage - 1][0] * k[j];
                    for (int jj = 1; jj < stage; jj++)
                        acc += A_TAB[stage - 1][jj] * k[jj * m + j];
                    dest[j] = y[j] + h_use * acc;
                }
                rhs(n, beta, omega_i, delta_i, mu, r, dest, k + stage * m);
            }
            for (int64_t j = 0; j < m; j++) {
                double err_j = 0.0;
                for (int stage = 0; stage < 7; stage++)
                    err_j += E_TAB[stage] * k[stage * m + j];
                err[j] = err_j * h_use;
            }
        }

        int finite = 1, negative = 0;
        for (int64_t j = 0; j < m; j++) {
            finite &= isfinite(y_new[j]) != 0;
            negative |= y_new[j] < -NEG_CLAMP;
        }
        if (!finite) { status = NONFINITE; break; }

        double err_norm = 0.0;
        for (int64_t j = 0; j < m; j++) {
            double sc = atol + rtol * PY_MAX(fabs(y[j]), fabs(y_new[j]));
            err_norm += (err[j] / sc) * (err[j] / sc);
        }
        err_norm = sqrt(err_norm / m);
        int accept = err_norm <= 1.0;

        if (accept && negative) {
            /* a component dipped below the roundoff clamp: retry smaller, and
             * only give up once the step cannot shrink any further */
            if (h_use <= 32.0 * ulp_from_one(t)) { status = NEGATIVE; break; }
            n_rejected++;
            h = h_use * 0.25;
            continue;
        }

        if (accept) {
            if (!implicit) {
                /* Hairer's estimate of h |lambda| from the last two stages */
                double num = 0.0, den = 0.0;
                for (int64_t j = 0; j < m; j++) {
                    double dk = k[6 * m + j] - k[5 * m + j], dy = y_new[j] - stage_y[j];
                    num += dk * dk;
                    den += dy * dy;
                }
                if (h_use * h_use * num > STIFF_LIMIT * STIFF_LIMIT * den) { /* h ||dk||/||dy|| > limit */
                    stiff_run++;
                    nonstiff_run = 0;
                } else if (++nonstiff_run == NONSTIFF_RESET) {
                    stiff_run = 0;
                }
            }
            t = clipped ? target : t + h_use;
            idx += clipped;
            /* the clamp: a negative component, or a positive one below TINY,
             * becomes 0; an exact 0 or -0 is left alone, so an empty tier
             * costs no extra evaluation.  A positive component moves by less
             * than 2.2e-308, some 296 orders under the default atol of 1e-12,
             * and I = 0 is absorbing: an infection decayed out of the normal
             * range is extinct from here on, instead of carried through every
             * later step as subnormal operands, which cost about 3x as much
             * per step on x86. */
            int clamped = 0;
            for (int64_t j = 0; j < m; j++)
                if (y_new[j] < TINY && y_new[j] != 0.0) { y_new[j] = 0.0; clamped = 1; }
            memcpy(y, y_new, (size_t)m * sizeof(double));
            if (implicit) {
                n_implicit++;
                rhs(n, beta, omega_i, delta_i, mu, r, y, k);
            } else {
                if (clamped)
                    rhs(n, beta, omega_i, delta_i, mu, r, y, k + 6 * m);
                memcpy(k, k + 6 * m, (size_t)m * sizeof(double));
            }
            n_accepted++;
            if (!record(rec, &cap, m, t, y)) { status = NO_MEMORY; break; }

            double fnorm = 0.0;
            for (int64_t j = 0; j < m; j++)
                fnorm += k[j] * k[j];
            quiet_run = sqrt(fnorm) < EQUILIBRIUM_VF_TOL ? quiet_run + 1 : 0;
            if (!quiet_run)
                quiet_since = t;
            if (stop_at_equilibrium && quiet_run >= EQUILIBRIUM_RUN) { status = CONVERGED; break; }
        } else {
            n_rejected++;
        }

        double factor = err_norm == 0.0 ? MAX_FACTOR : SAFETY * pow(err_norm, implicit ? -0.25 : -0.2);
        factor = PY_MIN(MAX_FACTOR, PY_MAX(MIN_FACTOR, factor));
        if (!accept)
            h = h_use * PY_MIN(factor, 1.0);
        else if (clipped) /* a clipped step says nothing against the controller's preference */
            h = PY_MAX(h, h_use * factor);
        else
            h = h_use * factor;
        implicit = implicit || stiff_run >= STIFF_RUN;
    }

    if (status == REACHED_END && quiet_run >= 1
        && (quiet_run >= EQUILIBRIUM_RUN || quiet_run == n_accepted
            || (n_implicit >= 1 && 2.0 * quiet_since <= t)))
        status = CONVERGED;
    free(k);
    rec->n_accepted = n_accepted;
    rec->n_rejected = n_rejected;
    rec->n_implicit = n_implicit;
    rec->t_reached = t;
    return status;
}

/* ---- Shortest round-trip formatting (Schubfach) ----
 * R. Giulietti, "The Schubfach way to render doubles" (2020); compare
 * U. Adams, "Ryu: fast float-to-string conversion" (PLDI 2018).  A finite
 * double v = c * 2^q is written as the decimal with the fewest significant
 * digits inside its rounding interval (the reals that read back as v under
 * round-half-even), the one nearest v among those, ties to an even last
 * digit: the digits of CPython's repr.  The interval is scaled by 10^-k,
 * with 10^k no wider than it, so that at most one multiple of 10^(k+1) and
 * at least one of 10^k lies inside; G holds 10^-k to 126 bits, and every
 * product is 64 x 64 -> 128 bits from 32-bit halves. */

enum { K_MIN = -324, K_MAX = 292, Q_MIN = -1074, REPR_MAX = 24 /* bytes, "-2.2250738585072014e-308" */ };
static const uint64_t C_MIN = (uint64_t)1 << 52, MASK_63 = ((uint64_t)1 << 63) - 1;

/* g(k) = floor(10^-k / 2^r) + 1 with r = flog2pow10(-k) - 125, so that
 * 2^125 < g(k) < 2^126, stored as G[k - K_MIN] = {g >> 63, g mod 2^63} */
static const uint64_t G[K_MAX - K_MIN + 1][2] = {
    {0x4F0CEDC95A718DD4, 0x5B01E8B09AA0D1B5}, {0x7E7B160EF71C1621, 0x119CA780F767B5EE},
    {0x652F44D8C5B011B4, 0x0E16EC672C52F7F2}, {0x50F29D7A37C00E29, 0x581256B8F0425FF5},
    {0x40C21794F96671BA, 0x79A84560C0351991}, {0x679CF287F570B5F7, 0x75DA089ACD21C281},
    {0x52E3F5399126F7F9, 0x44AE6D48A41B0201}, {0x424FF76140EBF994, 0x36F1F106E9AF34CD},
    {0x6A198BCECE465C20, 0x57E981A4A918547B}, {0x54E13CA571D1E34D, 0x2CBACE1D541376C9},
    {0x43E763B78E4182A4, 0x23C8A4E44342C56E}, {0x6CA56C58E39C043A, 0x060DD4A06B9E08B0},
    {0x56EABD13E9499CFB, 0x1E7176E6BC7E6D59}, {0x458897432107B0C8, 0x7EC12BEBC9FEBDE1},
    {0x6F40F20501A5E7A7, 0x7E01DFDFA9979635}, {0x5900C19D9AEB1FB9, 0x4B34B319547944F7},
    {0x4733CE17AF227FC7, 0x55C3C27AA9FA9D93}, {0x71EC7CF2B1D0CC72, 0x560603F7765DC8EA},
    {0x5B2397288E40A38E, 0x7804CFF92B7E3A55}, {0x48E945BA0B66E93F, 0x13370CC755FE9511},
    {0x74A86F90123E41FE, 0x51F1AE0BBCCA881B}, {0x5D538C7341CB67FE, 0x74C1580963D539AF},
    {0x4AA93D29016F8665, 0x43CDE0078310FAF3}, {0x77752EA8024C0A3C, 0x0616333F381B2B1E},
    {0x5F90F22001D66E96, 0x3811C298F9AF55B1}, {0x4C73F4E667DEBEDE, 0x600E35472E25DE28},
    {0x7A532170A6313164, 0x3349EED849D6303F}, {0x61DC1AC084F42783, 0x42A18BE03B11C033},
    {0x4E49AF006A5CEC69, 0x1BB46FE695A7CCF5}, {0x7D42B19A43C7E0A8, 0x2C53E63DBC3FAE55},
    {0x64355AE1CFD31A20, 0x237651CAFCFFBEAA}, {0x502AAF1B0CA8E1B3, 0x35F8416F30CC9888},
    {0x402225AF3D53E7C2, 0x5E603458F3D6E06D}, {0x669D0918621FD937, 0x4A3386F4B957CD7B},
    {0x52173A79E8197A92, 0x6E8F9F2A2DDFD796}, {0x41AC2EC7ECE12EDB, 0x720C7F54F17FDFAB},
    {0x69137E0CAE3517C6, 0x1CE0CBBB1BFFCC45}, {0x540F980A24F74638, 0x171A3C95AFFFD69E},
    {0x433FACD4EA5F6B60, 0x127B63AAF3331218}, {0x6B991487DD657899, 0x6A5F05DE51EB5026},
    {0x5614106CB11DFA14, 0x5518D17EA7EF7352}, {0x44DCD9F08DB194DD, 0x2A7A41321FF2C2A8},
    {0x6E2E2980E2B5BAFB, 0x5D906850331E043F}, {0x5824EE00B55E2F2F, 0x647386A68F4B3699},
    {0x4683F19A2AB1BF59, 0x36C2D21ED908F87B}, {0x70D31C29DDE93228, 0x579E1CFE280E5A5D},
    {0x5A427CEE4B20F4ED, 0x2C7E7D98200B7B7E}, {0x483530BEA280C3F1, 0x09FECAE019A2C932},
    {0x73884DFDD0CE064E, 0x43314499C29E0EB6}, {0x5C6D0B3173D8050B, 0x4F5A9D47CEE4D891},
    {0x49F0D5C129799DA2, 0x72AEE4397250AD41}, {0x764E22CEA8C295D1, 0x377E39F583B44868},
    {0x5EA4E8A553CEDE41, 0x12CB61913629D387}, {0x4BB72084430BE500, 0x756F8140F8217605},
    {0x792500D39E796E67, 0x6F18CECE59CF233C}, {0x60EA670FB1FABEB9, 0x3F470BD847D8E8FD},
    {0x4D885272F4C89894, 0x329F3CAD064720CA}, {0x7C0D50B7EE0DC0ED, 0x37652DE1A3A50143},
    {0x633DDA2CBE716724, 0x2C50F1814FB73436}, {0x4F64AE8A31F45283, 0x3D0D8E010C92902B},
    {0x7F077DA9E986EA6B, 0x7B48E334E0EA8045}, {0x659F97BB2138BB89, 0x49071C2A4D88669D},
    {0x514C796280FA2FA1, 0x20D27CEEA46D1EE4}, {0x4109FAB533FB594D, 0x670ECA58838A7F1D},
    {0x680FF788532BC216, 0x0B4ADD5A6C10CB62}, {0x533FF939DC2301AB, 0x22A24AAEBCDA3C4E},
    {0x4299942E49B59AEF, 0x354EA22563E1C9D8}, {0x6A8F537D42BC2B18, 0x554A9D089FCFA95A},
    {0x553F75FDCEFCEF46, 0x776EE406E63FBAAE}, {0x4432C4CB0BFD8C38, 0x5F8BE99F1E996225},
    {0x6D1E07AB466279F4, 0x327975CB64289D08}, {0x574B3955D1E86190, 0x28612B091CED4A6D},
    {0x45D5C777DB204E0D, 0x06B4226DB0BDD524}, {0x6FBC72595E9A167B, 0x24536A491AC95506},
    {0x59638EADE54811FC, 0x1D0F883A7BD44405}, {0x4782D88B1DD34196, 0x4A72D361FCA9D004},
    {0x726AF411C952028A, 0x43EAEBCFFAA94CD3}, {0x5B88C3416DDB353B, 0x4FEF230CC88770A9},
    {0x493A35CDF17C2A96, 0x0CBF4F3D6D3926EE}, {0x7529EFAFE8C6AA89, 0x61321862485B717C},
    {0x5DBB262653D22207, 0x675B46B506AF8DFD}, {0x4AFC1E850FDB4E6C, 0x52AF6BC405593E64},
    {0x77F9CA6E7FC54A47, 0x377F12D33BC1FD6D}, {0x5FFB085866376E9F, 0x45FF42429634CABD},
    {0x4CC8D379EB5F8BB2, 0x6B329B68782A3BCB}, {0x7ADAEBF64565AC51, 0x2B842BDA59DD2C77},
    {0x6248BCC5045156A7, 0x3C69BCAEAE4A89F9}, {0x4EA0970403744552, 0x6387CA25583BA194},
    {0x7DCDBE6CD253A21E, 0x05A6103BC05F68ED}, {0x64A498570EA94E7E, 0x37B80CFC99E5ED8A},
    {0x5083AD1272210B98, 0x2C933D96E184BE08}, {0x40695741F4E73C79, 0x7075CADF1AD09807},
    {0x670EF2032171FA5C, 0x4D8944982AE759A4}, {0x52725B35B45B2EB0, 0x3E076A135585E150},
    {0x41F515C49048F226, 0x64D2BB42AAD1810D}, {0x698822D41A0E503E, 0x07B7920444826815},
    {0x546CE8A9AE71D9CB, 0x1FC60E69D0685344}, {0x438A53BAF1F4AE3C, 0x196B3EBB0D20429D},
    {0x6C1085F7E9877D2D, 0x0F11FDF815006A94}, {0x56739E5FEE05FDBD, 0x58DB319344005543},
    {0x45294B7FF19E6497, 0x60AF5ADC3666AA9C}, {0x6EA878CCB5CA3A8C, 0x344BC4938A3DDDC7},
    {0x5886C70A2B082ED6, 0x5D096A0FA1CB17D2}, {0x46D238D4EF39BF12, 0x173ABB3FB4A27975},
    {0x71505AEE4B8F981D, 0x0B912B992103F588}, {0x5AA6AF25093FACE4, 0x0940EFADB4032AD3},
    {0x488558EA6DCC8A50, 0x07672624900288A9}, {0x74088E43E2E0DD4C, 0x723EA36DB337410E},
    {0x5CD3A5031BE71770, 0x5B654F8AF5C5CDA5}, {0x4A42EA68E31F45F3, 0x62B772D5916B0AEB},
    {0x76D1770E38320986, 0x0458B7BC1BDE77DD}, {0x5F0DF8D82CF4D46B, 0x1D13C630164B9318},
    {0x4C0B2D79BD90A9EF, 0x30DC9E8CDEA2DC13}, {0x79AB7BF5FC1AA97F, 0x0160FDAE31049351},
    {0x6155FCC4C9AEEDFF, 0x1AB3FE24F403A90E}, {0x4DDE63D0A158BE65, 0x6229981D9002EDA5},
    {0x7C97061A9BC130A2, 0x69DC2695B337E2A1}, {0x63AC04E2163426E8, 0x54B01EDE28F9821B},
    {0x4FBCD0B4DE901F20, 0x43C018B1BA6134E2}, {0x7F9481216419CB67, 0x1F99C11C5D68549D},
    {0x6610674DE9AE3C52, 0x4C7B00E37DED107E}, {0x51A6B90B21583042, 0x09FC00B5FE574065},
    {0x41522DA2811359CE, 0x3B3000919845CD1D}, {0x68837C3734EBC2E3, 0x784CCDB5C06FAE95},
    {0x539C635F5D8968B6, 0x2D0A3E2B00595877}, {0x42E382B2B13ABA2B, 0x3DA1CB5599E11393},
    {0x6B059DEAB52AC378, 0x629C7888F634EC1E}, {0x559E17EEF755692D, 0x3549FA072B5D89B1},
    {0x447E798BF91120F1, 0x1107FB38EF7E07C1}, {0x6D9728DFF4E834B5, 0x01A65EC17F300C68},
    {0x57AC20B32A535D5D, 0x4E1EB23465C009ED}, {0x46234D5C21DC4AB1, 0x24E55B5D1E333B24},
    {0x70387BC69C93AAB5, 0x216EF894FD1EC506}, {0x59C6C96BB076222A, 0x4DF2607730E56A6C},
    {0x47D23ABC8D2B4E88, 0x3E5B805F5A5121F0}, {0x72E9F79415121740, 0x63C59A322A1B697F},
    {0x5BEE5FA9AA74DF67, 0x03047B5B54E2BACC}, {0x498B7FBAEEC3E5EC, 0x0269FC4910B5623D},
    {0x75ABFF917E063CAC, 0x6A432D41B45569FB}, {0x5E2332DACB38308A, 0x21CF5767C37787FC},
    {0x4B4F5BE23C2CF3A1, 0x67D912B9692C6CCA}, {0x787EF969F9E185CF, 0x595B5128A8471476},
    {0x60659454C7E79E3F, 0x6115DA86ED05A9F8}, {0x4D1E1043D31FB1CC, 0x4DAB1538BD9E2193},
    {0x7B634D3951CC4FAD, 0x62AB552795C9CF52}, {0x62B5D7610E3D0C8B, 0x0222AA86116E3F75},
    {0x4EF7DF80D830D6D5, 0x4E822204DABE992A}, {0x7E59659AF38157BC, 0x17369CD49130F510},
    {0x65145148C2CDDFC9, 0x5F5EE3DD40F3F740}, {0x50DD0DD3CF0B196E, 0x1918B64A9A5CC5CD},
    {0x40B0D7DCA5A27ABE, 0x4746F83BAEB09E3E}, {0x678159610903F797, 0x253E59F91780FD2F},
    {0x52CDE11A6D9CC612, 0x50FEAE60DF9A6426}, {0x423E4DAEBE1704DB, 0x5A65584D7FAEB685},
    {0x69FD4917968B3AF9, 0x10A226E265E4573B}, {0x54CAA0DFABA29594, 0x0D4E8581EB1D1295},
    {0x43D54D7FBC821143, 0x243ED134BC174211}, {0x6C887BFF94034ED2, 0x06CAE85460253682},
    {0x56D396661002A574, 0x6BD586A9E6842B9B}, {0x457611EB40021DF7, 0x09779EEE52035616},
    {0x6F234FDECCD02FF1, 0x5BF297E3B66BBCEF}, {0x58E90CB23D73598E, 0x165BACB62B8963F3},
    {0x4720D6F4FDF5E13E, 0x451623C4EFA11CC2}, {0x71CE24BB2FEFCECA, 0x3B569FA17F682E03},
    {0x5B0B5095BFF30BD5, 0x15DEE61ACC535803}, {0x48D5DA11665C0977, 0x2B18B8157042ACCF},
    {0x74895CE8A3C6758B, 0x5E8DF355806AAE18}, {0x5D3AB0BA1C9EC46F, 0x653E5C4466BBBE7A},
    {0x4A955A2E7D4BD059, 0x3765169D1EFC9861}, {0x77555D172EDFB3C2, 0x256E8A94FE60F3CF},
    {0x5F777DAC257FC301, 0x6ABED543FEB3F63F}, {0x4C5F97BCEACC9C01, 0x3BCBDDCFFEF65E99},
    {0x7A328C6177ADC668, 0x5FAC961997F0975B}, {0x61C209E792F16B86, 0x7FBD44E1465A12AF},
    {0x4E34D4B9425ABC6B, 0x7FCA9D810514DBBF}, {0x7D21545B9D5DFA46, 0x32DDC8CE6E87C5FF},
    {0x641AA9E2E44B2E9E, 0x5BE4A0A525396B32}, {0x501554B5836F587E, 0x7CB6E6EA842DEF5C},
    {0x4011109135F2AD32, 0x30925255368B25E3}, {0x6681B41B89844850, 0x4DB6EA21F0DEA304},
    {0x52015CE2D469D373, 0x57C5881B2718826A}, {0x419AB0B576BB0F8F, 0x5FD139AF527A01EF},
    {0x68F781225791B27F, 0x4C81F5E550C3364A}, {0x53F9341B79415B99, 0x239B2B1DDA35C508},
    {0x432DC3492DCDE2E1, 0x02E288E4AE916A6D}, {0x6B7C6BA849496B01, 0x516A74A1174F10AE},
    {0x55FD22ED076DEF34, 0x4121F6E745D8DA25}, {0x44CA82573924BF5D, 0x1A8192529E4714EB},
    {0x6E10D08B8EA1322E, 0x5D9C1D50FD3E87DD}, {0x580D73A2D880F4F2, 0x17B01773FDCB9FE4},
    {0x4671294F139A5D8E, 0x4626792997D61984}, {0x70B50EE4EC2A2F4A, 0x3D0A5B75BFBCF59F},
    {0x5A2A7250BCEE8C3B, 0x4A6EAF916630C47F}, {0x4821F50D63F209C9, 0x21F2260DEB5A36CC},
    {0x736988156CB6760E, 0x69837016455D247A}, {0x5C546CDDF091F80B, 0x6E02C011D1175062},
    {0x49DD23E4C074C66F, 0x719BCCDB0DAC404E}, {0x762E9FD467213D7F, 0x68F947C4E2AD33B0},
    {0x5E8BB3105280FDFF, 0x6D94396A4EF0F627}, {0x4BA2F5A6A8673199, 0x3E102DEEA58D91B9},
    {0x7904BC3DDA3EB5C2, 0x3019E3176F48E927}, {0x60D09697E1CBC49B, 0x4014B5AC590720EC},
    {0x4D73ABACB4A303AF, 0x4CDD5E237A6C1A57}, {0x7BEC45E12104D2B2, 0x47C8969F2A46908A},
    {0x63236B1A80D0A88E, 0x6CA0787F5505406F}, {0x4F4F88E200A6ED3F, 0x0A19F9FF773766BF},
    {0x7EE5A7D0010B1531, 0x5CF65CCBF1F23DFE}, {0x6584864000D5AA8E, 0x172B7D6FF4C1CB32},
    {0x5136D1CCCD77BBA4, 0x78EF978CC3CE3C28}, {0x40F8A7D70AC62FB7, 0x13F2DFA3CFD83020},
    {0x67F43FBE77A37F8B, 0x398499061959E699}, {0x5329CC985FB5FFA2, 0x6136E0D1ADE18548},
    {0x4287D6E04C91994F, 0x00F8B3DAF181376D}, {0x6A72F166E0E8F54B, 0x1B27862B1C01F247},
    {0x5528C11F1A53F76F, 0x2F52D1BC1667F506}, {0x44209A7F48432C59, 0x0C424163451FF738},
    {0x6D00F7320D3846F4, 0x7A039BD208332526}, {0x5733F8F4D76038C3, 0x7B361641A028EA85},
    {0x45C32D90AC4CFA36, 0x2F5E78348020BB9E}, {0x6F9EAF4DE07B29F0, 0x4BCA59ED99CDF8FC},
    {0x594BBF71806287F3, 0x563B7B247B0B2D96}, {0x476FCC5ACD1B9FF6, 0x11C92F50626F57AC},
    {0x724C7A2AE1C5CCBD, 0x02DB7EE703E55912}, {0x5B7061BBE7D17097, 0x1BE2CBEC031DE0DC},
    {0x4926B496530DF3AC, 0x164F09899C17E716}, {0x750ABA8A1E7CB913, 0x3D4B4275C68CA4F0},
    {0x5DA22ED4E530940F, 0x4AA29B916BA3B726}, {0x4AE825771DC07672, 0x6EE87C74561C9285},
    {0x77D9D58B62CD8A51, 0x3173FA53BCFA8408}, {0x5FE177A2B5713B74, 0x278FFB7630C869A0},
    {0x4CB45FB55DF42F90, 0x1FA662C4F3D387B3}, {0x7ABA32BBC986B280, 0x32A3D13B1FB8D91F},
    {0x622E8EFCA1388ECD, 0x0EE9742F4C93E0E6}, {0x4E8BA596E760723D, 0x58BAC3590A0FE71E},
    {0x7DAC3C24A5671D2F, 0x412AD228101971C9}, {0x6489C9B6EAB8E426, 0x00EF0E8673478E3B},
    {0x506E3AF8BBC71CEB, 0x1A58D86B8F6C71C9}, {0x40582F2D6305B0BC, 0x1513E0560C56C16E},
    {0x66F37EAF04D5E793, 0x3B530089AD579BE2}, {0x525C6558D0AB1FA9, 0x15DC006E2446164F},
    {0x41E384470D55B2ED, 0x5E4999F1B69E783F}, {0x696C06D81555EB15, 0x7D428FE92430C065},
    {0x54566BE0111188DE, 0x31020CBA835A3384}, {0x4378564CDA746D7E, 0x5A680A2ECF7B5C69},
    {0x6BF3BD47C3ED7BFD, 0x770CDD17B25EFA42}, {0x565C976C9CBDFCCB, 0x1270B0DFC1E59502},
    {0x4516DF8A16FE63D5, 0x5B8D5A4C9B1E10CE}, {0x6E8AFF4357FD6C89, 0x127BC3ADC4FCE7B0},
    {0x586F329C466456D4, 0x0EC96957D0CA52F3}, {0x46BF5BB038504576, 0x3F07877973D50F29},
    {0x71322C4D26E6D58A, 0x31A5A58F1FBB4B75}, {0x5A8E89D75252446E, 0x5AEAEAD8E62F6F91},
    {0x487207DF750E9D25, 0x2F22557A51BF8C74}, {0x73E9A63254E42EA2, 0x1836EF2A1C65AD86},
    {0x5CBAEB5B771CF21B, 0x2CF8BF54E3848AD2}, {0x4A2F22AF927D8E7C, 0x23FA32AA4F9D3BDB},
    {0x76B1D118EA627D93, 0x5329EAAA18FB92F8}, {0x5EF4A74721E86476, 0x0F54BBBB472FA8C6},
    {0x4BF6EC38E7ED1D2B, 0x25DD62FC38F2ED6C}, {0x798B138E3FE1C845, 0x22FBD1938E517BDF},
    {0x613C0FA4FFE7D36A, 0x4F2FDADC71DAC97F}, {0x4DC9A61D998642BB, 0x58F3157D27E23ACC},
    {0x7C75D695C2706AC5, 0x74B82261D969F7AD}, {0x63917877CEC0556B, 0x10934EB4ADEE5FBE},
    {0x4FA793930BCD1122, 0x4075D8908B251965}, {0x7F7285B812E1B504, 0x00BC8DB411D4F56E},
    {0x65F537C675815D9C, 0x66FD3E29A7DD9125}, {0x5190F96B91344AE3, 0x6BFDCB54864ADA84},
    {0x4140C78940F6A24F, 0x6FFE3C439EA2486A}, {0x6867A5A867F103B2, 0x7FFD2D38FDD073DC},
    {0x53861E2053273628, 0x6664242D97D9F64A}, {0x42D1B1B375B8F820, 0x51E9B68ADFE191D5},
    {0x6AE91C5255F4C034, 0x1CA924116635B621}, {0x558749DB77F70029, 0x63BA83411E915E81},
    {0x446C3B15F9926687, 0x6962029A7EDAB201}, {0x6D79F82328EA3DA6, 0x0F03375D97C45001},
    {0x5794C6828721CAEB, 0x259C2C4ADFD04001}, {0x46109ECED2816F22, 0x5149BD08B30D0001},
    {0x701A97B150CF1837, 0x3542C80DEB480001}, {0x59AEDFC10D7279C5, 0x7768A00B22A00001},
    {0x47BF19673DF52E37, 0x79208008E8800001}, {0x72CB5BD86321E38C, 0x5B67334174000001},
    {0x5BD5E313828182D6, 0x7C528F6790000001}, {0x4977E8DC68679BDF, 0x16A872B940000001},
    {0x758CA7C70D7292FE, 0x5773EAC200000001}, {0x5E0A1FD271287598, 0x45F6556800000001},
    {0x4B3B4CA85A86C47A, 0x04C5112000000001}, {0x785EE10D5DA46D90, 0x07A1B50000000001},
    {0x604BE73DE4838AD9, 0x52E7C40000000001}, {0x4D0985CB1D3608AE, 0x0F1FD00000000001},
    {0x7B426FAB61F00DE3, 0x31CC800000000001}, {0x629B8C891B267182, 0x5B0A000000000001},
    {0x4EE2D6D415B85ACE, 0x7C08000000000001}, {0x7E37BE2022C0914B, 0x1340000000000001},
    {0x64F964E68233A76F, 0x2900000000000001}, {0x50C783EB9B5C85F2, 0x5400000000000001},
    {0x409F9CBC7C4A04C2, 0x1000000000000001}, {0x6765C793FA10079D, 0x0000000000000001},
    {0x52B7D2DCC80CD2E4, 0x0000000000000001}, {0x422CA8B0A00A4250, 0x0000000000000001},
    {0x69E10DE76676D080, 0x0000000000000001}, {0x54B40B1F852BDA00, 0x0000000000000001},
    {0x43C33C1937564800, 0x0000000000000001}, {0x6C6B935B8BBD4000, 0x0000000000000001},
    {0x56BC75E2D6310000, 0x0000000000000001}, {0x4563918244F40000, 0x0000000000000001},
    {0x6F05B59D3B200000, 0x0000000000000001}, {0x58D15E1762800000, 0x0000000000000001},
    {0x470DE4DF82000000, 0x0000000000000001}, {0x71AFD498D0000000, 0x0000000000000001},
    {0x5AF3107A40000000, 0x0000000000000001}, {0x48C2739500000000, 0x0000000000000001},
    {0x746A528800000000, 0x0000000000000001}, {0x5D21DBA000000000, 0x0000000000000001},
    {0x4A817C8000000000, 0x0000000000000001}, {0x7735940000000000, 0x0000000000000001},
    {0x5F5E100000000000, 0x0000000000000001}, {0x4C4B400000000000, 0x0000000000000001},
    {0x7A12000000000000, 0x0000000000000001}, {0x61A8000000000000, 0x0000000000000001},
    {0x4E20000000000000, 0x0000000000000001}, {0x7D00000000000000, 0x0000000000000001},
    {0x6400000000000000, 0x0000000000000001}, {0x5000000000000000, 0x0000000000000001},
    {0x4000000000000000, 0x0000000000000001}, {0x6666666666666666, 0x3333333333333334},
    {0x51EB851EB851EB85, 0x0F5C28F5C28F5C29}, {0x4189374BC6A7EF9D, 0x5916872B020C49BB},
    {0x68DB8BAC710CB295, 0x74F0D844D013A92B}, {0x53E2D6238DA3C211, 0x43F3E0370CDC8755},
    {0x431BDE82D7B634DA, 0x698FE69270B06C44}, {0x6B5FCA6AF2BD215E, 0x0F4CA41D811A46D4},
    {0x55E63B88C230E77E, 0x3F70834ACDAE9F10}, {0x44B82FA09B5A52CB, 0x4C5A02A23E254C0D},
    {0x6DF37F675EF6EADF, 0x2D5CD10396A21347}, {0x57F5FF85E592557F, 0x3DE3DA69454E75D3},
    {0x465E6604B7A84465, 0x7E4FE1EDD10B9175}, {0x709709A125DA0709, 0x4A19697C81AC1BEF},
    {0x5A126E1A84AE6C07, 0x54E1213067BCE326}, {0x480EBE7B9D58566C, 0x43E74DC052FD8285},
    {0x734ACA5F6226F0AD, 0x530BAF9A1E626A6D}, {0x5C3BD5191B525A24, 0x426FBFAE7EB521F1},
    {0x49C97747490EAE83, 0x4EBFCC8B9890E7F4}, {0x760F253EDB4AB0D2, 0x4ACC7A78F41B0CBA},
    {0x5E72843249088D75, 0x223D2EC729AF3D62}, {0x4B8ED0283A6D3DF7, 0x34FDBF05BAF29781},
    {0x78E480405D7B9658, 0x54C931A2C4B758CF}, {0x60B6CD004AC94513, 0x5D6DC14F03C5E0A5},
    {0x4D5F0A66A23A9DA9, 0x31249AA59C9E4D51}, {0x7BCB43D769F762A8, 0x4EA0F76F60FD4882},
    {0x63090312BB2C4EED, 0x254D92BF80CAA068}, {0x4F3A68DBC8F03F24, 0x1DD7A89933D54D20},
    {0x7EC3DAF941806506, 0x62F2A75B86221500}, {0x65697BFA9ACD1D9F, 0x025BB91604E810CD},
    {0x51212FFBAF0A7E18, 0x684960DE6A5340A4}, {0x40E7599625A1FE7A, 0x203AB3E521DC33B6},
    {0x67D88F56A29CCA5D, 0x19F7863B696052BD}, {0x5313A5DEE87D6EB0, 0x7B2C6B62BAB37564},
    {0x42761E4BED31255A, 0x2F56BC4EFBC2C450}, {0x6A5696DFE1E83BC3, 0x655793B192D13A1A},
    {0x5512124CB4B9C969, 0x377942F475742E7B}, {0x440E750A2A2E3ABA, 0x5F9435905DF68B96},
    {0x6CE3EE76A9E3912A, 0x65B9EF4D63241289}, {0x571CBEC554B60DBB, 0x6AFB25D782834207},
    {0x45B0989DDD5E7163, 0x08C8EB12CECF6806}, {0x6F80F42FC8971BD1, 0x5ADB11B7B14BD9A3},
    {0x5933F68CA078E30E, 0x157C0E2C8DD647B5}, {0x475CC53D4D2D8271, 0x5DFCD823A4AB6C91},
    {0x722E086215159D82, 0x632E269F6DDF141B}, {0x5B5806B4DDAAE468, 0x4F581EE5F17F4349},
    {0x49133890B1558386, 0x72ACE584C1329C3B}, {0x74EB8DB44EEF38D7, 0x6AAE3C079B842D2A},
    {0x5D893E29D8BF60AC, 0x5558300616035755}, {0x4AD431BB13CC4D56, 0x7779C004DE6912AB},
    {0x77B9E92B52E07BBE, 0x258F99A163DB5111}, {0x5FC7EDBC424D2FCB, 0x37A614811CAF740D},
    {0x4C9FF163683DBFD5, 0x7951AA00E3BF900B}, {0x7A998238A6C932EF, 0x754F7667D2CC19AB},
    {0x6214682D523A8F26, 0x2AA5F8530F09AE22}, {0x4E76B9BDDB620C1E, 0x55519375A5A1581B},
    {0x7D8AC2C95F034697, 0x3BB5B8BC3C3559C5}, {0x646F023AB2690545, 0x7C9160969691149E},
    {0x5058CE955B87376B, 0x16DAB3ABABA743B2}, {0x40470BAAAF9F5F88, 0x78AEF622EFB902F5},
    {0x66D812AAB29898DB, 0x0DE4BD04B2C19E54}, {0x524675555BAD4715, 0x57EA30D08F014B76},
    {0x41D1F7777C8A9F44, 0x4654F3DA0C01092C}, {0x694FF258C7443207, 0x23BB1FC346680EAC},
    {0x543FF513D29CF4D2, 0x4FC8E635D1ECD88A}, {0x43665DA9754A5D75, 0x263A51C4A7F0AD3B},
    {0x6BD6FC425543C8BB, 0x56C3B607731AAEC4}, {0x5645969B77696D62, 0x789C919F8F488BD0},
    {0x4504787C5F878AB5, 0x46E3A7B2D906D640}, {0x6E6D8D93CC0C1122, 0x3E390C515B3E239A},
    {0x5857A4763CD6741B, 0x4B60D6A77C31B615}, {0x46AC8391CA4529AF, 0x55E7121F968E2B44},
    {0x711405B6106EA919, 0x0971B698F0E3786D}, {0x5A766AF80D255414, 0x078E2BAD8D82C6BD},
    {0x485EBBF9A41DDCDC, 0x6C71BC8AD79BD231}, {0x73CAC65C39C96161, 0x2D82C7448C2C8382},
    {0x5CA23849C7D44DE7, 0x3E023903A356CF9B}, {0x4A1B603B06437185, 0x7E682D9C82ABD949},
    {0x76923391A39F1C09, 0x4A4048FA6AAC8EDB}, {0x5EDB5C7482E5B007, 0x55003A61EEF07249},
    {0x4BE2B05D35848CD2, 0x773361E7F259F507}, {0x796AB3C855A0E151, 0x3EB89CA6508FEE71},
    {0x6122296D114D810D, 0x7EFA16EB73A6585B}, {0x4DB4EDF0DAA4673E, 0x3261ABEF8FB846AF},
    {0x7C54AFE7C43A3ECA, 0x1D691318E5F3A44B}, {0x6376F31FD02E98A1, 0x64540F471E5C836F},
    {0x4F925C1973587A1B, 0x0376729F4B7D35F3}, {0x7F50935BEBC0C35E, 0x38BD84321261EFEB},
    {0x65DA0F7CBC9A35E5, 0x13CAD0280EB4BFEF}, {0x517B3F96FD482B1D, 0x5CA240200BC3CCBF},
    {0x412F66126439BC17, 0x63B50019A3030A33}, {0x684BD683D38F9359, 0x1F88002904D1A9EA},
    {0x536FDECFDC72DC47, 0x32D3335403DAEE55}, {0x42BFE57316C249D2, 0x5BDC291003158B77},
    {0x6ACCA251BE03A951, 0x12F9DB4CD1BC1258}, {0x557081DAFE695440, 0x7594AF70A7C9A847},
    {0x445A017BFEBAA9CD, 0x4476F2C0863AED06}, {0x6D5CCF2CCAC442E2, 0x3A57EACDA3917B3C},
    {0x577D728A3BD03581, 0x7B7988A482DAC8FD}, {0x45FDF53B630CF79B, 0x15FAD3B6CF156D97},
    {0x6FFCBB923814BF5E, 0x565E1F8AE4EF15BE}, {0x5996FC74F9AA32B2, 0x11E4E608B725AAFF},
    {0x47ABFD2A6154F55B, 0x27EA51A0928488CC}, {0x72ACC843CEEE555E, 0x7310829A84074146},
    {0x5BBD6D030BF1DDE5, 0x42739BAED005CDD2}, {0x49645735A327E4B7, 0x4EC2E2F24004A4A8},
    {0x756D5855D1D96DF2, 0x4AD16B1D333AA10C}, {0x5DF11377DB1457F5, 0x2241227DC2954DA3},
    {0x4B2742C648DD132A, 0x4E9A81FE35443E1C}, {0x783ED13D4161B844, 0x175D9CC9EED39694},
    {0x603240FDCDE7C69C, 0x7917B0A18BDC7876}, {0x4CF500CB0B1FD217, 0x1412F3B46FE39392},
    {0x7B219ADE7832E9BE, 0x535185ED7FD285B6}, {0x628148B1F9C25498, 0x42A79E57997537C5},
    {0x4ECDD3C1949B76E0, 0x3552E512E12A9304}, {0x7E161F9C20F8BE33, 0x6EEB081E3510EB39},
    {0x64DE7FB01A609829, 0x3F226CE4F740BC2E}, {0x50B1FFC0151A1354, 0x3281F0B72C33C9BE},
    {0x408E66334414DC43, 0x42018D5F568FD498}, {0x674A3D1ED354939F, 0x1CCF48988A7FBA8D},
    {0x52A1CA7F0F76DC7F, 0x30A5D3AD3B99620B}, {0x421B0865A5F8B065, 0x73B7DC8A96144E6F},
    {0x69C4DA3C3CC11A3C, 0x52BFC7442353B0B1}, {0x549D7B6363CDAE96, 0x756639034F7626F4},
    {0x43B12F82B63E2545, 0x4451C735D92B525D}, {0x6C4EB26ABD303BA2, 0x3A1C71EFC1DEEA2E},
    {0x56A55B889759C94E, 0x61B05B2634B254F2}, {0x45511606DF7B0772, 0x1AF37C1E908EAA5B},
    {0x6EE8233E325E7250, 0x2B1F2CFDB41776F8}, {0x58B9B5CB5B7EC1D9, 0x6F4C23FE29AC5F2D},
    {0x46FAF7D5E2CBCE47, 0x72A34FFE87BD18F1}, {0x71918C896ADFB073, 0x04387FFDA5FB5B1B},
    {0x5ADAD6D4557FC05C, 0x0360666484C915AF}, {0x48AF1243779966B0, 0x02B3851D3707448C},
    {0x744B506BF28F0AB3, 0x1DEC082EBE720746}, {0x5D090D2328726EF5, 0x64BCD358985B3905},
    {0x4A6DA41C205B8BF7, 0x6A30A913AD15C738}, {0x7715D36033C5ACBF, 0x5D1AA81F7B560B8C},
    {0x5F44A919C3048A32, 0x7DAEECE5FC44D609}, {0x4C36EDAE359D3B5B, 0x7E258A51969D7808},
    {0x79F17C49EF61F893, 0x16A276E8F0FBF33F}, {0x618DFD07F2B4C6DC, 0x121B9253F3FCC299},
    {0x4E0B30D328909F16, 0x41AFA84329970214}, {0x7CDEB4850DB431BD, 0x4F7F739EA8F19CED},
    {0x63E55D373E29C164, 0x3F99294BBA5AE3F1}, {0x4FEAB0F8FE87CDE9, 0x7FADBAA2FB7BE98D},
    {0x7FDDE7F4CA72E30F, 0x7F7C5DD1925FDC15}, {0x664B1FF7085BE8D9, 0x4C637E4141E649AB},
    {0x51D5B32C06AFED7A, 0x704F983434B83AEF}, {0x4177C2899EF32462, 0x26A6135CF6F9C8BF},
    {0x68BF9DA8FE51D3D0, 0x3DD685618B294132}, {0x53CC7E20CB74A973, 0x4B12044E08EDCDC2},
    {0x4309FE80A2C3BAC2, 0x6F419D0B3A57D7CE}, {0x6B4330CDD1392AD1, 0x320294DEC3BFBFB0},
    {0x55CF5A3E40FA88A7, 0x419BAA4BCFCC995A}, {0x44A5E1CB672ED3B9, 0x1AE2EEA30CA3ADE1},
    {0x6DD636123EB152C1, 0x77D17DD1ADD2AFCF}, {0x57DE91A832277567, 0x797464A7BE42263F},
    {0x464BA7B9C1B92AB9, 0x4790508631CE84FF}, {0x70790C5C6928445C, 0x0C1A1A704FB0D4CC},
    {0x59FA7049EDB9D049, 0x567B4859D95A43D6}, {0x47FB8D07F161736E, 0x11FC39E17AAE9CAB},
    {0x732C14D98235857D, 0x032D2968C44A9445}, {0x5C2343E134F79DFD, 0x4F575453D03BA9D1},
    {0x49B5CFE75D92E4CA, 0x72AC4376402FBB0E}, {0x75EFB30BC8EB07AB, 0x0446D256CD192B49},
    {0x5E595C096D88D2EF, 0x1D0575123DADBC3A}, {0x4B7AB0078AD3DBF2, 0x4A6AC40E97BE302F},
    {0x78C44CD8DE1FC650, 0x771139B0F2C9E6B1}, {0x609D0A4718196B73, 0x78DA948D8F07EBC1},
    {0x4D4A6E9F467ABC5C, 0x60AEDD3E0C065634}, {0x7BAA4A9870C46094, 0x344AFB9679A3BD20},
    {0x62EEA2138D69E6DD, 0x103BFC78614FCA80}, {0x4F254E760ABB1F17, 0x26966393810CA200},
    {0x7EA21723445E9825, 0x2423D2859B476999}, {0x654E78E9037EE01D, 0x69B642047C392148},
    {0x510B93ED9C658017, 0x6E2B680396941AA0}, {0x40D60FF149EACCDF, 0x71BC53361210154D},
    {0x67BCE64EDCAAE166, 0x1C6085235019BBAE}, {0x52FD850BE3BBE784, 0x7D1A041C40149625},
    {0x42646A6FE9631F9D, 0x4A7B367D0010781D}, {0x6A3A43E642383295, 0x5D91F0C8001A59C8},
    {0x54FB698501C68EDE, 0x17A7F3D3334847D4}, {0x43FC546A67D20BE4, 0x79532975C2A03976},
    {0x6CC6ED770C83463B, 0x0EEB75893766C256}, {0x57058AC5A39C382F, 0x25892AD42C523512},
    {0x459E089E1C7CF9BF, 0x37A0EF102374F742}, {0x6F6340FCFA618F98, 0x59017E8038BB2536},
    {0x591C33FD951AD946, 0x7A67986693C8EA91}, {0x4749C33144157A9F, 0x151FAD1EDCA0BBA8},
    {0x720F9EB539BBF765, 0x0832AE97C76792A5}, {0x5B3FB22A94965F84, 0x068EF21305EC7551},
    {0x48FFC1BBAA11E603, 0x1ED8C1A8D189F774}, {0x74CC692C434FD66B, 0x4AF4690E1C0FF253},
    {0x5D705423690CAB89, 0x225D20D816732843}, {0x4AC0434F873D5607, 0x35174D79AB8F5369},
    {0x779A054C0B955672, 0x21BEE25C45B21F0E}, {0x5FAE6AA33C77785B, 0x3498B5169E2818D8},
    {0x4C8B888296C5F9E2, 0x5D46F7454B534713}, {0x7A78DA6A8AD65C9D, 0x7BA4BED545520B52},
    {0x61FA48553BDEB07E, 0x2FB6FF110441A2A8}, {0x4E61D37763188D31, 0x72F8CC0D9D014EED},
    {0x7D6952589E8DAEB6, 0x1E5AE015C80217E1}, {0x645441E07ED7BEF8, 0x1848B344A001ACB4},
    {0x504367E6CBDFCBF9, 0x603A2903B3348A2A}, {0x4035ECB8A3196FFB, 0x002E873628F6D4EE},
    {0x66BCADF43828B32B, 0x19E40B89DB2487E3}, {0x52308B29C686F5BC, 0x14B66FA17C1D3983},
    {0x41C06F549ED25E30, 0x1091F2E7967DC79C}, {0x6933E554315096B3, 0x341CB7D8F0C93F5F},
    {0x542984435AA6DEF5, 0x767D5FE0C0A0FF80}, {0x435469CF7BB8B25E, 0x2B977FE70080CC66},
    {0x6BBA42E592C11D63, 0x5F58CCA4CD9AE0A3}, {0x562E9BEADBCDB11C, 0x4C470A1D7148B3B6},
    {0x44F216557CA48DB0, 0x3D05A1B1276D5C92}, {0x6E5023BBFAA0E2B3, 0x7B3C35E83F1560E9},
    {0x58401C96621A4EF6, 0x2F635E5365AAB3ED}, {0x4699B0784E7B725E, 0x591C4B75EAEEF658},
    {0x70F5E726E3F8B6FD, 0x74FA125644B18A26}, {0x5A5E5285832D5F31, 0x43FB41DE9D5AD4EB},
    {0x484B75379C244C27, 0x4FFC34B2177BDD89}, {0x73ABEEBF603A1372, 0x4CC6BAB68BF96274},
    {0x5C898BCC4CFB42C2, 0x0A38955ED6611B90}, {0x4A07A309D72F689B, 0x21C6DDE5784DAFA7},
    {0x76729E762518A75E, 0x693E2FD58D49190B}, {0x5EC2185E8413B918, 0x5431BFDE0AA0E0D5},
    {0x4BCE79E536762DAD, 0x29C1664B3BB3E711}, {0x794A5CA1F0BD15E2, 0x0F9BD6DEC5ECA4E8},
    {0x61084A1B26FDAB1B, 0x2616457F04BD50BA}, {0x4DA03B48EBFE227C, 0x1E783798D09773C8},
    {0x7C33920E46636A60, 0x30C058F480F252D9}, {0x635C74D8384F884D, 0x0D66AD9067284247},
    {0x4F7D2A469372D370, 0x711EF14052869B6C}, {0x7F2EAA0A85848581, 0x34FE4ECD50D75F14},
    {0x65BEEE6ED136D134, 0x2A650BD773DF7F43}, {0x51658B8BDA9240F6, 0x551DA312C319329C},
    {0x411E093CAEDB672B, 0x5DB14F4235ADC217}, {0x68300EC77E2BD845, 0x7C4EE536BC49368A},
    {0x5359A56C64EFE037, 0x7D0BEA92303A9208}, {0x42AE1DF050BFE693, 0x173CBBA8269541A0},
    {0x6AB02FE6E79970EB, 0x3EC792A6A422029A}, {0x5559BFEBEC7AC0BC, 0x3239421EE9B4CEE1},
    {0x4447CCBCBD2F0096, 0x5B6101B25490A581}, {0x6D3FADFAC84B3424, 0x2BCE691D541AA268},
    {0x576624C8A03C29B6, 0x563EBA7DDCE21B87}, {0x45EB50A08030215E, 0x78322ECB171B4939},
    {0x6FDEE76733803564, 0x59E9E47824F87527}, {0x597F1F85C2CCF783, 0x6187E9F9B72D2A86},
    {0x4798E6049BD72C69, 0x346CBB2E2C242205}, {0x728E3CD42C8B7A42, 0x20ADF849E039D007},
    {0x5BA4FD768A092E9B, 0x33BE603B19C7D99F}, {0x4950CAC53B3A8BAF, 0x42FEB3627B0647B3},
    {0x754E113B91F745E5, 0x5197856A5E7072B8}, {0x5DD80DC941929E51, 0x27AC6ABB7EC05BC6},
    {0x4B133E3A9ADBB1DA, 0x52F05562CBCD1638}, {0x781EC9F75E2C4FC4, 0x1E4D556ADFAE89F3},
    {0x6018A192B1BD0C9C, 0x7EA444557FBED4C3}, {0x4CE0814227CA707D, 0x4BB69D1132FF109C},
    {0x7B00CED03FAA4D95, 0x5F8A94E851981A93}, {0x62670BD9CC883E11, 0x32D543ED0E134875},
    {0x4EB8D647D6D364DA, 0x5BDDCFF0D80F6D2B}, {0x7DF48A0C8AEBD491, 0x12FC7FE7C018AEAB},
    {0x64C3A1A3A25643A7, 0x28C9FFEC99AD5889}, {0x509C814FB511CFB9, 0x0707FFF07AF113A1},
    {0x407D343FC40E3FC7, 0x1F39998D2F2742E7}, {0x672EB9FFA016CC71, 0x7EC28F484B7204A4},
    {0x528BC7FFB345705B, 0x189BA5D36F8E6A1D}, {0x42096CCC8F6AC048, 0x7A161E42BFA521B1},
    {0x69A8AE1418AACD41, 0x435696D132A1CF81}, {0x5486F1A9AD557101, 0x1C454574288172CE},
    {0x439F27BAF1112734, 0x169DD129BA0128A5}, {0x6C31D92B1B4EA520, 0x242FB50F9001DAA1},
    {0x568E4755AF721DB3, 0x368C90D940017BB4}, {0x453E9F77BF8E7E29, 0x120A0D7A999AC95D},
    {0x6ECA98BF98E3FD0E, 0x50101590F5C47561}, {0x58A213CC7A4FFDA5, 0x26734473F7D05DE8},
    {0x46E80FD6C83FFE1D, 0x6B8F69F65FD9E4B9}, {0x71734C8AD9FFFCFC, 0x45B24323CC8FD45C},
    {0x5AC2A3A247FFFD96, 0x6AF502830A0CA9E3}, {0x489BB61B6CCCCADF, 0x08C402026E7087E9},
    {0x742C569247AE1164, 0x746CD003E3E73FDB}, {0x5CF04541D2F1A783, 0x76BD73364FEC3315},
    {0x4A59D101758E1F9C, 0x5EFDF5C50CBCF5AB}, {0x76F61B3588E365C7, 0x4B2FEFA1ADFB22AB},
    {0x5F2B48F7A0B5EB06, 0x08F3261AF195B555}, {0x4C22A0C61A2B226B, 0x20C284E25ADE2AAB},
    {0x79D1013CF6AB6A45, 0x1AD0D49D5E304444}, {0x617400FD9222BB6A, 0x48A7107DE4F369D0},
    {0x4DF6673141B562BB, 0x53B8D9FE50C2BB0D}, {0x7CBD71E869223792, 0x52C15CCA1AD12B48},
    {0x63CAC186BA81C60E, 0x75677D6E7BDA8906}, {0x4FD5679EFB9B04D8, 0x5DEC645863153A6C},
    {0x7FBBD8FE5F5E6E27, 0x497A3A2704EEC3DF},
};

/* floor(x / 2^s) also for negative x, where C99 leaves >> implementation-defined */
static int64_t floor_shift(int64_t x, int s) { return x >= 0 ? x >> s : -((-x - 1) >> s) - 1; }

/* floor(log10(2^e)), floor(log10(3/4 * 2^e)) and floor(log2(10^e)), exact
 * for |e| <= 1200 */
static int flog10pow2(int e) { return (int)floor_shift(e * INT64_C(661971961083), 41); }
static int flog10_three_quarters_pow2(int e)
{
    return (int)floor_shift(e * INT64_C(661971961083) - INT64_C(274743187321), 41);
}
static int flog2pow10(int e) { return (int)floor_shift(e * INT64_C(913124641741), 38); }

/* the high 64 bits of a * b */
static uint64_t mul_hi(uint64_t a, uint64_t b)
{
    uint64_t a_lo = a & 0xFFFFFFFF, a_hi = a >> 32, b_lo = b & 0xFFFFFFFF, b_hi = b >> 32;
    uint64_t lo_lo = a_lo * b_lo, lo_hi = a_lo * b_hi, hi_lo = a_hi * b_lo;
    uint64_t mid = (lo_lo >> 32) + (lo_hi & 0xFFFFFFFF) + (hi_lo & 0xFFFFFFFF);
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32);
}

/* g * cp / 2^127 rounded to odd: the floor, with its last bit set when the
 * quotient is not an integer (cp < 2^63) */
static uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    uint64_t x1 = mul_hi(g[1], cp), y0 = g[0] * cp, y1 = mul_hi(g[0], cp);
    uint64_t z = (y0 >> 1) + x1;
    return (y1 + (z >> 63)) | (((z & MASK_63) + MASK_63) >> 63);
}

/* The shortest decimal f * 10^*e that reads back as c * 2^q (c > 0), the
 * nearest such, ties to an even f. */
static uint64_t shortest_decimal(uint64_t c, int q, int *e)
{
    uint64_t out = c & 1; /* an odd c loses the ties at the interval's ends */
    uint64_t cb = c << 2, cbr = cb + 2, cbl;
    int k;
    if (c != C_MIN || q == Q_MIN) {
        cbl = cb - 2;
        k = flog10pow2(q);
    } else { /* the gap below a power of two is half the gap above it */
        cbl = cb - 1;
        k = flog10_three_quarters_pow2(q);
    }
    int h = q + flog2pow10(-k) + 2;
    const uint64_t *g = G[k - K_MIN];
    /* 4 * (v, lower end, upper end) / 10^k, rounded to odd */
    uint64_t vb = round_to_odd(g, cb << h), vbl = round_to_odd(g, cbl << h), vbr = round_to_odd(g, cbr << h);
    uint64_t s = vb >> 2;
    *e = k;
    if (s >= 10) { /* the one-digit-shorter candidates: multiples of 10 around s */
        uint64_t sp10 = s / 10 * 10, tp10 = sp10 + 10;
        int upin = vbl + out <= sp10 << 2, wpin = (tp10 << 2) + out <= vbr;
        if (upin != wpin)
            return upin ? sp10 : tp10;
    }
    uint64_t t = s + 1;
    int uin = vbl + out <= s << 2, win = (t << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : t;
    uint64_t mid = (s + t) << 1; /* both lie inside: the nearer, ties to even */
    return vb < mid || (vb == mid && (s & 1) == 0) ? s : t;
}

/* Write v as float.__repr__ writes it into out (REPR_MAX bytes) and return
 * the length, or 0 if v is not finite. */
static int write_repr(double v, char *out)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t t = bits & (C_MIN - 1);
    int bq = (int)(bits >> 52) & 0x7FF;
    if (bq == 0x7FF)
        return 0;
    char *p = out;
    if (bits >> 63)
        *p++ = '-';
    uint64_t f;
    int e;
    if (bq == 0 && t == 0) {
        memcpy(p, "0.0", 3);
        return (int)(p - out) + 3;
    }
    if (bq == 0) { /* subnormal */
        f = shortest_decimal(t, Q_MIN, &e);
    } else {
        uint64_t c = C_MIN | t;
        int mq = -(bq + Q_MIN - 1); /* v = c / 2^mq */
        if (0 < mq && mq < 53 && (c >> mq) << mq == c) { /* an integer below 2^53 is its own shortest */
            f = c >> mq;
            e = 0;
        } else {
            f = shortest_decimal(c, -mq, &e);
        }
    }
    while (f % 10 == 0) {
        f /= 10;
        e++;
    }
    char digits[20];
    int len = 20;
    do
        digits[--len] = (char)('0' + f % 10);
    while ((f /= 10) != 0);
    const char *d = digits + len;
    len = 20 - len;
    int point = len + e; /* v = 0.d_1 d_2 ... d_len * 10^point */
    if (-4 < point && point <= 16) { /* positional */
        if (point <= 0) {
            memcpy(p, "0.000", (size_t)(2 - point));
            p += 2 - point;
            memcpy(p, d, (size_t)len);
            p += len;
        } else if (point < len) {
            memcpy(p, d, (size_t)point);
            p += point;
            *p++ = '.';
            memcpy(p, d + point, (size_t)(len - point));
            p += len - point;
        } else {
            memcpy(p, d, (size_t)len);
            p += len;
            memset(p, '0', (size_t)(point - len));
            p += point - len;
            memcpy(p, ".0", 2);
            p += 2;
        }
    } else { /* d.ddde+XX, at least two exponent digits */
        *p++ = d[0];
        if (len > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)(len - 1));
            p += len - 1;
        }
        int x = point - 1;
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        x = x < 0 ? -x : x;
        if (x >= 100)
            *p++ = (char)('0' + x / 100);
        *p++ = (char)('0' + x / 10 % 10);
        *p++ = (char)('0' + x % 10);
    }
    return (int)(p - out);
}

/* Write the n doubles x as float.__repr__ writes each, the string sep
 * between two in a row of cols >= 1 and row_sep between two rows, into out,
 * which has room for n * REPR_MAX bytes and the separators.  Returns the
 * length written, or -1 if a value is not finite. */
int64_t ws_format(const double *x, int64_t n, int64_t cols, const char *sep, const char *row_sep, char *out)
{
    size_t sep_len = strlen(sep), row_sep_len = strlen(row_sep);
    char *p = out;
    for (int64_t i = 0, col = 0; i < n; i++) {
        if (col == cols) {
            memcpy(p, row_sep, row_sep_len);
            p += row_sep_len;
            col = 0;
        } else if (col > 0) {
            memcpy(p, sep, sep_len);
            p += sep_len;
        }
        col++;
        int len = write_repr(x[i], p);
        if (len == 0)
            return -1;
        p += len;
    }
    return p - out;
}
