/* Compiled adaptive Runge-Kutta 5(4) stepper (Dormand-Prince pair): the
 * statement-by-statement twin of _stepper_py.integrate_core; keep the two in
 * sync.  Plain C99 without Python or NumPy headers, compiled by stepper.py on
 * first import and called through ctypes. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { REACHED_END = 0, CONVERGED = 1, UNDERFLOW = -1, MAX_STEPS = -2, NONFINITE = -3, NEGATIVE = -4,
       NO_MEMORY = -5 };

static const double NEG_CLAMP = 1e-12, MIN_FACTOR = 0.2, MAX_FACTOR = 10.0, SAFETY = 0.9;
static const double EQUILIBRIUM_VF_TOL = 1e-10; /* equilibrium: |f| below this ... */
static const int64_t EQUILIBRIUM_RUN = 50;      /* ... over this many accepted steps in a row */
static const double H_FLOOR = 1e3 * 2.2250738585072014e-308;
static const int64_t INITIAL_CAPACITY = 4096; /* rows */

/* Python's min(a, b) and max(a, b), which keep a unless b is strictly beyond */
#define PY_MIN(a, b) ((b) < (a) ? (b) : (a))
#define PY_MAX(a, b) ((b) > (a) ? (b) : (a))

typedef struct {
    double *rows; /* n_rows x (m + 1) */
    int64_t n_rows, n_accepted, n_rejected;
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
    double *k = malloc((size_t)(10 * m) * sizeof(double)); /* seven stage rows, then three states */
    *rec = (ws_record){malloc((size_t)(cap * (m + 1)) * sizeof(double)), 0, 0, 0, 0.0};
    if (k == NULL || rec->rows == NULL) { free(k); return NO_MEMORY; }
    double *y = k + 7 * m, *y_new = y + m, *stage_y = y_new + m;
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
    h = PY_MIN(h, t_end / 10.0);
    h = PY_MIN(h, targets[0]);

    double t = 0.0;
    int64_t idx = 0, n_accepted = 0, n_rejected = 0, quiet_run = 0;
    int status = REACHED_END;
    while (t < t_end) {
        if (n_accepted + n_rejected >= max_steps) { status = MAX_STEPS; break; }
        h = PY_MAX(h, H_FLOOR);
        if (h < 16.0 * ulp_from_one(t)) { status = UNDERFLOW; break; }

        /* clip to the next requested sample time; the 2% stretch prevents a
         * sliver step from being left behind after a near-exact hit */
        double target = targets[idx];
        int clipped = 1.02 * h >= target - t;
        double h_use = clipped ? target - t : h;

        /* seven stages; k[6] is the derivative at the proposed solution (FSAL) */
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

        int finite = 1, negative = 0;
        for (int64_t j = 0; j < m; j++) {
            finite &= isfinite(y_new[j]) != 0;
            negative |= y_new[j] < -NEG_CLAMP;
        }
        if (!finite) { status = NONFINITE; break; }

        double err_norm = 0.0;
        for (int64_t j = 0; j < m; j++) {
            double err_j = 0.0;
            for (int stage = 0; stage < 7; stage++)
                err_j += E_TAB[stage] * k[stage * m + j];
            err_j *= h_use;
            double sc = atol + rtol * PY_MAX(fabs(y[j]), fabs(y_new[j]));
            err_norm += (err_j / sc) * (err_j / sc);
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
            t = clipped ? target : t + h_use;
            idx += clipped;
            int clamped = 0;
            for (int64_t j = 0; j < m; j++)
                if (y_new[j] < 0.0) { y_new[j] = 0.0; clamped = 1; }
            memcpy(y, y_new, (size_t)m * sizeof(double));
            if (clamped)
                rhs(n, beta, omega_i, delta_i, mu, r, y, k + 6 * m);
            memcpy(k, k + 6 * m, (size_t)m * sizeof(double));
            n_accepted++;
            if (!record(rec, &cap, m, t, y)) { status = NO_MEMORY; break; }

            double fnorm = 0.0;
            for (int64_t j = 0; j < m; j++)
                fnorm += k[j] * k[j];
            quiet_run = sqrt(fnorm) < EQUILIBRIUM_VF_TOL ? quiet_run + 1 : 0;
            if (stop_at_equilibrium && quiet_run >= EQUILIBRIUM_RUN) { status = CONVERGED; break; }
        } else {
            n_rejected++;
        }

        double factor = err_norm == 0.0 ? MAX_FACTOR : SAFETY * pow(err_norm, -0.2);
        factor = PY_MIN(MAX_FACTOR, PY_MAX(MIN_FACTOR, factor));
        if (!accept)
            h = h_use * PY_MIN(factor, 1.0);
        else if (clipped) /* a clipped step says nothing against the controller's preference */
            h = PY_MAX(h, h_use * factor);
        else
            h = h_use * factor;
    }

    if (status == REACHED_END
        && (quiet_run >= EQUILIBRIUM_RUN || (quiet_run == n_accepted && n_accepted >= 1)))
        status = CONVERGED;
    free(k);
    rec->n_accepted = n_accepted;
    rec->n_rejected = n_rejected;
    rec->t_reached = t;
    return status;
}
