/* Compiled adaptive stepper, Dormand-Prince 8(5,3) (Hairer's DOP853) and
 * then, once the run turns stiff and for as long as it gains, a linearly
 * implicit Rosenbrock 4(3) step: the statement-by-statement twin of
 * _stepper_py.integrate_core, whose docstring describes the two phases, the
 * error norm, the stiffness test, the implicit windows, the O(n) solve and
 * the |f| column of the record, from which dynamics judges the horizon; keep
 * the two in sync.  Also the artifact writers' float formatter,
 * ws_format, which writes doubles byte for byte as Python's float.__repr__
 * does from a power-of-ten table that ws_init derives; ws_init runs once,
 * before the first ws_format.  Plain C99 without Python or NumPy headers,
 * compiled by stepper.py on first import and called through ctypes. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { REACHED_END = 0, UNDERFLOW = -1, MAX_STEPS = -2, NONFINITE = -3, NEGATIVE = -4, NO_MEMORY = -5 };

static const double NEG_CLAMP = 1e-12, MIN_FACTOR = 0.2, MAX_FACTOR = 10.0, SAFETY = 0.9;
static const double STIFF_LIMIT = 6.1;      /* Hairer's test: h |lambda| above this ... */
static const int64_t STIFF_RUN = 15;        /* ... on this many accepted steps switches to Rosenbrock; */
static const int64_t NONSTIFF_RESET = 6;    /* this many in a row below it restart the count */
static const double IMPLICIT_GAIN = 2.0;    /* a window of STIFF_RUN implicit steps shorter than this
                                               many times STIFF_RUN of the last explicit step goes
                                               back to DOP853 */
static const double TINY = 2.2250738585072014e-308; /* DBL_MIN, np.finfo(float).tiny */
static const double H_START = 0x1p-48; /* 16 ulp(1): the floor of the first step's bounds */
static const int64_t INITIAL_CAPACITY = 4096; /* rows */

/* Python's min(a, b) and max(a, b), which keep a unless b is strictly beyond */
#define PY_MIN(a, b) ((b) < (a) ? (b) : (a))
#define PY_MAX(a, b) ((b) > (a) ? (b) : (a))

typedef struct {
    double *rows; /* n_rows x (m + 2) */
    int64_t n_rows, n_accepted, n_rejected, n_implicit;
    double t_reached;
} ws_record;

/* Dormand-Prince 8(5,3) tableau (Hairer's DOP853), the decimal literals of
 * _stepper_py: the stage rows A_TAB (stage 12 sits at c = 1), the propagated
 * weights B_TAB, the fifth-order error weights E5_TAB, and BHH1..3, the
 * third-order weights of stages 1, 9 and 12 */
static const double A_TAB[11][11] = {
    {5.26001519587677318785587544488e-2},
    {1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2},
    {2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2},
    {2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1},
    {3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1},
    {3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2},
    {3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3},
    {6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1},
    {4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2},
    {-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022},
    {2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1},
};
static const double B_TAB[12] = {5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
                                 4.45031289275240888144113950566, 1.89151789931450038304281599044,
                                 -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
                                 -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
                                 4.47106157277725905176885569043e-2};
static const double E5_TAB[12] = {0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
                                  -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
                                  0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
                                  0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
                                  -0.2235530786388629525884427845e-1};
static const double BHH1 = 0.244094488188976377952755905512, BHH2 = 0.733846688281611857341361741547,
                    BHH3 = 0.220588235294117647058823529412e-1;

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

/* Append the row (t, y, |f|) for f = f(y), doubling the capacity when full;
 * 0 if out of memory. */
static int record(ws_record *rec, int64_t *cap, int64_t m, double t, const double *y, const double *f)
{
    if (rec->n_rows == *cap) {
        double *grown = realloc(rec->rows, (size_t)(2 * *cap * (m + 2)) * sizeof(double));
        if (grown == NULL) return 0;
        rec->rows = grown;
        *cap *= 2;
    }
    double *row = rec->rows + rec->n_rows++ * (m + 2), fnorm = 0.0;
    row[0] = t;
    memcpy(row + 1, y, (size_t)m * sizeof(double));
    for (int64_t j = 0; j < m; j++)
        fnorm += f[j] * f[j];
    row[m + 1] = sqrt(fnorm);
    return 1;
}

void ws_free(ws_record *rec) { free(rec->rows); }

/* Integrate the m = n + 2 component model ODE from t = 0 to the last of the
 * n_targets >= 1 sample times, t_end = targets[n_targets - 1] (see
 * _stepper_py.integrate_core), recording every accepted step as a row
 * (t, y_0, ..., y_{m-1}, |f(y)|) in rec->rows, grown with realloc and
 * released by ws_free.  Returns a _stepper_py status code, or NO_MEMORY. */
int ws_integrate(int64_t m, const double *beta, const double *omega_i, const double *delta_i,
                 double mu, double r, const double *y0, double rtol, double atol,
                 const double *targets, int64_t n_targets, int64_t max_steps, ws_record *rec)
{
    int64_t n = m - 2, cap = INITIAL_CAPACITY;
    double t_end = targets[n_targets - 1];
    /* twelve stage rows, three states, the error, four Rosenbrock
     * increments, a derivative and the five vectors of the factors */
    double *k = malloc((size_t)(26 * m) * sizeof(double));
    *rec = (ws_record){malloc((size_t)(cap * (m + 2)) * sizeof(double)), 0, 0, 0, 0, 0.0};
    if (k == NULL || rec->rows == NULL) { free(k); return NO_MEMORY; }
    double *y = k + 12 * m, *y_new = y + m, *stage_y = y_new + m, *err = stage_y + m, *g = err + m;
    double *f = g + 4 * m, *work = f + m;
    factors fc = {work, work + m, work + 2 * m, work + 3 * m, work + 4 * m, 0.0, 0.0};
    memcpy(y, y0, (size_t)m * sizeof(double));
    rhs(n, beta, omega_i, delta_i, mu, r, y, k);
    record(rec, &cap, m, 0.0, y, k);

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

    double t = 0.0;
    int64_t idx = 0, n_accepted = 0, n_rejected = 0, n_implicit = 0;
    /* the stiff run that switches, doubled after each implicit window that
     * gains too little; the window's start, and the last explicit step */
    int64_t stiff_run = 0, nonstiff_run = 0, stiff_needed = STIFF_RUN;
    double t_switch = 0.0, h_explicit = 0.0;
    int implicit = 0, status = REACHED_END;
    while (t < t_end) {
        if (n_accepted + n_rejected >= max_steps) { status = MAX_STEPS; break; }
        if (h < 16.0 * ulp_from_one(t)) { status = UNDERFLOW; break; }

        /* clip to the next requested sample time; the 2% stretch prevents a
         * sliver step from being left behind after a near-exact hit */
        double target = targets[idx];
        int clipped = 1.02 * h >= target - t;
        double h_use = clipped ? target - t : h;

        double err_norm = 0.0;
        if (implicit) {
            rosenbrock_step(n, beta, omega_i, delta_i, mu, r, y, k, h_use, &fc, g, stage_y, f, y_new, err);
            for (int64_t j = 0; j < m; j++) {
                double sc = atol + rtol * PY_MAX(fabs(y[j]), fabs(y_new[j]));
                err_norm += (err[j] / sc) * (err[j] / sc);
            }
            err_norm = sqrt(err_norm / m);
        } else {
            /* eleven new stages; stage_y keeps the last one's point (c = 1)
             * for the stiffness test */
            for (int stage = 1; stage < 12; stage++) {
                for (int64_t j = 0; j < m; j++) {
                    double acc = A_TAB[stage - 1][0] * k[j];
                    for (int jj = 1; jj < stage; jj++)
                        acc += A_TAB[stage - 1][jj] * k[jj * m + j];
                    stage_y[j] = y[j] + acc * h_use;
                }
                rhs(n, beta, omega_i, delta_i, mu, r, stage_y, k + stage * m);
            }
            /* Hairer's norm: the fifth-order estimate, damped where the
             * third-order one is small beside it */
            double err5 = 0.0, err3 = 0.0;
            for (int64_t j = 0; j < m; j++) {
                double increment = 0.0, e5 = 0.0;
                for (int stage = 0; stage < 12; stage++) {
                    increment += B_TAB[stage] * k[stage * m + j];
                    e5 += E5_TAB[stage] * k[stage * m + j];
                }
                double e3 = increment - BHH1 * k[j] - BHH2 * k[8 * m + j] - BHH3 * k[11 * m + j];
                y_new[j] = y[j] + increment * h_use;
                double sc = atol + rtol * PY_MAX(fabs(y[j]), fabs(y_new[j]));
                err5 += (e5 / sc) * (e5 / sc);
                err3 += (e3 / sc) * (e3 / sc);
            }
            double deno = err5 + 0.01 * err3;
            err_norm = deno > 0.0 ? h_use * err5 / sqrt(deno * m) : 0.0;
        }

        int finite = 1, negative = 0;
        for (int64_t j = 0; j < m; j++) {
            finite &= isfinite(y_new[j]) != 0;
            negative |= y_new[j] < -NEG_CLAMP;
        }
        if (!finite) { status = NONFINITE; break; }
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
            /* the clamp: a negative component, or a positive one below TINY,
             * becomes 0; an exact 0 or -0 is left alone.  A positive
             * component moves by less than 2.2e-308, some 296 orders under
             * the default atol of 1e-12, and I = 0 is absorbing: an infection
             * decayed out of the normal range is extinct from here on,
             * instead of carried through every later step as subnormal
             * operands, which cost about 3x as much per step on x86. */
            for (int64_t j = 0; j < m; j++)
                if (y_new[j] < TINY && y_new[j] != 0.0) y_new[j] = 0.0;
            memcpy(y, y_new, (size_t)m * sizeof(double));
            rhs(n, beta, omega_i, delta_i, mu, r, y, k); /* the next step's first stage */
            if (implicit) {
                /* an implicit phase starts and ends on a multiple of
                 * STIFF_RUN implicit steps, so this is a window's end */
                if (++n_implicit % STIFF_RUN == 0) {
                    /* the implicit steps gain too little: back to DOP853 */
                    if (t - t_switch < IMPLICIT_GAIN * STIFF_RUN * h_explicit) {
                        implicit = 0;
                        stiff_needed *= 2;
                    }
                    t_switch = t;
                }
            } else {
                h_explicit = h_use;
                /* Hairer's estimate of h |lambda| from the last stage and the new point */
                double num = 0.0, den = 0.0;
                for (int64_t j = 0; j < m; j++) {
                    double dk = k[j] - k[11 * m + j], dy = y[j] - stage_y[j];
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
            n_accepted++;
            if (!record(rec, &cap, m, t, y, k)) { status = NO_MEMORY; break; }
        } else {
            n_rejected++;
        }

        double factor = err_norm == 0.0 ? MAX_FACTOR : SAFETY * pow(err_norm, implicit ? -0.25 : -0.125);
        factor = PY_MIN(MAX_FACTOR, PY_MAX(MIN_FACTOR, factor));
        if (!accept)
            h = h_use * PY_MIN(factor, 1.0);
        else if (clipped) /* a clipped step says nothing against the controller's preference */
            h = PY_MAX(h, h_use * factor);
        else
            h = h_use * factor;
        if (!implicit && stiff_run >= stiff_needed) {
            implicit = 1;
            stiff_run = 0;
            t_switch = t;
        }
    }

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
 * at least one of 10^k lies inside; ws_pow10 holds 10^-k to 126 bits, and
 * every product is 64 x 64 -> 128 bits from 32-bit halves.  The table is
 * derived, not committed: ws_init computes it exactly, and must run before
 * the first ws_format. */

enum { K_MIN = -324, K_MAX = 292, Q_MIN = -1074, REPR_MAX = 24 /* bytes, "-2.2250738585072014e-308" */ };
static const uint64_t C_MIN = (uint64_t)1 << 52, MASK_63 = ((uint64_t)1 << 63) - 1;

/* g(k) = floor(10^-k / 2^r) + 1 with r = flog2pow10(-k) - 125, so that
 * 2^125 < g(k) < 2^126, stored as ws_pow10[k - K_MIN] = {g >> 63, g mod 2^63}
 * by ws_init */
uint64_t ws_pow10[K_MAX - K_MIN + 1][2];

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

/* ws_pow10 from exact integers x of WORDS 32-bit words, lowest first: room
 * for 10^-K_MIN = 10^324 < 2^1077 and for 2^POW2_S.  For k <= 0, x = 10^-k
 * and g - 1 = floor(x / 2^r), a left shift where r < 0.  For k > 0,
 * x = floor(2^POW2_S / 10^k) and g - 1 = floor(x / 2^(POW2_S + r)), which is
 * floor(10^-k / 2^r) because floor(floor(a / b) / c) = floor(a / (b c)) for
 * positive integers; POW2_S + r >= 0 since POW2_S >= 125 - flog2pow10(-K_MAX)
 * = 1095. */
enum { WORDS = 36, POW2_S = 1096 };

/* ws_pow10[k - K_MIN] from g - 1 = floor(x / 2^s), bit by bit */
static void store_pow10(int k, const uint32_t *x, int s)
{
    uint64_t hi = 0, lo = 0; /* g - 1 = hi * 2^63 + lo */
    for (int i = 125; i >= 0; i--) {
        int b = i + s;
        uint64_t bit = 0 <= b && b < 32 * WORDS ? (x[b / 32] >> (b % 32)) & 1 : 0;
        if (i >= 63)
            hi = hi << 1 | bit;
        else
            lo = lo << 1 | bit;
    }
    lo++;
    ws_pow10[k - K_MIN][0] = hi + (lo >> 63);
    ws_pow10[k - K_MIN][1] = lo & MASK_63;
}

/* Fill ws_pow10 */
void ws_init(void)
{
    uint32_t x[WORDS] = {1};
    for (int k = 0; k >= K_MIN; k--) {
        store_pow10(k, x, flog2pow10(-k) - 125);
        uint64_t carry = 0; /* x *= 10 */
        for (int j = 0; j < WORDS; j++) {
            carry += (uint64_t)x[j] * 10;
            x[j] = (uint32_t)carry;
            carry >>= 32;
        }
    }
    memset(x, 0, sizeof x);
    x[POW2_S / 32] = (uint32_t)1 << (POW2_S % 32);
    for (int k = 1; k <= K_MAX; k++) {
        uint64_t rem = 0; /* x = floor(x / 10) */
        for (int j = WORDS - 1; j >= 0; j--) {
            rem = rem << 32 | x[j];
            x[j] = (uint32_t)(rem / 10);
            rem %= 10;
        }
        store_pow10(k, x, POW2_S + flog2pow10(-k) - 125);
    }
}

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
    const uint64_t *g = ws_pow10[k - K_MIN];
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
