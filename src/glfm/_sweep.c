/*
 * One Gibbs sweep of the glfm sampler, drawn from the chain's own PCG64.
 *
 * The Python side (glfm.engine) owns every array; this file reads and
 * writes them in place through the pointers of a glfm_state. Random draws
 * come from numpy's bit generator and libnpyrandom: one uniform per live
 * flip candidate, one per birth decision, and one accept-reject loop per
 * truncated-normal draw (Robert, "Simulation of truncated normal variables",
 * 1995), each in row order.
 *
 * The model: each pseudo-observation column c of attribute d is
 * y_c = z B_c + N(0, sigma_d^2), with weights B_c ~ N(0, sigma_d^2 sigma_B^2 I)
 * on free columns; a categorical attribute's last column is pinned at 0.
 * With the weights collapsed, a row's log-likelihood in z is
 *
 *     -1/2 [S_free log(1 + s) + Q / (1 + s)] + const,
 *
 * with s = z^T P_{-n}^{-1} z, S_free the number of free columns and
 * Q = sum_c w_c (y_c - u_c)^2 under the predictive mean u = z M, weighted
 * by w_c = 1/sigma_d^2 on free columns and 0 on pinned ones. So the scan
 * and the birth read one scalar statistic at every noise-variance layout.
 *
 * Entry points:
 *   glfm_rows          the Z-row scan and feature births over a row range;
 *                      a birth grows the state in the room the caller left
 *   glfm_attributes    Cholesky of P, the P^{-1} rebuild and, per attribute,
 *                      weights, pseudo-observations, ordinal thresholds and
 *                      noise variance
 *   glfm_trunc_normal  N(mean, std^2) truncated to (lo, hi], over an array
 *   glfm_inverse_gamma one inverse-gamma draw
 *   glfm_chol_inverse  P^{-1} through the Cholesky factor of P, as the
 *                      P^{-1} rebuild takes it
 *   glfm_ndtr          the standard normal CDF, over an array
 *   glfm_log_ndtr      its logarithm, over an array
 * and three scalar helpers of the birth step, exported for tests.
 *
 * Build: cc -O2 -fPIC -shared, linked with libnpyrandom.a and libm. No
 * -ffast-math and no FMA contraction: each operation rounds once, as the
 * numpy references in the tests do, so draws match them bit for bit.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* From libnpyrandom (numpy/random/distributions.h, which needs Python.h). */
double random_standard_normal(bitgen_t *bitgen_state);
double random_standard_exponential(bitgen_t *bitgen_state);
double random_standard_gamma(bitgen_t *bitgen_state, double shape);

enum { KIND_CONTINUOUS = 0, KIND_COUNT = 1, KIND_ORDINAL = 2, KIND_CATEGORICAL = 3 };

enum {
    STEP_REBUILD = 1,   /* rebuild P^{-1} from the Cholesky factor of P */
    STEP_WEIGHTS = 2,
    STEP_PSEUDO = 4,
    STEP_THRESHOLDS = 8,
    STEP_NOISE = 16,
};

enum {
    ERR_NOT_PD = -1,        /* Cholesky: matrix not positive definite */
    ERR_EMPTY_SUPPORT = -2, /* an ordinal threshold has empty support */
    ERR_BOUNDS = -3,        /* truncation with lo >= hi */
    ERR_STD = -4,           /* truncation with std <= 0 or not finite */
    ERR_NOMEM = -5,
    ERR_MEAN = -6,          /* truncation with a NaN mean */
};

/* Mirrors the ctypes Structure in glfm/_kernel.py field for field. Arrays are
 * C-contiguous float64 unless noted; Z is N x K, Y is N x S, B and lam are
 * K x S, P and P_inv are K x K, sigma2 holds one noise variance per
 * attribute. glfm_rows may raise K, repacking the arrays in place. */
typedef struct {
    int64_t N, K, S, D, nb;
    double *Z, *Y, *B, *P, *P_inv, *lam, *col_sums, *sigma2;
    const int64_t *kind, *offset, *levels; /* D, D + 1, D */
    const uint8_t *missing;        /* N x D */
    const double *cells;           /* N x D: levels of ordinal/categorical cells */
    const double *obs_lo, *obs_hi; /* N x D: continuous target or count bounds */
    double *const *theta;          /* D: ordinal cut points, NULL elsewhere */
    double sigma_B2, sigma_u2, sigma_theta2, beta1, beta2;
} glfm_state;

static const double PI = 3.141592653589793;
static const double EULER = 2.718281828459045;
static const double SQRT1_2 = 0.7071067811865476;
/* one-sided truncation: below this standardized bound plain normal
 * rejection beats the translated-exponential proposal */
static const double ONE_SIDED_SWITCH = 0.45;

static inline double next_double(bitgen_t *bg) { return bg->next_double(bg->state); }

/* ------------------------------------------------------------------------ */
/* dense linear algebra on small K x K matrices                             */

/* Lower Cholesky factor of P into L (upper triangle zeroed). */
static int cholesky(int64_t K, const double *P, double *L)
{
    for (int64_t i = 0; i < K; i++) {
        for (int64_t j = 0; j <= i; j++) {
            double sum = P[i * K + j];
            for (int64_t k = 0; k < j; k++)
                sum -= L[i * K + k] * L[j * K + k];
            if (i == j) {
                if (!(sum > 0.0))
                    return ERR_NOT_PD;
                L[i * K + i] = sqrt(sum);
            } else {
                L[i * K + j] = sum / L[j * K + j];
            }
        }
        for (int64_t j = i + 1; j < K; j++)
            L[i * K + j] = 0.0;
    }
    return 0;
}

/* out = (L L^T)^{-1} = E^T E with E = L^{-1}; E is K x K scratch. */
static void cholesky_inverse(int64_t K, const double *L, double *E, double *out)
{
    memset(E, 0, (size_t)(K * K) * sizeof(double));
    for (int64_t j = 0; j < K; j++) {
        E[j * K + j] = 1.0 / L[j * K + j];
        for (int64_t i = j + 1; i < K; i++) {
            double sum = 0.0;
            for (int64_t k = j; k < i; k++)
                sum += L[i * K + k] * E[k * K + j];
            E[i * K + j] = -sum / L[i * K + i];
        }
    }
    for (int64_t i = 0; i < K; i++) {
        for (int64_t j = 0; j <= i; j++) {
            double sum = 0.0;
            for (int64_t k = i; k < K; k++)
                sum += E[k * K + i] * E[k * K + j];
            out[i * K + j] = sum;
            out[j * K + i] = sum;
        }
    }
}

/* out = P^{-1} for a K x K positive definite P, from its Cholesky factor. */
int glfm_chol_inverse(int64_t K, const double *P, double *out)
{
    const int64_t Ku = K > 0 ? K : 1;
    double *buf = malloc((size_t)(2 * Ku * Ku) * sizeof(double));
    if (buf == NULL)
        return ERR_NOMEM;
    int err = cholesky(K, P, buf);
    if (!err)
        cholesky_inverse(K, buf, buf + Ku * Ku, out);
    free(buf);
    return err;
}

/* Solve L x = b in place, L lower and b strided. */
static void forward_solve(int64_t K, const double *L, double *x, int64_t stride)
{
    for (int64_t i = 0; i < K; i++) {
        double sum = x[i * stride];
        for (int64_t k = 0; k < i; k++)
            sum -= L[i * K + k] * x[k * stride];
        x[i * stride] = sum / L[i * K + i];
    }
}

/* Solve L^T x = b in place. */
static void backward_solve_transposed(int64_t K, const double *L, double *x, int64_t stride)
{
    for (int64_t i = K - 1; i >= 0; i--) {
        double sum = x[i * stride];
        for (int64_t k = i + 1; k < K; k++)
            sum -= L[k * K + i] * x[k * stride];
        x[i * stride] = sum / L[i * K + i];
    }
}

/* ------------------------------------------------------------------------ */
/* truncated normal: one accept-reject loop per draw                        */

/* Standard normal truncated to (a, b], by Robert's accept-reject ("Simulation
 * of truncated normal variables", 1995). The interval is mirrored so that lo
 * is the bound nearer 0. Straddling 0, wide intervals use normal proposals
 * and narrow ones uniform proposals; in a tail, a one-sided interval uses
 * normal proposals up to ONE_SIDED_SWITCH and translated-exponential ones
 * beyond it, and a two-sided one uses exponential proposals when hi passes
 * Robert's crossover and uniform ones otherwise. The formulas are written so
 * that no intermediate overflows at bounds near DBL_MAX. */
static double std_trunc(bitgen_t *bg, double a, double b)
{
    const int flip = fabs(a) > fabs(b);
    const double lo = flip ? -b : a, hi = flip ? -a : b;
    /* the exponential rate, (lo + sqrt(lo^2 + 4)) / 2 */
    const double lam = lo > 0.0 ? 0.5 * lo + 0.5 * hypot(lo, 2.0) : 0.0;
    enum { NORMAL, UNIFORM, EXPONENTIAL } proposal;
    if (lo <= 0.0)
        proposal = hi - lo > sqrt(2.0 * PI) ? NORMAL : UNIFORM;
    else if (hi == INFINITY)
        proposal = lo <= ONE_SIDED_SWITCH ? NORMAL : EXPONENTIAL;
    else
        proposal = hi > lo + sqrt(EULER) / lam * exp(-0.5 * lo / lam) ? EXPONENTIAL : UNIFORM;
    double y;
    for (;;) {
        if (proposal == NORMAL) {
            y = random_standard_normal(bg);
            if (y > lo && y <= hi)
                break;
        } else if (proposal == UNIFORM) {
            /* the density on (lo, hi] peaks at m; hi < 0 only when the
             * standardized bounds are equal, as a rounded narrow cell can be */
            const double m = lo > 0.0 ? lo : (hi < 0.0 ? hi : 0.0);
            y = lo + (hi - lo) * next_double(bg);
            if (next_double(bg) <= exp((m - y) * (m + y) / 2.0))
                break;
        } else {
            /* two draws per proposal, in range or not */
            y = lo + random_standard_exponential(bg) / lam;
            const double dy = y - lam, u = next_double(bg);
            if (y <= hi && u <= exp(-0.5 * (dy * dy)))
                break;
        }
    }
    return flip ? -y : y;
}

/* The error code of a truncated-normal draw's arguments, or 0. A NaN mean or
 * bound never lets the accept-reject loop accept, and an infinite std makes
 * the draw NaN. */
static int trunc_check(double mean, double std, double lo, double hi)
{
    if (isnan(mean))
        return ERR_MEAN;
    if (!(std > 0.0 && std < INFINITY))
        return ERR_STD;
    if (!(lo < hi))
        return ERR_BOUNDS;
    return 0;
}

/* One N(mean, std^2) draw truncated to (lo, hi] into *out. */
static int trunc_normal(bitgen_t *bg, double mean, double std, double lo, double hi,
                        double *out)
{
    int err = trunc_check(mean, std, lo, hi);
    if (err)
        return err;
    const double a = isfinite(lo) ? (lo - mean) / std : lo;
    const double b = isfinite(hi) ? (hi - mean) / std : hi;
    /* a standardized bound that overflows puts all the mass at that bound */
    double x = a == INFINITY ? lo : b == -INFINITY ? hi : mean + std * std_trunc(bg, a, b);
    /* float rounding can push a sample just outside (lo, hi]; the nearest
     * double inside is hi, or the one just above lo */
    if (x > hi)
        x = hi;
    if (x <= lo)
        x = nextafter(lo, INFINITY);
    *out = x;
    return 0;
}

/* N(mean[i], std[i]^2) truncated to (lo[i], hi[i]], i < n, into out: the
 * draws of n single calls in index order. Every entry is checked first, so a
 * call that fails draws nothing. */
int glfm_trunc_normal(bitgen_t *bg, int64_t n, const double *mean, const double *std,
                      const double *lo, const double *hi, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        int err = trunc_check(mean[i], std[i], lo[i], hi[i]);
        if (err)
            return err;
    }
    for (int64_t i = 0; i < n; i++) {
        int err = trunc_normal(bg, mean[i], std[i], lo[i], hi[i], &out[i]);
        if (err)
            return err;
    }
    return 0;
}

/* v with 1/v ~ Gamma(shape, rate), drawn as Generator.gamma(shape, 1 / rate) */
double glfm_inverse_gamma(bitgen_t *bg, double shape, double rate)
{
    double g = (1.0 / rate) * random_standard_gamma(bg, shape);
    /* gamma draws can underflow to 0 for tiny shapes; keep the output finite */
    return 1.0 / (DBL_MIN > g ? DBL_MIN : g);
}

/* ------------------------------------------------------------------------ */
/* the standard normal CDF and its logarithm                                */

/* Phi(x), in the cephes form: 1/2 + erf(x / sqrt 2) / 2 near 0, and erfc of
 * |x| / sqrt 2 beyond, so that neither tail loses digits to cancellation. */
static double ndtr(double x)
{
    const double t = x * SQRT1_2, z = fabs(t);
    if (z < SQRT1_2)
        return 0.5 + 0.5 * erf(t);
    const double y = 0.5 * erfc(z);
    return t > 0.0 ? 1.0 - y : y;
}

/* log Phi(x): log1p of the upper tail above -1, the log of the lower tail
 * down to -20, and below -20, where erfc underflows further out, the
 * asymptotic series log Phi(x) = -x^2/2 - log(-x) - log(2 pi)/2
 * + log(1 - 1/x^2 + 3/x^4 - 15/x^6 + ...), summed until it stops moving. */
static double log_ndtr(double x)
{
    if (isnan(x))
        return x;
    if (x > -1.0)
        return log1p(-0.5 * erfc(x * SQRT1_2));
    if (x > -20.0)
        return log(0.5 * erfc(-x * SQRT1_2));
    const double r = 1.0 / (x * x);
    double sum = 1.0, last = 0.0, term = 1.0;
    for (int i = 1; fabs(sum - last) > DBL_EPSILON; i++) {
        last = sum;
        term *= -(2.0 * i - 1.0) * r;
        sum += term;
    }
    return -0.5 * x * x - log(-x) - 0.5 * log(2.0 * PI) + log(sum);
}

void glfm_ndtr(int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = ndtr(x[i]);
}

void glfm_log_ndtr(int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = log_ndtr(x[i]);
}

/* ------------------------------------------------------------------------ */
/* row statistics and the birth step                                        */

/* Collapsed log-likelihood of a row, up to a constant: each of the n_free
 * free columns has predictive variance sigma_d^2 (1 + s), and Q is the
 * row's squared residual weighted by 1/sigma_d^2. */
double glfm_row_loglik(double s, double n_free, double Q)
{
    double v = 1.0 + (s > 0.0 ? s : 0.0);
    return -0.5 * (n_free * log(v) + Q / v);
}

/* An upper bound on ll_k - ll_0 over every birth count k >= 1. Births add
 * variance: the gain is (c (1 - 1/x) - n_free log x) / 2 with
 * x = (1 + s + k sigma_B^2) / (1 + s) >= 1 and c = Q / (1 + s), which peaks
 * at x = c / n_free when c > n_free and is never positive otherwise. */
double glfm_birth_gain_bound(double s, double n_free, double Q)
{
    double c = Q / (1.0 + (s > 0.0 ? s : 0.0));
    return c > n_free ? 0.5 * (c - n_free - n_free * log(c / n_free)) : 0.0;
}

/* The index Generator.choice(n, p=p) draws from the uniform u: the number of
 * normalized cumulative probabilities at or below u. */
int64_t glfm_inverse_cdf_index(int64_t n, const double *p, double u)
{
    double cdf[n];
    cdf[0] = p[0];
    for (int64_t k = 1; k < n; k++)
        cdf[k] = cdf[k - 1] + p[k];
    double total = cdf[n - 1];
    int64_t idx = 0;
    for (int64_t k = 0; k < n; k++)
        if (cdf[k] / total <= u)
            idx = k + 1;
    return idx;
}

typedef struct {
    double *A, *L, *E, *gv, *h, *M, *T, *r, *D, *z, *z0, *m, *Ad;
    double *wt;    /* S: residual weight of each column, 1/sigma_d^2 or 0 */
    double n_free; /* free columns: the weights' count */
    double Q;      /* the row's weighted squared residual */
} row_ws;

static inline double sigmoid(double t)
{
    if (t >= 0.0)
        return 1.0 / (1.0 + exp(-t));
    double e = exp(t);
    return e / (1.0 + e);
}

/* s = z A z with h = A z, from the current z */
static double quad_form(int64_t K, const double *A, const double *z, double *h)
{
    double s = 0.0;
    for (int64_t i = 0; i < K; i++) {
        double sum = 0.0;
        for (int64_t j = 0; j < K; j++)
            if (z[j] != 0.0)
                sum += A[i * K + j] * z[j];
        h[i] = sum;
    }
    for (int64_t i = 0; i < K; i++)
        if (z[i] != 0.0)
            s += z[i] * h[i];
    return s;
}

/* Take row n out of P and lam: A = (P - z z^T)^{-1}, h = A z, s = z h and
 * M = A (lam - z y^T). One product P^{-1} z gives them all by
 * Sherman-Morrison; an ill-conditioned downdate takes an exact inverse. */
static int collapse_row(const glfm_state *st, int64_t n, row_ws *w, double *s_out)
{
    const int64_t K = st->K, S = st->S;
    const double *z = w->z, *y = st->Y + n * S;
    double *A = w->A, *h = w->h, *gv = w->gv;
    double c = quad_form(K, st->P_inv, z, gv), s;
    if (1.0 - c <= 1e-12) {
        for (int64_t i = 0; i < K; i++)
            for (int64_t j = 0; j < K; j++)
                A[i * K + j] = st->P[i * K + j] - z[i] * z[j];
        int err = cholesky(K, A, w->L);
        if (err)
            return err;
        cholesky_inverse(K, w->L, w->E, A);
        s = quad_form(K, A, z, h);
    } else {
        for (int64_t i = 0; i < K; i++)
            h[i] = gv[i] / (1.0 - c);
        s = c / (1.0 - c);
        for (int64_t i = 0; i < K; i++)
            for (int64_t j = 0; j < K; j++)
                A[i * K + j] = st->P_inv[i * K + j] + gv[i] * h[j];
    }
    for (int64_t i = 0; i < K; i++) {
        double *Mi = w->M + i * S;
        for (int64_t col = 0; col < S; col++)
            Mi[col] = 0.0;
        for (int64_t j = 0; j < K; j++) {
            double a = A[i * K + j];
            const double *lj = st->lam + j * S;
            for (int64_t col = 0; col < S; col++)
                Mi[col] += a * lj[col];
        }
        for (int64_t col = 0; col < S; col++)
            Mi[col] -= h[i] * y[col];
    }
    *s_out = s;
    return 0;
}

/* The weighted squared residual Q of r = y - z M, and for every feature k
 * the change D_k = sum_c wt_c (M_kc^2 - t_k r_c M_kc) that flipping k makes
 * to Q, with t_k = 2 - 4 z_k; also T_k = t_k (wt o M_k). */
static void scan_stats(const glfm_state *st, int64_t n, row_ws *w)
{
    const int64_t K = st->K, S = st->S;
    const double *y = st->Y + n * S, *z = w->z, *M = w->M, *wt = w->wt;
    double *r = w->r, Q = 0.0;
    for (int64_t col = 0; col < S; col++) {
        double zm = 0.0;
        for (int64_t k = 0; k < K; k++)
            if (z[k] != 0.0)
                zm += z[k] * M[k * S + col];
        r[col] = y[col] - zm;
        Q += wt[col] * (r[col] * r[col]);
    }
    w->Q = Q;
    for (int64_t k = 0; k < K; k++) {
        double t = 2.0 - 4.0 * z[k], mm = 0.0, tr = 0.0;
        const double *Mk = M + k * S;
        double *Tk = w->T + k * S;
        for (int64_t col = 0; col < S; col++) {
            Tk[col] = t * (wt[col] * Mk[col]);
            mm += wt[col] * (Mk[col] * Mk[col]);
            tr += Tk[col] * r[col];
        }
        w->D[k] = mm - tr;
    }
}

/* Resample every non-bias entry of row n with the weights collapsed out.
 * Flipping k moves the predictive mean by +-M_k and s by 2 (+-h_k) + A_kk,
 * so Q moves by D_k; z_k changes only when k is visited, so D_k holds until
 * an earlier accepted flip moves it by a cross product. Features no other
 * row uses are forced off. Commits P, P^{-1}, lam and the counts only when
 * the row changed. */
static int scan_row(bitgen_t *bg, const glfm_state *st, int64_t n, row_ws *w, double *s_out)
{
    const int64_t K = st->K, S = st->S, nb = st->nb;
    const double N = (double)st->N, n_free = w->n_free;
    const double *y = st->Y + n * S;
    double *z = w->z, *z0 = w->z0, *h = w->h, *D = w->D, *A = w->A;
    double s;
    int err = collapse_row(st, n, w, &s);
    if (err)
        return err;
    scan_stats(st, n, w);
    for (int64_t k = 0; k < K; k++) {
        w->Ad[k] = A[k * K + k];
        w->m[k] = st->col_sums[k] - z0[k];
    }
    double ll = glfm_row_loglik(s, n_free, w->Q);
    /* an accepted flip of the last live candidate leaves none to update */
    int64_t last = K - 1;
    while (last >= nb && w->m[last] == 0.0)
        last--;
    int changed = 0;
    for (int64_t k = nb; k < K; k++) {
        int on = z[k] == 1.0;
        double m = w->m[k];
        if (m == 0.0) {
            if (on) {
                /* forced off: A_kk = sigma_B^2 here, and an update would
                 * cancel terms of that size, so recompute from the new z */
                z[k] = 0.0;
                s = quad_form(K, A, z, h);
                scan_stats(st, n, w);
                ll = glfm_row_loglik(s, n_free, w->Q);
                changed = 1;
            }
            continue;
        }
        double two_sgn = on ? -2.0 : 2.0;
        double s_alt = s + two_sgn * h[k] + w->Ad[k];
        double ll_alt = glfm_row_loglik(s_alt, n_free, w->Q + D[k]);
        double logit_on = log(m) - log(N - m) + (on ? ll - ll_alt : ll_alt - ll);
        if ((next_double(bg) < sigmoid(logit_on)) == on)
            continue;
        w->Q += D[k];
        s = s_alt;
        ll = ll_alt;
        z[k] = on ? 0.0 : 1.0;
        changed = 1;
        if (k < last) {
            /* later candidates read h_j and D_j for j > k only; D_j moves
             * by sgn T_j . M_k, with T_j = t_j (wt o M_j) */
            double sgn = 0.5 * two_sgn;
            const double *Mk = w->M + k * S;
            for (int64_t j = k + 1; j < K; j++)
                h[j] += sgn * A[k * K + j];
            for (int64_t j = k + 1; j < K; j++) {
                const double *Tj = w->T + j * S;
                double cross = 0.0;
                for (int64_t col = 0; col < S; col++)
                    cross += Tj[col] * Mk[col];
                D[j] = on ? D[j] - cross : D[j] + cross;
            }
        }
    }
    /* an unchanged row leaves P, P^{-1}, lam and the counts as they are */
    if (changed) {
        quad_form(K, A, z, h);
        for (int64_t i = 0; i < K; i++)
            for (int64_t j = 0; j < K; j++) {
                double *p = st->P + i * K + j;
                *p -= z0[i] * z0[j];
                *p += z[i] * z[j];
            }
        for (int64_t i = 0; i < K; i++)
            for (int64_t j = 0; j < K; j++)
                st->P_inv[i * K + j] = A[i * K + j] - h[i] * (h[j] / (1.0 + s));
        for (int64_t k = 0; k < K; k++) {
            double dz = z[k] - z0[k];
            if (dz != 0.0) {
                double *lk = st->lam + k * S;
                for (int64_t col = 0; col < S; col++)
                    lk[col] += dz * y[col];
                st->col_sums[k] += dz;
            }
            st->Z[n * K + k] = z[k];
        }
    }
    *s_out = s;
    return 0;
}

/* How many fresh features row n turns on, from its statistics (s, Q) and the
 * uniform u: a truncated Poisson(alpha/N) prior (log weights `ladder`, and
 * log_rest the log prior mass of k >= 1) reweighted by the row's marginal
 * likelihood with s + k sigma_B^2 in place of s. When u falls below a lower
 * bound on the mass of no birth the candidates are not scored. */
static int64_t birth_count(const glfm_state *st, double s, const row_ws *w, int64_t kmax,
                           const double *ladder, double log_rest, double u)
{
    double lw[kmax + 1], p[kmax + 1];
    s = s > 0.0 ? s : 0.0;
    /* p_0 >= 1 / (1 + exp(gain bound) * prior weight of k >= 1); the margin
     * keeps rounding in the full scoring from reversing the call */
    double bound = glfm_birth_gain_bound(s, w->n_free, w->Q) + log_rest;
    if (bound < 700.0 && u < (1.0 - 1e-9) / (1.0 + exp(bound)))
        return 0;
    double top = -INFINITY;
    for (int64_t k = 0; k <= kmax; k++) {
        lw[k] = ladder[k] + glfm_row_loglik(s + (double)k * st->sigma_B2, w->n_free, w->Q);
        if (k == 0 || lw[k] > top)
            top = lw[k];
    }
    double total = 0.0;
    for (int64_t k = 0; k <= kmax; k++) {
        lw[k] = exp(lw[k] - top);
        total += lw[k];
    }
    for (int64_t k = 0; k <= kmax; k++)
        p[k] = lw[k] / total;
    return glfm_inverse_cdf_index(kmax + 1, p, u);
}

/* Widen a rows x K array to rows x K2 in place, last row first; new entries 0 */
static void widen(double *a, int64_t rows, int64_t K, int64_t K2)
{
    for (int64_t i = rows - 1; i >= 0; i--) {
        memmove(a + i * K2, a + i * K, (size_t)K * sizeof(double));
        memset(a + i * K2 + K, 0, (size_t)(K2 - K) * sizeof(double));
    }
}

/* Append k feature columns that row n alone turns on, z being its committed
 * pattern, in the room the arrays have for them: P gains the border z 1^T
 * and the block 1 1^T + I / sigma_B^2, lam k copies of y_n, B k zero rows,
 * and P^{-1} is rebuilt from P's Cholesky factor. */
static int add_features(glfm_state *st, int64_t n, int64_t k, const double *z)
{
    const int64_t K = st->K, S = st->S, K2 = K + k;
    widen(st->Z, st->N, K, K2);
    widen(st->P, K, K, K2);
    for (int64_t j = K; j < K2; j++) {
        st->Z[n * K2 + j] = 1.0;
        for (int64_t i = 0; i < K2; i++)
            st->P[i * K2 + j] = st->P[j * K2 + i] =
                i < K ? z[i] : 1.0 + (i == j ? 1.0 / st->sigma_B2 : 0.0);
        memcpy(st->lam + j * S, st->Y + n * S, (size_t)S * sizeof(double));
        memset(st->B + j * S, 0, (size_t)S * sizeof(double));
        st->col_sums[j] = 1.0;
    }
    st->K = K2;
    return glfm_chol_inverse(K2, st->P, st->P_inv);
}

/* The row loop over rows [row_lo, row_hi): the Z-row scan when `scan` (and a
 * feature column exists to scan), then, when births are possible, the birth
 * decision, from the scan's final statistics or, without a scan, from fresh
 * ones. A row draws at most min(kmax, k_cap - K) births, under the log prior
 * weights `ladder` (k = 0..kmax) with log_rest[j] the log prior mass of
 * k = 1..j, and add_features grows the state in place: its arrays must have
 * room for k_cap columns. stats receives the last row's (s, Q). Returns 0,
 * or a negative error code. */
int glfm_rows(bitgen_t *bg, glfm_state *st, int64_t row_lo, int64_t row_hi, int scan,
              int64_t kmax, int64_t k_cap, const double *ladder, const double *log_rest,
              double *stats)
{
    const int64_t S = st->S;
    /* room for every column count the loop can reach */
    const int64_t Kc = k_cap > st->K ? k_cap : st->K > 0 ? st->K : 1;
    size_t doubles = (size_t)(3 * Kc * Kc + 2 * Kc * S + 2 * S + 7 * Kc);
    double *buf = malloc(doubles * sizeof(double));
    if (buf == NULL)
        return ERR_NOMEM;
    double *p = buf;
    row_ws w;
    w.A = p; p += Kc * Kc;
    w.L = p; p += Kc * Kc;
    w.E = p; p += Kc * Kc;
    w.M = p; p += Kc * S;
    w.T = p; p += Kc * S;
    w.r = p; p += S;
    w.wt = p; p += S;
    w.D = p; p += Kc;
    w.gv = p; p += Kc;
    w.h = p; p += Kc;
    w.z = p; p += Kc;
    w.z0 = p; p += Kc;
    w.m = p; p += Kc;
    w.Ad = p; p += Kc;
    w.n_free = 0.0;
    for (int64_t d = 0; d < st->D; d++) {
        int64_t c0 = st->offset[d], c1 = st->offset[d + 1];
        if (st->kind[d] == KIND_CATEGORICAL)
            c1--; /* the pinned column carries no dependence on z */
        for (int64_t col = c0; col < st->offset[d + 1]; col++)
            w.wt[col] = col < c1 ? 1.0 / st->sigma2[d] : 0.0;
        w.n_free += (double)(c1 - c0);
    }
    int ret = 0;
    for (int64_t n = row_lo; n < row_hi && !ret; n++) {
        const int64_t K = st->K, births = k_cap - K < kmax ? k_cap - K : kmax;
        double s;
        memcpy(w.z0, st->Z + n * K, (size_t)K * sizeof(double));
        memcpy(w.z, w.z0, (size_t)K * sizeof(double));
        int have_stats = 0;
        if (scan && K > st->nb) {
            ret = scan_row(bg, st, n, &w, &s);
            if (ret)
                break;
            have_stats = 1;
        }
        if (births > 0) {
            double u = next_double(bg);
            if (!have_stats) {
                ret = collapse_row(st, n, &w, &s);
                if (ret)
                    break;
                scan_stats(st, n, &w);
                have_stats = 1;
            }
            int64_t k_new = birth_count(st, s, &w, births, ladder, log_rest[births], u);
            if (k_new > 0)
                ret = add_features(st, n, k_new, w.z);
        }
        if (have_stats) {
            stats[0] = s;
            stats[1] = w.Q;
        }
    }
    free(buf);
    return ret;
}

/* ------------------------------------------------------------------------ */
/* the per-attribute phase                                                  */

typedef struct {
    double *L, *E, *eps;                  /* K x K, K x K, K x Smax */
    double *Ynew, *Yold, *mean;           /* rows x Smax */
    double *wmean;                        /* K */
} attr_ws;

/* Draw attribute d's weight columns from N(P^{-1} lam, sigma_d^2 P^{-1}),
 * given the Cholesky factor L of P. A categorical attribute's last column
 * is pinned at zero. */
static void sample_weights(bitgen_t *bg, const glfm_state *st, int64_t d, attr_ws *w)
{
    const int64_t K = st->K, S = st->S, c0 = st->offset[d];
    const int64_t Sd = st->offset[d + 1] - c0;
    const int64_t n_free = st->kind[d] == KIND_CATEGORICAL ? Sd - 1 : Sd;
    const double sd = sqrt(st->sigma2[d]);
    double *eps = w->eps;
    for (int64_t i = 0; i < K * n_free; i++)
        eps[i] = random_standard_normal(bg);
    for (int64_t j = 0; j < n_free; j++) {
        /* mean column j: L L^T x = lam_j; noise column j: L^T e = eps_j */
        double *mean = w->wmean;
        for (int64_t k = 0; k < K; k++)
            mean[k] = st->lam[k * S + c0 + j];
        forward_solve(K, w->L, mean, 1);
        backward_solve_transposed(K, w->L, mean, 1);
        backward_solve_transposed(K, w->L, eps + j, n_free);
        for (int64_t k = 0; k < K; k++)
            st->B[k * S + c0 + j] = mean[k] + sd * eps[k * n_free + j];
    }
    for (int64_t j = n_free; j < Sd; j++)
        for (int64_t k = 0; k < K; k++)
            st->B[k * S + c0 + j] = 0.0;
}

/* Resample attribute d's pseudo-observations on rows [r0, r1), keeping lam
 * in sync. Missing cells draw from N(z b, sigma_d^2); continuous cells blend
 * that prior with the encoded observation under the observation noise
 * sigma_u^2; count and ordinal cells draw from the normal truncated to the
 * interval their value maps to; categorical cells sweep the R_d columns in
 * order, keeping the observed level's column the maximum. Draw order: the
 * missing cells, then the observed ones, each in row order. */
static int sample_pseudo_obs(bitgen_t *bg, const glfm_state *st, int64_t d, int64_t r0,
                             int64_t r1, attr_ws *w)
{
    const int64_t K = st->K, S = st->S, D = st->D, c0 = st->offset[d];
    const int64_t Sd = st->offset[d + 1] - c0, rows = r1 - r0, kind = st->kind[d];
    const double var = st->sigma2[d], sd = sqrt(var);
    double *Ynew = w->Ynew, *Yold = w->Yold, *mean = w->mean;
    for (int64_t i = 0; i < rows; i++) {
        const double *zi = st->Z + (r0 + i) * K;
        for (int64_t j = 0; j < Sd; j++) {
            double sum = 0.0;
            for (int64_t k = 0; k < K; k++)
                if (zi[k] != 0.0)
                    sum += zi[k] * st->B[k * S + c0 + j];
            mean[i * Sd + j] = sum;
            Yold[i * Sd + j] = Ynew[i * Sd + j] = st->Y[(r0 + i) * S + c0 + j];
        }
    }
    for (int64_t i = 0; i < rows; i++)
        if (st->missing[(r0 + i) * D + d])
            for (int64_t j = 0; j < Sd; j++)
                Ynew[i * Sd + j] = mean[i * Sd + j] + sd * random_standard_normal(bg);

    int err = 0;
    if (kind == KIND_CONTINUOUS) {
        const double su2 = st->sigma_u2;
        for (int64_t i = 0; i < rows; i++) {
            if (st->missing[(r0 + i) * D + d])
                continue;
            double target = st->obs_lo[(r0 + i) * D + d];
            if (su2 == 0.0) {
                Ynew[i * Sd] = target;
            } else {
                double pv = 1.0 / (1.0 / var + 1.0 / su2);
                double pm = pv * (mean[i * Sd] / var + target / su2);
                Ynew[i * Sd] = pm + sqrt(pv) * random_standard_normal(bg);
            }
        }
    } else if (kind == KIND_COUNT || kind == KIND_ORDINAL) {
        const double *th = st->theta[d];
        const int64_t R = st->levels[d];
        for (int64_t i = 0; i < rows && !err; i++) {
            int64_t cell = (r0 + i) * D + d;
            if (st->missing[cell])
                continue;
            double lo, hi;
            if (kind == KIND_COUNT) {
                lo = st->obs_lo[cell];
                hi = st->obs_hi[cell];
            } else {
                int64_t x = (int64_t)st->cells[cell];
                lo = x == 1 ? -INFINITY : th[x - 2];
                hi = x == R ? INFINITY : th[x - 1];
            }
            err = trunc_normal(bg, mean[i * Sd], sd, lo, hi, &Ynew[i * Sd]);
        }
    } else {
        for (int64_t j = 0; j < Sd && !err; j++) {
            for (int pass = 0; pass < 2 && !err; pass++) {
                /* pass 0: rows observed at level j + 1 rise above their
                 * rivals; pass 1: every other row stays below its own level */
                for (int64_t i = 0; i < rows && !err; i++) {
                    int64_t cell = (r0 + i) * D + d;
                    if (st->missing[cell])
                        continue;
                    int64_t x = (int64_t)st->cells[cell];
                    if ((x == j + 1) != (pass == 0))
                        continue;
                    double *yi = Ynew + i * Sd;
                    double lo = -INFINITY, hi = INFINITY;
                    if (pass == 0) {
                        for (int64_t c = 0; c < Sd; c++)
                            if (c != j && yi[c] > lo)
                                lo = yi[c];
                    } else {
                        hi = yi[x - 1];
                    }
                    err = trunc_normal(bg, mean[i * Sd + j], sd, lo, hi, &yi[j]);
                }
            }
        }
    }
    if (err)
        return err;

    /* lam[:, cs] += Z[rows]^T (Ynew - Yold), summed before it is added */
    double *delta = w->mean; /* the means are no longer needed */
    for (int64_t k = 0; k < K; k++)
        for (int64_t j = 0; j < Sd; j++)
            delta[k * Sd + j] = 0.0;
    for (int64_t i = 0; i < rows; i++) {
        const double *zi = st->Z + (r0 + i) * K;
        for (int64_t k = 0; k < K; k++)
            if (zi[k] != 0.0)
                for (int64_t j = 0; j < Sd; j++)
                    delta[k * Sd + j] += zi[k] * (Ynew[i * Sd + j] - Yold[i * Sd + j]);
    }
    for (int64_t k = 0; k < K; k++)
        for (int64_t j = 0; j < Sd; j++)
            st->lam[k * S + c0 + j] += delta[k * Sd + j];
    for (int64_t i = 0; i < rows; i++)
        memcpy(st->Y + (r0 + i) * S + c0, Ynew + i * Sd, (size_t)Sd * sizeof(double));
    return 0;
}

/* Resample the free ordinal cut points theta_2..theta_{R-1}; theta_1 stays
 * pinned at 0. Each is a N(0, sigma_theta^2) draw truncated between its
 * neighbours and the pseudo-observations of the two levels it separates. */
static int sample_thresholds(bitgen_t *bg, const glfm_state *st, int64_t d, int64_t *err_at)
{
    const int64_t N = st->N, S = st->S, D = st->D, R = st->levels[d];
    const int64_t col = st->offset[d];
    double *th = st->theta[d];
    const double sd = sqrt(st->sigma_theta2);
    if (R < 3)
        return 0;
    double top[R + 2], bottom[R + 2];
    int seen[R + 2];
    for (int64_t r = 0; r < R + 2; r++) {
        seen[r] = 0;
        top[r] = -INFINITY;
        bottom[r] = INFINITY;
    }
    for (int64_t n = 0; n < N; n++) {
        if (st->missing[n * D + d])
            continue;
        int64_t x = (int64_t)st->cells[n * D + d];
        double y = st->Y[n * S + col];
        if (!seen[x] || y > top[x])
            top[x] = y;
        if (!seen[x] || y < bottom[x])
            bottom[x] = y;
        seen[x] = 1;
    }
    for (int64_t r = 2; r < R; r++) {
        double lo = th[r - 2];
        if (seen[r] && top[r] > lo)
            lo = top[r];
        double hi = r < R - 1 ? th[r] : INFINITY;
        if (seen[r + 1] && bottom[r + 1] < hi)
            hi = bottom[r + 1];
        if (!(lo < hi)) {
            err_at[0] = d;
            err_at[1] = r;
            return ERR_EMPTY_SUPPORT;
        }
        int err = trunc_normal(bg, 0.0, sd, lo, hi, &th[r - 1]);
        if (err)
            return err;
    }
    return 0;
}

/* Conjugate inverse-gamma draw of attribute d's pseudo-observation noise,
 * which scales both the residuals of Y and the prior of the free weights. */
static void sample_noise_variance(bitgen_t *bg, const glfm_state *st, int64_t d)
{
    const int64_t N = st->N, K = st->K, S = st->S, c0 = st->offset[d];
    const int64_t Sd = st->offset[d + 1] - c0;
    const int64_t n_free = st->kind[d] == KIND_CATEGORICAL ? Sd - 1 : Sd;
    double ss = 0.0, bb = 0.0;
    for (int64_t n = 0; n < N; n++) {
        const double *zn = st->Z + n * K;
        for (int64_t j = 0; j < Sd; j++) {
            double u = 0.0;
            for (int64_t k = 0; k < K; k++)
                if (zn[k] != 0.0)
                    u += zn[k] * st->B[k * S + c0 + j];
            double e = st->Y[n * S + c0 + j] - u;
            ss += e * e;
        }
    }
    for (int64_t k = 0; k < K; k++)
        for (int64_t j = 0; j < n_free; j++) {
            double b = st->B[k * S + c0 + j];
            bb += b * b;
        }
    double shape = st->beta1 + (double)(N * Sd + K * n_free) / 2.0;
    double rate = st->beta2 + ss / 2.0 + bb / (2.0 * st->sigma_B2);
    st->sigma2[d] = glfm_inverse_gamma(bg, shape, rate);
}

/* The per-attribute phase for attributes [d_lo, d_hi) and rows [r0, r1) of
 * the pseudo-observation step. `steps` is a mask of STEP_*; the Cholesky
 * factor of P is taken once for the P^{-1} rebuild and every weight draw.
 * err_at receives (attribute, threshold) of an empty threshold support. */
int glfm_attributes(bitgen_t *bg, const glfm_state *st, int64_t d_lo, int64_t d_hi,
                    int64_t r0, int64_t r1, int steps, int64_t *err_at)
{
    const int64_t K = st->K, Ku = K > 0 ? K : 1;
    int64_t Smax = 1, rows = r1 - r0 > 0 ? r1 - r0 : 1;
    for (int64_t d = d_lo; d < d_hi; d++)
        if (st->offset[d + 1] - st->offset[d] > Smax)
            Smax = st->offset[d + 1] - st->offset[d];
    /* mean doubles as the K x Smax lam delta */
    int64_t mean_len = rows * Smax > Ku * Smax ? rows * Smax : Ku * Smax;
    size_t doubles = (size_t)(2 * Ku * Ku + Ku * Smax + Ku + 2 * rows * Smax + mean_len);
    double *buf = malloc(doubles * sizeof(double));
    if (buf == NULL)
        return ERR_NOMEM;
    attr_ws w;
    double *p = buf;
    w.L = p; p += Ku * Ku;
    w.E = p; p += Ku * Ku;
    w.eps = p; p += Ku * Smax;
    w.wmean = p; p += Ku;
    w.Ynew = p; p += rows * Smax;
    w.Yold = p; p += rows * Smax;
    w.mean = p;

    int err = 0;
    if (steps & (STEP_REBUILD | STEP_WEIGHTS))
        err = cholesky(K, st->P, w.L);
    if (!err && (steps & STEP_REBUILD))
        cholesky_inverse(K, w.L, w.E, st->P_inv);
    for (int64_t d = d_lo; d < d_hi && !err; d++) {
        if (steps & STEP_WEIGHTS)
            sample_weights(bg, st, d, &w);
        if (steps & STEP_PSEUDO)
            err = sample_pseudo_obs(bg, st, d, r0, r1, &w);
        if (!err && (steps & STEP_THRESHOLDS) && st->kind[d] == KIND_ORDINAL)
            err = sample_thresholds(bg, st, d, err_at);
        if (!err && (steps & STEP_NOISE))
            sample_noise_variance(bg, st, d);
    }
    free(buf);
    return err;
}
