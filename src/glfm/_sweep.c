/*
 * Gibbs sweeps of the glfm sampler, drawn from the chain's own PCG64.
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
 *   glfm_sweep         one or more sweeps' steps in one call: the Z-row scan
 *                      and births over a row range, the prune, Cholesky of P,
 *                      the P^{-1} rebuild, per attribute, weights,
 *                      pseudo-observations, ordinal thresholds and noise
 *                      variance, and the complete-data log joint
 *   glfm_trunc_normal  N(mean, std^2) truncated to (lo, hi], over an array
 *   glfm_inverse_gamma one inverse-gamma draw
 *   glfm_chol_inverse  P^{-1} through the Cholesky factor of P, as the
 *                      P^{-1} rebuild takes it
 *   glfm_ndtr          the standard normal CDF, over an array
 *   glfm_log_ndtr      its logarithm, over an array
 *   glfm_prob_categorical
 *                      the probability that a category's utility is the
 *                      largest, by Gauss-Hermite quadrature, over rows
 * and two scalar helpers of the birth step, exported for tests.
 *
 * Build: cc -O3 -fPIC -shared -ffp-contract=off, linked with libnpyrandom.a
 * and libm. No -ffast-math and no FMA contraction: each operation rounds
 * once, as the numpy references in the tests do, so draws match them bit for
 * bit. -O3 vectorizes the loops over columns (M, T_k, the commit), whose
 * lanes are separate entries; without -fassociative-math it never splits or
 * reorders a sum, so every sum still adds its terms in order.
 */

/* lgamma_r, which leaves the global signgam alone */
#define _DEFAULT_SOURCE

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
    STEP_WEIGHTS = 1,
    STEP_PSEUDO = 2,
    STEP_THRESHOLDS = 4,
    STEP_NOISE = 8,
    STEP_SCAN = 16,     /* the Z-row scan */
    STEP_BIRTH = 32,
    STEP_PRUNE = 64,    /* drop dead feature columns, then rebuild P^{-1} from P */
    STEP_LOG_JOINT = 128,
};

/* Truncation of the per-row Poisson(alpha/N) birth count. The mass it cuts
 * off biases the chain's target: E[K+] reads 4% low at alpha/N = 1 and 19%
 * low at alpha/N = 2; at alpha/N <= 0.005 the mass cut off is below 1e-10.
 * Exact births, drawn without a truncation, are ROADMAP item 4. */
enum { MAX_BIRTHS_PER_ROW = 3 };

enum {
    ERR_NOT_PD = -1,        /* Cholesky: matrix not positive definite */
    ERR_EMPTY_SUPPORT = -2, /* an ordinal threshold has empty support */
    ERR_BOUNDS = -3,        /* truncation with lo >= hi */
    ERR_STD = -4,           /* truncation with std <= 0 or not finite */
    ERR_NOMEM = -5,
    ERR_MEAN = -6,          /* truncation with a NaN mean */
    ERR_ROOM = -7,          /* a row's births do not fit in the arrays' room */
};

/* Mirrors the ctypes Structure in glfm/_kernel.py field for field. Arrays are
 * C-contiguous float64 unless noted; Z is N x K, Y is N x S, B and lam are
 * K x S, P and P_inv are K x K, sigma2 holds one noise variance per
 * attribute. glfm_sweep may raise K on a birth, up to K_max, and lower it on
 * the prune, repacking the arrays in place: Z, B, P, P_inv, lam and col_sums
 * have room for cap >= K columns. sample_variance is nonzero when the chain
 * draws sigma2, which then carries its inverse-gamma prior in the log joint. */
typedef struct {
    int64_t N, K, S, D, nb, cap, K_max, sample_variance;
    double *Z, *Y, *B, *P, *P_inv, *lam, *col_sums, *sigma2;
    const int64_t *kind, *offset, *levels; /* D, D + 1, D */
    const uint8_t *missing;        /* N x D */
    const double *cells;           /* N x D: levels of ordinal/categorical cells */
    const double *obs_lo, *obs_hi; /* N x D: continuous target or count bounds */
    double *const *theta;          /* D: ordinal cut points, NULL elsewhere */
    double alpha, sigma_B2, sigma_u2, sigma_theta2, beta1, beta2;
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

/* Above this argument Phi rounds to exactly 1.0 (it does from 8.2924 on), so
 * its factor leaves a product unchanged and is skipped. */
static const double NDTR_ONE = 8.3;

/* P(category r[i, j] is the argmax) for each row i of the n x R predictors m
 * and each of its J categories r (0-based, n x J), by Gauss-Hermite
 * quadrature on nq nodes: out[i, j] = sum_q w[q] prod_{c != r}
 * Phi((u[q] + (m_r - m_c)) / sigma), with the nodes u scaled by sqrt(2) sigma
 * and the weights w by 1/sqrt(pi). The product runs over c in increasing
 * order and the sum over q in increasing order. No early exit: a NaN rival
 * keeps its NaN. */
void glfm_prob_categorical(int64_t n, int64_t J, int64_t R, const double *m, const int64_t *r,
                           double sigma, int64_t nq, const double *u, const double *w,
                           double *out)
{
    for (int64_t i = 0; i < n; i++) {
        const double *mi = m + i * R;
        for (int64_t j = 0; j < J; j++) {
            const int64_t own = r[i * J + j];
            double acc = 0.0;
            for (int64_t q = 0; q < nq; q++) {
                double prod = 1.0;
                for (int64_t c = 0; c < R; c++) {
                    if (c == own)
                        continue;
                    const double x = (u[q] + (mi[own] - mi[c])) / sigma;
                    if (x > NDTR_ONE)
                        continue;
                    prod *= ndtr(x);
                }
                acc += w[q] * prod;
            }
            out[i * J + j] = acc;
        }
    }
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

/* The truncated Poisson(rate) birth prior: the log weights
 * ladder[k] = k log(rate) - log k! of k = 0..MAX_BIRTHS_PER_ROW births, and
 * log_rest[j] the log prior mass of k = 1..j. log k! is summed from log j:
 * lgamma would write the global signgam, and chains run kernels on threads. */
static void birth_prior(double rate, double *ladder, double *log_rest)
{
    const double log_rate = log(rate);
    double log_fact = 0.0, top = -INFINITY;
    for (int64_t k = 0; k <= MAX_BIRTHS_PER_ROW; k++) {
        log_fact += k > 1 ? log((double)k) : 0.0;
        ladder[k] = (double)k * log_rate - log_fact;
    }
    log_rest[0] = 0.0;
    for (int64_t j = 1; j <= MAX_BIRTHS_PER_ROW; j++) {
        top = ladder[j] > top ? ladder[j] : top; /* the largest of ladder[1..j] */
        double sum = 0.0;
        for (int64_t k = 1; k <= j; k++)
            sum += exp(ladder[k] - top);
        log_rest[j] = top + log(sum);
    }
}

/* The workspace of one glfm_sweep call: the row steps' arrays, then those of
 * the attribute steps, which also use L and E. A row's downdated inverse
 * A = (P - z z^T)^{-1} is read as Ab + g f^T and never formed on the regular
 * path: Ab = P^{-1}, g = P^{-1} z and f = g / (1 - c). The exact-inverse
 * fallback puts the dense A in Ab with g = 0. */
typedef struct {
    double *W;        /* K x S: the weight mean P^{-1} lam, current in the row loop */
    const double *Ab; /* P^{-1}, or A on the fallback */
    double *A, *L, *E, *g, *f, *h, *M, *T, *r, *v, *D, *z, *z0, *m, *Ad;
    double *log_j;    /* N + 1: log j, the flip prior's log-odds terms */
    int64_t *act;     /* the active columns of a binary row, in increasing k */
    int64_t n_act;    /* ... and their count, for the row scan's z */
    double *wt;       /* S: residual weight of each column, 1/sigma_d^2 or 0 */
    double n_free;    /* free columns: the weights' count */
    double Q;         /* the row's weighted squared residual */
    double *eps, *wmean, *Ynew, *Yold, *mean; /* K x Smax, K, rows x Smax */
    /* the attribute steps' active columns of every row of Z: row n's are
     * row_act[row_ptr[n]..row_ptr[n + 1]) */
    const int64_t *row_ptr, *row_act;
} sweep_ws;

static inline double sigmoid(double t)
{
    if (t >= 0.0)
        return 1.0 / (1.0 + exp(-t));
    double e = exp(t);
    return e / (1.0 + e);
}

/* The columns k < K where the binary row z is nonzero, into idx in
 * increasing k; returns their count. Every k is written and the count steps
 * past it only when z_k is set, so random rows cost no mispredicted branch.
 * A product with z over these columns adds the same nonzero terms in the
 * same order as one over all K, so it rounds the same. */
static int64_t active(int64_t K, const double *z, int64_t *idx)
{
    int64_t n = 0;
    for (int64_t k = 0; k < K; k++) {
        idx[n] = k;
        n += z[k] != 0.0;
    }
    return n;
}

/* Entry (i, j) of the row's downdated inverse A = Ab + g f^T */
static inline double a_at(const sweep_ws *w, int64_t K, int64_t i, int64_t j)
{
    return w->Ab[i * K + j] + w->g[i] * w->f[j];
}

/* h = X z and s = z^T h over the current z's active columns, where X is
 * P_inv or, when P_inv is NULL, the row's downdated inverse A */
static double quad_form(int64_t K, const double *P_inv, const sweep_ws *w, double *h)
{
    const double *z = w->z;
    const int64_t *act = w->act;
    const int64_t na = w->n_act;
    for (int64_t i = 0; i < K; i++) {
        double sum = 0.0;
        if (P_inv != NULL)
            for (int64_t t = 0; t < na; t++)
                sum += P_inv[i * K + act[t]] * z[act[t]];
        else
            for (int64_t t = 0; t < na; t++)
                sum += a_at(w, K, i, act[t]) * z[act[t]];
        h[i] = sum;
    }
    double s = 0.0;
    for (int64_t t = 0; t < na; t++)
        s += z[act[t]] * h[act[t]];
    return s;
}

/* v = y - X^T z for a K x S matrix X, over z's active columns */
static void residual(int64_t S, const double *X, const double *y, const sweep_ws *w, double *v)
{
    for (int64_t col = 0; col < S; col++)
        v[col] = 0.0;
    for (int64_t t = 0; t < w->n_act; t++) {
        const int64_t k = w->act[t];
        const double *Xk = X + k * S;
        for (int64_t col = 0; col < S; col++)
            v[col] += w->z[k] * Xk[col];
    }
    for (int64_t col = 0; col < S; col++)
        v[col] = y[col] - v[col];
}

/* out = X lam for a K x K matrix X, in O(K^2 S); X = P^{-1} gives the
 * weight mean W */
static void times_lam(const glfm_state *st, const double *X, double *out)
{
    const int64_t K = st->K, S = st->S;
    for (int64_t i = 0; i < K; i++) {
        double *oi = out + i * S;
        for (int64_t col = 0; col < S; col++)
            oi[col] = 0.0;
        for (int64_t j = 0; j < K; j++) {
            const double a = X[i * K + j], *lj = st->lam + j * S;
            for (int64_t col = 0; col < S; col++)
                oi[col] += a * lj[col];
        }
    }
}

/* Take row n out of P and lam: A = (P - z z^T)^{-1}, h = A z, s = z h and
 * M = A (lam - z y^T). With g = P^{-1} z and c = z^T g, Sherman-Morrison gives
 * A = P^{-1} + g f^T with f = g / (1 - c), so h = f, s = c / (1 - c) and
 * M = W - h (y - W^T z)^T from the current weight mean W: O(K |z| + K S).
 * An ill-conditioned downdate takes an exact inverse into the dense A, with
 * g = 0, and M from it in O(K^2 S). */
static int collapse_row(const glfm_state *st, int64_t n, sweep_ws *w, double *s_out)
{
    const int64_t K = st->K, S = st->S;
    const double *z = w->z, *y = st->Y + n * S;
    double *A = w->A, *h = w->h, *g = w->g, *f = w->f, *v = w->v;
    w->n_act = active(K, z, w->act);
    double c = quad_form(K, st->P_inv, w, g), s;
    if (1.0 - c <= 1e-12) {
        for (int64_t i = 0; i < K; i++)
            for (int64_t j = 0; j < K; j++)
                A[i * K + j] = st->P[i * K + j] - z[i] * z[j];
        int err = cholesky(K, A, w->L);
        if (err)
            return err;
        cholesky_inverse(K, w->L, w->E, A);
        memset(g, 0, (size_t)K * sizeof(double));
        memset(f, 0, (size_t)K * sizeof(double));
        w->Ab = A;
        s = quad_form(K, NULL, w, h);
        times_lam(st, A, w->M);
        for (int64_t i = 0; i < K; i++)
            for (int64_t col = 0; col < S; col++)
                w->M[i * S + col] -= h[i] * y[col];
    } else {
        for (int64_t i = 0; i < K; i++)
            h[i] = f[i] = g[i] / (1.0 - c);
        s = c / (1.0 - c);
        w->Ab = st->P_inv;
        residual(S, w->W, y, w, v);
        for (int64_t i = 0; i < K; i++) {
            double *Mi = w->M + i * S;
            const double *Wi = w->W + i * S;
            for (int64_t col = 0; col < S; col++)
                Mi[col] = Wi[col] - h[i] * v[col];
        }
    }
    *s_out = s;
    return 0;
}

/* The weighted squared residual Q of r = y - z M, and for every feature k
 * the change D_k = sum_c wt_c (M_kc^2 - t_k r_c M_kc) that flipping k makes
 * to Q, with t_k = 2 - 4 z_k; also T_k = t_k (wt o M_k). */
static void scan_stats(const glfm_state *st, int64_t n, sweep_ws *w)
{
    const int64_t K = st->K, S = st->S;
    const double *y = st->Y + n * S, *z = w->z, *M = w->M, *wt = w->wt;
    double *r = w->r, Q = 0.0;
    residual(S, M, y, w, r);
    for (int64_t col = 0; col < S; col++)
        Q += wt[col] * (r[col] * r[col]);
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
 * an earlier accepted flip moves it by a cross product and h by row k of A.
 * Features no other row uses are forced off. An unchanged row costs
 * O(K |z| + K S). Only a changed row commits P, P^{-1}, W, lam and the
 * counts: with z' its new pattern, h' = A z' and s' = z'^T h',
 * P^{-1}' = A - h' h'^T / (1 + s') and W' = M + h' (y - M^T z')^T / (1 + s'),
 * in O(K^2 + K S). */
static int scan_row(bitgen_t *bg, const glfm_state *st, int64_t n, sweep_ws *w, double *s_out)
{
    const int64_t K = st->K, S = st->S, N = st->N, nb = st->nb;
    const double n_free = w->n_free;
    const double *y = st->Y + n * S;
    double *z = w->z, *z0 = w->z0, *h = w->h, *D = w->D;
    double s;
    int err = collapse_row(st, n, w, &s);
    if (err)
        return err;
    scan_stats(st, n, w);
    for (int64_t k = 0; k < K; k++) {
        w->Ad[k] = a_at(w, K, k, k);
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
                w->n_act = active(K, z, w->act);
                s = quad_form(K, NULL, w, h);
                scan_stats(st, n, w);
                ll = glfm_row_loglik(s, n_free, w->Q);
                changed = 1;
            }
            continue;
        }
        double two_sgn = on ? -2.0 : 2.0;
        double s_alt = s + two_sgn * h[k] + w->Ad[k];
        double ll_alt = glfm_row_loglik(s_alt, n_free, w->Q + D[k]);
        /* the prior log-odds log m - log(N - m), m a count in [1, N) */
        const int64_t mi = (int64_t)m;
        double logit_on = w->log_j[mi] - w->log_j[N - mi] + (on ? ll - ll_alt : ll_alt - ll);
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
                h[j] += sgn * a_at(w, K, k, j);
            for (int64_t j = k + 1; j < K; j++) {
                const double *Tj = w->T + j * S;
                double cross = 0.0;
                for (int64_t col = 0; col < S; col++)
                    cross += Tj[col] * Mk[col];
                D[j] = on ? D[j] - cross : D[j] + cross;
            }
        }
    }
    /* an unchanged row leaves P, P^{-1}, W, lam and the counts as they are */
    if (changed) {
        w->n_act = active(K, z, w->act);
        quad_form(K, NULL, w, h);
        for (int64_t i = 0; i < K; i++)
            for (int64_t j = 0; j < K; j++) {
                double *p = st->P + i * K + j;
                *p -= z0[i] * z0[j];
                *p += z[i] * z[j];
            }
        /* entry (i, j) of A reads entry (i, j) of P^{-1} only, before it is
         * overwritten */
        for (int64_t i = 0; i < K; i++)
            for (int64_t j = 0; j < K; j++)
                st->P_inv[i * K + j] = a_at(w, K, i, j) - h[i] * (h[j] / (1.0 + s));
        double *v = w->v;
        residual(S, w->M, y, w, v);
        for (int64_t col = 0; col < S; col++)
            v[col] /= 1.0 + s;
        for (int64_t i = 0; i < K; i++) {
            double *Wi = w->W + i * S;
            const double *Mi = w->M + i * S;
            for (int64_t col = 0; col < S; col++)
                Wi[col] = Mi[col] + h[i] * v[col];
        }
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

/* How many fresh features, at most kmax, row n turns on, from its statistics
 * (s, Q) and the uniform u: the birth prior (log weights `ladder`, and
 * log_rest the log prior mass of k = 1..kmax) reweighted by the row's
 * marginal likelihood with s + k sigma_B^2 in place of s. When u falls below
 * a lower bound on the mass of no birth the candidates are not scored. */
static int64_t birth_count(const glfm_state *st, double s, const sweep_ws *w, int64_t kmax,
                           const double *ladder, double log_rest, double u)
{
    double lw[MAX_BIRTHS_PER_ROW + 1];
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
    /* the count of cumulative weights at or below u * total: a tie goes to
     * the next count, and u < 1 stops the walk by kmax */
    const double target = u * total;
    double cdf = 0.0;
    int64_t k = 0;
    while (k < kmax && (cdf += lw[k]) <= target)
        k++;
    return k;
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
 * pattern in Z, in the room the arrays have for them: P gains the border
 * z 1^T and the block 1 1^T + I / sigma_B^2, lam k copies of y_n, B k zero
 * rows, and P^{-1} is rebuilt from P's Cholesky factor, taken in the
 * workspace's L and E, which hold cap >= K + k columns. */
static int add_features(glfm_state *st, sweep_ws *w, int64_t n, int64_t k)
{
    const int64_t K = st->K, S = st->S, K2 = K + k;
    widen(st->Z, st->N, K, K2);
    widen(st->P, K, K, K2);
    const double *z = st->Z + n * K2;
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
    int err = cholesky(K2, st->P, w->L);
    if (!err)
        cholesky_inverse(K2, w->L, w->E, st->P_inv);
    return err;
}

/* Whether feature column k is live: a bias column, or one some row uses. */
static inline int live(const glfm_state *st, int64_t k)
{
    return k < st->nb || st->col_sums[k] != 0.0;
}

/* Pack in place the entries of a rows x cols array whose row, when `by_row`,
 * and column, when `by_col`, is a live feature: the reverse of widen. Each
 * kept entry moves to an index no larger than its own and below every entry
 * still to be read. */
static void pack(const glfm_state *st, double *a, int64_t rows, int64_t cols, int by_row,
                 int by_col)
{
    for (int64_t i = 0, j = 0; i < rows; i++)
        for (int64_t c = 0; c < cols; c++)
            if ((!by_row || live(st, i)) && (!by_col || live(st, c)))
                a[j++] = a[i * cols + c];
}

/* Drop the dead feature columns, non-bias columns no row uses, in place: Z
 * keeps its live columns, P its live rows and columns, B, lam and the counts
 * their live rows, and K falls to the live count. The kept entries of P, lam
 * and the counts do not depend on the dropped columns, so they stay exact;
 * P^{-1} is left for the rebuild. The counts go last, as live() reads them. */
static void prune(glfm_state *st)
{
    const int64_t K = st->K;
    int64_t K2 = 0;
    for (int64_t k = 0; k < K; k++)
        K2 += live(st, k);
    if (K2 == K)
        return;
    pack(st, st->Z, st->N, K, 0, 1);
    pack(st, st->P, K, K, 1, 1);
    pack(st, st->B, K, st->S, 1, 0);
    pack(st, st->lam, K, st->S, 1, 0);
    pack(st, st->col_sums, K, 1, 1, 0);
    st->K = K2;
}

/* ------------------------------------------------------------------------ */
/* the per-attribute steps, and the sweep                                   */

/* z_n B[:, col], over row n's active columns in the attribute steps' lists */
static inline double row_mean(const glfm_state *st, const sweep_ws *w, int64_t n, int64_t col)
{
    const double *zn = st->Z + n * st->K;
    const int64_t *act = w->row_act + w->row_ptr[n];
    const int64_t na = w->row_ptr[n + 1] - w->row_ptr[n];
    double sum = 0.0;
    for (int64_t t = 0; t < na; t++)
        sum += zn[act[t]] * st->B[act[t] * st->S + col];
    return sum;
}

/* Draw attribute d's weight columns from N(P^{-1} lam, sigma_d^2 P^{-1}),
 * given the Cholesky factor L of P. A categorical attribute's last column
 * is pinned at zero. */
static void sample_weights(bitgen_t *bg, const glfm_state *st, int64_t d, sweep_ws *w)
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
                             int64_t r1, sweep_ws *w)
{
    const int64_t K = st->K, S = st->S, D = st->D, c0 = st->offset[d];
    const int64_t Sd = st->offset[d + 1] - c0, rows = r1 - r0, kind = st->kind[d];
    const double var = st->sigma2[d], sd = sqrt(var);
    double *Ynew = w->Ynew, *Yold = w->Yold, *mean = w->mean;
    for (int64_t i = 0; i < rows; i++)
        for (int64_t j = 0; j < Sd; j++) {
            mean[i * Sd + j] = row_mean(st, w, r0 + i, c0 + j);
            Yold[i * Sd + j] = Ynew[i * Sd + j] = st->Y[(r0 + i) * S + c0 + j];
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
        const int64_t *act = w->row_act + w->row_ptr[r0 + i];
        const int64_t na = w->row_ptr[r0 + i + 1] - w->row_ptr[r0 + i];
        for (int64_t t = 0; t < na; t++) {
            const int64_t k = act[t];
            for (int64_t j = 0; j < Sd; j++)
                delta[k * Sd + j] += zi[k] * (Ynew[i * Sd + j] - Yold[i * Sd + j]);
        }
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
static int sample_thresholds(bitgen_t *bg, const glfm_state *st, int64_t d, double *err_at)
{
    const int64_t N = st->N, S = st->S, D = st->D, R = st->levels[d];
    const int64_t col = st->offset[d];
    double *th = st->theta[d];
    const double sd = sqrt(st->sigma_theta2);
    if (R < 3)
        return 0;
    /* per level: the highest and lowest pseudo-observation, and whether any
     * row holds it; on the heap, since R has no bound */
    double *top = malloc((size_t)(R + 2) * (2 * sizeof(double) + 1));
    if (top == NULL)
        return ERR_NOMEM;
    double *bottom = top + (R + 2);
    unsigned char *seen = (unsigned char *)(bottom + (R + 2));
    int err = 0;
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
    for (int64_t r = 2; r < R && !err; r++) {
        double lo = th[r - 2];
        if (seen[r] && top[r] > lo)
            lo = top[r];
        double hi = r < R - 1 ? th[r] : INFINITY;
        if (seen[r + 1] && bottom[r + 1] < hi)
            hi = bottom[r + 1];
        if (!(lo < hi)) {
            err_at[0] = (double)d;
            err_at[1] = (double)r;
            err = ERR_EMPTY_SUPPORT;
        } else {
            err = trunc_normal(bg, 0.0, sd, lo, hi, &th[r - 1]);
        }
    }
    free(top);
    return err;
}

/* Conjugate inverse-gamma draw of attribute d's pseudo-observation noise,
 * which scales both the residuals of Y and the prior of the free weights. */
static void sample_noise_variance(bitgen_t *bg, const glfm_state *st, int64_t d, sweep_ws *w)
{
    const int64_t N = st->N, K = st->K, S = st->S, c0 = st->offset[d];
    const int64_t Sd = st->offset[d + 1] - c0;
    const int64_t n_free = st->kind[d] == KIND_CATEGORICAL ? Sd - 1 : Sd;
    double ss = 0.0, bb = 0.0;
    for (int64_t n = 0; n < N; n++)
        for (int64_t j = 0; j < Sd; j++) {
            double e = st->Y[n * S + c0 + j] - row_mean(st, w, n, c0 + j);
            ss += e * e;
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

/* The active columns of every row of Z, for the attribute steps, in one
 * allocation that the caller frees (NULL if it cannot be made): N + 1 row
 * offsets ptr, then the column lists, row n's at offsets [ptr[n], ptr[n + 1]). */
static int64_t *row_lists(const glfm_state *st)
{
    const int64_t N = st->N, K = st->K;
    int64_t nnz = 0;
    for (int64_t i = 0; i < N * K; i++)
        nnz += st->Z[i] != 0.0;
    /* active() writes one entry past a row's count */
    int64_t *ptr = malloc((size_t)(N + 2 + nnz) * sizeof(int64_t));
    if (ptr == NULL)
        return NULL;
    ptr[0] = 0;
    for (int64_t n = 0; n < N; n++)
        ptr[n + 1] = ptr[n] + active(K, st->Z + n * K, ptr + N + 1 + ptr[n]);
    return ptr;
}

/* ------------------------------------------------------------------------ */
/* the complete-data log joint                                              */

/* log Gamma(x): lgamma would write the global signgam, and chains run
 * kernels on threads */
static inline double log_gamma(double x)
{
    int sign;
    return lgamma_r(x, &sign);
}

/* A feature column's history: its N entries as bits, in `words` words. Each
 * carries the length, as qsort's comparator sees only the two entries */
typedef struct {
    const uint64_t *bits;
    int64_t words;
} history;

static int history_order(const void *a, const void *b)
{
    const history *x = a, *y = b;
    return memcmp(x->bits, y->bits, (size_t)x->words * sizeof(uint64_t));
}

/* Log prior mass of the live non-bias feature columns under the Indian
 * buffet process, in left-ordered form,
 *     -alpha H_N + K+ log alpha - sum_h log K_h! + sum_k log((N - m_k)! (m_k - 1)! / N!),
 * with K_h the number of columns whose history is h, counted by sorting the
 * histories. At alpha = 0, where the prior has all its mass at K+ = 0 but a
 * chain keeps its K_init features, it is the prior given K+, which does not
 * depend on alpha: log K+! - K+ log H_N in place of the first two terms. */
static int ibp_log_prior(const glfm_state *st, double *out)
{
    const int64_t N = st->N, K = st->K, words = (N + 63) / 64;
    double harmonic = 0.0;
    for (int64_t j = 1; j <= N; j++)
        harmonic += 1.0 / (double)j;
    int64_t K_plus = 0;
    for (int64_t k = st->nb; k < K; k++)
        K_plus += live(st, k);
    if (K_plus == 0) {
        *out = -st->alpha * harmonic;
        return 0;
    }
    const size_t n_bits = (size_t)(K_plus * words);
    history *cols = malloc((size_t)K_plus * sizeof(history) + n_bits * sizeof(uint64_t));
    if (cols == NULL)
        return ERR_NOMEM;
    uint64_t *bits = (uint64_t *)(cols + K_plus);
    memset(bits, 0, n_bits * sizeof(uint64_t));
    double total = st->alpha == 0.0
                       ? log_gamma((double)K_plus + 1.0) - (double)K_plus * log(harmonic)
                       : -st->alpha * harmonic + (double)K_plus * log(st->alpha);
    for (int64_t k = st->nb, j = 0; k < K; k++) {
        if (!live(st, k))
            continue;
        const double m = st->col_sums[k];
        total += log_gamma((double)N - m + 1.0) + log_gamma(m) - log_gamma((double)N + 1.0);
        uint64_t *b = bits + j * words;
        for (int64_t n = 0; n < N; n++)
            b[n / 64] |= (uint64_t)(st->Z[n * K + k] != 0.0) << (n % 64);
        cols[j++] = (history){b, words};
    }
    qsort(cols, (size_t)K_plus, sizeof(history), history_order);
    /* the sorted histories in runs of equal ones */
    for (int64_t j = 0, run = 1; j < K_plus; j++, run++)
        if (j + 1 == K_plus || history_order(&cols[j], &cols[j + 1]) != 0) {
            total -= log_gamma((double)run + 1.0);
            run = 0;
        }
    free(cols);
    *out = total;
    return 0;
}

/* The complete-data log joint of (Z, B, Y, theta, sigma^2) into *out: the
 * IBP prior of Z; B_c ~ N(0, sigma_d^2 sigma_B^2 I) on the free columns;
 * Y ~ N(Z B, sigma_d^2), its residuals in one pass over the rows' active
 * columns in the row lists; the free ordinal cut points theta_2, ...
 * ~ N(0, sigma_theta^2); and sigma_d^2 ~ InvGamma(beta1, beta2) when the
 * chain draws it. The residuals' squares are summed per column in the
 * workspace's r, each row's mean z_n B built in its v. */
static int log_joint(const glfm_state *st, const sweep_ws *w, double *out)
{
    const int64_t N = st->N, K = st->K, S = st->S;
    const double log_2pi = log(2.0 * PI);
    double total, *ss = w->r, *mean = w->v;
    int err = ibp_log_prior(st, &total);
    if (err)
        return err;
    for (int64_t col = 0; col < S; col++)
        ss[col] = 0.0;
    for (int64_t n = 0; n < N; n++) {
        const double *zn = st->Z + n * K, *y = st->Y + n * S;
        const int64_t *act = w->row_act + w->row_ptr[n];
        const int64_t na = w->row_ptr[n + 1] - w->row_ptr[n];
        for (int64_t col = 0; col < S; col++)
            mean[col] = 0.0;
        for (int64_t t = 0; t < na; t++) {
            const double *Bk = st->B + act[t] * S;
            for (int64_t col = 0; col < S; col++)
                mean[col] += zn[act[t]] * Bk[col];
        }
        for (int64_t col = 0; col < S; col++) {
            const double r = y[col] - mean[col];
            ss[col] += r * r;
        }
    }
    for (int64_t d = 0; d < st->D; d++) {
        const int64_t c0 = st->offset[d], Sd = st->offset[d + 1] - c0;
        const int64_t n_free = st->kind[d] == KIND_CATEGORICAL ? Sd - 1 : Sd;
        const double var = st->sigma2[d], var_B = st->sigma_B2 * var;
        double bb = 0.0, rr = 0.0;
        for (int64_t k = 0; k < K; k++)
            for (int64_t j = 0; j < n_free; j++) {
                const double b = st->B[k * S + c0 + j];
                bb += b * b;
            }
        for (int64_t j = 0; j < Sd; j++)
            rr += ss[c0 + j];
        total -= 0.5 * ((double)(K * n_free) * (log_2pi + log(var_B)) + bb / var_B);
        total -= 0.5 * ((double)(N * Sd) * (log_2pi + log(var)) + rr / var);
        if (st->theta[d] != NULL && st->levels[d] > 2) {
            const int64_t n_cuts = st->levels[d] - 2; /* theta_1 is pinned at 0 */
            double tt = 0.0;
            for (int64_t r = 1; r <= n_cuts; r++)
                tt += st->theta[d][r] * st->theta[d][r];
            total -= 0.5 * ((double)n_cuts * (log_2pi + log(st->sigma_theta2))
                            + tt / st->sigma_theta2);
        }
        if (st->sample_variance)
            total += st->beta1 * log(st->beta2) - log_gamma(st->beta1)
                     - (st->beta1 + 1.0) * log(var) - st->beta2 / var;
    }
    *out = total;
    return 0;
}

/* ------------------------------------------------------------------------ */
/* the sweep                                                                */

/* The residual weight of each column, 1/sigma_d^2 or 0 on a pinned one, and
 * the count of free columns, from the current noise variances */
static void residual_weights(const glfm_state *st, sweep_ws *w)
{
    w->n_free = 0.0;
    for (int64_t d = 0; d < st->D; d++) {
        int64_t c0 = st->offset[d], c1 = st->offset[d + 1];
        if (st->kind[d] == KIND_CATEGORICAL)
            c1--; /* the pinned column carries no dependence on z */
        for (int64_t col = c0; col < st->offset[d + 1]; col++)
            w->wt[col] = col < c1 ? 1.0 / st->sigma2[d] : 0.0;
        w->n_free += (double)(c1 - c0);
    }
}

/* One sweep of `steps`, a mask of STEP_*, in sweep order, on the workspace
 * w; `ladder` and `log_rest` hold the birth prior when the sweep draws
 * births, and *lj receives the log joint on STEP_LOG_JOINT. See glfm_sweep. */
static int sweep(bitgen_t *bg, glfm_state *st, sweep_ws *w, int steps, int64_t r0, int64_t r1,
                 int64_t d_lo, int64_t d_hi, int64_t pending, const double *ladder,
                 const double *log_rest, double *out, double *lj)
{
    const int64_t N = st->N;
    /* scan-pinned chains (alpha = 0) draw no birth */
    const int birth = (steps & STEP_BIRTH) && st->alpha > 0.0;
    residual_weights(st, w);

    /* a call that resumes adds the births row out[2] drew */
    int64_t n = pending > 0 ? (int64_t)out[2] + 1 : r0;
    int err = pending > 0 ? add_features(st, w, n - 1, pending) : 0;
    if (!err && (steps & (STEP_SCAN | STEP_BIRTH)) && n < r1)
        times_lam(st, st->P_inv, w->W);

    for (; n < r1 && !err && (steps & (STEP_SCAN | STEP_BIRTH)); n++) {
        const int64_t K = st->K;
        int64_t births = birth ? st->K_max - K : 0;
        if (births > MAX_BIRTHS_PER_ROW)
            births = MAX_BIRTHS_PER_ROW;
        const int scan = (steps & STEP_SCAN) && K > st->nb;
        double s;
        memcpy(w->z0, st->Z + n * K, (size_t)K * sizeof(double));
        memcpy(w->z, w->z0, (size_t)K * sizeof(double));
        if (scan && (err = scan_row(bg, st, n, w, &s)))
            break;
        if (births > 0) {
            double u = next_double(bg);
            if (!scan && (err = collapse_row(st, n, w, &s)))
                break;
            if (!scan)
                scan_stats(st, n, w);
            int64_t k_new = birth_count(st, s, w, births, ladder, log_rest[births], u);
            if (K + k_new > st->cap) {
                out[0] = s, out[1] = w->Q, out[2] = (double)n, out[3] = (double)k_new;
                err = ERR_ROOM;
                break;
            }
            if (k_new > 0) {
                if ((err = add_features(st, w, n, k_new)))
                    break;
                times_lam(st, st->P_inv, w->W);
            }
        }
        if (scan || births > 0) {
            out[0] = s;
            out[1] = w->Q;
        }
    }
    if (!err && (steps & STEP_PRUNE))
        prune(st);
    if (!err && (steps & (STEP_PRUNE | STEP_WEIGHTS)))
        err = cholesky(st->K, st->P, w->L);
    if (!err && (steps & STEP_PRUNE))
        cholesky_inverse(st->K, w->L, w->E, st->P_inv);
    int64_t *lists = NULL;
    if (!err && (((steps & (STEP_PSEUDO | STEP_NOISE)) && d_lo < d_hi)
                 || (steps & STEP_LOG_JOINT))) {
        if ((lists = row_lists(st)) == NULL) {
            err = ERR_NOMEM;
        } else {
            w->row_ptr = lists;
            w->row_act = lists + N + 1;
        }
    }
    for (int64_t d = d_lo; d < d_hi && !err; d++) {
        if (steps & STEP_WEIGHTS)
            sample_weights(bg, st, d, w);
        if (steps & STEP_PSEUDO)
            err = sample_pseudo_obs(bg, st, d, r0, r1, w);
        if (!err && (steps & STEP_THRESHOLDS) && st->kind[d] == KIND_ORDINAL)
            err = sample_thresholds(bg, st, d, out);
        if (!err && (steps & STEP_NOISE))
            sample_noise_variance(bg, st, d, w);
    }
    if (!err && (steps & STEP_LOG_JOINT))
        err = log_joint(st, w, lj);
    free(lists);
    return err;
}

/* `sweeps` sweeps of the steps of `steps`, a mask of STEP_*, each in sweep
 * order, on one workspace:
 * - the row loop over rows [r0, r1): on STEP_SCAN the Z-row scan (when a
 *   feature column exists to scan), then on STEP_BIRTH with alpha > 0 the
 *   birth decision, from the scan's statistics or fresh ones: at most
 *   min(MAX_BIRTHS_PER_ROW, K_max - K) births a row under the truncated
 *   Poisson(alpha/N) prior, grown in place. The weight mean W = P^{-1} lam
 *   is built in O(K^2 S) before the first row and after each birth, and kept
 *   current by each changed row's commit;
 * - the prune, which shrinks the state in place, and the P^{-1} rebuild;
 * - the Cholesky factor of P, taken once for the rebuild and every weight
 *   draw;
 * - per attribute in [d_lo, d_hi): the weights, the pseudo-observations of
 *   rows [r0, r1), the ordinal thresholds and the noise variance. Z holds
 *   still here, so every row's active columns are listed once for them;
 * - the complete-data log joint, over every row and attribute, from those
 *   lists.
 * A birth count past cap columns returns ERR_ROOM before it writes
 * anything, with the row's (s, Q, n, k) in out[0..3] and in out[4] the
 * sweeps this call finished; a call with that out and pending = k adds the
 * births, goes on at row n + 1 and runs its `sweeps` from that sweep on.
 * When record is not NULL, each finished sweep t writes
 * (K+, log joint, sigma2[0..D)) at record + t (2 + D), the log joint NaN
 * without STEP_LOG_JOINT. out, 5 doubles, also receives the last row's
 * (s, Q), or the (attribute, threshold) of an empty threshold support. bg
 * may be NULL when no step draws. Returns 0, or a negative error code. */
int glfm_sweep(bitgen_t *bg, glfm_state *st, int steps, int64_t r0, int64_t r1, int64_t d_lo,
               int64_t d_hi, int64_t sweeps, int64_t pending, double *out, double *record)
{
    const int64_t S = st->S, N = st->N, rows = r1 - r0 > 0 ? r1 - r0 : 1;
    /* room for every column count the row loop can reach */
    const int64_t Kc = st->cap > 0 ? st->cap : 1;
    int64_t Smax = 1;
    for (int64_t d = d_lo; d < d_hi; d++)
        if (st->offset[d + 1] - st->offset[d] > Smax)
            Smax = st->offset[d + 1] - st->offset[d];
    sweep_ws w;
    /* mean doubles as the K x Smax lam delta of the pseudo-observations */
    struct { double **at; int64_t len; } blocks[] = {
        {&w.A, Kc * Kc}, {&w.L, Kc * Kc}, {&w.E, Kc * Kc}, {&w.W, Kc * S}, {&w.M, Kc * S},
        {&w.T, Kc * S}, {&w.r, S}, {&w.v, S}, {&w.wt, S}, {&w.D, Kc}, {&w.g, Kc}, {&w.f, Kc},
        {&w.h, Kc}, {&w.z, Kc}, {&w.z0, Kc}, {&w.m, Kc}, {&w.Ad, Kc}, {&w.log_j, N + 1},
        {&w.eps, Kc * Smax}, {&w.wmean, Kc}, {&w.Ynew, rows * Smax}, {&w.Yold, rows * Smax},
        {&w.mean, (rows > Kc ? rows : Kc) * Smax},
    };
    const size_t n_blocks = sizeof blocks / sizeof blocks[0];
    size_t doubles = 0;
    for (size_t i = 0; i < n_blocks; i++)
        doubles += (size_t)blocks[i].len;
    /* the Kc-entry active-column list follows the doubles */
    double *buf = malloc(doubles * sizeof(double) + (size_t)Kc * sizeof(int64_t)), *p = buf;
    if (buf == NULL)
        return ERR_NOMEM;
    for (size_t i = 0; i < n_blocks; i++) {
        *blocks[i].at = p;
        p += blocks[i].len;
    }
    w.act = (int64_t *)p;

    double ladder[MAX_BIRTHS_PER_ROW + 1], log_rest[MAX_BIRTHS_PER_ROW + 1];
    if ((steps & STEP_BIRTH) && st->alpha > 0.0)
        birth_prior(st->alpha / (double)st->N, ladder, log_rest);
    if (steps & STEP_SCAN)
        for (int64_t j = 0; j <= N; j++)
            w.log_j[j] = log((double)j);

    int err = 0;
    for (int64_t t = 0; t < sweeps && !err; t++) {
        double lj = NAN;
        err = sweep(bg, st, &w, steps, r0, r1, d_lo, d_hi, t == 0 ? pending : 0, ladder,
                    log_rest, out, &lj);
        if (err == ERR_ROOM) {
            out[4] = (double)t;
        } else if (!err && record != NULL) {
            double *rec = record + t * (2 + st->D);
            int64_t K_plus = 0;
            for (int64_t k = st->nb; k < st->K; k++)
                K_plus += live(st, k);
            rec[0] = (double)K_plus;
            rec[1] = lj;
            memcpy(rec + 2, st->sigma2, (size_t)st->D * sizeof(double));
        }
    }
    free(buf);
    return err;
}
