"""Collapsed Gibbs sampler over binary latent features for mixed-type tables.

Every attribute is coupled to the shared binary matrix Z through Gaussian
pseudo-observations Y (one column per attribute, R_d columns for a categorical
attribute with R_d levels). The sampler keeps the natural parameters

    P = Z^T Z + I / sigma_B^2        lam = Z^T Y

up to date across single-row edits, so a full sweep costs O(N (K^2 + K S))
instead of refitting the weight posterior from scratch per row. Weights B are
drawn in closed form once per sweep, pseudo-observations are redrawn from
truncated normals that respect each attribute's observed value, and feature
columns are born and pruned per row under the usual Indian buffet prior.

P stays exact because Z entries are 0/1 floats and its rank-one edits stay on
the integer lattice; P^{-1} is maintained by Sherman-Morrison within a sweep
and rebuilt from a Cholesky factor once per iteration.

A row step takes the row out of P and lam once, from one product P^{-1} z.
Columns are grouped by their noise variance (an attribute's columns share
sigma_d^2, and attributes with equal sigma_d^2 share a group), so the row's
collapsed log-likelihood is

    -1/2 sum_g [S_g log(s + sigma_g^2) + Q_g / (s + sigma_g^2)]

with s the weight-uncertainty variance z^T P_{-n}^{-1} z, S_g the number of
columns in group g and Q_g their summed squared residual. With one shared
sigma^2 there is a single group. The Z-row scan keeps s, Q and, for every
candidate flip, the change it would make to each group's Q, so a candidate
is scored in scalar arithmetic from one list of g numbers; only an accepted
flip computes cross products of weight means, with the features still to be
scanned. It commits P, P^{-1}, lam and the column counts only when the row's
pattern changed. The birth step reads the scan's final (s, Q): it scores its
candidate counts only when its uniform lies above a lower bound on the
probability of no birth, which holds on nearly every row.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import accumulate

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import gammaln

from glfm.data import AttributeKind, AttributeSpec, DataMatrix
from glfm.likelihoods import count_support_limit, map_inverse
from glfm.randkit import RngState, inverse_gamma_sample, trunc_normal_sample

__all__ = [
    "ChainResult",
    "Hyperparams",
    "LatentState",
    "birth_features",
    "collapsed_flip_logodds",
    "complete_data_log_joint",
    "init_state",
    "prune_features",
    "run_chain",
    "run_iteration",
    "sample_noise_variance",
    "sample_pseudo_obs",
    "sample_thresholds",
    "sample_weights",
    "sample_z_row",
]

LOG_2PI = math.log(2.0 * math.pi)

# Truncation of the per-row feature birth proposal. With rate alpha/N the
# Poisson mass above 3 is negligible for any practical alpha.
MAX_BIRTHS_PER_ROW = 3


@dataclass(frozen=True)
class Hyperparams:
    """Sampler configuration. Defaults follow the reference setting."""

    alpha: float = 5.0
    sigma_B2: float = 1.0
    sigma_y2: float = 1.0
    sigma_u2: float = 0.01
    sigma_theta2: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    K_max: int = 50
    K_init: int = 2
    iterations: int = 1000
    burn_in: int = 0
    seed: int = 0
    bias: bool = False
    sample_variance: bool = False

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        for name in ("sigma_B2", "sigma_y2", "sigma_theta2", "beta1", "beta2"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.sigma_u2 < 0:
            raise ValueError("sigma_u2 must be >= 0")
        if self.K_max < 1:
            raise ValueError("K_max must be >= 1")
        if self.K_init < 0:
            raise ValueError("K_init must be >= 0")
        n_cols = self.K_init + (1 if self.bias else 0)
        if n_cols < 1:
            raise ValueError("need K_init >= 1 or bias enabled")
        if n_cols > self.K_max:
            raise ValueError("K_init (plus bias) exceeds K_max")
        if self.iterations < 0 or self.burn_in < 0:
            raise ValueError("iterations and burn_in must be >= 0")
        if self.iterations > 0 and self.burn_in >= self.iterations:
            raise ValueError("burn_in must be < iterations")
        if self.iterations == 0 and self.burn_in != 0:
            raise ValueError("burn_in must be 0 when iterations is 0")


@dataclass
class LatentState:
    """Mutable sampler state.

    Z is N x K (column 0 is the always-on bias column when enabled), Y is
    N x S with S = sum of per-attribute pseudo-observation widths, B is K x S.
    P, P_inv, lam, and col_sums are maintained incrementally; call
    recompute_natural() after editing Z or Y wholesale.
    """

    specs: tuple[AttributeSpec, ...]
    hp: Hyperparams
    Z: np.ndarray
    Y: np.ndarray
    B: np.ndarray
    theta: dict[int, np.ndarray]
    sigma2: np.ndarray
    count_xmax: dict[int, int] = field(default_factory=dict)
    P: np.ndarray | None = None
    P_inv: np.ndarray | None = None
    lam: np.ndarray | None = None
    col_sums: np.ndarray | None = None
    # Observation caches, bound when the state is built against a dataset:
    # encoded continuous targets f^{-1}(x) and count interval bounds, nan/unused
    # at missing cells. States restored from disk leave these as None.
    cont_y: dict[int, np.ndarray] | None = None
    count_lo: dict[int, np.ndarray] | None = None
    count_hi: dict[int, np.ndarray] | None = None

    def __post_init__(self):
        widths = [s.S_d for s in self.specs]
        self.offsets = np.concatenate([[0], np.cumsum(widths)]).astype(int)
        self.col_dim = np.repeat(np.arange(len(self.specs)), widths)
        free = np.ones(self.offsets[-1], dtype=bool)
        for d, s in enumerate(self.specs):
            if s.kind is AttributeKind.CATEGORICAL:
                free[self.offsets[d + 1] - 1] = False
        self.free_cols = free
        self._groups = None
        if self.Y.shape != (self.Z.shape[0], self.offsets[-1]):
            raise ValueError("Y shape does not match Z rows and spec widths")
        if self.B.shape != (self.Z.shape[1], self.offsets[-1]):
            raise ValueError("B shape does not match Z columns and spec widths")

    @property
    def N(self) -> int:
        return self.Z.shape[0]

    @property
    def K(self) -> int:
        return self.Z.shape[1]

    @property
    def S(self) -> int:
        return self.Y.shape[1]

    @property
    def n_bias(self) -> int:
        return 1 if self.hp.bias else 0

    @property
    def K_plus(self) -> int:
        """Number of active non-bias feature columns."""
        return int(np.sum(self.col_sums[self.n_bias :] > 0))

    def dim_cols(self, d: int) -> slice:
        return slice(int(self.offsets[d]), int(self.offsets[d + 1]))

    def variance_groups(self) -> tuple[np.ndarray, list[float], list[float]]:
        """Pseudo-observation columns grouped by equal noise variance: the
        S x g indicator of each column's group (a product with it sums a
        row's columns per group), and each group's sigma^2 and column count.
        Rebuilt only when sigma2 has changed since the last call."""
        key = self.sigma2.tobytes()
        if self._groups is None or self._groups[0] != key:
            values, group_of_dim = np.unique(self.sigma2, return_inverse=True)
            G = (group_of_dim[self.col_dim][:, None] == np.arange(values.size)).astype(float)
            self._groups = (key, G, values.tolist(), G.sum(axis=0).tolist())
        return self._groups[1:]

    def recompute_natural(self):
        """Rebuild P, lam, P_inv, and column counts exactly from Z and Y."""
        K = self.K
        self.P = self.Z.T @ self.Z + np.eye(K) / self.hp.sigma_B2
        self.lam = self.Z.T @ self.Y
        self.col_sums = self.Z.sum(axis=0)
        self.P_inv = _chol_inverse(self.P)

    def copy(self) -> "LatentState":
        return LatentState(
            specs=self.specs,
            hp=self.hp,
            Z=self.Z.copy(),
            Y=self.Y.copy(),
            B=self.B.copy(),
            theta={d: th.copy() for d, th in self.theta.items()},
            sigma2=self.sigma2.copy(),
            count_xmax=dict(self.count_xmax),
            P=None if self.P is None else self.P.copy(),
            P_inv=None if self.P_inv is None else self.P_inv.copy(),
            lam=None if self.lam is None else self.lam.copy(),
            col_sums=None if self.col_sums is None else self.col_sums.copy(),
            cont_y=self.cont_y,
            count_lo=self.count_lo,
            count_hi=self.count_hi,
        )


@dataclass
class ChainResult:
    """Final state, per-iteration trace, and the last snapshots of a chain."""

    state: LatentState
    trace: list[dict]
    saved: list[LatentState]


def _chol_inverse(P: np.ndarray, L: np.ndarray | None = None) -> np.ndarray:
    """P^{-1} from the lower Cholesky factor L of P (factorized here if not given)."""
    if L is None:
        L = np.linalg.cholesky(P)
    E = solve_triangular(L, np.eye(P.shape[0]), lower=True)
    return E.T @ E


def init_state(data: DataMatrix, hp: Hyperparams, rng: RngState) -> LatentState:
    """Draw the starting state: random Z, pseudo-observations seeded from the
    observed cells, thresholds on a fixed ladder, weights at zero."""
    N, D = data.n_rows, data.n_cols
    specs = data.specs
    K0 = hp.K_init + (1 if hp.bias else 0)

    cols = []
    if hp.bias:
        cols.append(np.ones((N, 1)))
    if hp.K_init > 0:
        cols.append((rng.gen.random((N, hp.K_init)) < 0.5).astype(float))
    Z = np.hstack(cols)

    theta = {}
    sd_theta = math.sqrt(hp.sigma_theta2)
    for d, spec in enumerate(specs):
        if spec.kind is AttributeKind.ORDINAL:
            theta[d] = np.arange(spec.R_d - 1, dtype=float) * (sd_theta / 2.0)

    count_xmax = {}
    cont_y: dict[int, np.ndarray] = {}
    count_lo: dict[int, np.ndarray] = {}
    count_hi: dict[int, np.ndarray] = {}

    offsets = np.concatenate([[0], np.cumsum([s.S_d for s in specs])]).astype(int)
    Y = np.empty((N, int(offsets[-1])))
    sd_y = math.sqrt(hp.sigma_y2)

    for d, spec in enumerate(specs):
        cs = slice(int(offsets[d]), int(offsets[d + 1]))
        obs = ~data.missing[:, d]
        x = data.cells[:, d]
        kind = spec.kind

        block = rng.gen.normal(0.0, sd_y, size=(N, spec.S_d))
        if kind.is_continuous:
            enc = np.full(N, np.nan)
            if np.any(obs):
                enc[obs] = map_inverse(x[obs], spec, kind)
            cont_y[d] = enc
            block[obs, 0] = enc[obs]
        elif kind is AttributeKind.COUNT:
            xm = int(x[obs].max()) if np.any(obs) else 0
            count_xmax[d] = count_support_limit(xm)
            lo = np.full(N, np.nan)
            hi = np.full(N, np.nan)
            if np.any(obs):
                lo[obs] = map_inverse(x[obs], spec, kind)
                hi[obs] = map_inverse(x[obs] + 1.0, spec, kind)
            count_lo[d], count_hi[d] = lo, hi
            block[obs, 0] = _interval_seed(lo[obs], hi[obs])
        elif kind is AttributeKind.ORDINAL:
            pad = np.concatenate([[-np.inf], theta[d], [np.inf]])
            xi = x[obs].astype(int)
            block[obs, 0] = _interval_seed(pad[xi - 1], pad[xi])
        else:
            rows = np.flatnonzero(obs)
            block[rows] = -0.5
            block[rows, x[rows].astype(int) - 1] = 0.5
        Y[:, cs] = block

    state = LatentState(
        specs=specs,
        hp=hp,
        Z=Z,
        Y=Y,
        B=np.zeros((K0, int(offsets[-1]))),
        theta=theta,
        sigma2=np.full(D, hp.sigma_y2),
        count_xmax=count_xmax,
        cont_y=cont_y,
        count_lo=count_lo,
        count_hi=count_hi,
    )
    state.recompute_natural()
    return state


def _interval_seed(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A point inside (lo, hi] to start a pseudo-observation at."""
    out = 0.5 * (lo + hi)
    unbounded_lo = np.isneginf(lo)
    unbounded_hi = np.isposinf(hi)
    out = np.where(unbounded_lo, hi - 1.0, out)
    out = np.where(unbounded_hi, lo + 1.0, out)
    return out


def _sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _collapse_row(state: LatentState, n: int):
    """Take row n out of P and lam.

    Returns (A, h, s, M): A = (P - z z^T)^{-1}, h = A z, s = z h and
    M = A (lam - z y^T), the posterior mean of the weights given every other
    row. One product g = P^{-1} z gives them all: with c = z g,
    h = g / (1 - c), s = c / (1 - c) and A = P^{-1} + g h^T (Sherman-Morrison).
    An ill-conditioned downdate takes an exact inverse instead.
    """
    # ndarray.dot rather than @: the same product at half the call overhead
    # on these small arrays
    z = state.Z[n]
    g = state.P_inv.dot(z)
    c = float(z.dot(g))
    if 1.0 - c <= 1e-12:
        A = _chol_inverse(state.P - z[:, None] * z)
        h = A.dot(z)
        s = float(z.dot(h))
    else:
        h = g / (1.0 - c)
        s = c / (1.0 - c)
        A = state.P_inv + g[:, None] * h
    return A, h, s, A.dot(state.lam) - h[:, None] * state.Y[n]


def _scan_stats(M: np.ndarray, G: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Per variance group, the squared residual Q of r = y - z M (a list),
    and for every feature k the change D_k = ||M_k||^2 - t_k r.M_k that
    flipping k makes to Q (K x g), with t_k = 2 - 4 z_k; also T = t M, from
    which an accepted flip takes its cross products."""
    r = y - z.dot(M)
    T = (2.0 - 4.0 * z)[:, None] * M
    # a product with W sums r-weighted columns per group
    W = r[:, None] * G
    D = (M * M).dot(G)
    D -= T.dot(W)
    return r.dot(W).tolist(), D, T


def _row_stats(state: LatentState, n: int) -> tuple[float, list[float]]:
    """Collapsed statistics (s, Q) of row n as it stands: s = z A z and
    Q[g] = ||y_g - u_g||^2 summed over the columns of variance group g,
    under the predictive mean u = z M."""
    _, _, s, M = _collapse_row(state, n)
    G = state.variance_groups()[0]
    return s, _scan_stats(M, G, state.Y[n], state.Z[n])[0]


def _row_loglik(s: float, Q, sigma2, widths) -> float:
    """Collapsed log-likelihood of a row, up to a constant, from its
    statistics: each of group g's widths[g] columns has predictive variance
    s + sigma2[g] and the group's squared residuals sum to Q[g]."""
    v0 = max(s, 0.0)
    total = 0.0
    for q, sg, w in zip(Q, sigma2, widths):
        v = v0 + sg
        total += w * math.log(v) + q / v
    return -0.5 * total


def sample_z_row(rng: RngState, state: LatentState, data: DataMatrix, n: int):
    """Resample every non-bias entry of row n of Z with weights collapsed out.

    Feature columns used by no other row are forced off; fresh features enter
    through birth_features. Commits updated natural parameters when the row
    changed and returns the final row statistics (s, Q) of _row_stats, or
    None when there is no feature column to scan.

    The row is taken out of P and lam once. Flipping feature k moves the
    predictive mean u by +-M_k and s by 2 (+-h_k) + A_kk, with h = A z, so
    each variance group's squared residual Q (r = y - u) moves by
    D_k = ||M_k||^2 - t_k r.M_k, t_k = 2 - 4 z_k, summed over the group's
    columns. z_k changes only when k is visited, so t_k holds for the whole
    row: a candidate is scored from its own list D_k, one scalar term per
    group. Only an accepted flip of k computes cross products, those of M_k
    with the features still to be scanned: it moves their h_j and D_j.
    """
    nb = state.n_bias
    K = state.K
    N = state.N
    if K == nb:
        return None
    z0 = state.Z[n]
    y = state.Y[n]
    A, h, s, M = _collapse_row(state, n)
    G, sig, widths = state.variance_groups()
    Q, D, T = _scan_stats(M, G, y, z0)
    D_l = D.tolist()
    A_diag = A.diagonal().tolist()
    h_l = h.tolist()
    m_l = (state.col_sums - z0).tolist()
    z_l = z0.tolist()
    ll = _row_loglik(s, Q, sig, widths)

    n_live = K - nb - m_l[nb:].count(0.0)
    uniforms = iter(rng.gen.random(n_live).tolist())
    # an accepted flip of the last live candidate leaves none to update
    last = K - 1
    while last >= nb and m_l[last] == 0.0:
        last -= 1
    log = math.log
    changed = False
    for k in range(nb, K):
        on = z_l[k] == 1.0
        m = m_l[k]
        if m == 0.0:
            if on:
                # forced off: A_kk = sigma_B^2 here, and an update would
                # cancel terms of that size, so recompute from the new z
                z_l[k] = 0.0
                z = np.array(z_l)
                h = A.dot(z)
                s = float(z.dot(h))
                h_l = h.tolist()
                Q, D, T = _scan_stats(M, G, y, z)
                D_l = D.tolist()
                ll = _row_loglik(s, Q, sig, widths)
                changed = True
            continue
        two_sgn = -2.0 if on else 2.0
        s_alt = s + two_sgn * h_l[k] + A_diag[k]
        v0 = s_alt if s_alt > 0.0 else 0.0
        D_k = D_l[k]
        total = 0.0
        for q, d, sg, w in zip(Q, D_k, sig, widths):
            v = v0 + sg
            total += w * log(v) + (q + d) / v
        ll_alt = -0.5 * total
        logit_on = log(m) - log(N - m) + (ll - ll_alt if on else ll_alt - ll)
        if (next(uniforms) < _sigmoid(logit_on)) == on:
            continue
        # accept the flip; later candidates read h_j and D_j for j > k only
        Q = [q + d for q, d in zip(Q, D_k)]
        s, ll = s_alt, ll_alt
        z_l[k] = 0.0 if on else 1.0
        changed = True
        if k < last:
            sgn = 0.5 * two_sgn
            A_k = A[k].tolist()
            for j in range(k + 1, K):
                h_l[j] += sgn * A_k[j]
            # D_j moves by sgn t_j (M_j o M_k).G, and T_j = t_j M_j
            cross = T[k + 1 :].dot(M[k][:, None] * G)
            rest = D[k + 1 :]
            if on:
                rest -= cross
            else:
                rest += cross
            D_l = D.tolist()

    # an unchanged row leaves P, P^{-1}, lam and the counts as they are
    if changed:
        z = np.array(z_l)
        dz = z - z0
        h = A.dot(z)
        state.P -= z0[:, None] * z0
        state.P += z[:, None] * z
        A -= h[:, None] * (h / (1.0 + s))
        state.P_inv = A
        state.lam += dz[:, None] * y
        state.col_sums = state.col_sums + dz
        state.Z[n] = z
    return s, Q


def _inverse_cdf_index(p, u: float) -> int:
    """The index Generator.choice(len(p), p=p) draws from the uniform u: the
    number of normalized cumulative probabilities at or below u."""
    cdf = list(accumulate(p))
    total = cdf[-1]
    return bisect_right([c / total for c in cdf], u)


@lru_cache(maxsize=16)
def _birth_ladder(alpha: float, N: int, kmax: int) -> tuple[tuple[float, ...], float]:
    """Log prior weights k log(alpha/N) - log k! of k = 0..kmax births, and
    the log of the summed prior weight of k >= 1."""
    log_rate = math.log(alpha / N)
    ladder = tuple(k * log_rate - math.lgamma(k + 1) for k in range(kmax + 1))
    top = max(ladder[1:])
    return ladder, top + math.log(sum(math.exp(x - top) for x in ladder[1:]))


def _birth_gain_bound(s: float, Q, sigma2, widths) -> float:
    """An upper bound on ll_k - ll_0 over every birth count k >= 1.

    Births add variance: per variance group the gain is
    (c (1 - 1/x) - w log x) / 2 with x = v_k / v_0 >= 1, c = Q_g / v_0 and
    w the group's column count, which peaks at x = c / w when c > w and is
    never positive otherwise.
    """
    v0 = max(s, 0.0)
    total = 0.0
    for q, sg, w in zip(Q, sigma2, widths):
        c = q / (v0 + sg)
        if c > w:
            total += c - w - w * math.log(c / w)
    return 0.5 * total


def birth_features(rng: RngState, state: LatentState, data: DataMatrix, n: int, row=None):
    """Draw how many fresh feature columns row n turns on.

    The count follows a truncated Poisson(alpha/N) reweighted by the row's
    marginal likelihood, where each prospective feature contributes prior
    weight variance sigma_B^2 on top of the collapsed predictive variance.
    `row` is the row's (s, Q) as sample_z_row returns it; when None it is
    computed here. The count is read off one uniform by inverse CDF. When the
    uniform falls below a lower bound on the mass of no birth, the count is 0
    and the candidates are not scored.
    """
    hp = state.hp
    if hp.alpha == 0.0:
        return
    N = state.N
    kmax = min(MAX_BIRTHS_PER_ROW, hp.K_max - state.K)
    if kmax <= 0:
        return

    ladder, log_rest = _birth_ladder(hp.alpha, N, kmax)
    u = rng.gen.random()
    s, Q = _row_stats(state, n) if row is None else row
    s = max(s, 0.0)
    _, sig, widths = state.variance_groups()
    # p_0 >= 1 / (1 + exp(gain bound) * prior weight of k >= 1); the margin
    # keeps rounding in the full scoring from reversing the call
    bound = _birth_gain_bound(s, Q, sig, widths) + log_rest
    if bound < 700.0 and u < (1.0 - 1e-9) / (1.0 + math.exp(bound)):
        return
    lw = [x + _row_loglik(s + k * hp.sigma_B2, Q, sig, widths) for k, x in enumerate(ladder)]
    top = max(lw)
    w = [math.exp(x - top) for x in lw]
    total = sum(w)
    k_new = _inverse_cdf_index([x / total for x in w], u)
    if k_new == 0:
        return

    K = state.K
    Z = np.zeros((N, K + k_new))
    Z[:, :K] = state.Z
    Z[n, K:] = 1.0
    B = np.zeros((K + k_new, state.S))
    B[:K] = state.B
    state.Z = Z
    state.B = B
    state.recompute_natural()


def prune_features(state: LatentState):
    """Drop feature columns no row uses. The bias column is never dropped."""
    keep = state.col_sums > 0
    keep[: state.n_bias] = True
    if np.all(keep):
        return
    state.Z = state.Z[:, keep]
    state.B = state.B[keep]
    state.recompute_natural()


def sample_weights(rng: RngState, state: LatentState, d: int, chol: np.ndarray | None = None):
    """Draw the weight columns of attribute d from N(P^{-1} lam_r, sigma_d^2 P^{-1}).

    The last column of a categorical attribute is pinned at zero. Pass the
    Cholesky factor of P to share one factorization across attributes.
    """
    cs = state.dim_cols(d)
    spec = state.specs[d]
    L = np.linalg.cholesky(state.P) if chol is None else chol
    mean = cho_solve((L, True), state.lam[:, cs])
    S_d = spec.S_d
    n_free = S_d - 1 if spec.kind is AttributeKind.CATEGORICAL else S_d
    sd = math.sqrt(float(state.sigma2[d]))
    eps = rng.gen.standard_normal((state.K, n_free))
    draw = mean[:, :n_free] + sd * solve_triangular(L, eps, lower=True, trans="T")
    state.B[:, cs.start : cs.start + n_free] = draw
    if n_free < S_d:
        state.B[:, cs.stop - 1] = 0.0


def sample_pseudo_obs(rng: RngState, state: LatentState, data: DataMatrix, n: int, d: int):
    """Resample the pseudo-observations of cell (n, d)."""
    _sample_pseudo_obs_rows(rng, state, data, d, rows=np.array([n]))


def _sample_pseudo_obs_rows(rng, state, data, d, rows=None):
    """Resample the pseudo-observation block of attribute d for the given rows
    (all rows by default), keeping lam in sync.

    Missing cells draw from the unconstrained prior N(z b, sigma_d^2).
    Continuous cells blend that prior with the encoded observation under the
    observation noise sigma_u^2. Count and ordinal cells draw from the normal
    truncated to the interval their value maps to. Categorical cells sweep the
    R_d columns in order, keeping the observed category's column the maximum.
    """
    spec = state.specs[d]
    hp = state.hp
    cs = state.dim_cols(d)
    col_idx = np.arange(cs.start, cs.stop)
    if rows is None:
        rows = np.arange(state.N)
    idx = np.ix_(rows, col_idx)

    Yold = state.Y[idx].copy()
    Ynew = Yold.copy()
    mean = state.Z[rows] @ state.B[:, cs]
    var_d = float(state.sigma2[d])
    sd = math.sqrt(var_d)
    miss = data.missing[rows, d]
    obs = ~miss

    if np.any(miss):
        nm = int(miss.sum())
        Ynew[miss] = mean[miss] + sd * rng.gen.standard_normal((nm, spec.S_d))

    if np.any(obs):
        kind = spec.kind
        if kind.is_continuous:
            target = state.cont_y[d][rows][obs]
            if hp.sigma_u2 == 0.0:
                Ynew[obs, 0] = target
            else:
                pv = 1.0 / (1.0 / var_d + 1.0 / hp.sigma_u2)
                pm = pv * (mean[obs, 0] / var_d + target / hp.sigma_u2)
                Ynew[obs, 0] = pm + math.sqrt(pv) * rng.gen.standard_normal(int(obs.sum()))
        elif kind is AttributeKind.COUNT:
            lo = state.count_lo[d][rows][obs]
            hi = state.count_hi[d][rows][obs]
            Ynew[obs, 0] = trunc_normal_sample(rng, mean[obs, 0], sd, lo, hi)
        elif kind is AttributeKind.ORDINAL:
            pad = np.concatenate([[-np.inf], state.theta[d], [np.inf]])
            xi = data.cells[rows, d][obs].astype(int)
            Ynew[obs, 0] = trunc_normal_sample(rng, mean[obs, 0], sd, pad[xi - 1], pad[xi])
        else:
            obs_rows = np.flatnonzero(obs)
            xi = np.zeros(len(rows), dtype=int)
            xi[obs_rows] = data.cells[rows, d][obs_rows].astype(int)
            for j in range(spec.R_d):
                own = obs_rows[xi[obs_rows] == j + 1]
                other = obs_rows[xi[obs_rows] != j + 1]
                if own.size:
                    rivals = Ynew[own].copy()
                    rivals[:, j] = -np.inf
                    lo = rivals.max(axis=1)
                    Ynew[own, j] = trunc_normal_sample(rng, mean[own, j], sd, lo, np.inf)
                if other.size:
                    hi = Ynew[other, xi[other] - 1]
                    Ynew[other, j] = trunc_normal_sample(rng, mean[other, j], sd, -np.inf, hi)

    state.lam[:, cs] += state.Z[rows].T @ (Ynew - Yold)
    state.Y[idx] = Ynew


def sample_thresholds(rng: RngState, state: LatentState, data: DataMatrix, d: int):
    """Resample the free ordinal cut points theta_2..theta_{R_d - 1}.

    theta_1 stays pinned at 0. Each cut point is a N(0, sigma_theta^2) draw
    truncated between its neighbours and the pseudo-observations of the two
    levels it separates.
    """
    spec = state.specs[d]
    if spec.kind is not AttributeKind.ORDINAL or spec.R_d < 3:
        return
    th = state.theta[d]
    obs = ~data.missing[:, d]
    x = data.cells[obs, d].astype(int)
    yv = state.Y[obs, state.dim_cols(d).start]
    sd_theta = math.sqrt(state.hp.sigma_theta2)

    for r in range(2, spec.R_d):
        lo = th[r - 2]
        at_r = x == r
        if np.any(at_r):
            lo = max(lo, float(yv[at_r].max()))
        hi = th[r] if r < spec.R_d - 1 else np.inf
        above = x == r + 1
        if np.any(above):
            hi = min(hi, float(yv[above].min()))
        if not lo < hi:
            raise RuntimeError(
                f"threshold {r} of attribute {spec.name} has empty support"
            )
        th[r - 1] = trunc_normal_sample(rng, 0.0, sd_theta, lo, hi)


def sample_noise_variance(rng: RngState, state: LatentState, data: DataMatrix, d: int):
    """Conjugate inverse-gamma draw of attribute d's pseudo-observation noise."""
    hp = state.hp
    cs = state.dim_cols(d)
    resid = state.Y[:, cs] - state.Z @ state.B[:, cs]
    shape = hp.beta1 + state.N * state.specs[d].S_d / 2.0
    rate = hp.beta2 + float(np.sum(resid * resid)) / 2.0
    state.sigma2[d] = inverse_gamma_sample(rng, shape, rate)


def run_iteration(rng: RngState, state: LatentState, data: DataMatrix, pinned=frozenset()):
    """One full Gibbs sweep.

    Rows in `pinned` keep their Z entries (their pseudo-observations still
    move). P^{-1} is rebuilt from one Cholesky factorization after the row
    scan, which also serves every weight draw.
    """
    for n in range(state.N):
        if n in pinned:
            continue
        row = sample_z_row(rng, state, data, n)
        birth_features(rng, state, data, n, row)
    prune_features(state)

    L = np.linalg.cholesky(state.P)
    state.P_inv = _chol_inverse(state.P, L)
    for d in range(len(state.specs)):
        sample_weights(rng, state, d, chol=L)
        _sample_pseudo_obs_rows(rng, state, data, d)
        if state.specs[d].kind is AttributeKind.ORDINAL:
            sample_thresholds(rng, state, data, d)
        if state.hp.sample_variance:
            sample_noise_variance(rng, state, data, d)


def run_chain(
    data: DataMatrix,
    hp: Hyperparams,
    rng: RngState | None = None,
    pinned_rows=(),
    keep_last: int = 1,
) -> ChainResult:
    """Run a full chain: init, hp.iterations sweeps, per-sweep trace.

    keep_last controls how many trailing states are snapshotted for
    posterior-averaged prediction; the final state is always available.
    """
    if rng is None:
        rng = RngState(hp.seed)
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    pinned = frozenset(pinned_rows)
    state = init_state(data, hp, rng)
    trace: list[dict] = []
    saved: list[LatentState] = []
    for t in range(hp.iterations):
        run_iteration(rng, state, data, pinned)
        trace.append(
            {
                "iteration": t + 1,
                "K_plus": state.K_plus,
                "log_joint": complete_data_log_joint(state),
                "sigma2": [float(v) for v in state.sigma2],
            }
        )
        if hp.iterations - (t + 1) < keep_last:
            saved.append(state.copy())
    if not saved:
        saved.append(state.copy())
    return ChainResult(state=state, trace=trace, saved=saved)


def ibp_lof_log_prior(Z_active: np.ndarray, alpha: float, N: int) -> float:
    """Log prior mass of the active feature columns under the Indian buffet
    process, in left-ordered-form parameterization."""
    harmonic = float(np.sum(1.0 / np.arange(1, N + 1)))
    total = -alpha * harmonic
    K_plus = Z_active.shape[1]
    if K_plus == 0:
        return total
    if alpha == 0.0:
        return -np.inf
    total += K_plus * math.log(alpha)
    histories = Counter(tuple(col) for col in Z_active.astype(int).T)
    total -= sum(float(gammaln(c + 1)) for c in histories.values())
    mk = Z_active.sum(axis=0)
    total += float(np.sum(gammaln(N - mk + 1) + gammaln(mk) - gammaln(N + 1)))
    return total


def complete_data_log_joint(state: LatentState) -> float:
    """Joint log density of (Z, B, Y, theta, sigma^2) at the current state."""
    hp = state.hp
    N = state.N
    nb = state.n_bias

    active = state.col_sums[nb:] > 0
    total = ibp_lof_log_prior(state.Z[:, nb:][:, active], hp.alpha, N)

    Bf = state.B[:, state.free_cols]
    total += -0.5 * float(
        Bf.size * (LOG_2PI + math.log(hp.sigma_B2)) + np.sum(Bf * Bf) / hp.sigma_B2
    )

    resid = state.Y - state.Z @ state.B
    col_var = state.sigma2[state.col_dim]
    total += -0.5 * float(
        np.sum(LOG_2PI + np.log(col_var) + resid * resid / col_var)
    )

    for th in state.theta.values():
        free = th[1:]
        if free.size:
            total += -0.5 * float(
                free.size * (LOG_2PI + math.log(hp.sigma_theta2))
                + np.sum(free * free) / hp.sigma_theta2
            )

    if hp.sample_variance:
        for v in state.sigma2:
            total += (
                hp.beta1 * math.log(hp.beta2)
                - float(gammaln(hp.beta1))
                - (hp.beta1 + 1.0) * math.log(v)
                - hp.beta2 / v
            )
    return total


def collapsed_flip_logodds(state: LatentState, n: int, k: int) -> float:
    """log p(z_nk = 1 | rest) - log p(z_nk = 0 | rest), weights collapsed out,
    computed from scratch with an exact inverse."""
    if k < state.n_bias or k >= state.K:
        raise ValueError(f"feature index {k} out of range")
    z = state.Z[n].copy()
    y = state.Y[n]
    m = float(state.col_sums[k] - z[k])
    N = state.N
    if m == 0.0:
        return -np.inf
    prior = math.log(m) - math.log(N - m)

    P_noN = state.P - np.outer(z, z)
    lam_noN = state.lam - np.outer(z, y)
    z0 = z.copy()
    z0[k] = 0.0
    z1 = z.copy()
    z1[k] = 1.0

    A = _chol_inverse(P_noN)
    M = A @ lam_noN
    col_var = state.sigma2[state.col_dim]

    def loglik(zz):
        u = zz @ M
        v = max(float(zz @ A @ zz), 0.0) + col_var
        return -0.5 * float(np.sum(np.log(v) + (y - u) ** 2 / v))

    return prior + loglik(z1) - loglik(z0)


def hyperparams_to_dict(hp: Hyperparams) -> dict:
    return {f.name: getattr(hp, f.name) for f in fields(Hyperparams)}


def hyperparams_from_dict(d: dict, **overrides) -> Hyperparams:
    known = {f.name for f in fields(Hyperparams)}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown hyperparameter names: {sorted(unknown)}")
    merged = dict(d)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return Hyperparams(**merged)
