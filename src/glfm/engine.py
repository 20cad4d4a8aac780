"""Collapsed Gibbs sampler over binary latent features for mixed-type tables.

Every attribute is coupled to the shared binary matrix Z through Gaussian
pseudo-observations Y (one column per attribute, R_d columns for a categorical
attribute with R_d levels): Y_d = Z B_d + N(0, sigma_d^2), with weights
B_d ~ N(0, sigma_d^2 sigma_B^2 I) on free columns and a categorical
attribute's last column pinned at 0. The sampler keeps the natural parameters

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
Because the weight prior scales with sigma_d^2 as the noise does, column c's
predictive variance is sigma_d^2 (1 + s), and the row's collapsed
log-likelihood is

    -1/2 [S_free log(1 + s) + Q / (1 + s)] + const,
    Q = sum_c w_c (y_c - u_c)^2,

with s the weight-uncertainty variance z^T P_{-n}^{-1} z, u = z M the
predictive mean, S_free the number of free columns and w_c = 1/sigma_d^2 on
free columns, 0 on pinned ones (a pinned column does not depend on z). A
birth of k features puts s + k sigma_B^2 in place of s. The Z-row scan keeps
s, Q and, for every candidate flip, the change it would make to Q, so a
candidate is scored from two scalars; only an accepted flip computes cross
products of weight means, with the features still to be scanned. It commits
P, P^{-1}, lam and the column counts only when the row's pattern changed.
The birth step reads the scan's final (s, Q): it scores its candidate counts
only when its uniform lies above a lower bound on the probability of no
birth, which holds on nearly every row.

The sweep runs as compiled C (_sweep.c, built and loaded by glfm._kernel) on
the chain's own PCG64 stream, in two calls per sweep: the row loop (collapse,
scan, commit, and births), then, after prune, the per-attribute phase
(Cholesky of P and the P^{-1} rebuild; per attribute the weights, the
pseudo-observations, the ordinal thresholds and the noise variance). Births
grow the state inside the row loop, in arrays with room for K_max columns.
Python keeps prune, init and the log joint. The public per-step functions
below are thin calls into the same two entry points.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from glfm import _kernel
from glfm.data import AttributeKind, AttributeSpec, DataMatrix
from glfm.likelihoods import count_support_limit, map_inverse
from glfm.randkit import RngState

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

# attribute kinds as the kernel numbers them
_KIND_CODES = {
    AttributeKind.REAL: 0,
    AttributeKind.POSITIVE_REAL: 0,
    AttributeKind.COUNT: 1,
    AttributeKind.ORDINAL: 2,
    AttributeKind.CATEGORICAL: 3,
}


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
    # Observation caches, bound when the state is built against a dataset,
    # N x D: the encoded continuous target f^{-1}(x) in obs_lo, or a count's
    # interval (obs_lo, obs_hi]; nan at missing cells and in other columns.
    # States restored from disk leave these as None.
    obs_lo: np.ndarray | None = None
    obs_hi: np.ndarray | None = None

    def __post_init__(self):
        widths = [s.S_d for s in self.specs]
        self.offsets = np.concatenate([[0], np.cumsum(widths)]).astype(np.int64)
        self.col_dim = np.repeat(np.arange(len(self.specs)), widths)
        free = np.ones(self.offsets[-1], dtype=bool)
        for d, s in enumerate(self.specs):
            if s.kind is AttributeKind.CATEGORICAL:
                free[self.offsets[d + 1] - 1] = False
        self.free_cols = free
        self.kind_codes = np.array([_KIND_CODES[s.kind] for s in self.specs], dtype=np.int64)
        self.levels = np.array([s.R_d or 0 for s in self.specs], dtype=np.int64)
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
            obs_lo=self.obs_lo,
            obs_hi=self.obs_hi,
        )


@dataclass
class ChainResult:
    """Final state, per-iteration trace, and the last snapshots of a chain."""

    state: LatentState
    trace: list[dict]
    saved: list[LatentState]


def _chol_inverse(P: np.ndarray) -> np.ndarray:
    """P^{-1} through the lower Cholesky factor of P, by the kernel's P^{-1}
    rebuild. Raises LinAlgError when P is not positive definite."""
    P = np.ascontiguousarray(P, dtype=float)
    K = P.shape[0]
    if P.shape != (K, K):
        raise ValueError(f"expected a square matrix, got shape {P.shape}")
    out = np.empty((K, K))
    _kernel.check(_kernel.load().glfm_chol_inverse(K, P.ctypes.data, out.ctypes.data))
    return out


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
    obs_lo = np.full((N, D), np.nan)
    obs_hi = np.full((N, D), np.nan)

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
            if np.any(obs):
                obs_lo[obs, d] = map_inverse(x[obs], spec, kind)
            block[obs, 0] = obs_lo[obs, d]
        elif kind is AttributeKind.COUNT:
            xm = int(x[obs].max()) if np.any(obs) else 0
            count_xmax[d] = count_support_limit(xm)
            if np.any(obs):
                obs_lo[obs, d] = map_inverse(x[obs], spec, kind)
                obs_hi[obs, d] = map_inverse(x[obs] + 1.0, spec, kind)
            block[obs, 0] = _interval_seed(obs_lo[obs, d], obs_hi[obs, d])
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
        obs_lo=obs_lo,
        obs_hi=obs_hi,
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


def _one(size: int, i: int) -> tuple[int, int]:
    """The one-element range [i, i + 1) of index i into a sequence of `size`,
    with Python's rules for negative and out-of-range indices."""
    i = range(size)[i]
    return i, i + 1


def _bind(state: LatentState, data: DataMatrix | None) -> _kernel.State:
    """The kernel's view of the state and, when given, of the data: pointers
    to the arrays it reads and writes in place. Shapes are checked here, and
    arrays the kernel writes are made C-contiguous float64 on the state."""
    N, K, S, D = state.N, state.K, state.S, len(state.specs)
    shapes = {"Z": (N, K), "Y": (N, S), "B": (K, S), "P": (K, K), "P_inv": (K, K),
              "lam": (K, S), "col_sums": (K,), "sigma2": (D,)}
    for name, shape in shapes.items():
        a = getattr(state, name)
        if a.shape != shape:
            raise ValueError(f"state.{name} has shape {a.shape}, expected {shape}; "
                             "call recompute_natural() after editing Z or Y")
        if a.dtype != np.float64 or not (a.flags.c_contiguous and a.flags.writeable):
            setattr(state, name, np.array(a, dtype=float, order="C"))
    for d, th in state.theta.items():
        if th.shape != (state.specs[d].R_d - 1,):
            raise ValueError(f"theta of attribute {state.specs[d].name} has shape {th.shape}")
        if th.dtype != np.float64 or not (th.flags.c_contiguous and th.flags.writeable):
            state.theta[d] = np.array(th, dtype=float, order="C")
    theta = (ctypes.c_void_p * D)(
        *(state.theta[d].ctypes.data if d in state.theta else None for d in range(D))
    )
    hp = state.hp
    st = _kernel.State(
        N=N, K=K, S=S, D=D, nb=state.n_bias,
        Z=state.Z.ctypes.data, Y=state.Y.ctypes.data, B=state.B.ctypes.data,
        P=state.P.ctypes.data, P_inv=state.P_inv.ctypes.data, lam=state.lam.ctypes.data,
        col_sums=state.col_sums.ctypes.data, sigma2=state.sigma2.ctypes.data,
        kind=state.kind_codes.ctypes.data,
        offset=state.offsets.ctypes.data, levels=state.levels.ctypes.data,
        theta=ctypes.addressof(theta), sigma_B2=hp.sigma_B2, sigma_u2=hp.sigma_u2,
        sigma_theta2=hp.sigma_theta2, beta1=hp.beta1, beta2=hp.beta2,
    )
    keep = [theta]
    if data is not None:
        if state.obs_lo is None:
            raise ValueError("the state carries no observation bounds; build it with init_state")
        if data.cells.shape != (N, D) or state.obs_lo.shape != (N, D):
            raise ValueError("the data does not match the state's N x D table")
        missing = np.ascontiguousarray(data.missing)
        cells = np.ascontiguousarray(data.cells, dtype=float)
        st.missing, st.cells = missing.ctypes.data, cells.ctypes.data
        st.obs_lo, st.obs_hi = state.obs_lo.ctypes.data, state.obs_hi.ctypes.data
        keep += [missing, cells]
    st.keep = keep  # alive as long as the struct
    return st


def _row_loop(rng: RngState, state: LatentState, data: DataMatrix, lo: int, hi: int,
              scan: bool, birth: bool) -> np.ndarray:
    """The kernel's row loop over rows [lo, hi): the Z-row scan when `scan`,
    then the birth decision when `birth` (and alpha > 0 and K < K_max). A
    birth grows Z, B, P, P^{-1}, lam and the column counts inside the kernel,
    in buffers with room for K_max columns, of which the state keeps views at
    the live K. Returns the last row's statistics (s, Q)."""
    hp, N, S = state.hp, state.N, state.S
    kmax = MAX_BIRTHS_PER_ROW if birth and hp.alpha > 0 and state.K < hp.K_max else 0
    ladder, log_rest = map(np.array, _birth_ladder(hp.alpha, N, kmax))

    def shapes(K):
        return {"Z": (N, K), "B": (K, S), "P": (K, K), "P_inv": (K, K), "lam": (K, S),
                "col_sums": (K,)}

    room = {}
    if kmax:
        for name, shape in shapes(hp.K_max).items():
            a = getattr(state, name)
            room[name] = np.empty(math.prod(shape))
            room[name][: a.size] = a.ravel()
            setattr(state, name, room[name][: a.size].reshape(a.shape))
    st = _bind(state, data)
    stats = np.zeros(2)
    code = _kernel.call(
        rng, "glfm_rows", ctypes.byref(st), lo, hi, scan, kmax, hp.K_max if kmax else state.K,
        ladder.ctypes.data, log_rest.ctypes.data, stats.ctypes.data,
    )
    if st.K != state.K:
        for name, shape in shapes(st.K).items():
            setattr(state, name, room[name][: math.prod(shape)].reshape(shape))
    _kernel.check(code)
    return stats


def sample_z_row(rng: RngState, state: LatentState, data: DataMatrix, n: int):
    """Resample every non-bias entry of row n of Z with weights collapsed out.

    Feature columns used by no other row are forced off; fresh features enter
    through birth_features. Commits updated natural parameters when the row
    changed and returns its final statistics (s, Q), or None when there is no
    feature column to scan: s = z A z and Q = sum_c w_c (y_c - u_c)^2 under
    the predictive mean u = z M, with w_c = 1/sigma_d^2 on free columns and 0
    on a categorical attribute's pinned column.

    Flipping feature k moves u by +-M_k and s by 2 (+-h_k) + A_kk, with
    h = A z, so Q moves by D_k = sum_c w_c (M_kc^2 - t_k r_c M_kc),
    t_k = 2 - 4 z_k. z_k changes only when k is visited, so a candidate is
    scored from its own D_k; only an accepted flip of k computes cross
    products, those of M_k with the features still to be scanned.
    """
    lo, hi = _one(state.N, n)
    if state.K == state.n_bias:
        return None
    return tuple(_row_loop(rng, state, data, lo, hi, scan=True, birth=False).tolist())


@lru_cache(maxsize=16)
def _birth_ladder(alpha: float, N: int, kmax: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Log prior weights k log(alpha/N) - log k! of k = 0..kmax births, and for
    each truncation j = 1..kmax (at index j) the log of the summed prior
    weight of k = 1..j. Without births (kmax = 0) both are (0,)."""
    log_rate = math.log(alpha / N) if kmax else 0.0
    ladder = tuple(k * log_rate - math.lgamma(k + 1) for k in range(kmax + 1))

    def log_sum(xs):
        top = max(xs)
        return top + math.log(sum(math.exp(x - top) for x in xs))

    return ladder, (0.0, *(log_sum(ladder[1 : j + 1]) for j in range(1, kmax + 1)))


def birth_features(rng: RngState, state: LatentState, data: DataMatrix, n: int):
    """Draw how many fresh feature columns row n turns on.

    The count follows a truncated Poisson(alpha/N) reweighted by the row's
    marginal likelihood, where each prospective feature adds sigma_B^2 to
    the collapsed predictive variance 1 + s, in units of sigma_d^2.
    The count is read off one uniform by inverse CDF, as Generator.choice
    would. When the uniform falls below a lower bound on the mass of no
    birth, the count is 0 and the candidates are not scored.
    """
    _row_loop(rng, state, data, *_one(state.N, n), scan=False, birth=True)


def prune_features(state: LatentState):
    """Drop feature columns no row uses. The bias column is never dropped."""
    keep = state.col_sums > 0
    keep[: state.n_bias] = True
    if np.all(keep):
        return
    state.Z = state.Z[:, keep]
    state.B = state.B[keep]
    state.recompute_natural()


def _attributes(rng: RngState, state: LatentState, data: DataMatrix | None, steps: int,
                dim: int | None = None, row: int | None = None):
    """The kernel's per-attribute phase: the _kernel.STEP_* in `steps`, for
    attribute `dim` (all by default) and, for pseudo-observations, row `row`
    (all by default). An index out of range raises IndexError; a negative
    one counts from the end."""
    d_lo, d_hi = (0, len(state.specs)) if dim is None else _one(len(state.specs), dim)
    r_lo, r_hi = (0, state.N) if row is None else _one(state.N, row)
    where = np.zeros(2, dtype=np.int64)
    code = _kernel.call(
        rng, "glfm_attributes", ctypes.byref(_bind(state, data)), d_lo, d_hi, r_lo, r_hi,
        steps, where.ctypes.data,
    )
    if code == _kernel.ERR_EMPTY_SUPPORT:
        d, r = where.tolist()
        raise RuntimeError(f"threshold {r} of attribute {state.specs[d].name} has empty support")
    _kernel.check(code)


def sample_weights(rng: RngState, state: LatentState, d: int):
    """Draw the weight columns of attribute d from N(P^{-1} lam_r, sigma_d^2 P^{-1}),
    the posterior under the prior N(0, sigma_d^2 sigma_B^2 I).

    The last column of a categorical attribute is pinned at zero.
    """
    _attributes(rng, state, None, _kernel.STEP_WEIGHTS, dim=d)


def sample_pseudo_obs(rng: RngState, state: LatentState, data: DataMatrix, n: int, d: int):
    """Resample the pseudo-observations of cell (n, d), keeping lam in sync.

    Missing cells draw from the unconstrained prior N(z b, sigma_d^2).
    Continuous cells blend that prior with the encoded observation under the
    observation noise sigma_u^2. Count and ordinal cells draw from the normal
    truncated to the interval their value maps to. Categorical cells sweep the
    R_d columns in order, keeping the observed category's column the maximum.
    """
    _attributes(rng, state, data, _kernel.STEP_PSEUDO, dim=d, row=n)


def sample_thresholds(rng: RngState, state: LatentState, data: DataMatrix, d: int):
    """Resample the free ordinal cut points theta_2..theta_{R_d - 1}.

    theta_1 stays pinned at 0. Each cut point is a N(0, sigma_theta^2) draw
    truncated between its neighbours and the pseudo-observations of the two
    levels it separates. Attributes that are not ordinal are left alone.
    """
    _attributes(rng, state, data, _kernel.STEP_THRESHOLDS, dim=d)


def sample_noise_variance(rng: RngState, state: LatentState, data: DataMatrix, d: int):
    """Conjugate inverse-gamma draw of attribute d's pseudo-observation noise.

    sigma_d^2 scales both the residuals Y_d - Z B_d and the prior of the free
    weights, so the InvGamma(beta1, beta2) prior gains shape (N S_d + K F_d)/2
    and rate ||Y_d - Z B_d||^2 / 2 + ||B_d,free||^2 / (2 sigma_B^2), with F_d
    the free columns of d.
    """
    _attributes(rng, state, data, _kernel.STEP_NOISE, dim=d)


def run_iteration(rng: RngState, state: LatentState, data: DataMatrix):
    """One full Gibbs sweep: the row loop (Z-row scan and births), prune, then
    the per-attribute phase. P^{-1} is rebuilt from one Cholesky factorization
    after the row loop, which also serves every weight draw."""
    _row_loop(rng, state, data, 0, state.N, scan=True, birth=True)
    prune_features(state)
    steps = (_kernel.STEP_REBUILD | _kernel.STEP_WEIGHTS | _kernel.STEP_PSEUDO
             | _kernel.STEP_THRESHOLDS)
    if state.hp.sample_variance:
        steps |= _kernel.STEP_NOISE
    _attributes(rng, state, data, steps)


def run_chain(
    data: DataMatrix,
    hp: Hyperparams,
    rng: RngState | None = None,
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
    state = init_state(data, hp, rng)
    trace: list[dict] = []
    saved: list[LatentState] = []
    for t in range(hp.iterations):
        run_iteration(rng, state, data)
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
    process, in left-ordered-form parameterization. At alpha = 0, where the
    prior has all its mass at K+ = 0 but a chain keeps its K_init features,
    it is the prior given K+, which does not depend on alpha: the full prior
    minus log Poisson(K+; alpha H_N), that is log K+! - K+ log H_N
    - sum_h log K_h! + sum_k log((N - m_k)! (m_k - 1)! / N!)."""
    harmonic = float(np.sum(1.0 / np.arange(1, N + 1)))
    K_plus = Z_active.shape[1]
    if K_plus == 0:
        return -alpha * harmonic
    if alpha == 0.0:
        total = math.lgamma(K_plus + 1) - K_plus * math.log(harmonic)
    else:
        total = -alpha * harmonic + K_plus * math.log(alpha)
    # lgamma(K_h + 1) per distinct column history, in order of first appearance
    packed = np.packbits(Z_active.T.astype(np.uint8, order="C"), axis=1)
    histories = packed.view(f"V{packed.shape[1]}").ravel()
    _, first, counts = np.unique(histories, return_index=True, return_counts=True)
    total -= sum(math.lgamma(c + 1) for c in counts[np.argsort(first)].tolist())
    mk = Z_active.sum(axis=0).tolist()
    total += float(np.sum([math.lgamma(N - m + 1) + math.lgamma(m) - math.lgamma(N + 1)
                           for m in mk]))
    return total


def complete_data_log_joint(state: LatentState) -> float:
    """Joint log density of (Z, B, Y, theta, sigma^2) at the current state."""
    hp = state.hp
    N = state.N
    nb = state.n_bias

    active = state.col_sums[nb:] > 0
    total = ibp_lof_log_prior(state.Z[:, nb:][:, active], hp.alpha, N)

    Bf = state.B[:, state.free_cols]
    var_B = hp.sigma_B2 * state.sigma2[state.col_dim[state.free_cols]]
    total += -0.5 * float(np.sum(LOG_2PI + np.log(var_B) + Bf * Bf / var_B))

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
                - math.lgamma(hp.beta1)
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
    # column c's predictive variance is sigma_d^2 (1 + s); pinned columns
    # do not depend on z
    w = np.where(state.free_cols, 1.0 / state.sigma2[state.col_dim], 0.0)
    n_free = int(state.free_cols.sum())

    def loglik(zz):
        v = 1.0 + max(float(zz @ A @ zz), 0.0)
        return -0.5 * (n_free * math.log(v) + float(w @ (y - zz @ M) ** 2) / v)

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
