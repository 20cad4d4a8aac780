"""Collapsed Gibbs sampler over binary latent features for mixed-type tables.

Every attribute is coupled to the shared binary matrix Z through Gaussian
pseudo-observations Y (one column per attribute, R_d columns for a categorical
attribute with R_d levels): Y_d = Z B_d + N(0, sigma_d^2), with weights
B_d ~ N(0, sigma_d^2 sigma_B^2 I) on free columns and a categorical
attribute's last column pinned at 0. The sampler keeps the natural parameters

    P = Z^T Z + I / sigma_B^2        lam = Z^T Y

up to date across single-row edits instead of refitting the weight posterior
from scratch per row, and with them the weight mean W = P^{-1} lam, as the
accelerated sampler of Doshi-Velez and Ghahramani (ICML 2009) does. A row
step reads its downdated weight mean M = W - h (y - W^T z)^T from W and
h = A z and never forms A = (P - z z^T)^{-1}, so an unchanged row costs
O(K |z| + K S) and a changed row, which updates P, P^{-1} and W by rank one,
O(K^2 + K S); every product with the row's binary pattern z runs over its
active columns only. W is built in O(K^2 S) once per sweep and again after
each birth. Weights B are drawn in closed form once per sweep,
pseudo-observations are redrawn from truncated normals that respect each
attribute's observed value, and feature columns are born and pruned per row
under the usual Indian buffet prior.

P stays exact because Z entries are 0/1 floats and its rank-one edits stay on
the integer lattice; P^{-1} and W are maintained by Sherman-Morrison within a
sweep, and P^{-1} is rebuilt from a Cholesky factor once per iteration.

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
the chain's own PCG64 stream: the row loop (collapse, scan, commit, and
births under the kernel's truncated Poisson(alpha/N) prior), the prune and
the P^{-1} rebuild from the Cholesky factor of P, the per-attribute phase
(per attribute the weights, the pseudo-observations, the ordinal thresholds
and the noise variance), then the complete-data log joint. One kernel call
runs any number of sweeps and writes each one's K+, log joint and noise
variances to a record, from which `run_chain` builds the trace. Births grow
the state inside the row loop, in room the state keeps and grows only when a
row's births do not fit, and the prune compacts it in place, so P and lam
stay exact without a refit. Python keeps init and the copies of kept states.
Tests drive a single step, such as one row's scan or one attribute's weights,
through `_sweep` and its `STEP_*` bits.
"""

from __future__ import annotations

import ctypes
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from glfm import _kernel
from glfm.data import AttributeKind, AttributeSpec, DataMatrix
from glfm.likelihoods import map_inverse
from glfm.randkit import RngState

__all__ = [
    "ChainResult",
    "Hyperparams",
    "LatentState",
    "complete_data_log_joint",
    "init_state",
    "run_chain",
]

# attribute kinds as the kernel numbers them
_KIND_CODES = {
    AttributeKind.REAL: 0,
    AttributeKind.POSITIVE_REAL: 0,
    AttributeKind.COUNT: 1,
    AttributeKind.ORDINAL: 2,
    AttributeKind.CATEGORICAL: 3,
}

# each Hyperparams annotation: the values it admits, their name in errors and
# the Python type they are stored as, which state.json can write
_FIELD_TYPES = {"float": (numbers.Real, "a real number", float),
                "int": (numbers.Integral, "an integer", int),
                "bool": (bool, "true or false", bool)}


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
        for f in fields(self):
            v = getattr(self, f.name)
            want, what, store = _FIELD_TYPES[f.type]
            # a bool is an Integral and a Real to Python, but no number here
            if not isinstance(v, want) or (want is not bool and isinstance(v, bool)):
                raise ValueError(f"{f.name} must be {what}, got {v!r}")
            try:
                object.__setattr__(self, f.name, store(v))
            except OverflowError:  # an int too large for a float
                raise ValueError(f"{f.name} must be finite, got an integer of {v.bit_length()} "
                                 "bits") from None
        for name in ("alpha", "sigma_B2", "sigma_y2", "sigma_u2", "sigma_theta2", "beta1",
                     "beta2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LatentState:
    """Mutable sampler state.

    Z is N x K (column 0 is the always-on bias column when enabled), Y is
    N x S with S = sum of per-attribute pseudo-observation widths, B is K x S.
    P, P_inv, lam, and col_sums are maintained incrementally; call
    recompute_natural() after editing Z or Y wholesale. Sweeps keep Z, B and
    these four as views at the front of the flat buffers in `room`.
    """

    specs: tuple[AttributeSpec, ...]
    hp: Hyperparams
    Z: np.ndarray
    Y: np.ndarray
    B: np.ndarray
    theta: dict[int, np.ndarray]
    sigma2: np.ndarray
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
        self.room: dict[str, np.ndarray] = {}
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
        """Rebuild P, lam, P_inv, and column counts exactly from Z and Y.
        Raises ValueError when sigma_B2 is too large for P to be positive
        definite in floating point."""
        K = self.K
        if self.N + 1.0 / self.hp.sigma_B2 == self.N:
            raise _sigma_B2_too_large(self.hp, self.N)
        self.P = self.Z.T @ self.Z + np.eye(K) / self.hp.sigma_B2
        self.lam = self.Z.T @ self.Y
        self.col_sums = self.Z.sum(axis=0)
        try:
            self.P_inv = _chol_inverse(self.P)
        except np.linalg.LinAlgError:
            raise _sigma_B2_too_large(self.hp, self.N) from None

    def copy(self) -> "LatentState":
        """A copy with its own arrays and no room, sharing the observation caches."""
        arrays = {name: getattr(self, name)
                  for name in ("Z", "Y", "B", "sigma2", "P", "P_inv", "lam", "col_sums")}
        return replace(self, theta={d: th.copy() for d, th in self.theta.items()},
                       **{name: None if a is None else a.copy() for name, a in arrays.items()})


@dataclass
class ChainResult:
    """Final state, per-iteration trace, and the last snapshots of a chain."""

    state: LatentState
    trace: list[dict]
    saved: list[LatentState]


def _sigma_B2_too_large(hp: Hyperparams, N: int) -> ValueError:
    """The error of a P = Z^T Z + I/sigma_B2 that is not positive definite in
    floating point, which happens only when 1/sigma_B2 is lost to rounding
    against the feature counts on its diagonal."""
    return ValueError(
        f"sigma_B2 = {hp.sigma_B2:g} is too large for {N} rows: 1/sigma_B2 = "
        f"{1.0 / hp.sigma_B2:g} is lost to rounding against the feature counts in "
        "P = Z^T Z + I/sigma_B2, which is then singular where feature columns repeat; "
        "lower sigma_B2 (--sigma-b2)")


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
            obs_lo[obs, d] = map_inverse(x[obs], spec, kind)
            block[obs, 0] = obs_lo[obs, d]
        elif kind is AttributeKind.COUNT:
            obs_lo[obs, d] = map_inverse(x[obs], spec, kind)
            obs_hi[obs, d] = map_inverse(x[obs] + 1.0, spec, kind)
            # near 2**53, x + 1 rounds to x, and the division by w can merge
            # the two ends of the interval below that
            empty = np.flatnonzero(obs & ~(obs_lo[:, d] < obs_hi[:, d]))
            if empty.size:
                n = int(empty[0])
                raise ValueError(f"{spec.name} row {n + 2}: count {x[n]:.0f} is too large to "
                                 "tell from the next count on the pseudo-observation scale")
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


def _k_shapes(N: int, K: int, S: int) -> dict[str, tuple[int, ...]]:
    """The shapes at K columns of the arrays the kernel resizes in place."""
    return {"Z": (N, K), "B": (K, S), "P": (K, K), "P_inv": (K, K), "lam": (K, S),
            "col_sums": (K,)}


def _bind(state: LatentState, data: DataMatrix | None) -> _kernel.State:
    """The kernel's view of the state and, when given, of the data: pointers
    to the arrays it reads and writes in place. Shapes are checked here, and
    arrays the kernel writes are made C-contiguous float64 on the state."""
    N, K, S, D = state.N, state.K, state.S, len(state.specs)
    shapes = {**_k_shapes(N, K, S), "Y": (N, S), "sigma2": (D,)}
    for name, shape in shapes.items():
        a = getattr(state, name)
        if a.shape != shape:
            raise ValueError(f"state.{name} has shape {a.shape}, expected {shape}; "
                             "call recompute_natural() after editing Z or Y")
        if a.dtype != np.float64 or not (a.flags.c_contiguous and a.flags.writeable):
            setattr(state, name, np.array(a, dtype=float, order="C"))
    # the room is the state's while Z, B, P, P_inv, lam and col_sums are all
    # its views; once one is replaced, the kernel gets no room past K
    room = state.room
    if not room or any(getattr(state, name).base is not buf for name, buf in room.items()):
        room = {name: getattr(state, name).reshape(-1) for name in _k_shapes(N, K, S)}
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
        N=N, K=K, S=S, D=D, nb=state.n_bias, cap=room["col_sums"].size, K_max=hp.K_max,
        sample_variance=hp.sample_variance,
        Z=state.Z.ctypes.data, Y=state.Y.ctypes.data, B=state.B.ctypes.data,
        P=state.P.ctypes.data, P_inv=state.P_inv.ctypes.data, lam=state.lam.ctypes.data,
        col_sums=state.col_sums.ctypes.data, sigma2=state.sigma2.ctypes.data,
        kind=state.kind_codes.ctypes.data,
        offset=state.offsets.ctypes.data, levels=state.levels.ctypes.data,
        theta=ctypes.addressof(theta), alpha=hp.alpha, sigma_B2=hp.sigma_B2,
        sigma_u2=hp.sigma_u2, sigma_theta2=hp.sigma_theta2, beta1=hp.beta1, beta2=hp.beta2,
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
    st.keep, st.room = keep, room  # alive as long as the struct
    return st


def _sweep(rng: RngState | None, state: LatentState, data: DataMatrix | None, steps: int,
           row: int | None = None, dim: int | None = None, sweeps: int = 1,
           record: np.ndarray | None = None, st: _kernel.State | None = None) -> np.ndarray:
    """`sweeps` sweeps in one kernel call, each of the _kernel.STEP_* in
    `steps`, in sweep order: the row loop (Z-row scan, then births when
    alpha > 0), the prune with its P^{-1} rebuild, per attribute the weights,
    pseudo-observations, thresholds and noise variance, then the log joint;
    over row `row` and attribute `dim`, all by default, each indexed as a
    Python sequence is (IndexError when out of range). rng may be None when no
    step draws. Each sweep writes (K+, log joint, sigma2) to its row of
    `record`, a sweeps x (2 + D) float array, when given. The call runs on
    `st`, the state's binding by _bind, bound here when None. Births grow Z,
    B, P, P^{-1}, lam and the counts in the state's room, the prune shrinks
    them in place, and the state keeps views at the live K. A row's births
    that do not fit come back as ERR_ROOM; the room grows to
    min(K_max, max(2 cap, K + k)) columns, `st` moves to it, and the call
    resumes in the same sweep with the births pending. Returns the last
    row's statistics (s, Q)."""
    hp, N, S, D = state.hp, state.N, state.S, len(state.specs)
    r0, r1 = (0, N) if row is None else (range(N)[row], range(N)[row] + 1)
    d_lo, d_hi = (0, D) if dim is None else (range(D)[dim], range(D)[dim] + 1)
    rec = None
    if record is not None:
        if record.dtype != np.float64 or not record.flags.c_contiguous \
                or record.size != sweeps * (2 + D):
            raise ValueError(f"record must be a C-contiguous {sweeps} x {2 + D} float array")
        rec = record.ctypes.data
    if st is None:
        st = _bind(state, data)
    out, pending = np.zeros(5), 0
    while True:
        code = _kernel.call(rng, "glfm_sweep", ctypes.byref(st), steps, r0, r1, d_lo, d_hi,
                            sweeps, pending, out.ctypes.data, rec)
        if st.K != state.K:
            for name, shape in _k_shapes(N, st.K, S).items():
                setattr(state, name, st.room[name][: math.prod(shape)].reshape(shape))
        if code != _kernel.ERR_ROOM:
            break
        pending, done = int(out[3]), int(out[4])
        sweeps -= done
        if rec is not None:
            rec += done * record.itemsize * (2 + D)
        cap = min(hp.K_max, max(2 * st.cap, st.K + pending))
        state.room = {name: np.empty(math.prod(sh)) for name, sh in _k_shapes(N, cap, S).items()}
        for name, buf in state.room.items():
            a = getattr(state, name)
            buf[: a.size] = a.ravel()
            setattr(state, name, buf[: a.size].reshape(a.shape))
            setattr(st, name, buf.ctypes.data)
        st.cap, st.room = cap, state.room
    if code == _kernel.ERR_EMPTY_SUPPORT:
        d, r = map(int, out[:2])
        raise RuntimeError(f"threshold {r} of attribute {state.specs[d].name} has empty support")
    if code == _kernel.ERR_NOT_PD:
        raise _sigma_B2_too_large(hp, N)
    _kernel.check(code)
    return out[:2]


# Python handles Ctrl-C only between kernel calls, so a chain's call runs at
# most this many row steps, or one sweep where a sweep has more rows: about
# 0.3 s at N = 4000 and K = 9, while a short chain on a small table still
# runs every sweep it does not keep in one call
_ROWS_PER_CALL = 2**17


def _sweep_steps(hp: Hyperparams) -> int:
    """The steps of a full Gibbs sweep under hp."""
    steps = (_kernel.STEP_SCAN | _kernel.STEP_BIRTH | _kernel.STEP_PRUNE | _kernel.STEP_WEIGHTS
             | _kernel.STEP_PSEUDO | _kernel.STEP_THRESHOLDS)
    return steps | _kernel.STEP_NOISE if hp.sample_variance else steps


def run_chain(data: DataMatrix, hp: Hyperparams, keep_last: int = 1) -> ChainResult:
    """Run a full chain on a PCG64 stream seeded from hp.seed: init, then
    hp.iterations sweeps, each traced with its K+, complete-data log joint
    and noise variances.

    The state is bound to the kernel once. The sweeps before the last
    keep_last run in as few kernel calls as _ROWS_PER_CALL allows; each of
    the last keep_last runs in a call of its own and is then snapshotted for
    posterior-averaged prediction. The final state is always available.
    """
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    rng = RngState(hp.seed)
    state = init_state(data, hp, rng)
    steps = _sweep_steps(hp) | _kernel.STEP_LOG_JOINT
    records = np.empty((hp.iterations, 2 + len(state.specs)))
    st = _bind(state, data)
    head = max(hp.iterations - keep_last, 0)
    per_call = max(1, _ROWS_PER_CALL // (state.N or 1))
    for t in range(0, head, per_call):
        end = min(t + per_call, head)
        _sweep(rng, state, data, steps, sweeps=end - t, record=records[t:end], st=st)
    saved: list[LatentState] = []
    for t in range(head, hp.iterations):
        _sweep(rng, state, data, steps, record=records[t], st=st)
        saved.append(state.copy())
    if not saved:
        saved.append(state.copy())
    trace = [{"iteration": t + 1, "K_plus": int(rec[0]), "log_joint": float(rec[1]),
              "sigma2": rec[2:].tolist()} for t, rec in enumerate(records)]
    return ChainResult(state=state, trace=trace, saved=saved)


def complete_data_log_joint(state: LatentState) -> float:
    """Joint log density of (Z, B, Y, theta, sigma^2) at the state, by the
    kernel's log-joint step, which draws nothing: the IBP prior of Z's live
    non-bias columns (at alpha = 0, the prior given K+), B ~ N(0, sigma_d^2
    sigma_B^2) on free columns, Y ~ N(Z B, sigma_d^2), the free ordinal cut
    points ~ N(0, sigma_theta^2) and, when hp.sample_variance,
    sigma_d^2 ~ InvGamma(beta1, beta2)."""
    record = np.empty(2 + len(state.specs))
    _sweep(None, state, None, _kernel.STEP_LOG_JOINT, record=record)
    return float(record[1])


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
