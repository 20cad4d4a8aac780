"""Per-type mapping functions and observation likelihoods.

Each attribute observation x is a deterministic transform of a Gaussian
pseudo-observation y whose mean is the latent linear predictor m = z_n B^d:
identity/affine (real), softplus (positive real), floor-of-softplus (count),
threshold partition (ordinal), argmax over per-category pseudo-observations
(categorical). This module evaluates the transforms, their inverses, and the
induced probability of x given m.

All operations are pure functions; `params` is the attribute's spec, whose
scale `w` and shift `mu` set the affine step of the map. The normal
CDF Phi and log Phi that score ordinal and count observations, and the
categorical quadrature, run in the compiled kernel (glfm._kernel) over arrays.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from glfm import _kernel
from glfm.data import AttributeKind

__all__ = [
    "log_ndtr",
    "log_phi_interval",
    "log_prob_count",
    "log_prob_ordinal",
    "loglik_continuous",
    "map_forward",
    "map_inverse",
    "ndtr",
    "prob_categorical",
    "softplus",
    "softplus_inv",
]

_LOG_2PI = math.log(2.0 * math.pi)
# Gauss-Hermite nodes of prob_categorical's quadrature
_GH_NODES = 32


def _elementwise(name: str, x):
    x = np.asarray(x, dtype=float, order="C")
    out = np.empty_like(x)
    getattr(_kernel.load(), name)(x.size, x.ctypes.data, out.ctypes.data)
    return out[()]


def ndtr(x):
    """The standard normal CDF Phi(x), elementwise."""
    return _elementwise("glfm_ndtr", x)


def log_ndtr(x):
    """log Phi(x), elementwise; finite far into the lower tail, where Phi(x)
    underflows."""
    return _elementwise("glfm_log_ndtr", x)


def softplus(t):
    """log(exp(t) + 1), overflow-safe."""
    return np.logaddexp(0.0, t)


def softplus_inv(x):
    """log(exp(x) - 1) for x >= 0; x = 0 maps to -inf. Accurate in both tails."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        small = np.log(np.expm1(np.minimum(x, 30.0)))
    large = x + np.log1p(-np.exp(-np.maximum(x, 1.0)))
    out = np.where(x > 30.0, large, small)
    if out.ndim == 0:
        return float(out)
    return out


def map_forward(y, params, kind: AttributeKind, theta=None):
    """Transform a pseudo-observation y into the observation space of `kind`.

    Real -> w*y + mu; PositiveReal -> softplus(w*y + mu); Count -> floor of the
    PositiveReal map; Ordinal -> smallest r with y <= theta_r (theta_0 = -inf,
    theta_{R_d} = +inf). Categorical is an argmax over R_d pseudo-observations
    and is not a scalar map (see tasks._map_values).
    """
    if kind is AttributeKind.REAL:
        return params.w * y + params.mu
    if kind is AttributeKind.POSITIVE_REAL:
        return softplus(params.w * y + params.mu)
    if kind is AttributeKind.COUNT:
        return np.floor(softplus(params.w * y + params.mu))
    if kind is AttributeKind.ORDINAL:
        if theta is None:
            raise ValueError("ordinal map requires theta")
        theta = np.asarray(theta, dtype=float)
        # r - 1 thresholds lie strictly below y exactly when y falls in
        # (theta_{r-1}, theta_r]
        r = np.searchsorted(theta, y, side="left") + 1
        return int(r) if np.ndim(y) == 0 else r
    raise ValueError(f"map_forward does not handle {kind}")


def map_inverse(x, params, kind: AttributeKind):
    """Inverse transform back to the pseudo-observation scale.

    Count x returns the lower edge of its pre-image interval; x = 0 gives -inf,
    which downstream treats as an unbounded truncation limit.
    """
    if kind is AttributeKind.REAL:
        return (x - params.mu) / params.w
    if kind is AttributeKind.POSITIVE_REAL:
        if np.any(np.asarray(x) <= 0):
            raise ValueError("positive-real values must be > 0")
        return (softplus_inv(x) - params.mu) / params.w
    if kind is AttributeKind.COUNT:
        if np.any(np.asarray(x) < 0):
            raise ValueError("count values must be >= 0")
        return (softplus_inv(x) - params.mu) / params.w
    raise ValueError(f"map_inverse does not handle {kind}")


def loglik_continuous(x, m, total_var, params, kind: AttributeKind):
    """Log density of a Real/PositiveReal observation x at linear predictor m.

    log N(f^{-1}(x) | m, total_var) + log |d f^{-1}/dx| with total_var the sum
    of pseudo-observation and observation-noise variances. x and m broadcast.
    """
    if total_var <= 0:
        raise ValueError("total_var must be > 0")
    y = map_inverse(x, params, kind)
    base = -0.5 * (_LOG_2PI + np.log(total_var) + (y - m) ** 2 / total_var)
    if kind is AttributeKind.REAL:
        return base - math.log(params.w)
    # d/dx of softplus_inv is e^x / (e^x - 1) = 1 / (1 - e^{-x}); expm1 keeps
    # 1 - e^{-x} nonzero for x below the float spacing at 1
    return base - math.log(params.w) - np.log(-np.expm1(-x))


def log_phi_interval(a, b):
    """log(Phi(b) - Phi(a)) for a < b, stable in both tails; a, b may be +-inf."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scalar = a.ndim == 0 and b.ndim == 0
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    a, b = np.broadcast_arrays(a, b)

    # pick the side whose CDF values stay away from 1 so the difference survives
    left = (a + np.where(np.isfinite(b), b, 0.0)) < 0
    la = np.where(np.isfinite(a), a, -1.0)
    lb = np.where(np.isfinite(b), b, 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        hi = log_ndtr(np.where(left, lb, -la))
        lo = log_ndtr(np.where(left, la, -lb))
        out = hi + np.log1p(-np.minimum(np.exp(lo - hi), 1.0))

    # infinite endpoints collapse to single CDF evaluations
    lo_inf = np.isinf(a) & (a < 0)
    hi_inf = np.isinf(b) & (b > 0)
    out[lo_inf & ~hi_inf] = log_ndtr(b[lo_inf & ~hi_inf])
    out[~lo_inf & hi_inf] = log_ndtr(-a[~lo_inf & hi_inf])
    out[lo_inf & hi_inf] = 0.0

    if scalar:
        return float(out[0])
    return out


@cache
def _gh_rule() -> tuple[np.ndarray, np.ndarray]:
    return hermgauss(_GH_NODES)


def prob_categorical(r, z, B, sigma_y: float):
    """Probability that the argmax of the R_d pseudo-observations is category r.

    With y_j ~ N(z b_j, sigma_y^2) independent, P(y_r is the max) equals
    E over u ~ N(0, sigma_y^2) of prod_{j != r} Phi((u + z(b_r - b_j))/sigma_y),
    computed by Gauss-Hermite quadrature on _GH_NODES nodes. The last weight
    column is expected to be zero (identifiability).

    Batched over rows: with z an (n, K) matrix of feature rows and r an
    (n, J) array, or a length-J sequence shared by every row, entry [i, j] is
    the probability of category r[i, j] for row i. A scalar r and a vector z
    give a float. Rows whose predictors z B and categories repeat are scored
    once: the distinct ones go to the kernel in one call
    (glfm_prob_categorical), and equal inputs give equal outputs.
    """
    B = np.asarray(B, dtype=float)
    R = B.shape[1]
    r = np.asarray(r, dtype=np.intp)
    if np.any((r < 1) | (r > R)):
        raise ValueError(f"category index out of range 1..{R}")
    if not sigma_y > 0:
        raise ValueError("sigma_y must be > 0")
    m = np.asarray(z, dtype=float) @ B
    scalar = r.ndim == 0 and m.ndim == 1
    m = np.atleast_2d(m)
    r = np.atleast_2d(r)
    n, J = m.shape[0], r.shape[1]
    # rows of 8-byte words, predictors then 0-based categories: equal bytes give
    # equal probabilities, so each distinct row is scored once, at slot[bytes]
    rows = np.hstack([m, np.broadcast_to(r - 1, (n, J)).view(float)])
    keys = rows.view(f"V{rows.itemsize * (R + J)}").ravel().tolist()
    slot = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    distinct = np.frombuffer(b"".join(slot), dtype=float).reshape(len(slot), R + J)
    m_u = np.ascontiguousarray(distinct[:, :R])
    r_u = np.ascontiguousarray(distinct[:, R:]).view(np.int64)
    nodes, weights = _gh_rule()
    u = math.sqrt(2.0) * sigma_y * nodes
    w = weights / math.sqrt(math.pi)
    out = np.empty((len(slot), J))
    _kernel.load().glfm_prob_categorical(
        len(slot), J, R, m_u.ctypes.data, r_u.ctypes.data, sigma_y, _GH_NODES, u.ctypes.data,
        w.ctypes.data, out.ctypes.data)
    out = out[np.fromiter(map(slot.__getitem__, keys), dtype=np.intp, count=n)]
    return float(out[0, 0]) if scalar else out


def log_prob_ordinal(r, m, theta, sigma_y: float):
    """log[Phi((theta_r - m)/sigma) - Phi((theta_{r-1} - m)/sigma)], theta_0 = -inf
    and theta_R = +inf; level r and linear predictor m broadcast."""
    theta = np.asarray(theta, dtype=float)
    R = theta.size + 1
    r = np.asarray(r, dtype=np.intp)
    if np.any((r < 1) | (r > R)):
        raise ValueError(f"ordinal index out of range 1..{R}")
    edges = np.concatenate(([-np.inf], theta, [np.inf]))
    return log_phi_interval((edges[r - 1] - m) / sigma_y, (edges[r] - m) / sigma_y)


def log_prob_count(x, m, params, sigma_y: float):
    """log[Phi((f^{-1}(x+1) - m)/sigma) - Phi((f^{-1}(x) - m)/sigma)], x >= 0;
    count x and linear predictor m broadcast."""
    x = np.asarray(x)
    if np.any(x < 0):
        raise ValueError("count observations are >= 0")
    lo = map_inverse(x, params, AttributeKind.COUNT)
    hi = map_inverse(x + 1, params, AttributeKind.COUNT)
    return log_phi_interval((lo - m) / sigma_y, (hi - m) / sigma_y)
