"""Plain numpy references that the tests check the sampler kernel against.

`log_joint` is the complete-data log joint that `glfm.engine` computes in
the kernel's log-joint step, written term by term over whole arrays.
`collapsed_flip_logodds` is the log-odds of one Z entry with the weights
collapsed out, which the kernel's row scan draws each flip from, computed
from scratch with an exact inverse.
"""

import math

import numpy as np

from glfm.engine import _chol_inverse

LOG_2PI = math.log(2.0 * math.pi)


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


def log_joint(state) -> float:
    """Joint log density of (Z, B, Y, theta, sigma^2) at a LatentState."""
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


def collapsed_flip_logodds(state, n: int, k: int) -> float:
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
