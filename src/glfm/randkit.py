"""Seeded random-variate kit: inverse-gamma and truncated normal draws.

Everything flows from one explicit RngState per chain; there is no ambient
global generator. The doubly truncated normal sampler follows Robert's
accept-reject constructions (normal, uniform, and translated-exponential
proposals picked by regime), vectorized over mismatched truncation regimes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "RngState",
    "inverse_gamma_sample",
    "spawn_seeds",
    "trunc_normal_sample",
]

# One-sided truncation: below this standardized bound plain normal rejection
# beats the translated-exponential proposal (crossover of acceptance rates).
_ONE_SIDED_SWITCH = 0.45


class RngState:
    """Seeded PCG64 generator with serializable state.

    Identical seeds produce identical variate streams. One RngState per chain;
    instances may move between threads but are never shared concurrently.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def get_state(self) -> dict:
        """Snapshot of the generator state (JSON-serializable dict)."""
        return self.gen.bit_generator.state

    def set_state(self, state: dict) -> None:
        self.gen.bit_generator.state = state

    def __repr__(self):
        return f"RngState(seed={self.seed})"


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive n independent 64-bit child seeds from one root seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def inverse_gamma_sample(rng: RngState, shape: float, rate: float) -> float:
    """Draw v > 0 with 1/v ~ Gamma(shape, rate). Mean is rate/(shape-1)."""
    if shape <= 0 or rate <= 0:
        raise ValueError(f"inverse-gamma parameters must be > 0, got {shape}, {rate}")
    g = rng.gen.gamma(shape, 1.0 / rate)
    # gamma draws can underflow to 0 for tiny shapes; keep the output finite
    return 1.0 / max(g, np.finfo(float).tiny)


def trunc_normal_sample(rng, mean, std, lo, hi, size=None):
    """Draw from N(mean, std^2) restricted to (lo, hi].

    mean/std/lo/hi broadcast against each other; lo and hi may be -inf/+inf.
    Returns a scalar when all inputs are scalars and size is None.
    """
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(std <= 0):
        raise ValueError("std must be > 0")
    if np.any(lo >= hi):
        raise ValueError("truncation requires lo < hi")
    scalar = size is None and all(a.ndim == 0 for a in (mean, std, lo, hi))
    shape = np.broadcast_shapes(mean.shape, std.shape, lo.shape, hi.shape)
    if size is not None:
        shape = (size,) if np.isscalar(size) else tuple(size)
    mean, std, lo, hi = (np.broadcast_to(a, shape).ravel() for a in (mean, std, lo, hi))

    a = _standardize_bound(lo, mean, std)
    b = _standardize_bound(hi, mean, std)
    t = _std_trunc(rng, a, b)
    x = mean + std * t

    # float rounding can push a sample just outside (lo, hi]; repair in place
    bad_hi = x > hi
    if np.any(bad_hi):
        x[bad_hi] = hi[bad_hi]
    bad_lo = x <= lo
    if np.any(bad_lo):
        fix = np.where(np.isfinite(hi[bad_lo]), hi[bad_lo], lo[bad_lo] + std[bad_lo])
        x[bad_lo] = fix

    if scalar:
        return float(x[0])
    return x.reshape(shape)


def _standardize_bound(bound, mean, std):
    # (+-inf - mean)/std is fine, but avoid nan from inf means never occurring here
    out = np.empty_like(bound)
    finite = np.isfinite(bound)
    out[finite] = (bound[finite] - mean[finite]) / std[finite]
    out[~finite] = bound[~finite]
    return out


def _std_trunc(rng, a, b):
    """Standard normal truncated to (a, b], vectorized over regimes."""
    n = a.size
    x = np.empty(n)
    done = np.zeros(n, dtype=bool)

    no_lo = np.isinf(a) & (a < 0)
    no_hi = np.isinf(b) & (b > 0)

    free = no_lo & no_hi
    if np.any(free):
        x[free] = rng.gen.standard_normal(int(free.sum()))
        done[free] = True

    # left truncation only: sample (a, inf); right-only mirrors to (-b, inf)
    left = ~done & ~no_lo & no_hi
    right = ~done & no_lo & ~no_hi
    if np.any(left):
        x[left] = _one_sided(rng, a[left])
        done[left] = True
    if np.any(right):
        x[right] = -_one_sided(rng, -b[right])
        done[right] = True

    two = ~done
    if np.any(two):
        x[two] = _two_sided(rng, a[two], b[two])
    return x


def _one_sided(rng, a):
    """Standard normal truncated to (a, inf), a finite."""
    out = np.empty(a.size)
    easy = a <= _ONE_SIDED_SWITCH
    if np.any(easy):
        out[easy] = _normal_reject(rng, a[easy], np.full(int(easy.sum()), np.inf))
    hard = ~easy
    if np.any(hard):
        out[hard] = _exp_reject(rng, a[hard], np.full(int(hard.sum()), np.inf))
    return out


def _two_sided(rng, a, b):
    """Standard normal truncated to (a, b], both finite."""
    # mirror so the interval is centered or right of zero
    flip = np.abs(a) > np.abs(b)
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    out = np.empty(a.size)

    straddle = lo <= 0
    if np.any(straddle):
        sl, sh = lo[straddle], hi[straddle]
        sub = np.empty(sl.size)
        # wide intervals around 0 accept plain normals often enough
        wide = (sh - sl) > math.sqrt(2.0 * math.pi)
        if np.any(wide):
            sub[wide] = _normal_reject(rng, sl[wide], sh[wide])
        if np.any(~wide):
            sub[~wide] = _uniform_reject(rng, sl[~wide], sh[~wide])
        out[straddle] = sub

    tail = ~straddle
    if np.any(tail):
        tl, th = lo[tail], hi[tail]
        sub = np.empty(tl.size)
        lam = 0.5 * (tl + np.sqrt(tl * tl + 4.0))
        # Robert's crossover between uniform and translated-exponential proposals
        cut = tl + 2.0 * math.sqrt(math.e) / (tl + np.sqrt(tl * tl + 4.0)) * np.exp(
            (tl * tl - tl * np.sqrt(tl * tl + 4.0)) / 4.0
        )
        use_exp = th > cut
        if np.any(use_exp):
            sub[use_exp] = _exp_reject(rng, tl[use_exp], th[use_exp])
        if np.any(~use_exp):
            sub[~use_exp] = _uniform_reject(rng, tl[~use_exp], th[~use_exp])
        out[tail] = sub

    return np.where(flip, -out, out)


def _normal_reject(rng, lo, hi):
    """Plain normal proposals until each lands in (lo, hi]."""
    x = np.empty(lo.size)
    todo = np.ones(lo.size, dtype=bool)
    while np.any(todo):
        y = rng.gen.standard_normal(int(todo.sum()))
        ok = (y > lo[todo]) & (y <= hi[todo])
        idx = np.flatnonzero(todo)[ok]
        x[idx] = y[ok]
        todo[idx] = False
    return x


def _uniform_reject(rng, lo, hi):
    """Uniform proposals on (lo, hi] accepted against the normal density."""
    # density max sits at 0 inside the interval, else at the endpoint nearer 0
    m = np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))
    x = np.empty(lo.size)
    todo = np.ones(lo.size, dtype=bool)
    while np.any(todo):
        k = int(todo.sum())
        l, h = lo[todo], hi[todo]
        y = l + (h - l) * rng.gen.uniform(size=k)
        accept = rng.gen.uniform(size=k) <= np.exp((m[todo] ** 2 - y * y) / 2.0)
        idx = np.flatnonzero(todo)[accept]
        x[idx] = y[accept]
        todo[idx] = False
    return x


def _exp_reject(rng, lo, hi):
    """Translated-exponential proposals for (lo, hi], lo > 0 (hi may be inf)."""
    lam = 0.5 * (lo + np.sqrt(lo * lo + 4.0))
    x = np.empty(lo.size)
    todo = np.ones(lo.size, dtype=bool)
    while np.any(todo):
        k = int(todo.sum())
        l = lo[todo]
        y = l + rng.gen.exponential(size=k) / lam[todo]
        accept = (y <= hi[todo]) & (
            rng.gen.uniform(size=k) <= np.exp(-0.5 * (y - lam[todo]) ** 2)
        )
        idx = np.flatnonzero(todo)[accept]
        x[idx] = y[accept]
        todo[idx] = False
    return x
