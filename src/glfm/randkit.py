"""Seeded random-variate kit: inverse-gamma and truncated normal draws.

Everything flows from one explicit RngState per chain; there is no ambient
global generator. The draws run in the compiled kernel (glfm._kernel) on
the generator's own bit stream. The truncated normal sampler follows
Robert's accept-reject constructions (normal, uniform, and translated-
exponential proposals picked by regime), one draw at a time: an array of
draws equals the same draws made one by one in index order.
"""

from __future__ import annotations

import numpy as np

from glfm import _kernel

__all__ = [
    "RngState",
    "inverse_gamma_sample",
    "spawn_seeds",
    "trunc_normal_sample",
]


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


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive n independent 64-bit child seeds from one root seed."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def inverse_gamma_sample(rng: RngState, shape: float, rate: float) -> float:
    """Draw v > 0 with 1/v ~ Gamma(shape, rate). Mean is rate/(shape-1)."""
    if shape <= 0 or rate <= 0:
        raise ValueError(f"inverse-gamma parameters must be > 0, got {shape}, {rate}")
    return _kernel.call(rng, "glfm_inverse_gamma", float(shape), float(rate))


def trunc_normal_sample(rng, mean, std, lo, hi, size=None):
    """Draw from N(mean, std^2) restricted to (lo, hi].

    mean/std/lo/hi broadcast against each other; lo and hi may be -inf/+inf.
    Returns a scalar when all inputs are scalars and size is None. A NaN
    mean, a std that is not finite and > 0, or lo >= hi raises ValueError
    before any draw, leaving rng as it was.
    """
    args = [np.asarray(a, dtype=float) for a in (mean, std, lo, hi)]
    scalar = size is None and all(a.ndim == 0 for a in args)
    shape = np.broadcast_shapes(*(a.shape for a in args))
    if size is not None:
        shape = (size,) if np.isscalar(size) else tuple(size)
    flat = [np.ascontiguousarray(np.broadcast_to(a, shape).ravel()) for a in args]
    out = np.empty(flat[0].size)
    _kernel.check(_kernel.call(
        rng, "glfm_trunc_normal", out.size, *(a.ctypes.data for a in flat), out.ctypes.data
    ))
    if scalar:
        return float(out[0])
    return out.reshape(shape)
