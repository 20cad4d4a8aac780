"""Distributional and determinism checks for the seeded variate kit."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr
from scipy.stats import kstest, norm

from glfm.randkit import (
    RngState,
    inverse_gamma_sample,
    spawn_seeds,
    trunc_normal_sample,
)

# E[N(0,1) | x > 0] = sqrt(2/pi); Var = 1 - 2/pi
HALF_NORMAL_MEAN = 0.7978845608028654
HALF_NORMAL_VAR = 0.3633802276324186


def std_trunc_cdf(lo, hi):
    """Test-local CDF of N(0,1) on (lo, hi], stable in far tails."""

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), lo, hi)
        if lo > 0:
            # survival form: 1 - Phi(-x)/Phi(-lo), renormalized if hi finite
            num = -np.expm1(log_ndtr(-x) - log_ndtr(-lo))
            den = 1.0 if np.isinf(hi) else -np.expm1(log_ndtr(-hi) - log_ndtr(-lo))
            return np.clip(num / den, 0.0, 1.0)
        den = (1.0 if np.isinf(hi) else ndtr(hi)) - ndtr(lo)
        return np.clip((ndtr(x) - ndtr(lo)) / den, 0.0, 1.0)

    return cdf


def test_same_seed_same_stream():
    a = RngState(123)
    b = RngState(123)
    xa = trunc_normal_sample(a, 0.0, 1.0, -1.0, 2.0, size=50)
    xb = trunc_normal_sample(b, 0.0, 1.0, -1.0, 2.0, size=50)
    np.testing.assert_array_equal(xa, xb)
    assert inverse_gamma_sample(a, 2.0, 1.0) == inverse_gamma_sample(b, 2.0, 1.0)


def test_state_roundtrip_resumes_stream():
    rng = RngState(7)
    trunc_normal_sample(rng, 0.0, 1.0, 0.0, np.inf, size=10)
    snap = rng.get_state()
    x1 = trunc_normal_sample(rng, 0.0, 1.0, 0.0, np.inf, size=10)
    rng.set_state(snap)
    x2 = trunc_normal_sample(rng, 0.0, 1.0, 0.0, np.inf, size=10)
    np.testing.assert_array_equal(x1, x2)


def test_spawn_seeds_deterministic_and_distinct():
    s1 = spawn_seeds(99, 8)
    s2 = spawn_seeds(99, 8)
    assert s1 == s2
    assert len(set(s1)) == 8
    assert spawn_seeds(100, 8) != s1


def test_inverse_gamma_validation_and_mean():
    rng = RngState(5)
    with pytest.raises(ValueError):
        inverse_gamma_sample(rng, 0.0, 1.0)
    with pytest.raises(ValueError):
        inverse_gamma_sample(rng, 1.0, -2.0)
    # mean = rate / (shape - 1) for shape > 1
    draws = np.array([inverse_gamma_sample(rng, 3.0, 2.0) for _ in range(200000)])
    assert np.all(draws > 0)
    assert abs(draws.mean() - 1.0) < 0.02


def test_trunc_normal_scalar_and_shapes():
    rng = RngState(11)
    x = trunc_normal_sample(rng, 0.0, 1.0, -1.0, 1.0)
    assert isinstance(x, float)
    arr = trunc_normal_sample(rng, np.zeros(6), 1.0, -1.0, np.full(6, 2.0))
    assert arr.shape == (6,)
    sized = trunc_normal_sample(rng, 0.0, 1.0, -1.0, 1.0, size=17)
    assert sized.shape == (17,)
    grid = trunc_normal_sample(rng, np.zeros((3, 4)), 1.0, 0.0, np.inf)
    assert grid.shape == (3, 4)


def test_trunc_normal_validation():
    rng = RngState(2)
    with pytest.raises(ValueError):
        trunc_normal_sample(rng, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        trunc_normal_sample(rng, 0.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        trunc_normal_sample(rng, 0.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        trunc_normal_sample(rng, 0.0, 1.0, 3.0, -3.0)
    with pytest.raises(ValueError):
        trunc_normal_sample(rng, 0.0, np.nan, 0.0, 1.0)


def test_failed_call_draws_nothing():
    # every entry is checked before any draw, so an error leaves the
    # generator where it was
    rng = RngState(3)
    before = rng.get_state()
    with pytest.raises(ValueError):
        trunc_normal_sample(rng, 0.0, 1.0, [0.0, 0.0, 2.0], [1.0, 1.0, 2.0])
    assert rng.get_state() == before


def test_half_normal_moments():
    rng = RngState(31)
    x = trunc_normal_sample(rng, 0.0, 1.0, 0.0, np.inf, size=400000)
    assert np.all(x > 0)
    assert abs(x.mean() - HALF_NORMAL_MEAN) < 4e-3
    assert abs(x.var() - HALF_NORMAL_VAR) < 5e-3


def test_far_tail_regime():
    rng = RngState(41)
    x = trunc_normal_sample(rng, 0.0, 1.0, 8.0, np.inf, size=50000)
    assert np.all(np.isfinite(x))
    assert np.all(x > 8.0)
    # E[X | X > a] = phi(a) / Phi(-a)
    expected = norm.pdf(8.0) / norm.sf(8.0)
    assert abs(x.mean() - expected) < 3e-3


def test_location_scale():
    rng = RngState(53)
    x = trunc_normal_sample(rng, 3.0, 2.0, 3.0, np.inf, size=200000)
    assert np.all(x > 3.0)
    z = (x - 3.0) / 2.0
    assert abs(z.mean() - HALF_NORMAL_MEAN) < 6e-3


@pytest.mark.parametrize(
    "lo,hi",
    [
        (-0.5, 0.3),  # narrow straddle: uniform proposals
        (-3.0, 4.0),  # wide straddle: normal proposals
        (3.0, 3.2),  # off-center tail slice
        (2.0, 5.0),  # tail slice past the crossover: exponential proposals
        (-5.0, -2.0),  # two-sided interval left of zero (mirrored)
        (0.2, np.inf),  # one-sided below the proposal switch
        (1.7, np.inf),  # one-sided above the proposal switch
        (-np.inf, -1.2),  # right truncation (mirrored)
    ],
)
def test_ks_against_analytic_cdf(lo, hi):
    rng = RngState(abs(hash((lo, hi))) % (2**32))
    x = trunc_normal_sample(rng, 0.0, 1.0, lo, hi, size=120000)
    assert np.all(x > lo)
    assert np.all(x <= hi)
    result = kstest(x, std_trunc_cdf(lo, hi))
    assert result.pvalue > 1e-3, f"KS p={result.pvalue} on ({lo}, {hi}]"


def test_mixed_regimes_in_one_call():
    rng = RngState(67)
    lo = np.array([-np.inf, -1.0, 0.0, 5.0, -2.0])
    hi = np.array([0.0, 1.0, np.inf, 6.0, np.inf])
    x = trunc_normal_sample(rng, 0.0, 1.0, lo, hi, size=None)
    # broadcasting over the bound arrays, one draw per regime
    assert x.shape == (5,)
    assert np.all(x > lo)
    assert np.all(x <= hi)


def test_huge_standardized_bounds_return():
    # at standardized bounds this large a naive formula overflows (lo * lo in
    # the exponential rate, inf - inf in the uniform test, or the
    # standardization itself) and the loop never accepts; so does a uniform
    # proposal that does not peak at hi when equal bounds lie far below 0.
    # A child process turns such a hang into a failure
    script = textwrap.dedent("""
        import numpy as np
        from glfm.randkit import RngState, trunc_normal_sample
        inf = np.inf
        for mean, std, lo, hi in [(0, 1, 1e160, inf), (0, 1, 1e160, 2e160),
                                  (0, 1, -inf, -1e300), (0, 1, 1e308, inf),
                                  (0, 1, -inf, -1e308), (0, 1e-310, 1, inf),
                                  (-1e308, 2, 1e308, inf), (1e308, 1, -inf, -1e308),
                                  (100, 2.5, 0, 5e-324)]:
            x = trunc_normal_sample(RngState(1), mean, std, lo, hi, size=3)
            assert np.all(np.isfinite(x)) and np.all(x > lo) and np.all(x <= hi), (lo, hi, x)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_nan_mean_and_infinite_std_raise_before_drawing():
    # a NaN mean never lets the accept-reject loop accept, and an infinite
    # std returns NaN; both are refused before any draw. A child process
    # turns a hang into a failure
    script = textwrap.dedent("""
        import numpy as np
        from glfm.randkit import RngState, trunc_normal_sample
        for mean, std in [(np.nan, 1.0), (0.0, np.inf), ([0.0, np.nan], 1.0)]:
            rng = RngState(1)
            before = rng.get_state()
            try:
                x = trunc_normal_sample(rng, mean, std, 0.0, 1.0)
            except ValueError:
                assert rng.get_state() == before, (mean, std)
            else:
                raise AssertionError(f"{mean}, {std} gave {x}")
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=60, deadline=None)
@given(
    mean=st.floats(-20, 20),
    std=st.floats(0.01, 50),
    lo=st.floats(-30, 29),
    width=st.floats(0.05, 60),
    seed=st.integers(0, 2**31 - 1),
)
def test_bounds_always_respected(mean, std, lo, width, seed):
    rng = RngState(seed)
    hi = lo + width
    x = trunc_normal_sample(rng, mean, std, mean + lo * std, mean + hi * std, size=257)
    assert np.all(x > mean + lo * std)
    assert np.all(x <= mean + hi * std)
    assert np.all(np.isfinite(x))


# --- numpy reference: the sampler one draw at a time ------------------------


def ref_trunc_normal_sample(rng, mean, std, lo, hi):
    """Truncated normal draws over 1-d arrays of equal length, in index order."""
    return np.array([ref_trunc_normal(rng, *entry) for entry in zip(mean, std, lo, hi)])


def ref_trunc_normal(rng, mean, std, lo, hi):
    a = (lo - mean) / std if math.isfinite(lo) else lo
    b = (hi - mean) / std if math.isfinite(hi) else hi
    if a == math.inf:
        x = lo
    elif b == -math.inf:
        x = hi
    else:
        x = mean + std * ref_std_trunc(rng, a, b)
    # float rounding can push a sample just outside (lo, hi]
    x = min(x, hi)
    return math.nextafter(lo, math.inf) if x <= lo else x


def ref_std_trunc(rng, a, b):
    """Standard normal truncated to (a, b]: Robert's proposal for the regime,
    on the interval mirrored so that lo is the bound nearer 0."""
    flip = abs(a) > abs(b)
    lo, hi = (-b, -a) if flip else (a, b)
    # np.hypot, not math.hypot: it calls the C library's hypot, as the kernel does
    lam = 0.5 * lo + 0.5 * float(np.hypot(lo, 2.0)) if lo > 0 else 0.0
    if lo <= 0:
        proposal = "normal" if hi - lo > math.sqrt(2.0 * math.pi) else "uniform"
    elif math.isinf(hi):
        proposal = "normal" if lo <= 0.45 else "exponential"
    else:
        cut = lo + math.sqrt(math.e) / lam * math.exp(-0.5 * lo / lam)
        proposal = "exponential" if hi > cut else "uniform"
    while True:
        if proposal == "normal":
            y = rng.gen.standard_normal()
            if lo < y <= hi:
                break
        elif proposal == "uniform":
            m = lo if lo > 0 else (hi if hi < 0 else 0.0)
            y = lo + (hi - lo) * rng.gen.random()
            if rng.gen.random() <= math.exp((m - y) * (m + y) / 2.0):
                break
        else:
            y = lo + rng.gen.exponential() / lam
            dy, u = y - lam, rng.gen.random()
            if y <= hi and u <= math.exp(-0.5 * (dy * dy)):
                break
    return -y if flip else y


# one entry per draw: standardized bounds drawn per regime (both sides free,
# left or right truncation only, a two-sided interval), then a location-scale
REGIME = st.sampled_from(["free", "left", "right", "two"])
ENTRY = st.tuples(
    REGIME, st.floats(-6.0, 6.0), st.floats(0.01, 8.0), st.floats(-10, 10), st.floats(0.1, 5)
)


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(ENTRY, min_size=1, max_size=40), calls=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_trunc_normal_matches_numpy_reference(entries, calls, seed):
    # the kernel draws entry by entry as the reference does, so the same
    # stream gives the same draws and leaves the generator in the same state
    # after every call
    regime, a, width, mean, std = (np.array(col) for col in zip(*entries))
    lo = np.where(np.isin(regime, ["left", "two"]), mean + std * a, -np.inf)
    hi = np.where(np.isin(regime, ["right", "two"]), mean + std * (a + width), np.inf)
    rng, ref = RngState(seed), RngState(seed)
    for _ in range(calls):
        x = trunc_normal_sample(rng, mean, std, lo, hi)
        expected = ref_trunc_normal_sample(ref, mean, std, lo, hi)
        np.testing.assert_array_equal(x, expected)
        assert rng.get_state() == ref.get_state()
