"""Distributional and determinism checks for the seeded variate kit."""

import math

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
