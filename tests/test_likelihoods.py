"""Mapping functions and per-type observation probabilities.

Closed-form oracle values are frozen from independent evaluation:
  Phi(1/sqrt(2))       = 0.7602499389065233   (two-category argmax, unit gap)
  Phi(1.5) - Phi(0)    = 0.4331927987311419   (middle ordinal band)
  Phi(log(e - 1))      = 0.7058581539951883   (count mass at 0 for m = 0)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy import special
from scipy.special import ndtr
from scipy.stats import norm

from glfm import _kernel, likelihoods
from glfm.data import AttributeKind, AttributeSpec
from glfm.likelihoods import (
    log_phi_interval,
    log_prob_count,
    log_prob_ordinal,
    loglik_continuous,
    map_forward,
    map_inverse,
    prob_categorical,
    softplus,
    softplus_inv,
)

IDENT = AttributeSpec("x", AttributeKind.REAL)


def test_softplus_known_values():
    assert softplus(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    # softplus(t) ~ t for large t, ~ e^t for very negative t
    assert softplus(800.0) == pytest.approx(800.0)
    assert softplus(-40.0) == pytest.approx(math.exp(-40.0), rel=1e-12)


def test_softplus_inv_known_values():
    assert softplus_inv(math.log(2.0)) == pytest.approx(0.0, abs=1e-15)
    assert softplus_inv(0.0) == -np.inf
    # in the linear regime the inverse is essentially the identity
    assert softplus_inv(1e8) == pytest.approx(1e8)


@settings(max_examples=200, deadline=None)
@given(st.floats(-60, 60))
def test_softplus_roundtrip(y):
    assert softplus_inv(softplus(y)) == pytest.approx(y, abs=1e-9)


def test_map_forward_real_and_positive():
    p = AttributeSpec("x", AttributeKind.REAL, w=2.0, mu=-1.0)
    assert map_forward(1.0, p, AttributeKind.REAL) == pytest.approx(1.0)
    assert map_forward(0.0, IDENT, AttributeKind.POSITIVE_REAL) == pytest.approx(
        math.log(2.0)
    )


def test_map_forward_count_floor():
    # floor(log(e^3 + 1)) = 3
    assert map_forward(3.0, IDENT, AttributeKind.COUNT) == 3.0
    assert map_forward(-5.0, IDENT, AttributeKind.COUNT) == 0.0


def test_map_forward_ordinal_intervals():
    theta = [0.0, 1.5]
    # y falls in (theta_{r-1}, theta_r]; the boundary belongs to the lower band
    assert map_forward(-0.3, None, AttributeKind.ORDINAL, theta=theta) == 1
    assert map_forward(0.0, None, AttributeKind.ORDINAL, theta=theta) == 1
    assert map_forward(0.4, None, AttributeKind.ORDINAL, theta=theta) == 2
    assert map_forward(1.5, None, AttributeKind.ORDINAL, theta=theta) == 2
    assert map_forward(9.0, None, AttributeKind.ORDINAL, theta=theta) == 3
    with pytest.raises(ValueError):
        map_forward(0.0, None, AttributeKind.ORDINAL)


def test_map_inverse_domains():
    with pytest.raises(ValueError):
        map_inverse(0.0, IDENT, AttributeKind.POSITIVE_REAL)
    with pytest.raises(ValueError):
        map_inverse(-1.0, IDENT, AttributeKind.COUNT)
    assert map_inverse(0.0, IDENT, AttributeKind.COUNT) == -np.inf
    with pytest.raises(ValueError):
        map_inverse(2, IDENT, AttributeKind.ORDINAL)


@settings(max_examples=200, deadline=None)
@given(
    y=st.floats(-30, 30),
    w=st.floats(0.1, 10),
    mu=st.floats(-5, 5),
    positive=st.booleans(),
)
def test_map_roundtrip_continuous(y, w, mu, positive):
    p = AttributeSpec("x", AttributeKind.REAL, w=w, mu=mu)
    kind = AttributeKind.POSITIVE_REAL if positive else AttributeKind.REAL
    x = map_forward(y, p, kind)
    if positive and x <= 0:  # softplus underflow for very negative inputs
        return
    assert map_inverse(x, p, kind) == pytest.approx(y, abs=1e-6)


def test_prob_categorical_two_category_oracle():
    # z b_1 = 1, b_2 = 0, sigma_y = 1: P(cat 1) = E[Phi(u + 1)] = Phi(1/sqrt(2))
    B = np.array([[1.0, 0.0]])
    z = np.array([1.0])
    p = prob_categorical(1, z, B, sigma_y=1.0)
    assert p == pytest.approx(0.7602499389065233, abs=1e-9)
    assert prob_categorical(2, z, B, sigma_y=1.0) == pytest.approx(1.0 - p, abs=1e-9)


def test_prob_categorical_closed_form_any_sigma():
    # two categories, gap m, noise sigma: P = Phi(m / (sqrt(2) * sigma))
    for m, sigma in [(1.0, 1.0), (0.4, 0.7), (-1.2, 2.5), (2.0, 0.3)]:
        B = np.array([[m, 0.0]])
        p = prob_categorical(1, np.array([1.0]), B, sigma_y=sigma)
        assert p == pytest.approx(ndtr(m / (math.sqrt(2.0) * sigma)), abs=1e-9)


def test_prob_categorical_symmetry_and_normalization():
    rng = np.random.default_rng(3)
    for R in (2, 3, 5):
        for sigma in (1.0, 0.6):
            B = rng.normal(size=(2, R))
            B[:, -1] = 0.0
            z = np.array([1.0, 1.0])
            probs = [prob_categorical(r, z, B, sigma_y=sigma) for r in range(1, R + 1)]
            assert sum(probs) == pytest.approx(1.0, abs=1e-8)
            assert all(p > 0 for p in probs)
    # equal means: uniform over categories
    B0 = np.zeros((1, 4))
    for r in range(1, 5):
        assert prob_categorical(r, np.array([1.0]), B0, 1.0) == pytest.approx(
            0.25, abs=1e-9
        )


def test_prob_categorical_validation():
    B = np.zeros((1, 3))
    z = np.array([1.0])
    with pytest.raises(ValueError):
        prob_categorical(0, z, B, 1.0)
    with pytest.raises(ValueError):
        prob_categorical(4, z, B, 1.0)
    with pytest.raises(ValueError):
        prob_categorical(1, z, B, 0.0)


def reference_prob_categorical(r, z, B, sigma_y):
    """The categorical quadrature as whole-array numpy: every (node, row,
    value, rival) argument at once, the product over rivals in increasing
    order and the node sum written out in node order. numpy sums a block of
    one cell pairwise, so the sum is not left to `sum(axis=0)`."""
    m = np.asarray(z, dtype=float) @ np.asarray(B, dtype=float)
    m = np.atleast_2d(m)
    R = m.shape[1]
    r = np.broadcast_to(np.atleast_2d(r), (m.shape[0], np.atleast_2d(r).shape[1])) - 1
    others = np.array([[j for j in range(R) if j != q] for q in range(R)], dtype=np.intp)
    nodes, weights = hermgauss(32)
    u = (math.sqrt(2.0) * sigma_y * nodes)[:, None, None, None]
    w = weights / math.sqrt(math.pi)
    own = np.take_along_axis(m, r, axis=1)
    rest = m[np.arange(m.shape[0])[:, None, None], others[r]]
    vals = np.prod(likelihoods.ndtr((u + (own[..., None] - rest)) / sigma_y), axis=-1)
    out = w[0] * vals[0]
    for q in range(1, len(w)):
        out = out + w[q] * vals[q]
    return out


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    R=st.integers(2, 12),
    all_values=st.booleans(),
    n=st.integers(1, 600),
    n_distinct=st.integers(1, 40),
    log_sigma=st.floats(-3.0, 3.0),
    spread=st.sampled_from([0.1, 3.0, 12.0, 45.0]),
)
def test_prob_categorical_is_bit_identical_to_the_numpy_reference(
    seed, R, all_values, n, n_distinct, log_sigma, spread
):
    # gaps of up to ~45 sigma put quadrature arguments above 8.3, where the
    # kernel skips factors Phi rounds to 1, and below -38.5, where Phi is 0.
    # Rows repeat, in their predictors alone or with their categories too
    rng = np.random.default_rng(seed)
    sigma = 10.0**log_sigma
    B = rng.normal(scale=spread * sigma, size=(n_distinct, R))
    B[:, -1] = 0.0
    Z = np.eye(n_distinct)[rng.integers(0, n_distinct, n)]
    if all_values:
        r = np.arange(1, R + 1)
    else:
        r = rng.integers(1, R + 1, (n_distinct, 1))[rng.integers(0, n_distinct, n)]
        r[rng.random(n) < 0.3] = rng.integers(1, R + 1, (1, 1))
    got = prob_categorical(r, Z, B, sigma)
    np.testing.assert_array_equal(got, reference_prob_categorical(r, Z, B, sigma))


def test_prob_categorical_is_bit_identical_across_the_cdf_tails():
    # a dense sweep of gaps puts arguments on every stretch of Phi: rounding
    # to 1 from 8.2924 on, just below 1 under it, and 0 below -38.5
    gaps = np.linspace(-60.0, 60.0, 4001)
    B = np.column_stack([gaps, 0.3 * gaps[::-1], np.zeros_like(gaps)])
    Z = np.eye(len(gaps))
    for sigma in (1.0, 0.37):
        got = prob_categorical([1, 2, 3], Z, B, sigma)
        np.testing.assert_array_equal(got, reference_prob_categorical([1, 2, 3], Z, B, sigma))
    # Phi is exactly 1 wherever a factor is skipped
    assert np.all(likelihoods.ndtr(np.linspace(8.3, 40.0, 200001)) == 1.0)
    # no early exit on a zero product: a NaN rival after a rival with Phi = 0
    # still gives NaN
    B = np.array([[0.0, 100.0, np.nan]])
    got = prob_categorical([1, 2, 3], np.ones(1), B, 1.0)
    assert np.isnan(got[0, 0]) and np.isnan(got[0, 2])
    np.testing.assert_array_equal(got, reference_prob_categorical([1, 2, 3], np.ones(1), B, 1.0))


def test_prob_categorical_scores_each_distinct_row_once(monkeypatch):
    # 1,000 rows made of 3 distinct (predictor, category) rows reach the
    # kernel as 3 rows, and every row gets its own row's probabilities
    rng = np.random.default_rng(5)
    B = rng.normal(size=(3, 5))
    B[:, -1] = 0.0
    pick = rng.integers(0, 3, 1000)
    Z = np.eye(3)[pick]
    r = np.array([[1, 4], [2, 2], [5, 3]])[pick]
    lib = _kernel.load()
    rows_seen = []

    class Proxy:
        def __getattr__(self, name):
            return getattr(lib, name)

        def glfm_prob_categorical(self, n, *args):
            rows_seen.append(n)
            return lib.glfm_prob_categorical(n, *args)

    proxy = Proxy()
    monkeypatch.setattr(_kernel, "load", lambda: proxy)
    got = prob_categorical(r, Z, B, 0.8)
    assert rows_seen == [3]
    np.testing.assert_array_equal(got, reference_prob_categorical(r, Z, B, 0.8))
    # a shared category list: rows repeat in their predictors alone
    rows_seen.clear()
    got = prob_categorical([1, 2, 3, 4, 5], Z, B, 0.8)
    assert rows_seen == [3]
    np.testing.assert_array_equal(got, reference_prob_categorical([1, 2, 3, 4, 5], Z, B, 0.8))


def test_prob_ordinal_oracle():
    # theta = (0, 1.5), m = 0, sigma = 1: band 2 has mass Phi(1.5) - Phi(0)
    p = math.exp(log_prob_ordinal(2, 0.0, [0.0, 1.5], 1.0))
    assert p == pytest.approx(0.4331927987311419, abs=1e-12)


def test_prob_ordinal_normalization_and_tails():
    theta = [0.0, 0.8, 2.1]
    for m, sigma in [(0.0, 1.0), (1.3, 0.5), (-2.0, 2.0)]:
        probs = [math.exp(log_prob_ordinal(r, m, theta, sigma)) for r in range(1, 5)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert math.exp(log_prob_ordinal(1, 0.0, [0.0], 1.0)) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        log_prob_ordinal(5, 0.0, theta, 1.0)
    with pytest.raises(ValueError):
        log_prob_ordinal(0, 0.0, theta, 1.0)


def test_prob_count_oracle():
    # m = 0, w = 1, mu = 0: p(0) = Phi(f^{-1}(1)) = Phi(log(e - 1))
    p = math.exp(log_prob_count(0, 0.0, IDENT, 1.0))
    assert p == pytest.approx(0.7058581539951883, abs=1e-12)
    assert math.log(e_minus_one := math.e - 1.0) == pytest.approx(
        0.541324854612918, abs=1e-12
    )
    assert p == pytest.approx(float(ndtr(math.log(e_minus_one))), abs=1e-14)


def test_prob_count_normalization():
    for m, sigma in [(0.0, 1.0), (2.5, 0.8), (-1.0, 1.5)]:
        total = sum(math.exp(log_prob_count(x, m, IDENT, sigma)) for x in range(140))
        assert total == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        log_prob_count(-1, 0.0, IDENT, 1.0)


def test_batched_likelihoods_match_scalar_calls():
    # many rows, most of them distinct, and two values per row
    rng = np.random.default_rng(8)
    n = 300
    Z = rng.normal(size=(n, 2))
    B = rng.normal(size=(2, 4))
    B[:, -1] = 0.0
    r = rng.integers(1, 5, (n, 2))
    want = [[prob_categorical(int(v), Z[i], B, 0.7) for v in r[i]] for i in range(n)]
    np.testing.assert_allclose(prob_categorical(r, Z, B, 0.7), want, rtol=1e-13, atol=0)
    # a support shared by every row gives each row's full pmf
    pmf = prob_categorical([1, 2, 3, 4], Z, B, 0.7)
    assert pmf.shape == (n, 4)
    np.testing.assert_allclose(pmf.sum(axis=1), 1.0, atol=1e-8)

    m = rng.normal(scale=2.0, size=(n, 1))
    theta = [0.0, 0.8, 2.1]
    levels = rng.integers(1, 5, (n, 3))
    want = [[log_prob_ordinal(int(v), m[i, 0], theta, 0.6) for v in levels[i]] for i in range(n)]
    np.testing.assert_allclose(log_prob_ordinal(levels, m, theta, 0.6), want, rtol=1e-13)

    params = AttributeSpec("x", AttributeKind.REAL, w=0.8, mu=0.3)
    counts = rng.integers(0, 30, (n, 3))
    want = [[log_prob_count(int(v), m[i, 0], params, 0.6) for v in counts[i]] for i in range(n)]
    np.testing.assert_allclose(log_prob_count(counts, m, params, 0.6), want, rtol=1e-13)

    xs = rng.exponential(size=(n, 3)) + 1e-3
    kind = AttributeKind.POSITIVE_REAL
    want = [[loglik_continuous(v, m[i, 0], 1.3, params, kind) for v in xs[i]] for i in range(n)]
    np.testing.assert_allclose(loglik_continuous(xs, m, 1.3, params, kind), want, rtol=1e-13)


def test_log_phi_interval_matches_direct():
    pairs = [(-1.0, 0.5), (0.0, 1.5), (-2.0, 2.0), (1.0, 1.1)]
    for a, b in pairs:
        direct = math.log(ndtr(b) - ndtr(a))
        assert log_phi_interval(a, b) == pytest.approx(direct, abs=1e-12)


def test_log_phi_interval_far_tails():
    # survival functions at 30 and 31 are ~1e-198; the difference is exactly
    # representable in double precision, so the direct route is an oracle here
    direct = math.log(norm.sf(30.0) - norm.sf(31.0))
    assert log_phi_interval(30.0, 31.0) == pytest.approx(direct, rel=1e-10)
    left = math.log(ndtr(-30.0) - ndtr(-31.0))
    assert log_phi_interval(-31.0, -30.0) == pytest.approx(left, rel=1e-10)
    assert np.isfinite(log_phi_interval(37.0, 38.0))


def test_log_phi_interval_infinite_endpoints():
    assert log_phi_interval(-np.inf, 0.0) == pytest.approx(math.log(0.5), abs=1e-14)
    assert log_phi_interval(0.0, np.inf) == pytest.approx(math.log(0.5), abs=1e-14)
    assert log_phi_interval(-np.inf, np.inf) == 0.0
    arr = log_phi_interval(np.array([-np.inf, 0.0]), np.array([0.0, np.inf]))
    np.testing.assert_allclose(arr, math.log(0.5))


def test_loglik_continuous_real_matches_norm():
    p = AttributeSpec("x", AttributeKind.REAL, w=2.0, mu=-1.0)
    x, m, v = 1.3, 0.4, 0.75
    expected = norm.logpdf((x - p.mu) / p.w, loc=m, scale=math.sqrt(v)) - math.log(p.w)
    got = loglik_continuous(x, m, v, p, AttributeKind.REAL)
    assert got == pytest.approx(float(expected), abs=1e-12)
    with pytest.raises(ValueError):
        loglik_continuous(x, m, 0.0, p, AttributeKind.REAL)


def test_loglik_densities_integrate_to_one():
    # the Jacobian terms must make exp(loglik) a proper density in x
    from scipy.integrate import quad

    p = AttributeSpec("x", AttributeKind.REAL, w=0.7, mu=0.5)
    m, v = 0.3, 1.2
    total, _ = quad(
        lambda x: math.exp(loglik_continuous(x, m, v, p, AttributeKind.POSITIVE_REAL)),
        1e-12, 40.0, limit=200,
    )
    assert total == pytest.approx(1.0, abs=1e-6)
    total_r, _ = quad(
        lambda x: math.exp(loglik_continuous(x, m, v, p, AttributeKind.REAL)),
        -40.0, 40.0, limit=200,
    )
    assert total_r == pytest.approx(1.0, abs=1e-6)


def test_loglik_positive_matches_cdf_derivative():
    # density should equal the numerical derivative of P(X <= x) = Phi((f^{-1}(x)-m)/sqrt(v))
    p = AttributeSpec("x", AttributeKind.REAL, w=1.0, mu=0.0)
    m, v = 0.2, 0.9
    for x in (0.5, 1.0, 3.0):
        h = 1e-6
        cdf = lambda t: ndtr((map_inverse(t, p, AttributeKind.POSITIVE_REAL) - m) / math.sqrt(v))
        numeric = (cdf(x + h) - cdf(x - h)) / (2 * h)
        got = math.exp(loglik_continuous(x, m, v, p, AttributeKind.POSITIVE_REAL))
        assert got == pytest.approx(float(numeric), rel=1e-5)


@pytest.mark.parametrize("name", ["ndtr", "log_ndtr"])
def test_normal_cdf_matches_scipy(name):
    # scipy is the independent reference: 1e-12 relative wherever its value
    # is a normal float, and exact at the special points
    ours, ref = getattr(likelihoods, name), getattr(special, name)
    x = np.linspace(-40.0, 40.0, 160001)
    got, want = ours(x), ref(x)
    normal = np.abs(want) >= np.finfo(float).tiny
    np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0.0)
    # where scipy's value underflows below the normal range, so does ours
    assert np.all(np.abs(got[~normal]) < np.finfo(float).tiny)
    special_points = np.array([-np.inf, np.inf, np.nan, 0.0, -0.0])
    np.testing.assert_array_equal(ours(special_points), ref(special_points))
    # shapes pass through, and a scalar gives a scalar
    assert ours(x[1:].reshape(400, -1)[:, ::2]).shape == (400, 200)
    assert np.ndim(ours(0.3)) == 0 and ours(0.3) == pytest.approx(float(ref(0.3)), rel=1e-14)

