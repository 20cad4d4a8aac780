"""Sampler state, collapsed updates, conjugate draws, chain behavior.

The replay test is the workhorse: it re-derives every accepted flip of a row
scan from scratch (exact inverse, no incremental algebra) and demands the
incremental path commit identical decisions from an identical random stream.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import invgamma, kstest

import glfm.engine
from glfm.data import AttributeKind, AttributeSpec, DataMatrix
from glfm.engine import (
    Hyperparams,
    _birth_gain_bound,
    _inverse_cdf_index,
    _row_loglik,
    _row_stats,
    birth_features,
    collapsed_flip_logodds,
    complete_data_log_joint,
    hyperparams_from_dict,
    hyperparams_to_dict,
    ibp_lof_log_prior,
    init_state,
    prune_features,
    run_chain,
    run_iteration,
    sample_noise_variance,
    sample_pseudo_obs,
    sample_thresholds,
    sample_weights,
    sample_z_row,
)
from glfm.randkit import RngState
from glfm.synthetic import generate


def small_mixed_data(n_rows=25, missing_rate=0.15, seed=5):
    data, _ = generate(n_rows, missing_rate=missing_rate, seed=seed)
    return data


def real_only_data(n_rows, seed=0, missing=None):
    rng = np.random.default_rng(seed)
    cells = rng.normal(size=(n_rows, 1))
    if missing is None:
        mask = np.zeros((n_rows, 1), dtype=bool)
    else:
        mask = np.asarray(missing, dtype=bool).reshape(n_rows, 1)
    cells = np.where(mask, np.nan, cells)
    return DataMatrix(
        cells=cells, missing=mask, specs=[AttributeSpec("x", AttributeKind.REAL)]
    )


def assert_natural_params_exact(state, atol=1e-9):
    P_ref = state.Z.T @ state.Z + np.eye(state.K) / state.hp.sigma_B2
    lam_ref = state.Z.T @ state.Y
    np.testing.assert_allclose(state.P, P_ref, rtol=0, atol=atol)
    np.testing.assert_allclose(state.lam, lam_ref, rtol=0, atol=atol)
    np.testing.assert_array_equal(state.col_sums, state.Z.sum(axis=0))


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(alpha=-1.0)
    with pytest.raises(ValueError):
        Hyperparams(sigma_B2=0.0)
    with pytest.raises(ValueError):
        Hyperparams(sigma_u2=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(K_init=0, bias=False)
    with pytest.raises(ValueError):
        Hyperparams(K_init=5, K_max=4)
    with pytest.raises(ValueError):
        Hyperparams(iterations=10, burn_in=10)
    with pytest.raises(ValueError):
        Hyperparams(iterations=0, burn_in=1)
    # iterations=0 with burn_in=0 is the inspect-the-init configuration
    Hyperparams(iterations=0, burn_in=0)
    Hyperparams(K_init=0, bias=True)


def test_hyperparams_dict_roundtrip():
    hp = Hyperparams(alpha=2.5, K_max=7, bias=True, iterations=3, burn_in=1)
    d = hyperparams_to_dict(hp)
    assert hyperparams_from_dict(d) == hp
    assert hyperparams_from_dict(d, alpha=9.0).alpha == 9.0
    # None-valued overrides fall through to the dict value
    assert hyperparams_from_dict(d, alpha=None).alpha == 2.5
    with pytest.raises(ValueError, match="unknown"):
        hyperparams_from_dict({"alpha": 1.0, "gamma": 2.0})


def test_init_state_bias_only_precision():
    data = real_only_data(8, seed=1)
    hp = Hyperparams(K_init=0, bias=True, sigma_B2=1.0, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(0))
    # single always-on column: P = [[N + 1/sigma_B^2]]
    assert state.P.shape == (1, 1)
    assert state.P[0, 0] == pytest.approx(8.0 + 1.0)
    assert state.K_plus == 0
    assert state.n_bias == 1


def test_init_state_feature_count_in_precision():
    data = real_only_data(12, seed=2)
    hp = Hyperparams(K_init=1, bias=False, sigma_B2=4.0, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(3))
    on = state.Z[:, 0].sum()
    assert state.P[0, 0] == pytest.approx(on + 0.25)
    assert_natural_params_exact(state)


def test_init_state_respects_observations():
    data = small_mixed_data(20, missing_rate=0.2, seed=9)
    hp = Hyperparams(K_init=2, bias=True, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(4))
    from glfm.likelihoods import map_inverse

    for d, spec in enumerate(data.specs):
        cs = state.dim_cols(d)
        obs = ~data.missing[:, d]
        x = data.cells[:, d]
        y = state.Y[:, cs]
        if spec.kind.is_continuous:
            np.testing.assert_allclose(
                y[obs, 0], map_inverse(x[obs], spec, spec.kind)
            )
        elif spec.kind is AttributeKind.ORDINAL:
            pad = np.concatenate([[-np.inf], state.theta[d], [np.inf]])
            xi = x[obs].astype(int)
            assert np.all(y[obs, 0] > pad[xi - 1])
            assert np.all(y[obs, 0] <= pad[xi])
        elif spec.kind is AttributeKind.COUNT:
            lo = map_inverse(x[obs], spec, spec.kind)
            hi = map_inverse(x[obs] + 1, spec, spec.kind)
            assert np.all((y[obs, 0] >= lo) & (y[obs, 0] < hi))
        else:
            xi = x[obs].astype(int)
            assert np.all(np.argmax(y[obs], axis=1) + 1 == xi)
    # ordinal thresholds start on the pinned ladder
    for d, th in state.theta.items():
        assert th[0] == 0.0
        assert np.all(np.diff(th) > 0)


def test_natural_params_stay_exact_across_sweeps():
    data = small_mixed_data(25, seed=5)
    hp = Hyperparams(alpha=3.0, K_max=10, K_init=2, bias=True, iterations=0, burn_in=0)
    rng = RngState(6)
    state = init_state(data, hp, rng)
    for _ in range(30):
        run_iteration(rng, state, data)
    assert_natural_params_exact(state)
    # the maintained inverse tracks the maintained P
    ident = state.P_inv @ state.P
    np.testing.assert_allclose(ident, np.eye(state.K), atol=1e-8)


# noise variances of the six attributes of small_mixed_data: one shared
# value, six distinct ones, and values repeated across non-adjacent
# attributes, so that the row scan's variance groups merge attributes
SIGMA2_LAYOUTS = {
    "shared-sigma2": None,
    "per-attribute-sigma2": tuple(np.geomspace(0.3, 3.0, num=6)),
    "mixed-sigma2": (1.0, 2.0, 1.0, 2.0, 1.0, 3.0),
}


@pytest.mark.parametrize("sigma2", SIGMA2_LAYOUTS.values(), ids=SIGMA2_LAYOUTS.keys())
def test_z_row_replay_matches_from_scratch_logodds(sigma2):
    # replay the exact random stream against the O(K^3) reference route,
    # which scores every attribute column with its own sigma_d^2; sigma2 is
    # edited in place after the warm sweeps, so the scan must regroup
    data = small_mixed_data(30, seed=21)
    hp = Hyperparams(alpha=2.0, K_max=12, K_init=6, bias=True, iterations=0, burn_in=0)
    init_rng = RngState(8)
    state = init_state(data, hp, init_rng)
    warm = RngState(97)
    for _ in range(3):
        run_iteration(warm, state, data)
    if sigma2 is not None:
        state.sigma2[:] = sigma2

    # rows where a candidate is scored after an accepted flip, so that the
    # scan's update of the later candidates' statistics decides the outcome
    updated_rows = 0
    for n in range(state.N):
        seed_now = warm.get_state()
        reference = state.copy()

        sample_z_row(warm, state, data, n)

        replay = RngState(0)
        replay.set_state(seed_now)
        flipped = scored_after_flip = False
        for k in range(reference.n_bias, reference.K):
            m = reference.col_sums[k] - reference.Z[n, k]
            if m == 0.0:
                if reference.Z[n, k] == 1.0:
                    reference.Z[n, k] = 0.0
                    reference.recompute_natural()
                continue
            scored_after_flip |= flipped
            logit_on = collapsed_flip_logodds(reference, n, k)
            p_on = 1.0 / (1.0 + math.exp(-logit_on)) if logit_on > -500 else 0.0
            turn_on = replay.gen.random() < p_on
            if turn_on != (reference.Z[n, k] == 1.0):
                reference.Z[n, k] = 1.0 - reference.Z[n, k]
                reference.recompute_natural()
                flipped = True
        updated_rows += scored_after_flip

        np.testing.assert_array_equal(state.Z[n], reference.Z[n])
        assert_natural_params_exact(state)
    assert updated_rows >= 10


@pytest.mark.parametrize("sigma2", SIGMA2_LAYOUTS.values(), ids=SIGMA2_LAYOUTS.keys())
def test_z_row_statistics_are_residuals_summed_by_variance_group(sigma2):
    # (s, Q) from the scan against an exact-inverse reference: squared
    # residuals of y - z M per attribute, summed over attributes sharing
    # sigma_d^2. sigma2 is edited in place after the warm sweeps, so the scan
    # must notice the change and regroup. Q after two accepted flips in one
    # row has been moved by the first flip's update of the second's change
    data = small_mixed_data(30, seed=51)
    hp = Hyperparams(alpha=0.0, K_init=6, bias=True, iterations=0, burn_in=0)
    rng = RngState(52)
    state = init_state(data, hp, rng)
    for _ in range(2):
        run_iteration(rng, state, data)
    if sigma2 is not None:
        state.sigma2[:] = sigma2
    multi_flip_rows = 0
    for n in range(state.N):
        before = state.Z[n].copy()
        s, Q = sample_z_row(rng, state, data, n)
        multi_flip_rows += int(np.sum(state.Z[n] != before)) >= 2
        z, y = state.Z[n], state.Y[n]
        A = np.linalg.inv(state.P - np.outer(z, z))
        r = y - z @ (A @ (state.lam - np.outer(z, y)))
        expected, n_cols = {}, {}
        for d, v in enumerate(state.sigma2.tolist()):
            cs = state.dim_cols(d)
            expected[v] = expected.get(v, 0.0) + float(r[cs] @ r[cs])
            n_cols[v] = n_cols.get(v, 0) + cs.stop - cs.start
        _, sig, widths = state.variance_groups()
        assert len(Q) == len(sig) == len(expected) == len(set(state.sigma2.tolist()))
        assert dict(zip(sig, Q)) == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert dict(zip(sig, widths)) == n_cols
        assert s == pytest.approx(float(z @ A @ z), rel=1e-9, abs=1e-12)
    assert multi_flip_rows >= 5


def test_z_row_commits_only_changed_rows():
    # an unchanged row leaves the natural parameters bit for bit; a changed
    # row commits exactly
    data = small_mixed_data(25, seed=53)
    hp = Hyperparams(alpha=0.0, K_init=5, bias=True, iterations=0, burn_in=0)
    rng = RngState(54)
    state = init_state(data, hp, rng)
    run_iteration(rng, state, data)
    kept = changed = 0
    for _ in range(2):
        for n in range(state.N):
            before = [a.copy() for a in (state.Z[n], state.P, state.P_inv, state.lam,
                                         state.col_sums)]
            sample_z_row(rng, state, data, n)
            if np.array_equal(state.Z[n], before[0]):
                kept += 1
                after = (state.P, state.P_inv, state.lam, state.col_sums)
                for old, new in zip(before[1:], after):
                    assert old.tobytes() == new.tobytes()
            else:
                changed += 1
                assert_natural_params_exact(state)
    assert kept > 0 and changed > 0


def test_forced_zero_when_feature_unused_elsewhere():
    data = real_only_data(6, seed=3)
    hp = Hyperparams(alpha=0.0, K_init=2, bias=False, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(11))
    # make feature 1 exclusive to row 0
    state.Z[:, 1] = 0.0
    state.Z[0, 1] = 1.0
    state.Z[:, 0] = 1.0  # keep rows non-empty
    state.recompute_natural()
    assert collapsed_flip_logodds(state, 0, 1) == -np.inf
    rng = RngState(12)
    sample_z_row(rng, state, data, 0)
    assert state.Z[0, 1] == 0.0
    assert_natural_params_exact(state)


def test_z_row_exact_inverse_fallback(monkeypatch):
    # with sigma_B^2 = 1e13 a feature held by row 0 alone leaves P - z z^T
    # with a 1e-13 pivot: 1 - z^T P^{-1} z falls below the Sherman-Morrison
    # cutoff and the downdate takes the exact Cholesky route
    data = small_mixed_data(12, seed=46)
    hp = Hyperparams(alpha=0.0, sigma_B2=1e13, K_init=2, bias=True,
                     iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(47))
    state.Z[:, 1] = np.arange(state.N) % 2
    state.Z[:, 2] = 0.0
    state.Z[0, 2] = 1.0
    state.recompute_natural()

    calls = []
    exact = glfm.engine._chol_inverse

    def counted(P, L=None):
        calls.append(P.shape)
        return exact(P, L)

    monkeypatch.setattr(glfm.engine, "_chol_inverse", counted)
    s, Q = sample_z_row(RngState(48), state, data, 0)
    assert len(calls) == 1
    assert state.Z[0, 2] == 0.0  # used by no other row: forced off
    assert_natural_params_exact(state)
    # the scan's final statistics are those of the committed row: the
    # forced-off flip recomputes them from A and M, since an update would
    # cancel A's 1e13 entries (A_kk ~ 1e13 against 2 h_k ~ 2e13)
    s_ref, Q_ref = _row_stats(state, 0)
    assert s == pytest.approx(s_ref, rel=1e-9)
    np.testing.assert_allclose(Q, Q_ref, rtol=1e-9, atol=0)


def test_weight_posterior_moments():
    # single always-on feature, one row, y = 2, unit variances:
    # posterior over the weight is N(2 / (1+1), 1 / (1+1)) = N(1, 1/2)
    data = real_only_data(1, seed=4, missing=[[True]])
    hp = Hyperparams(K_init=0, bias=True, sigma_B2=1.0, sigma_y2=1.0,
                     iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(13))
    state.Y[0, 0] = 2.0
    state.recompute_natural()
    rng = RngState(14)
    draws = np.empty(6000)
    for i in range(draws.size):
        sample_weights(rng, state, 0)
        draws[i] = state.B[0, 0]
    assert draws.mean() == pytest.approx(1.0, abs=0.05)
    assert draws.var() == pytest.approx(0.5, abs=0.05)


def test_weight_sampling_keeps_categorical_identifiability():
    specs = [AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=3)]
    cells = np.array([[1.0], [2.0], [3.0], [1.0]])
    data = DataMatrix(cells=cells, missing=np.zeros((4, 1), dtype=bool), specs=specs)
    hp = Hyperparams(K_init=1, bias=True, iterations=0, burn_in=0)
    rng = RngState(15)
    state = init_state(data, hp, rng)
    for _ in range(5):
        run_iteration(rng, state, data)
    np.testing.assert_array_equal(state.B[:, 2], 0.0)
    assert np.any(state.B[:, :2] != 0.0)


def test_pseudo_obs_posterior_blend():
    # prior N(0, 1) against encoded observation 2 under sigma_u^2 = 1:
    # posterior N(1, 1/2)
    data = real_only_data(1, seed=0)
    data.cells[0, 0] = 2.0
    hp = Hyperparams(K_init=0, bias=True, sigma_u2=1.0, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(16))
    state.B[:] = 0.0
    state.recompute_natural()
    rng = RngState(17)
    draws = np.empty(6000)
    for i in range(draws.size):
        sample_pseudo_obs(rng, state, data, 0, 0)
        draws[i] = state.Y[0, 0]
    assert draws.mean() == pytest.approx(1.0, abs=0.05)
    assert draws.var() == pytest.approx(0.5, abs=0.05)
    assert_natural_params_exact(state)


def test_pseudo_obs_exact_when_noise_free():
    data = real_only_data(5, seed=19)
    hp = Hyperparams(K_init=1, bias=True, sigma_u2=0.0, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(20))
    rng = RngState(21)
    for n in range(5):
        sample_pseudo_obs(rng, state, data, n, 0)
    np.testing.assert_allclose(state.Y[:, 0], data.cells[:, 0])


def test_pseudo_obs_respects_intervals():
    data = small_mixed_data(30, missing_rate=0.1, seed=22)
    hp = Hyperparams(K_init=2, bias=True, iterations=0, burn_in=0)
    rng = RngState(23)
    state = init_state(data, hp, rng)
    for _ in range(4):
        run_iteration(rng, state, data)
    for d, spec in enumerate(data.specs):
        cs = state.dim_cols(d)
        obs = ~data.missing[:, d]
        y = state.Y[:, cs]
        x = data.cells[:, d]
        if spec.kind is AttributeKind.ORDINAL:
            pad = np.concatenate([[-np.inf], state.theta[d], [np.inf]])
            xi = x[obs].astype(int)
            assert np.all(y[obs, 0] > pad[xi - 1])
            assert np.all(y[obs, 0] <= pad[xi])
        elif spec.kind is AttributeKind.COUNT:
            from glfm.likelihoods import map_forward

            back = map_forward(y[obs, 0], spec, spec.kind)
            np.testing.assert_array_equal(back, x[obs])
        elif spec.kind is AttributeKind.CATEGORICAL:
            xi = x[obs].astype(int)
            assert np.all(np.argmax(y[obs], axis=1) + 1 == xi)


def test_threshold_sampler_keeps_order_and_support():
    specs = [AttributeSpec("o", AttributeKind.ORDINAL, R_d=5)]
    rng_data = np.random.default_rng(1)
    cells = rng_data.integers(1, 6, size=(40, 1)).astype(float)
    data = DataMatrix(cells=cells, missing=np.zeros((40, 1), dtype=bool), specs=specs)
    hp = Hyperparams(K_init=1, bias=True, iterations=0, burn_in=0)
    rng = RngState(24)
    state = init_state(data, hp, rng)
    for _ in range(6):
        run_iteration(rng, state, data)
        th = state.theta[0]
        assert th[0] == 0.0
        assert np.all(np.diff(th) > 0)
        # every observed level's pseudo-observation sits inside its band
        pad = np.concatenate([[-np.inf], th, [np.inf]])
        xi = data.cells[:, 0].astype(int)
        y = state.Y[:, state.dim_cols(0).start]
        assert np.all(y > pad[xi - 1])
        assert np.all(y <= pad[xi])


def test_noise_variance_conjugate_distribution():
    # one bias row with residual 2: posterior is InvGamma(1 + 1/2, 1 + 4/2)
    data = real_only_data(1, seed=0, missing=[[True]])
    hp = Hyperparams(K_init=0, bias=True, beta1=1.0, beta2=1.0,
                     sample_variance=True, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(25))
    state.Y[0, 0] = 2.0
    state.B[:] = 0.0
    state.recompute_natural()
    rng = RngState(26)
    draws = np.empty(20000)
    for i in range(draws.size):
        sample_noise_variance(rng, state, data, 0)
        draws[i] = state.sigma2[0]
    result = kstest(draws, invgamma(a=1.5, scale=3.0).cdf)
    assert result.pvalue > 1e-3
    # E[1/v] = shape/rate = 0.5
    assert (1.0 / draws).mean() == pytest.approx(0.5, abs=0.02)


def test_birth_respects_k_max():
    data = small_mixed_data(12, seed=27)
    hp = Hyperparams(alpha=50.0, K_max=5, K_init=1, bias=True, iterations=0, burn_in=0)
    rng = RngState(28)
    state = init_state(data, hp, rng)
    for _ in range(15):
        run_iteration(rng, state, data)
        assert state.K <= hp.K_max
    assert state.K == hp.K_max  # alpha this large saturates the cap


def test_birth_adds_columns_for_row():
    data = real_only_data(4, seed=29)
    hp = Hyperparams(alpha=200.0, K_max=10, K_init=1, bias=False,
                     iterations=0, burn_in=0)
    rng = RngState(30)
    state = init_state(data, hp, rng)
    K0 = state.K
    grew = False
    for _ in range(20):
        birth_features(rng, state, data, 2)
        if state.K > K0:
            grew = True
            np.testing.assert_array_equal(state.Z[2, K0:], 1.0)
            assert np.all(state.Z[[0, 1, 3], K0:] == 0.0)
            break
    assert grew
    assert_natural_params_exact(state)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4).filter(lambda w: sum(w) > 0),
    seed=st.integers(0, 2**32 - 1),
)
def test_birth_count_draw_matches_generator_choice(weights, seed):
    p = np.array(weights) / sum(weights)
    rng = RngState(seed)
    twin = RngState(0)
    twin.set_state(rng.get_state())
    expected = int(twin.gen.choice(len(p), p=p))
    assert _inverse_cdf_index(p.tolist(), rng.gen.random()) == expected
    # choice spends exactly the one uniform the inverse CDF reads
    assert rng.get_state() == twin.get_state()


def test_birth_count_draw_ties_go_right():
    # a uniform equal to a cumulative probability selects the next index,
    # as searchsorted(side="right") inside Generator.choice does
    assert _inverse_cdf_index([0.5, 0.5], 0.5) == 1
    assert _inverse_cdf_index([0.25, 0.25, 0.5], 0.0) == 0
    assert _inverse_cdf_index([0.0, 1.0], 0.0) == 1


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10000))
def test_birth_from_scan_statistics_matches_fresh_statistics(seed):
    data, _ = generate(10, missing_rate=0.2, seed=seed)
    hp = Hyperparams(alpha=20.0, sigma_B2=0.2, K_max=30, K_init=2, bias=True,
                     sample_variance=True, iterations=0, burn_in=0)
    rng = RngState(seed + 1)
    state = init_state(data, hp, rng)
    run_iteration(rng, state, data)
    births = 0
    for n in range(state.N):
        row = sample_z_row(rng, state, data, n)
        s_ref, Q_ref = _row_stats(state, n)
        assert row[0] == pytest.approx(s_ref, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(row[1], Q_ref, rtol=1e-9, atol=1e-12)

        fresh = state.copy()
        fresh_rng = RngState(0)
        fresh_rng.set_state(rng.get_state())
        K_before = state.K
        birth_features(rng, state, data, n, row)
        birth_features(fresh_rng, fresh, data, n)
        np.testing.assert_array_equal(state.Z, fresh.Z)
        assert rng.get_state() == fresh_rng.get_state()
        births += state.K > K_before
    assert_natural_params_exact(state)
    assert births > 0


@settings(max_examples=300, deadline=None)
@given(
    s=st.floats(-1.0, 5.0),
    attrs=st.lists(
        st.tuples(st.floats(0.0, 60.0), st.floats(0.05, 10.0), st.integers(1, 5)),
        min_size=1, max_size=8,
    ),
    sigma_B2=st.floats(1e-3, 10.0),
)
def test_birth_gain_bound_dominates_every_birth_count(s, attrs, sigma_B2):
    Q, sig, widths = (list(col) for col in zip(*attrs))
    widths = [float(w) for w in widths]
    s0 = max(s, 0.0)
    ll = [_row_loglik(s0 + k * sigma_B2, Q, sig, widths) for k in range(4)]
    bound = _birth_gain_bound(s, Q, sig, widths)
    assert bound >= 0.0
    for k in range(1, 4):
        assert ll[k] - ll[0] <= bound + 1e-9 * (1.0 + abs(ll[0]))


@pytest.mark.parametrize("alpha", [1.0, 50.0])
def test_birth_shortcut_matches_full_scoring(monkeypatch, alpha):
    # with the no-birth shortcut disabled every row scores all its candidate
    # counts; the chain must not notice the difference
    data = small_mixed_data(40, seed=49)
    hp = Hyperparams(alpha=alpha, K_max=20, K_init=2, bias=True,
                     sample_variance=True, iterations=0, burn_in=0)
    rng = RngState(50)
    state = init_state(data, hp, rng)
    full = state.copy()
    full_rng = RngState(0)
    full_rng.set_state(rng.get_state())
    for _ in range(4):
        run_iteration(rng, state, data)
    monkeypatch.setattr(glfm.engine, "_birth_gain_bound", lambda *args: math.inf)
    for _ in range(4):
        run_iteration(full_rng, full, data)
    np.testing.assert_array_equal(state.Z, full.Z)
    np.testing.assert_array_equal(state.B, full.B)
    assert rng.get_state() == full_rng.get_state()
    assert state.K > hp.K_init + 1


def test_birth_disabled_at_zero_alpha():
    data = real_only_data(6, seed=31)
    hp = Hyperparams(alpha=0.0, K_init=2, bias=False, iterations=0, burn_in=0)
    rng = RngState(32)
    state = init_state(data, hp, rng)
    for _ in range(10):
        run_iteration(rng, state, data)
    assert state.K <= 2  # prune may shrink but nothing is born


def test_prune_drops_dead_columns_keeps_bias():
    data = real_only_data(5, seed=33)
    hp = Hyperparams(K_init=3, bias=True, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(34))
    state.Z[:, 2] = 0.0
    state.recompute_natural()
    K0 = state.K
    prune_features(state)
    assert state.K == K0 - 1
    np.testing.assert_array_equal(state.Z[:, 0], 1.0)
    assert_natural_params_exact(state)


def test_run_chain_reproducible_and_snapshots():
    data = small_mixed_data(15, seed=35)
    hp = Hyperparams(alpha=2.0, K_max=8, K_init=2, bias=True,
                     iterations=12, burn_in=2, seed=36)
    r1 = run_chain(data, hp)
    r2 = run_chain(data, hp)
    np.testing.assert_array_equal(r1.state.Z, r2.state.Z)
    np.testing.assert_array_equal(r1.state.B, r2.state.B)
    assert [t["log_joint"] for t in r1.trace] == [t["log_joint"] for t in r2.trace]
    assert len(r1.trace) == 12
    assert set(r1.trace[0]) == {"iteration", "K_plus", "log_joint", "sigma2"}

    r3 = run_chain(data, hp, keep_last=3)
    assert len(r3.saved) == 3
    np.testing.assert_array_equal(r3.saved[-1].Z, r3.state.Z)
    # snapshots are decoupled from the live state
    r3.saved[-1].Z[0, 0] = 1.0 - r3.saved[-1].Z[0, 0]
    assert not np.array_equal(r3.saved[-1].Z, r3.state.Z)


def test_run_chain_zero_iterations_returns_init():
    data = real_only_data(4, seed=37)
    hp = Hyperparams(K_init=1, bias=False, iterations=0, burn_in=0, seed=38)
    res = run_chain(data, hp)
    assert res.trace == []
    assert len(res.saved) == 1
    ref = init_state(data, hp, RngState(38))
    np.testing.assert_array_equal(res.state.Z, ref.Z)
    np.testing.assert_array_equal(res.state.Y, ref.Y)


def test_run_chain_pinned_rows_hold_their_pattern():
    data = small_mixed_data(10, seed=39)
    hp = Hyperparams(alpha=2.0, K_max=8, K_init=3, bias=True,
                     iterations=8, burn_in=1, seed=40)
    res = run_chain(data, hp, pinned_rows=range(10))
    ref = init_state(data, hp, RngState(40))
    # no row scan means no births; only initially dead columns get pruned
    alive = ref.Z.sum(axis=0) > 0
    np.testing.assert_array_equal(res.state.Z, ref.Z[:, alive])


def test_ibp_lof_log_prior_against_direct_enumeration():
    Z = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1], [1, 1, 0]], dtype=float)
    alpha, N = 1.5, 4

    # direct form: exp(-alpha H_N) alpha^{K+} / prod_h K_h! *
    #              prod_k (N - m_k)! (m_k - 1)! / N!
    H = sum(1.0 / i for i in range(1, N + 1))
    cols = [tuple(int(v) for v in Z[:, k]) for k in range(Z.shape[1])]
    from collections import Counter

    hist = Counter(cols)
    expected = -alpha * H + Z.shape[1] * math.log(alpha)
    for c in hist.values():
        expected -= math.log(math.factorial(c))
    for k in range(Z.shape[1]):
        m = int(Z[:, k].sum())
        expected += math.log(
            math.factorial(N - m) * math.factorial(m - 1) / math.factorial(N)
        )
    assert ibp_lof_log_prior(Z, alpha, N) == pytest.approx(expected, abs=1e-12)

    # repeated columns share an equivalence class
    Z2 = np.array([[1, 1], [1, 1], [0, 0]], dtype=float)
    direct = ibp_lof_log_prior(Z2, 1.0, 3)
    assert np.isfinite(direct)

    assert ibp_lof_log_prior(np.zeros((4, 0)), 0.0, 4) == 0.0
    assert ibp_lof_log_prior(np.ones((4, 1)), 0.0, 4) == -np.inf


def test_collapsed_flip_logodds_rejects_bias_and_out_of_range_columns():
    data = small_mixed_data(12, seed=41)
    hp = Hyperparams(alpha=2.0, K_max=8, K_init=2, bias=True, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(42))
    with pytest.raises(ValueError):
        collapsed_flip_logodds(state, 0, state.K)
    with pytest.raises(ValueError):
        collapsed_flip_logodds(state, 0, 0)  # bias column is not flippable


def test_prior_recovery_small():
    # no data constraints: the chain must sample the feature-count prior,
    # E[K+] = alpha * H_4 = 1 + 1/2 + 1/3 + 1/4 ~ 2.0833
    cells = np.zeros((4, 1))
    missing = np.ones((4, 1), dtype=bool)
    data = DataMatrix(
        cells=cells, missing=missing, specs=[AttributeSpec("x", AttributeKind.REAL)]
    )
    hp = Hyperparams(alpha=1.0, K_max=15, K_init=1, bias=False,
                     iterations=6000, burn_in=500, seed=43)
    res = run_chain(data, hp)
    ks = np.array([t["K_plus"] for t in res.trace if t["iteration"] > hp.burn_in])
    assert ks.mean() == pytest.approx(25.0 / 12.0, abs=0.3)


def test_log_joint_penalizes_reconstruction_error():
    data = real_only_data(20, seed=44)
    hp = Hyperparams(alpha=1.0, K_max=6, K_init=1, bias=True,
                     iterations=20, burn_in=2, seed=45)
    res = run_chain(data, hp)
    fit = complete_data_log_joint(res.state)
    assert np.isfinite(fit)
    broken = res.state.copy()
    broken.Y = broken.Y + 10.0
    broken.recompute_natural()
    # inflating every residual by 10 costs ~N * 100 / (2 sigma^2) nats
    assert fit - complete_data_log_joint(broken) > 100.0


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10000),
    n_rows=st.integers(3, 9),
    iters=st.integers(1, 4),
)
def test_natural_params_exact_property(seed, n_rows, iters):
    data, _ = generate(n_rows, missing_rate=0.2, seed=seed)
    hp = Hyperparams(alpha=1.5, K_max=7, K_init=1, bias=True,
                     iterations=0, burn_in=0)
    rng = RngState(seed + 1)
    state = init_state(data, hp, rng)
    for _ in range(iters):
        run_iteration(rng, state, data)
    assert_natural_params_exact(state)
