"""Completion, held-out scoring, pattern extraction, predictive tables."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glfm.data import AttributeKind, AttributeSpec, DataMatrix
from glfm.data import invert_preprocess as _decode_grid
from glfm.data import preprocess_jacobian as _preprocess_jacobian
from glfm.engine import Hyperparams, LatentState, run_chain
from glfm.likelihoods import (
    log_prob_count,
    log_prob_ordinal,
    loglik_continuous,
    map_forward,
    prob_categorical,
    softplus,
    softplus_inv,
)
from glfm.synthetic import generate
from glfm.tasks import (
    TINY_PROB,
    Pattern,
    _cell_scores,
    as_all_real,
    compute_pdf,
    extract_patterns,
    feature_activation_probs,
    heldout_benchmark,
    impute_from_states,
    make_heldout_masks,
    predictive_loglik_by_dim,
)

HP0 = Hyperparams(K_init=0, bias=True, iterations=0, burn_in=0)


def manual_state(specs, Z, B, theta=None, sigma2=1.0, hp=HP0):
    Z = np.asarray(Z, dtype=float)
    B = np.asarray(B, dtype=float)
    state = LatentState(
        specs=tuple(specs),
        hp=hp,
        Z=Z,
        Y=Z @ B,
        B=B,
        theta={} if theta is None else {d: np.asarray(t, float) for d, t in theta.items()},
        sigma2=np.full(len(specs), float(sigma2)),
    )
    state.recompute_natural()
    return state


def impute_one(state):
    """Completion of a one-row, one-attribute state's missing cell by
    `impute_from_states` from that state alone."""
    data = DataMatrix(cells=np.array([[np.nan]]), missing=np.array([[True]]), specs=state.specs)
    return impute_from_states([state], data)[0, 0]


def test_compute_map_continuous():
    spec = AttributeSpec("r", AttributeKind.REAL, w=2.0, mu=-1.0)
    state = manual_state([spec], [[1.0]], [[0.7]])
    assert impute_one(state) == pytest.approx(2.0 * 0.7 - 1.0)

    pos = AttributeSpec("p", AttributeKind.POSITIVE_REAL)
    state2 = manual_state([pos], [[1.0]], [[0.4]])
    assert impute_one(state2) == pytest.approx(float(softplus(0.4)))


def test_compute_map_categorical_ties_to_lowest():
    spec = AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=3)
    state = manual_state([spec], [[1.0]], [[0.2, 0.9, 0.0]])
    assert impute_one(state) == 2
    tied = manual_state([spec], [[1.0]], [[0.5, 0.5, 0.0]])
    assert impute_one(tied) == 1


def test_compute_map_ordinal():
    spec = AttributeSpec("o", AttributeKind.ORDINAL, R_d=3)
    theta = {0: [0.0, 1.5]}
    low = manual_state([spec], [[1.0]], [[-0.2]], theta=theta)
    assert impute_one(low) == 1
    mid = manual_state([spec], [[1.0]], [[0.7]], theta=theta)
    assert impute_one(mid) == 2
    high = manual_state([spec], [[1.0]], [[2.5]], theta=theta)
    assert impute_one(high) == 3


def test_compute_map_count_matches_full_search():
    spec = AttributeSpec("n", AttributeKind.COUNT)
    for m in (-3.0, -0.4, 0.0, 0.55, 1.3, 2.0, 4.7):
        for sigma2 in (1.0, 0.25):
            state = manual_state([spec], [[1.0]], [[m]], sigma2=sigma2)
            got = impute_one(state)
            sd = math.sqrt(sigma2)
            lls = [
                log_prob_count(x, m, spec, sd)
                for x in range(140)
            ]
            assert got == int(np.argmax(lls)), f"m={m}, sigma2={sigma2}"


def test_impute_fills_only_missing_cells():
    data, _ = generate(20, missing_rate=0.25, seed=50)
    hp = Hyperparams(alpha=2.0, K_max=6, K_init=1, bias=True,
                     iterations=8, burn_in=1, seed=51)
    cells = impute_from_states(run_chain(data, hp).saved, data)
    obs = ~data.missing
    np.testing.assert_array_equal(cells[obs], data.cells[obs])
    assert not np.any(np.isnan(cells))
    # filled values live in each kind's encoded domain
    for d, spec in enumerate(data.specs):
        filled = cells[data.missing[:, d], d]
        if spec.kind is AttributeKind.CATEGORICAL or spec.kind is AttributeKind.ORDINAL:
            assert np.all((filled >= 1) & (filled <= spec.R_d))
            assert np.all(filled == filled.astype(int))
        elif spec.kind is AttributeKind.COUNT:
            assert np.all(filled >= 0)
            assert np.all(filled == filled.astype(int))
        elif spec.kind is AttributeKind.POSITIVE_REAL:
            assert np.all(filled > 0)


def test_impute_from_states_averages_continuous():
    spec = AttributeSpec("r", AttributeKind.REAL)
    s1 = manual_state([spec], [[1.0]], [[1.0]])
    s2 = manual_state([spec], [[1.0]], [[3.0]])
    data = DataMatrix(
        cells=np.array([[np.nan]]),
        missing=np.array([[True]]),
        specs=[spec],
    )
    filled = impute_from_states([s1, s2], data)
    assert filled[0, 0] == pytest.approx(2.0)
    # one state gives its own mapped mean
    assert impute_from_states([s1], data)[0, 0] == pytest.approx(1.0)


def test_impute_from_states_averages_discrete_probs():
    spec = AttributeSpec("o", AttributeKind.ORDINAL, R_d=3)
    # state A slightly prefers level 1, state B strongly prefers level 3:
    # the averaged distribution picks level 3
    sA = manual_state([spec], [[1.0]], [[-0.1]], theta={0: [0.0, 1.0]})
    sB = manual_state([spec], [[1.0]], [[5.0]], theta={0: [0.0, 1.0]}, sigma2=0.25)
    data = DataMatrix(
        cells=np.array([[np.nan]]), missing=np.array([[True]]), specs=[spec]
    )
    assert impute_from_states([sA, sB], data)[0, 0] == 3.0
    assert impute_from_states([sA], data)[0, 0] == 1.0


def test_one_state_imputes_as_that_state_passed_twice():
    # one rule at any number of states: a state averaged with itself is that
    # state, so every kind fills the same bits
    for seed in range(6):
        states, data, _, _ = random_states(seed, 1, n_rows=40)
        assert data.missing.any(axis=0).all()
        filled = impute_from_states(states, data)
        assert filled.tobytes() == impute_from_states(states * 2, data).tobytes()
    # the mean 0.05 lies in level 2's interval (0, 0.1], but levels 1 and 3
    # each have mass Phi(-0.05), and the lower of them wins
    spec = AttributeSpec("o", AttributeKind.ORDINAL, R_d=3)
    state = manual_state([spec], [[1.0]], [[0.05]], theta={0: [0.0, 0.1]})
    data = DataMatrix(cells=np.array([[np.nan]]), missing=np.array([[True]]), specs=[spec])
    assert impute_one(state) == impute_from_states([state, state], data)[0, 0] == 1.0


def test_predictive_loglik_matches_direct_computation():
    spec = AttributeSpec("r", AttributeKind.REAL, w=1.5, mu=0.2)
    hp = Hyperparams(K_init=0, bias=True, sigma_u2=0.04, iterations=0, burn_in=0)
    state = manual_state([spec], [[1.0], [1.0]], [[0.8]], hp=hp)
    data = DataMatrix(
        cells=np.array([[1.4], [0.3]]),
        missing=np.zeros((2, 1), dtype=bool),
        specs=[spec],
    )
    mask = np.ones((2, 1), dtype=bool)
    got = predictive_loglik_by_dim([state], data, mask)["r"]["sum"]
    expected = sum(
        loglik_continuous(x, 0.8, 1.0 + 0.04, spec, AttributeKind.REAL)
        for x in (1.4, 0.3)
    )
    assert got == pytest.approx(expected, abs=1e-12)


def test_predictive_loglik_averages_over_states():
    spec = AttributeSpec("r", AttributeKind.REAL)
    s1 = manual_state([spec], [[1.0]], [[0.0]])
    s2 = manual_state([spec], [[1.0]], [[2.0]])
    data = DataMatrix(
        cells=np.array([[1.0]]), missing=np.zeros((1, 1), dtype=bool), specs=[spec]
    )
    mask = np.ones((1, 1), dtype=bool)
    sigma_u2 = HP0.sigma_u2
    l1 = loglik_continuous(1.0, 0.0, 1.0 + sigma_u2, spec, AttributeKind.REAL)
    l2 = loglik_continuous(1.0, 2.0, 1.0 + sigma_u2, spec, AttributeKind.REAL)
    expected = math.log(0.5 * (math.exp(l1) + math.exp(l2)))
    got = predictive_loglik_by_dim([s1, s2], data, mask)["r"]["sum"]
    assert got == pytest.approx(expected, abs=1e-12)


def test_predictive_loglik_by_dim_partitions_total():
    data, _ = generate(15, missing_rate=0.0, seed=54)
    hp = Hyperparams(alpha=1.0, K_max=5, K_init=1, bias=True,
                     iterations=4, burn_in=1, seed=55)
    states = run_chain(data, hp).saved
    mask = make_heldout_masks(data, 1, 0.3, seed=7)[0]
    total = sum(float(v.sum()) for v in _cell_scores(states, data, mask).values())
    by_dim = predictive_loglik_by_dim(states, data, mask)
    assert sum(v["sum"] for v in by_dim.values()) == pytest.approx(total, abs=1e-9)
    assert sum(v["count"] for v in by_dim.values()) == int(mask.sum())
    for name, v in by_dim.items():
        assert v["mean"] == pytest.approx(v["sum"] / v["count"])
        assert v["kind"] in ("real", "positivereal", "categorical", "ordinal", "count")


def test_make_heldout_masks_properties():
    data, _ = generate(30, missing_rate=0.2, seed=56)
    masks = make_heldout_masks(data, 3, 0.15, seed=9)
    again = make_heldout_masks(data, 3, 0.15, seed=9)
    assert len(masks) == 3
    for m, m2 in zip(masks, again):
        np.testing.assert_array_equal(m, m2)
        assert not np.any(m & data.missing)  # only observed cells are hidden
        assert m.sum() >= 1
    assert any(not np.array_equal(masks[0], m) for m in masks[1:])
    with pytest.raises(ValueError):
        make_heldout_masks(data, 0, 0.1)
    with pytest.raises(ValueError):
        make_heldout_masks(data, 2, 0.0)
    with pytest.raises(ValueError):
        make_heldout_masks(data, 2, 1.0)


def test_make_heldout_masks_guarantees_a_cell():
    data, _ = generate(3, missing_rate=0.0, seed=57)
    masks = make_heldout_masks(data, 2, 0.001, seed=3)
    for m in masks:
        assert m.sum() >= 1


def test_heldout_benchmark_structure():
    data, _ = generate(24, missing_rate=0.1, seed=58)
    hp = Hyperparams(alpha=1.0, K_max=5, K_init=1, bias=True,
                     iterations=5, burn_in=1, seed=59)
    out = heldout_benchmark(data, hp, rate=0.2, n_splits=2, seed=60)
    assert out["rate"] == 0.2
    assert len(out["splits"]) == 2
    for split in out["splits"]:
        assert split["n_cells"] >= 1
        assert split["mean"] == pytest.approx(split["total"] / split["n_cells"])
        assert split["per_dim"]
    assert out["mean_per_cell"] == pytest.approx(
        np.mean([s["mean"] for s in out["splits"]])
    )
    # deterministic for a fixed seed
    out2 = heldout_benchmark(data, hp, rate=0.2, n_splits=2, seed=60)
    assert out2["mean_per_cell"] == out["mean_per_cell"]


def test_as_all_real():
    data, _ = generate(10, missing_rate=0.1, seed=61)
    flat = as_all_real(data)
    assert all(s.kind is AttributeKind.REAL for s in flat.specs)
    assert all(s.R_d is None for s in flat.specs)
    assert [s.name for s in flat.specs] == [s.name for s in data.specs]
    np.testing.assert_array_equal(
        np.nan_to_num(flat.cells), np.nan_to_num(data.cells)
    )
    pre = AttributeSpec("p", AttributeKind.POSITIVE_REAL, external_preprocess="log1p")
    src = DataMatrix(
        cells=np.array([[0.5], [1.0]]),
        missing=np.zeros((2, 1), dtype=bool),
        specs=[pre],
    )
    assert as_all_real(src).specs[0].external_preprocess == "log1p"


@pytest.mark.parametrize("K,seed", [(1, 0), (3, 1), (8, 2), (9, 3), (13, 4)])
def test_extract_patterns_matches_brute_force_sort(K, seed):
    # few distinct rows, so many counts tie; the reference sorts the distinct
    # rows by count, descending, then lexicographically
    rng = np.random.default_rng(seed)
    pool = (rng.random((6, K)) < 0.5).astype(float)
    Z = pool[rng.integers(0, len(pool), size=60)]
    state = manual_state([AttributeSpec("r", AttributeKind.REAL)], Z, np.zeros((K, 1)))
    rows = [tuple(int(v) for v in row) for row in Z]
    expected = sorted(set(rows), key=lambda bits: (-rows.count(bits), bits))
    pats = extract_patterns(state)
    assert [p.bits for p in pats] == expected
    assert [p.count for p in pats] == [rows.count(bits) for bits in expected]
    assert [p.empirical_prob for p in pats] == [rows.count(bits) / 60 for bits in expected]
    assert all(type(b) is int for p in pats for b in p.bits)


def test_extract_patterns_ordering_and_labels():
    spec = AttributeSpec("r", AttributeKind.REAL)
    Z = np.array(
        [[1, 0, 1], [1, 0, 1], [1, 1, 0], [1, 0, 1], [1, 1, 1]], dtype=float
    )
    B = np.zeros((3, 1))
    state = manual_state([spec], Z, B)
    pats = extract_patterns(state)
    assert pats[0] == Pattern(bits=(1, 0, 1), count=3, empirical_prob=0.6)
    assert pats[0].label == "(101)"
    assert [p.count for p in pats] == [3, 1, 1]
    # ties keep lexicographic pattern order
    assert pats[1].bits < pats[2].bits
    assert len(extract_patterns(state, top=2)) == 2
    assert sum(p.empirical_prob for p in pats) == pytest.approx(1.0)


def test_extract_patterns_rejects_a_negative_top():
    Z = np.array([[1, 0], [1, 1], [1, 1]], dtype=float)
    state = manual_state([AttributeSpec("r", AttributeKind.REAL)], Z, np.zeros((2, 1)))
    with pytest.raises(ValueError, match=r"^top must be >= 0, got -1$"):
        extract_patterns(state, top=-1)
    assert extract_patterns(state, top=0) == []
    assert len(extract_patterns(state, top=5)) == 2


@pytest.mark.parametrize("n_points", [-1, 0, 1])
def test_compute_pdf_rejects_a_grid_under_two_points(n_points):
    state = manual_state([AttributeSpec("r", AttributeKind.REAL)], [[1.0]], [[0.5]])
    with pytest.raises(ValueError, match=rf"^n_points must be >= 2, got {n_points}$"):
        compute_pdf(state, 0, np.array([1.0]), n_points=n_points)
    xs, dens = compute_pdf(state, 0, np.array([1.0]), n_points=2)
    assert xs.shape == dens.shape == (2,)


def test_feature_activation_probs():
    spec = AttributeSpec("r", AttributeKind.REAL)
    Z = np.array([[1, 1, 0], [1, 0, 0], [1, 1, 1], [1, 0, 0]], dtype=float)
    hp = Hyperparams(K_init=2, bias=True, iterations=0, burn_in=0)
    state = manual_state([spec], Z, np.zeros((3, 1)), hp=hp)
    np.testing.assert_allclose(feature_activation_probs(state), [0.5, 0.25])


def test_compute_pdf_discrete_normalization():
    cat = AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=4)
    ordn = AttributeSpec("o", AttributeKind.ORDINAL, R_d=3)
    cnt = AttributeSpec("n", AttributeKind.COUNT)
    B = np.array([[0.5, -0.3, 1.0, 0.0, 0.6, 1.2]])
    state = manual_state([cat, ordn, cnt], [[1.0]], B, theta={1: [0.0, 0.9]})
    z = np.array([1.0])
    for d, width in ((0, 4), (1, 3)):
        xs, p = compute_pdf(state, d, z)
        assert xs.shape == (width,)
        assert p.sum() == pytest.approx(1.0, abs=1e-8)
    xs, p = compute_pdf(state, 2, z)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    m=st.floats(-40.0, 40.0),
    sigma2=st.floats(1e-8, 1e4),
    w=st.floats(0.03, 30.0),
    mu=st.floats(-20.0, 20.0),
)
# a span of exactly 101 counts, kept whole, and one of 102, thinned
@example(m=0.0, sigma2=float((100.5 / 8.3) ** 2), w=1.0, mu=0.0)
@example(m=0.0, sigma2=float((101.5 / 8.3) ** 2), w=1.0, mu=0.0)
def test_count_pdf_table_spans_the_predictive(m, sigma2, w, mu):
    spec = AttributeSpec("n", AttributeKind.COUNT, w=w, mu=mu)
    state = manual_state([spec], [[1.0]], [[m]], sigma2=sigma2)
    xs, p = compute_pdf(state, 0, np.array([1.0]))
    sd = math.sqrt(sigma2)
    lo = int(map_forward(m - 8.3 * sd, spec, AttributeKind.COUNT))
    hi = int(map_forward(m + 8.3 * sd, spec, AttributeKind.COUNT))
    assert xs.dtype.kind == "i" and xs[0] == lo and xs[-1] == hi
    assert np.all(np.diff(xs) > 0)
    assert np.all(np.isfinite(p)) and np.all(p >= 0)
    if hi - lo + 1 <= 101:
        assert len(xs) == hi - lo + 1
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
    else:
        assert len(xs) == 101


def test_compute_pdf_continuous_integrates_to_one():
    spec = AttributeSpec("p", AttributeKind.POSITIVE_REAL, w=0.8, mu=0.3)
    state = manual_state([spec], [[1.0]], [[0.9]])
    xs, dens = compute_pdf(state, 0, np.array([1.0]), n_points=2001)
    assert np.all(xs > 0)
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=2e-3)


def test_compute_pdf_preprocess_units():
    # density must come back in original units, preprocess Jacobian included
    spec = AttributeSpec("r", AttributeKind.REAL, external_preprocess="log1p")
    state = manual_state([spec], [[1.0]], [[0.5]])
    xs, dens = compute_pdf(state, 0, np.array([1.0]), n_points=4001)
    assert np.all(xs > -1.0)  # log1p domain
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=2e-3)


# --- per-cell reference: the loops the batched predictive replaced ------------
#
# The batched passes form each row's linear predictor in one matrix product
# and sum some reductions in another order, so continuous values and scores
# may differ from these loops at rounding. The tolerance is fixed from float64
# before comparing: relative 1e-12, with magnitudes below 1 held to 1e-12
# absolutely (a log density or a real value crossing 0 has no relative
# scale). Discrete imputations must be identical.

RTOL = ATOL = 1e-12


def ref_cell_loglik(state, n, d, x):
    spec = state.specs[d]
    cs = state.dim_cols(d)
    z = state.Z[n]
    m = z @ state.B[:, cs]
    var_d = float(state.sigma2[d])
    kind = spec.kind
    if kind.is_continuous:
        total_var = var_d + state.hp.sigma_u2
        return float(loglik_continuous(float(x), float(m[0]), total_var, spec, kind))
    sd = math.sqrt(var_d)
    if kind is AttributeKind.CATEGORICAL:
        p = prob_categorical(int(x), z, state.B[:, cs], sd)
        return math.log(max(p, TINY_PROB))
    if kind is AttributeKind.ORDINAL:
        return float(log_prob_ordinal(int(x), float(m[0]), state.theta[d], sd))
    return float(log_prob_count(int(x), float(m[0]), spec, sd))


def ref_cell_score(states, n, d, x):
    lls = np.array([ref_cell_loglik(s, n, d, x) for s in states])
    top = lls.max()
    if np.isneginf(top):
        return -np.inf
    return float(top + np.log(np.mean(np.exp(lls - top))))


def ref_impute_cell(states, n, d):
    spec = states[0].specs[d]
    kind = spec.kind
    if kind.is_continuous:
        vals = [
            float(map_forward(float((s.Z[n] @ s.B[:, s.dim_cols(d)])[0]), spec, kind))
            for s in states
        ]
        return float(np.mean(vals))
    if kind is AttributeKind.CATEGORICAL:
        R = spec.R_d
        probs = np.zeros(R)
        for s in states:
            cs = s.dim_cols(d)
            sd = math.sqrt(float(s.sigma2[d]))
            probs += [prob_categorical(r, s.Z[n], s.B[:, cs], sd) for r in range(1, R + 1)]
        return int(np.argmax(probs) + 1)
    if kind is AttributeKind.ORDINAL:
        R = spec.R_d
        probs = np.zeros(R)
        for s in states:
            m = float((s.Z[n] @ s.B[:, s.dim_cols(d)])[0])
            sd = math.sqrt(float(s.sigma2[d]))
            probs += [math.exp(log_prob_ordinal(r, m, s.theta[d], sd)) for r in range(1, R + 1)]
        return int(np.argmax(probs) + 1)
    candidates: set[int] = set()
    for s in states:
        center = int(map_forward(float((s.Z[n] @ s.B[:, s.dim_cols(d)])[0]), spec, kind))
        candidates.update(range(max(0, center - 2), center + 3))
    xs = sorted(candidates)
    probs = np.zeros(len(xs))
    for s in states:
        m = float((s.Z[n] @ s.B[:, s.dim_cols(d)])[0])
        sd = math.sqrt(float(s.sigma2[d]))
        probs += [math.exp(log_prob_count(x, m, spec, sd)) for x in xs]
    return int(xs[int(np.argmax(probs))])


def ref_compute_pdf(state, d, z, n_points=101):
    spec = state.specs[d]
    cs = state.dim_cols(d)
    z = np.asarray(z, dtype=float)
    m = z @ state.B[:, cs]
    var_d = float(state.sigma2[d])
    sd = math.sqrt(var_d)
    kind = spec.kind
    if kind is AttributeKind.CATEGORICAL:
        xs = np.arange(1, spec.R_d + 1)
        return xs, np.array([prob_categorical(r, z, state.B[:, cs], sd) for r in xs])
    if kind is AttributeKind.ORDINAL:
        xs = np.arange(1, spec.R_d + 1)
        return xs, np.array([math.exp(log_prob_ordinal(r, float(m[0]), state.theta[d], sd))
                             for r in xs])
    if kind is AttributeKind.COUNT:
        # the counts met by m +- 8.3 sd, or n_points of them evenly spread
        lo = int(map_forward(float(m[0]) - 8.3 * sd, spec, kind))
        hi = int(map_forward(float(m[0]) + 8.3 * sd, spec, kind))
        if hi - lo + 1 <= n_points:
            xs = np.arange(lo, hi + 1)
        else:
            xs = np.array([lo + i * (hi - lo) // (n_points - 1) for i in range(n_points)])
        return xs, np.array(
            [math.exp(log_prob_count(int(x), float(m[0]), spec, sd)) for x in xs]
        )
    total_var = var_d + state.hp.sigma_u2
    half = 4.0 * math.sqrt(total_var)
    x_enc = map_forward(np.linspace(float(m[0]) - half, float(m[0]) + half, n_points), spec, kind)
    dens = np.exp(loglik_continuous(x_enc, float(m[0]), total_var, spec, kind))
    return _decode_grid(spec, x_enc), dens * _preprocess_jacobian(spec, x_enc)


def random_states(seed, n_states, n_rows=9):
    """Small states over one attribute of each kind, with their own feature
    counts, weights, thresholds and per-attribute noise variances, plus a
    table (values in each kind's domain, some cells missing)."""
    rng = np.random.default_rng(seed)
    specs = (
        AttributeSpec("r", AttributeKind.REAL, w=rng.uniform(0.3, 3), mu=rng.normal(),
                      external_preprocess=[None, "log1p", "reflected-log1p"][seed % 3]),
        AttributeSpec("p", AttributeKind.POSITIVE_REAL, w=rng.uniform(0.3, 3), mu=rng.normal()),
        AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=int(rng.integers(2, 6))),
        AttributeSpec("o", AttributeKind.ORDINAL, R_d=int(rng.integers(2, 6))),
        AttributeSpec("n", AttributeKind.COUNT, w=rng.uniform(0.3, 3), mu=rng.normal()),
    )
    hp = Hyperparams(K_init=0, bias=True, sigma_u2=rng.uniform(0.0, 0.5),
                     iterations=0, burn_in=0)
    S = sum(s.S_d for s in specs)
    R_o = specs[3].R_d
    states = []
    for _ in range(n_states):
        K = int(rng.integers(1, 5))
        Z = np.column_stack([np.ones(n_rows), rng.integers(0, 2, (n_rows, K - 1))])
        B = rng.normal(scale=rng.uniform(0.3, 3), size=(K, S))
        B[:, 2 + specs[2].R_d - 1] = 0.0  # categorical identifiability
        theta = {3: np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, R_o - 2))])}
        state = manual_state(specs, Z, B, theta=theta, hp=hp)
        state.sigma2 = rng.uniform(0.2, 3.0, len(specs))
        states.append(state)
    cells = np.column_stack([
        rng.normal(size=n_rows),
        np.exp(rng.normal(size=n_rows)),
        rng.integers(1, specs[2].R_d + 1, n_rows),
        rng.integers(1, R_o + 1, n_rows),
        rng.integers(0, 12, n_rows),
    ]).astype(float)
    if specs[0].external_preprocess is not None:
        cells[:, 0] = rng.uniform(0.0, 20.0, n_rows)
    missing = rng.random(cells.shape) < 0.4
    data = DataMatrix(cells=np.where(missing, np.nan, cells), missing=missing, specs=specs)
    full = DataMatrix(cells=cells, missing=np.zeros_like(missing), specs=specs)
    return states, data, full, missing


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_states=st.sampled_from([1, 3]))
# reflected-log1p whose pdf grid decodes onto the boundary x = 101
@example(seed=129830, n_states=1)
# a positive-real pdf grid reaching below the float spacing at 0
@example(seed=410, n_states=1)
# a categorical mass that underflows to 0
@example(seed=822, n_states=3)
def test_batched_tasks_match_per_cell_reference(seed, n_states):
    states, data, full, mask = random_states(seed, n_states)

    filled = impute_from_states(states, data)
    for n, d in np.argwhere(data.missing):
        want = ref_impute_cell(states, int(n), int(d))
        if data.specs[d].kind.is_continuous:
            np.testing.assert_allclose(filled[n, d], want, rtol=RTOL, atol=ATOL)
        else:
            assert filled[n, d] == want, (n, d)

    if mask.any():
        scores = _cell_scores(states, full, mask)
        for d, got in scores.items():
            rows = np.flatnonzero(mask[:, d])
            want = [ref_cell_score(states, int(n), d, full.cells[n, d]) for n in rows]
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        by_dim = predictive_loglik_by_dim(states, full, mask)
        assert [v["sum"] for v in by_dim.values()] == [float(v.sum()) for v in scores.values()]

    state = states[0]
    for z in (state.Z[0], np.ones(state.K)):
        for d in range(len(state.specs)):
            xs, p = compute_pdf(state, d, z)
            xs_ref, p_ref = ref_compute_pdf(state, d, z)
            np.testing.assert_allclose(xs, xs_ref, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(p, p_ref, rtol=RTOL, atol=0)


def test_multistate_count_imputation_keeps_disjoint_windows():
    spec = AttributeSpec("n", AttributeKind.COUNT)
    data = DataMatrix(cells=np.array([[np.nan]]), missing=np.array([[True]]), specs=[spec])

    def state(softplus_mean, sigma2):
        return manual_state([spec], [[1.0]], [[float(softplus_inv(softplus_mean))]], sigma2=sigma2)

    cases = (
        # centers 2 and 12, windows {0..4} and {10..14}: the sharper second
        # state puts the summed mass's peak in its window
        ((state(2.5, 1.0), state(12.5, 0.25)), (2, 12), 12),
        # centers 20 and 26, broad: the summed mass peaks at 23, between the
        # windows {18..22} and {24..28}, and is no candidate there
        ((state(20.5, 9.0), state(26.1, 9.0)), (20, 26), 22),
        # two sharp states, each with all its mass at its own center: the
        # summed masses tie, and the lower center wins
        ((state(20.5, 1e-8), state(5.5, 1e-8)), (20, 5), 5),
    )
    for pair, centers, want in cases:
        for s, center in zip(pair, centers):
            assert map_forward(s.B[0, 0], spec, AttributeKind.COUNT) == center
        windows = {x for c in centers for x in range(c - 2, c + 3)}
        for states in (list(pair), list(pair[::-1])):
            got = impute_from_states(states, data)[0, 0]
            assert got in windows
            assert got == ref_impute_cell(states, 0, 0) == want


def dense_range_count_imputation(states, d, rows):
    """Multi-state count completions scored over the whole integer range from
    the lowest window to the highest, with one width for every row and the
    values outside each row's windows masked."""
    spec = states[0].specs[d]
    centers = np.array([
        map_forward((s.Z[rows] @ s.B[:, s.dim_cols(d)])[:, 0], spec, spec.kind) for s in states
    ])
    lo = np.maximum(centers - 2, 0).min(axis=0)
    xs = lo[:, None] + np.arange(int((centers.max(axis=0) + 2 - lo).max()) + 1)
    candidate = (np.abs(xs - centers[:, :, None]) <= 2).any(axis=0)
    probs = sum(
        np.exp(log_prob_count(xs, s.Z[rows] @ s.B[:, s.dim_cols(d)], spec,
                              math.sqrt(float(s.sigma2[d]))))
        for s in states
    )
    return xs[np.arange(len(rows)), np.argmax(np.where(candidate, probs, -np.inf), axis=1)]


@pytest.mark.parametrize("seed", range(8))
def test_multistate_count_imputation_matches_the_dense_range(seed):
    # scoring each row's own windows, not the whole range between the
    # states' centers, picks the same completion
    states, data, _, _ = random_states(seed, 3, n_rows=40)
    d = 4
    rows = np.flatnonzero(data.missing[:, d])
    want = dense_range_count_imputation(states, d, rows)
    np.testing.assert_array_equal(impute_from_states(states, data)[rows, d], want)


def test_multistate_categorical_tie_goes_to_lowest_category():
    # each state's favourite is the other's runner-up: the summed masses of
    # categories 1 and 2 are equal, and the lower category wins
    spec = AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=3)
    sA = manual_state([spec], [[1.0]], [[0.9, 0.0, 0.0]])
    sB = manual_state([spec], [[1.0]], [[0.0, 0.9, 0.0]])
    data = DataMatrix(cells=np.array([[np.nan]]), missing=np.array([[True]]), specs=[spec])
    for states in ([sA, sB], [sB, sA]):
        assert impute_from_states(states, data)[0, 0] == 1.0
        assert ref_impute_cell(states, 0, 0) == 1
