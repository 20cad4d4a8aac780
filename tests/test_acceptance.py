"""Acceptance gate: one test per shipping criterion.

Each test is self-contained and checks its criterion at the stated tolerance
against independently coded reference computations (quadrature, closed-form
marginals, Monte Carlo, or direct enumeration), never against the code under
test itself.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr
from scipy.stats import kstest, multivariate_normal, norm

from glfm.data import AttributeKind, AttributeSpec, DataMatrix, fit_transforms
from glfm.engine import (
    Hyperparams,
    LatentState,
    birth_features,
    collapsed_flip_logodds,
    complete_data_log_joint,
    init_state,
    prune_features,
    run_chain,
    run_iteration,
    sample_pseudo_obs,
    sample_weights,
    sample_z_row,
)
from glfm.likelihoods import (
    TransformParams,
    prob_categorical,
    prob_count,
    prob_ordinal,
)
from glfm.randkit import RngState, trunc_normal_sample
from glfm.synthetic import generate
from glfm.tasks import (
    as_all_real,
    feature_activation_probs,
    make_heldout_masks,
    predictive_loglik_by_dim,
)

HALF_NORMAL_MEAN = 0.7978845608028654


def _sigmoid(t):
    if t == -np.inf:
        return 0.0
    return 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))


# --- 1. collapsed-oracle equivalence -----------------------------------------


def _flip_prob_closed_form(Z, y, n, k, sigma_B2, N):
    """p(z_nk = 1 | Z_-nk, y) by the Gaussian marginal likelihood of the
    column under each setting of z_nk, weights integrated out analytically.
    Pseudo-observation noise is the model's unit variance."""
    m = Z[:, k].sum() - Z[n, k]
    if m == 0:
        return 0.0
    logps = []
    for val in (1.0, 0.0):
        Zv = Z.copy()
        Zv[n, k] = val
        cov = sigma_B2 * (Zv @ Zv.T) + np.eye(N)
        ll = multivariate_normal.logpdf(y, mean=np.zeros(N), cov=cov)
        prior = math.log(m / N) if val == 1.0 else math.log(1.0 - m / N)
        logps.append(prior + ll)
    mx = max(logps)
    p1, p0 = math.exp(logps[0] - mx), math.exp(logps[1] - mx)
    return p1 / (p1 + p0)


def _flip_prob_quadrature(Z, y, n, k, sigma_B2, N):
    """Same probability by brute-force numerical marginalization over the
    weight vector on a tensor Gauss-Hermite grid."""
    from numpy.polynomial.hermite import hermgauss

    nodes, weights = hermgauss(96)
    K = Z.shape[1]
    b_scale = math.sqrt(2.0 * sigma_B2)
    grids = np.meshgrid(*([nodes * b_scale] * K), indexing="ij")
    b = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([weights] * K), indexing="ij")
    wprod = np.ones(b.shape[0])
    for g in wgrids:
        wprod *= g.ravel()

    m = Z[:, k].sum() - Z[n, k]
    if m == 0:
        return 0.0
    logps = []
    for val in (1.0, 0.0):
        Zv = Z.copy()
        Zv[n, k] = val
        mean = b @ Zv.T
        ll = -0.5 * np.sum(
            math.log(2.0 * math.pi) + (y[None, :] - mean) ** 2, axis=1
        )
        mx = ll.max()
        integral = float(wprod @ np.exp(ll - mx)) / math.pi ** (K / 2.0)
        prior = math.log(m / N) if val == 1.0 else math.log(1.0 - m / N)
        logps.append(prior + mx + math.log(integral))
    mx = max(logps)
    p1, p0 = math.exp(logps[0] - mx), math.exp(logps[1] - mx)
    return p1 / (p1 + p0)


def test_collapsed_flip_probability_matches_brute_force_marginalization():
    spec = AttributeSpec("x", AttributeKind.REAL)
    gen = np.random.default_rng(1000)
    cases = 0
    t0 = time.perf_counter()
    for N, K, sigma_B2 in [(2, 1, 1.0), (3, 1, 1.0), (4, 1, 4.0),
                           (3, 2, 1.0), (4, 2, 1.0), (4, 2, 4.0)]:
        for trial in range(3):
            Z = (gen.random((N, K)) < 0.6).astype(float)
            Z[0] = 1.0  # keep every column alive somewhere
            y = gen.normal(0.0, 1.5, size=N)
            hp = Hyperparams(K_init=K, bias=False, sigma_B2=sigma_B2,
                             iterations=0, burn_in=0)
            state = LatentState(
                specs=(spec,), hp=hp, Z=Z.copy(), Y=y.reshape(N, 1).copy(),
                B=np.zeros((K, 1)), theta={}, sigma2=np.array([1.0]),
            )
            state.recompute_natural()
            for n in range(N):
                for k in range(K):
                    p_model = _sigmoid(collapsed_flip_logodds(state, n, k))
                    p_closed = _flip_prob_closed_form(Z, y, n, k, sigma_B2, N)
                    p_quad = _flip_prob_quadrature(Z, y, n, k, sigma_B2, N)
                    assert abs(p_model - p_closed) <= 1e-5, (N, K, n, k)
                    assert abs(p_model - p_quad) <= 1e-5, (N, K, n, k)
                    cases += 1
    # a feature alive only through row n must be forced off
    Z = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    y = np.array([0.3, -0.2, 0.9])
    hp = Hyperparams(K_init=2, bias=False, iterations=0, burn_in=0)
    state = LatentState(
        specs=(spec,), hp=hp, Z=Z.copy(), Y=y.reshape(3, 1).copy(),
        B=np.zeros((2, 1)), theta={}, sigma2=np.array([1.0]),
    )
    state.recompute_natural()
    assert _sigmoid(collapsed_flip_logodds(state, 0, 1)) == 0.0
    assert _flip_prob_closed_form(Z, y, 0, 1, 1.0, 3) == 0.0
    assert time.perf_counter() - t0 < 60.0
    assert cases == 93


# --- 2. natural-parameter integrity -------------------------------------------


def test_natural_parameters_match_recomputation_after_1000_random_operations():
    data, _ = generate(50, missing_rate=0.15, seed=2000)
    hp = Hyperparams(alpha=3.0, K_max=12, K_init=3, bias=True,
                     iterations=0, burn_in=0)
    rng = RngState(2001)
    state = init_state(data, hp, rng)
    ops = rng.gen.integers(0, 4, size=1000)
    for op in ops:
        if op == 0:
            sample_z_row(rng, state, data, int(rng.gen.integers(0, state.N)))
        elif op == 1:
            birth_features(rng, state, data, int(rng.gen.integers(0, state.N)))
        elif op == 2:
            prune_features(state)
        else:
            n = int(rng.gen.integers(0, state.N))
            d = int(rng.gen.integers(0, len(state.specs)))
            sample_pseudo_obs(rng, state, data, n, d)
            sample_weights(rng, state, d)

    P_ref = state.Z.T @ state.Z + np.eye(state.K) / hp.sigma_B2
    lam_ref = state.Z.T @ state.Y
    assert np.max(np.abs(state.P - P_ref)) <= 1e-9
    assert np.max(np.abs(state.lam - lam_ref)) <= 1e-9
    # the Sherman-Morrison-maintained inverse stays usable between refreshes
    assert np.max(np.abs(state.P_inv @ state.P - np.eye(state.K))) <= 1e-6


# --- 3. likelihood normalization ----------------------------------------------


def test_likelihood_normalization_against_analytic_and_monte_carlo_oracles():
    # ordinal: exact CDF differences must telescope to 1
    theta = [0.0, 0.8, 2.1]
    for m, sigma in [(0.0, 1.0), (1.3, 0.5), (-2.0, 2.0)]:
        total = sum(prob_ordinal(r, m, theta, sigma) for r in range(1, 5))
        assert abs(total - 1.0) <= 1e-12

    # categorical: normalization within 1e-6 and every mass within Monte Carlo
    # precision of a 10^7-sample argmax oracle
    gen = np.random.default_rng(3000)
    n_mc = 10_000_000
    chunk = 1_000_000
    for R in (2, 3, 5):
        B = gen.normal(0.0, 1.0, size=(2, R))
        B[:, -1] = 0.0
        z = np.array([1.0, 1.0])
        probs = np.array([prob_categorical(r, z, B, 1.0) for r in range(1, R + 1)])
        assert abs(probs.sum() - 1.0) <= 1e-6
        means = z @ B
        hits = np.zeros(R)
        for _ in range(n_mc // chunk):
            draws = gen.normal(means, 1.0, size=(chunk, R))
            hits += np.bincount(np.argmax(draws, axis=1), minlength=R)
        freq = hits / n_mc
        assert np.max(np.abs(probs - freq)) <= 1e-3

    # two categories with unit gap: closed form Phi(1/sqrt(2))
    B2 = np.array([[1.0, 0.0]])
    assert abs(
        prob_categorical(1, np.array([1.0]), B2, 1.0) - 0.7602499389065233
    ) <= 1e-8

    # count: the first 200 masses cover all but 1e-6 of the distribution
    params = TransformParams(w=1.0, mu=0.0)
    partial = sum(prob_count(x, 0.0, params, 1.0) for x in range(201))
    assert partial >= 1.0 - 1e-6
    assert abs(prob_count(0, 0.0, params, 1.0) - 0.7058581539951883) <= 1e-12


# --- 4. truncated-normal correctness -------------------------------------------


def _std_trunc_cdf(lo, hi):
    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), lo, hi)
        if lo > 0:
            num = -np.expm1(log_ndtr(-x) - log_ndtr(-lo))
            den = 1.0 if np.isinf(hi) else -np.expm1(log_ndtr(-hi) - log_ndtr(-lo))
            return np.clip(num / den, 0.0, 1.0)
        den = (1.0 if np.isinf(hi) else ndtr(hi)) - ndtr(lo)
        return np.clip((ndtr(x) - ndtr(lo)) / den, 0.0, 1.0)

    return cdf


def test_truncated_normal_moments_ks_and_bounds():
    n = 1_000_000
    regimes = {
        "two-sided": (-0.7, 1.2),
        "one-sided": (0.0, np.inf),
        "far-tail": (8.0, np.inf),
    }
    draws = {}
    for i, (name, (lo, hi)) in enumerate(regimes.items()):
        rng = RngState(4000 + i)
        x = trunc_normal_sample(rng, 0.0, 1.0, lo, hi, size=n)
        # zero out-of-bounds samples in 10^6 draws
        assert int(np.sum((x < lo) | (x > hi))) == 0, name
        assert np.all(np.isfinite(x)), name
        draws[name] = (x, lo, hi)

    # one-sided mean against sqrt(2/pi)
    assert abs(draws["one-sided"][0].mean() - HALF_NORMAL_MEAN) <= 3e-3

    # KS test against the analytic CDF passes at the 1e-3 level
    for name, (x, lo, hi) in draws.items():
        result = kstest(x, _std_trunc_cdf(lo, hi))
        assert result.pvalue > 1e-3, f"{name}: KS p={result.pvalue}"


# --- 5. prior recovery ----------------------------------------------------------


def test_prior_recovery_of_expected_feature_count():
    # no observed cells: the sampler must reproduce E[K+] = alpha * H_5
    N = 5
    data = DataMatrix(
        cells=np.zeros((N, 1)),
        missing=np.ones((N, 1), dtype=bool),
        specs=[AttributeSpec("x", AttributeKind.REAL)],
    )
    hp = Hyperparams(alpha=1.0, K_max=30, K_init=1, bias=False,
                     iterations=21000, burn_in=1000, seed=20)
    res = run_chain(data, hp)
    ks = np.array(
        [t["K_plus"] for t in res.trace if t["iteration"] > hp.burn_in], dtype=float
    )
    assert ks.size == 20000
    target = 1.0 * sum(1.0 / i for i in range(1, N + 1))  # 2.28333...
    assert abs(ks.mean() - target) <= 0.15


# --- 6. synthetic recovery -------------------------------------------------------


def test_synthetic_recovery_feature_count_and_heldout_ordering():
    t0 = time.perf_counter()
    data, _ = generate(1000, k_true=3, bias=True, sigma_B=1.0, sigma_y=0.5, seed=42)
    # adaptive per-attribute noise keeps the model calibrated on the refit
    # transform scale, where the effective pseudo-noise is not 1
    hp = Hyperparams(alpha=1.0, K_max=12, K_init=2, bias=True,
                     iterations=500, burn_in=400, sample_variance=True, seed=13)

    def fit_and_score(rate, all_real):
        mask = make_heldout_masks(data, 1, rate, seed=77)[0]
        train = DataMatrix(
            cells=data.cells, missing=data.missing | mask,
            specs=data.specs, raw=data.raw,
        )
        train = fit_transforms(train)
        if all_real:
            train = as_all_real(train)
        res = run_chain(train, hp, keep_last=3)
        scored = DataMatrix(
            cells=data.cells, missing=data.missing, specs=train.specs, raw=data.raw
        )
        return res, predictive_loglik_by_dim(res.saved, scored, mask)

    res10, by_dim_10 = fit_and_score(0.10, all_real=False)

    # recovered feature count: truth is 3 non-bias features
    usage = feature_activation_probs(res10.state)
    n_used = int(np.sum(usage > 0.01))
    assert 3 <= n_used <= 6, f"features with >1% usage: {n_used} ({usage})"

    # typed likelihoods must beat the all-Real degenerate configuration on the
    # discrete attributes
    _, by_dim_sibp = fit_and_score(0.10, all_real=True)
    discrete = [
        s.name
        for s in data.specs
        if s.kind in (AttributeKind.CATEGORICAL, AttributeKind.ORDINAL, AttributeKind.COUNT)
    ]
    glfm_discrete = sum(by_dim_10[name]["sum"] for name in discrete)
    sibp_discrete = sum(by_dim_sibp[name]["sum"] for name in discrete)
    assert glfm_discrete > sibp_discrete

    # more hidden cells means a worse per-cell predictive score
    _, by_dim_50 = fit_and_score(0.50, all_real=False)

    def mean_per_cell(by_dim):
        total = sum(v["sum"] for v in by_dim.values())
        count = sum(v["count"] for v in by_dim.values())
        return total / count

    assert mean_per_cell(by_dim_50) < mean_per_cell(by_dim_10)
    assert time.perf_counter() - t0 <= 600.0


# --- 7. complexity scaling -------------------------------------------------------


def test_per_sweep_cost_scales_linearly_when_rows_double():
    # alpha = 0 pins K, so the sweep cost isolates the row scan, linear in N.
    # The laps of the two sizes alternate and each size keeps its fastest
    # lap, so a burst of load on the machine cannot land on one size alone
    chains = {}
    for n_rows in (1000, 2000):
        data, _ = generate(n_rows, k_true=3, bias=True, sigma_y=1.0, seed=11)
        hp = Hyperparams(alpha=0.0, K_max=8, K_init=5, bias=True,
                         iterations=0, burn_in=0, seed=7)
        rng = RngState(7)
        state = init_state(data, hp, rng)
        for _ in range(3):
            run_iteration(rng, state, data)
        chains[n_rows] = (rng, state, data)
    laps = {n_rows: [] for n_rows in chains}
    for _ in range(12):
        for n_rows, (rng, state, data) in chains.items():
            t0 = time.perf_counter()
            run_iteration(rng, state, data)
            laps[n_rows].append(time.perf_counter() - t0)
    for _, state, _ in chains.values():
        assert state.K == 6
    times = {n_rows: min(t) for n_rows, t in laps.items()}
    ratio = times[2000] / times[1000]
    assert 1.5 <= ratio <= 2.5, f"per-sweep ratio {ratio:.3f} ({times})"


# --- 8. determinism ---------------------------------------------------------------


CSV_TEXT = (
    "r1,p1,c1,o1,n1\n"
    "0.5,1.2,red,2,3\n"
    "-1.0,0.4,blue,1,0\n"
    ",2.2,red,,7\n"
    "2.5,0.9,green,3,1\n"
    "0.1,1.8,blue,2,2\n"
    "1.4,,red,1,4\n"
    "-0.7,0.6,green,3,\n"
    "0.9,1.1,red,2,5\n"
)

SPEC_TEXT = (
    "r1,real\n"
    "p1,positivereal\n"
    "c1,categorical,3\n"
    "o1,ordinal,3\n"
    "n1,count\n"
)


def test_cli_runs_are_byte_identical_for_identical_inputs(tmp_path):
    (tmp_path / "data.csv").write_text(CSV_TEXT)
    (tmp_path / "cols.spec").write_text(SPEC_TEXT)
    base = ["--spec", str(tmp_path / "cols.spec"), "--iters", "5", "--burn-in", "1",
            "--kmax", "6", "--kinit", "1", "--alpha", "1.5", "--bias", "--seed", "9"]
    jobs = {
        "infer": ["infer", str(tmp_path / "data.csv")] + base,
        "complete": ["complete", str(tmp_path / "data.csv")] + base + ["--chains", "2"],
        "explore": ["explore", str(tmp_path / "data.csv")] + base + ["--top", "4"],
    }
    outputs = {
        "infer": ("state.json", "trace.ndjson"),
        "complete": ("state.json", "trace.ndjson", "completed.csv"),
        "explore": ("patterns.csv", "feature_probs.csv", "pdfs.csv"),
    }
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    for name, argv in jobs.items():
        dirs = []
        for run in ("first", "second"):
            out = tmp_path / f"{name}_{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "glfm"] + argv + ["-o", str(out)],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert proc.returncode == 0, (name, proc.stderr)
            dirs.append(out)
        for artifact in outputs[name]:
            a = (dirs[0] / artifact).read_bytes()
            b = (dirs[1] / artifact).read_bytes()
            assert a == b, f"{name}/{artifact} differs between identical runs"


# --- 9. degenerate-model equivalence ----------------------------------------------


def _independent_linear_gaussian_log_joint(Z, B, Y, alpha, sigma_B2, sigma_y2, n_bias):
    """Test-local coding of the all-Real complete-data log joint: buffet prior
    over active non-bias columns, Gaussian weight prior, Gaussian emissions."""
    N = Z.shape[0]
    body = Z[:, n_bias:]
    active = body[:, body.sum(axis=0) > 0]

    H = sum(1.0 / i for i in range(1, N + 1))
    total = -alpha * H
    if active.shape[1] > 0:
        histories = {}
        for k in range(active.shape[1]):
            key = tuple(int(v) for v in active[:, k])
            histories[key] = histories.get(key, 0) + 1
        total += active.shape[1] * math.log(alpha)
        for c in histories.values():
            total -= math.log(math.factorial(c))
        for k in range(active.shape[1]):
            mk = int(active[:, k].sum())
            total += (
                math.log(math.factorial(N - mk))
                + math.log(math.factorial(mk - 1))
                - math.log(math.factorial(N))
            )

    for row in B:
        for b in row:
            total += float(norm.logpdf(b, loc=0.0, scale=math.sqrt(sigma_B2)))

    mean = Z @ B
    for i in range(Y.shape[0]):
        for j in range(Y.shape[1]):
            total += float(
                norm.logpdf(Y[i, j], loc=mean[i, j], scale=math.sqrt(sigma_y2))
            )
    return total


@pytest.mark.parametrize("bias", [False, True])
def test_all_real_log_joint_matches_independent_linear_gaussian_coding(bias):
    gen = np.random.default_rng(9000 + int(bias))
    N, D = 30, 3
    cells = gen.normal(0.0, 1.0, size=(N, D))
    specs = [AttributeSpec(f"x{d}", AttributeKind.REAL) for d in range(D)]
    data = DataMatrix(cells=cells, missing=np.zeros((N, D), dtype=bool), specs=specs)
    hp = Hyperparams(alpha=2.0, sigma_B2=1.0, sigma_y2=1.0, K_max=8, K_init=2,
                     bias=bias, iterations=10, burn_in=2, seed=9001 + int(bias))
    res = run_chain(data, hp)
    state = res.state
    engine_value = complete_data_log_joint(state)
    reference = _independent_linear_gaussian_log_joint(
        state.Z, state.B, state.Y, hp.alpha, hp.sigma_B2, hp.sigma_y2, state.n_bias
    )
    assert abs(engine_value - reference) <= 1e-9
