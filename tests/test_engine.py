"""Sampler state, collapsed updates, conjugate draws, chain behavior.

The replay test is the workhorse: it re-derives every accepted flip of a row
scan from scratch (exact inverse, no incremental algebra) and demands the
incremental path commit identical decisions from an identical random stream.
"""

import ctypes
import functools
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import invgamma, kstest, multivariate_normal, norm

from glfm import _kernel, engine
from glfm.data import AttributeKind, AttributeSpec, DataMatrix
from glfm.engine import (
    Hyperparams,
    LatentState,
    _chol_inverse,
    _k_shapes,
    _sweep,
    _sweep_steps,
    complete_data_log_joint,
    hyperparams_from_dict,
    hyperparams_to_dict,
    init_state,
    run_chain,
)
from glfm.likelihoods import map_forward, map_inverse
from glfm.randkit import RngState, inverse_gamma_sample, trunc_normal_sample
from glfm.synthetic import generate
from reference import collapsed_flip_logodds, ibp_lof_log_prior
from reference import log_joint as reference_log_joint


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


def reference_row_stats(state, n):
    """(s, Q) of row n from an exact inverse: s = z A z with
    A = (P - z z^T)^{-1}, and Q the squared residuals of y - z M summed over
    the free columns, each divided by its attribute's sigma_d^2."""
    z, y = state.Z[n], state.Y[n]
    A = np.linalg.inv(state.P - np.outer(z, z))
    r = y - z @ (A @ (state.lam - np.outer(z, y)))
    free = state.free_cols
    Q = float(np.sum(r[free] ** 2 / state.sigma2[state.col_dim[free]]))
    return float(z @ A @ z), Q


def kernel_row_helper(name, s, n_free, Q):
    """The kernel's exported row log-likelihood or birth gain bound."""
    return getattr(_kernel.load(), name)(s, n_free, Q)


def kernel_enums():
    """Every enum constant _sweep.c declares, by name."""
    source = re.sub(r"/\*.*?\*/", "", _kernel.SOURCE.read_text(), flags=re.S)
    return {name: int(value) for body in re.findall(r"enum\s*\{(.*?)\}", source, re.S)
            for name, value in re.findall(r"(\w+)\s*=\s*(-?\d+)", body)}


def test_kernel_state_struct_matches_the_c_typedef():
    # _kernel.State must list glfm_state's fields in order with matching
    # types; a mismatch shifts every later field and corrupts memory silently
    source = _kernel.SOURCE.read_text()
    body = re.search(r"typedef struct \{(.*?)\} glfm_state;", source, re.S).group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    scalar = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
    expected = []
    for decl in filter(None, (d.strip() for d in body.split(";"))):
        base, rest = re.match(r"(?:const\s+)?(\w+)\s*(.*)", decl, re.S).groups()
        for part in rest.split(","):
            name = re.findall(r"\w+", part)[-1]
            expected.append((name, ctypes.c_void_p if "*" in part else scalar[base]))
    assert list(_kernel.State._fields_) == expected


def test_kernel_module_mirrors_the_c_declarations():
    # ctypes passes whatever the argtypes say, so a stale _SIGNATURES entry,
    # step bit or error code corrupts a call without any error. Every
    # function _sweep.c defines with external linkage must be registered with
    # its prototype's types, and every mirrored constant must match its enum
    source = re.sub(r"/\*.*?\*/", "", _kernel.SOURCE.read_text(), flags=re.S)

    def mirrored(name):
        return name.startswith(("STEP_", "ERR_"))

    assert {n: v for n, v in kernel_enums().items() if mirrored(n)} == {
        n: getattr(_kernel, n) for n in dir(_kernel) if mirrored(n)}

    scalar = {"void": None, "int": ctypes.c_int, "int64_t": ctypes.c_int64,
              "double": ctypes.c_double}

    def ctype(decl):
        base = re.match(r"(?:const\s+)?(\w+)", decl.strip()).group(1)
        if "*" not in decl:
            return scalar[base]
        return ctypes.POINTER(_kernel.State) if base == "glfm_state" else ctypes.c_void_p

    prototypes = {name: (ctype(ret), [ctype(arg) for arg in args.split(",")])
                  for ret, name, args in re.findall(r"^(\w+)\s+(glfm_\w+)\(([^)]*)\)\s*\{",
                                                    source, re.M)}
    assert prototypes == {name: (restype, list(argtypes))
                          for name, (restype, argtypes) in _kernel._SIGNATURES.items()}


def test_kernel_compiles_without_warnings(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    cmd = _kernel._command(str(tmp_path / "sweep.so"), "-Wall", "-Wextra", "-Werror")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_births_run_clean_under_address_and_undefined_behavior_sanitizers(tmp_path, monkeypatch):
    # births and the prune repack Z, P, lam and B inside the kernel; a build
    # with ASan and UBSan, cached where the loader looks, runs a births-heavy
    # chain whose multi-sweep call meets ERR_ROOM, a chain whose K falls, a
    # chain with no bias column, the log joint of a K = 0 and of an alpha = 0
    # state, whole sweeps through the exact-inverse fallback, a two-chain CLI
    # run, and held-out scoring, a three-state completion and explore, which
    # run the categorical quadrature, in a child process, which a memory or
    # UB fault aborts
    cc = shutil.which("cc")
    runtime = cc and subprocess.run([cc, "-print-file-name=libasan.so"], capture_output=True,
                                    text=True).stdout.strip()
    if not runtime or not Path(runtime).is_absolute() or not Path(runtime).exists():
        pytest.skip("no AddressSanitizer runtime for cc")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    target = _kernel._cache_path()
    target.parent.mkdir(parents=True)
    cmd = _kernel._command(str(target), "-fsanitize=address,undefined",
                           "-fno-sanitize-recover=all", "-fno-omit-frame-pointer")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from glfm.cli import main
        from glfm.engine import (Hyperparams, _sweep, _sweep_steps, complete_data_log_joint,
                                 init_state, run_chain)
        from glfm.randkit import RngState
        from glfm.synthetic import generate, to_csv
        data, _ = generate(30, missing_rate=0.1, seed=3)
        hp = Hyperparams(alpha=20.0, K_max=6, K_init=1, bias=True, sample_variance=True,
                         iterations=30, burn_in=0, seed=4)
        # sweeps 1..29 in one call, on a state with no room to spare
        result = run_chain(data, hp)
        assert max(t["K_plus"] for t in result.trace) >= 4
        assert result.state.room["col_sums"].size > 2  # births resumed in grown room
        hp = Hyperparams(alpha=0.0, K_init=3, iterations=0, burn_in=0)
        assert np.isfinite(complete_data_log_joint(init_state(data, hp, RngState(4))))
        hp = Hyperparams(alpha=0.5, K_max=10, K_init=8, bias=True, sample_variance=True,
                         iterations=30, burn_in=0, seed=4)
        assert min(t["K_plus"] for t in run_chain(data, hp).trace) < 8
        # no bias column, from no feature column at all, and no room before
        # each sweep: a sweep meets rows with no active column, and its births
        # resume in grown room and index the active-column list past the K it
        # entered with
        hp = Hyperparams(alpha=5.0, K_max=12, K_init=1, bias=False, sample_variance=True,
                         iterations=0, burn_in=0)
        rng = RngState(5)
        state = init_state(data, hp, rng)
        state.Z, state.B = state.Z[:, :0], state.B[:0]
        state.recompute_natural()
        assert np.isfinite(complete_data_log_joint(state))
        empty = grew = False
        for _ in range(15):
            K = state.K
            empty |= bool((state.Z.sum(axis=1) == 0).any())
            state.room = {}
            _sweep(rng, state, data, _sweep_steps(state.hp))
            grew |= state.K > K
        assert empty and grew
        # the exact-inverse fallback: at sigma_B^2 = 1e13 a feature held by
        # row 0 alone sends that row's downdate to the dense A. Whole sweeps
        # run it beside the weight mean's rebuilds and the row lists
        small, _ = generate(12, missing_rate=0.1, seed=46)
        hp = Hyperparams(alpha=5.0, sigma_B2=1e13, K_max=8, K_init=2, bias=True,
                         sample_variance=True, iterations=0, burn_in=0)
        for seed in range(3):
            state = init_state(small, hp, RngState(47 + seed))
            state.Z[:, 1] = np.arange(state.N) % 2
            state.Z[:, 2] = 0.0
            state.Z[0, 2] = 1.0
            state.recompute_natural()
            rng = RngState(seed)
            for _ in range(3):
                _sweep(rng, state, small, _sweep_steps(state.hp))
        work = sys.argv[1]
        open(work + "/data.csv", "w").write(to_csv(data))
        open(work + "/cols.spec", "w").write(
            "r1,real\\np1,positivereal\\nc1,categorical,3\\no1,ordinal,3\\nn1,count\\nr2,real\\n")
        table = [work + "/data.csv", "--spec", work + "/cols.spec", "--iters", "10",
                 "--alpha", "20", "--kmax", "6", "--bias"]
        assert main(["complete", *table, "-o", work + "/out", "--chains", "2"]) == 0
        # the categorical quadrature: held-out scores, a three-state
        # completion and the pdfs of a saved state
        assert main(["complete", *table, "-o", work + "/scored", "--heldout", "0.2",
                     "--splits", "1", "--average-last", "3"]) == 0
        assert main(["complete", *table, "-o", work + "/avg", "--average-last", "3"]) == 0
        assert main(["explore", "--state", work + "/avg/state.json", "-o",
                     work + "/explore"]) == 0
    """)
    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]


@pytest.mark.parametrize("K", [1, 2, 5, 12, 40])
def test_chol_inverse_matches_numpy_inverse(K):
    rng = np.random.default_rng(K)
    A = rng.standard_normal((K, K + 2))
    P = A @ A.T + np.eye(K)
    np.testing.assert_allclose(_chol_inverse(P), np.linalg.inv(P), rtol=1e-12, atol=1e-12)
    # the natural parameters of a state: Z'Z + I / sigma_B^2 on a 0/1 Z
    Z = (rng.random((30, K)) < 0.4).astype(float)
    P = Z.T @ Z + np.eye(K) / 0.5
    np.testing.assert_allclose(_chol_inverse(P), np.linalg.inv(P), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("P", [
    [[1.0, 2.0], [2.0, 1.0]],                 # indefinite
    [[1.0, 1.0], [1.0, 1.0]],                 # singular
    [[-1.0]],
    [[np.nan, 0.0], [0.0, 1.0]],
])
def test_chol_inverse_rejects_matrices_that_are_not_positive_definite(P):
    with pytest.raises(np.linalg.LinAlgError):
        _chol_inverse(np.array(P))


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


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["alpha", "sigma_B2", "sigma_y2", "sigma_u2", "sigma_theta2",
                                  "beta1", "beta2"])
def test_hyperparams_reject_non_finite_floats(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        Hyperparams(**{name: value})


def test_hyperparams_check_types_and_store_python_numbers():
    # numpy scalars pass the type checks and are stored as what
    # hyperparams_to_dict can hand to json
    hp = Hyperparams(alpha=np.float32(1.5), sigma_B2=2, K_max=np.int64(6), seed=np.uint32(3))
    assert [type(v) for v in (hp.alpha, hp.sigma_B2, hp.K_max, hp.seed)] == [float, float,
                                                                             int, int]
    with pytest.raises(ValueError, match="^bias must be true or false, got 1$"):
        Hyperparams(bias=1)
    with pytest.raises(ValueError, match="^K_init must be an integer, got True$"):
        Hyperparams(K_init=True)
    with pytest.raises(ValueError, match="^alpha must be finite, got an integer of 1329 bits$"):
        Hyperparams(alpha=10**400)


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
        _sweep(rng, state, data, _sweep_steps(state.hp))
    assert_natural_params_exact(state)
    # the maintained inverse tracks the maintained P
    ident = state.P_inv @ state.P
    np.testing.assert_allclose(ident, np.eye(state.K), atol=1e-8)


# noise variances of the six attributes of small_mixed_data (one of them the
# categorical c1, whose last column is pinned): one shared value, where the
# weighted residual is the plain one over the free columns; six distinct
# ones, where every attribute's columns carry their own weight; and values
# repeated across non-adjacent attributes. sigma2 is edited in place, so each
# layout also checks that the scan reads the current sigma2
SIGMA2_LAYOUTS = {
    "shared-sigma2": None,
    "per-attribute-sigma2": tuple(np.geomspace(0.3, 3.0, num=6)),
    "mixed-sigma2": (1.0, 2.0, 1.0, 2.0, 1.0, 3.0),
}


# the replay's inputs: each sigma2 layout with a bias column, and one state
# without, where some rows hold no feature and one holds every feature, so
# the scan sees empty and full lists of active columns
REPLAY_CASES = {
    **{name: (sigma2, True) for name, sigma2 in SIGMA2_LAYOUTS.items()},
    "no-bias-empty-and-full-rows": (None, False),
}


@pytest.mark.parametrize(("sigma2", "bias"), REPLAY_CASES.values(), ids=REPLAY_CASES.keys())
def test_z_row_replay_matches_from_scratch_logodds(sigma2, bias):
    # replay the exact random stream against the O(K^3) reference route,
    # which scores every free column with its own sigma_d^2; sigma2 is
    # edited in place after the warm sweeps, so the scan must reweight
    data = small_mixed_data(30, seed=21)
    hp = Hyperparams(alpha=2.0, K_max=12, K_init=6, bias=bias, iterations=0, burn_in=0)
    init_rng = RngState(8)
    state = init_state(data, hp, init_rng)
    warm = RngState(97)
    for _ in range(3):
        _sweep(warm, state, data, _sweep_steps(state.hp))
    if sigma2 is not None:
        state.sigma2[:] = sigma2
    if not bias:
        state.Z[:4] = 0.0
        state.Z[4] = 1.0
        state.recompute_natural()

    # rows where a candidate is scored after an accepted flip, so that the
    # scan's update of the later candidates' statistics decides the outcome
    updated_rows = 0
    for n in range(state.N):
        seed_now = warm.get_state()
        reference = state.copy()

        _sweep(warm, state, data, _kernel.STEP_SCAN, row=n)

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
def test_z_row_statistics_are_weighted_residuals(sigma2):
    # (s, Q) from the scan against an exact-inverse reference: squared
    # residuals of y - z M over the free columns, each divided by its
    # attribute's sigma_d^2. sigma2 is edited in place after the warm sweeps,
    # so the scan must reweight. Q after two accepted flips in one row has
    # been moved by the first flip's update of the second's change
    data = small_mixed_data(30, seed=51)
    hp = Hyperparams(alpha=0.0, K_init=6, bias=True, iterations=0, burn_in=0)
    rng = RngState(52)
    state = init_state(data, hp, rng)
    for _ in range(2):
        _sweep(rng, state, data, _sweep_steps(state.hp))
    if sigma2 is not None:
        state.sigma2[:] = sigma2
    multi_flip_rows = 0
    for n in range(state.N):
        before = state.Z[n].copy()
        s, Q = _sweep(rng, state, data, _kernel.STEP_SCAN, row=n)
        multi_flip_rows += int(np.sum(state.Z[n] != before)) >= 2
        z, y = state.Z[n], state.Y[n]
        A = np.linalg.inv(state.P - np.outer(z, z))
        r = y - z @ (A @ (state.lam - np.outer(z, y)))
        expected = 0.0
        for d, spec in enumerate(state.specs):
            cs = state.dim_cols(d)
            if spec.kind is AttributeKind.CATEGORICAL:
                cs = slice(cs.start, cs.stop - 1)
            expected += float(r[cs] @ r[cs]) / state.sigma2[d]
        assert Q == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert s == pytest.approx(float(z @ A @ z), rel=1e-9, abs=1e-12)
    assert multi_flip_rows >= 5


def test_z_row_commits_only_changed_rows():
    # an unchanged row leaves the natural parameters bit for bit; a changed
    # row commits exactly
    data = small_mixed_data(25, seed=53)
    hp = Hyperparams(alpha=0.0, K_init=5, bias=True, iterations=0, burn_in=0)
    rng = RngState(54)
    state = init_state(data, hp, rng)
    _sweep(rng, state, data, _sweep_steps(state.hp))
    kept = changed = 0
    for _ in range(2):
        for n in range(state.N):
            before = [a.copy() for a in (state.Z[n], state.P, state.P_inv, state.lam,
                                         state.col_sums)]
            _sweep(rng, state, data, _kernel.STEP_SCAN, row=n)
            if np.array_equal(state.Z[n], before[0]):
                kept += 1
                after = (state.P, state.P_inv, state.lam, state.col_sums)
                for old, new in zip(before[1:], after):
                    assert old.tobytes() == new.tobytes()
            else:
                changed += 1
                assert_natural_params_exact(state)
    assert kept > 0 and changed > 0


def test_whole_range_scan_keeps_the_weight_mean_current():
    # one row loop call downdates every row from the weight mean
    # W = P^{-1} lam, which each changed row's commit updates in place. At
    # K = 19 most rows change, so the last row's statistics read a W that
    # many commits moved; a commit that left W stale would show in them
    data = small_mixed_data(40, seed=61)
    hp = Hyperparams(alpha=0.0, K_max=19, K_init=18, bias=True, iterations=0, burn_in=0)
    rng = RngState(62)
    state = init_state(data, hp, rng)
    before = state.Z.copy()
    s, Q = _sweep(rng, state, data, _kernel.STEP_SCAN)
    assert state.K == 19
    assert np.mean(np.any(state.Z != before, axis=1)) > 0.5
    s_ref, Q_ref = reference_row_stats(state, state.N - 1)
    assert s == pytest.approx(s_ref, rel=1e-9)
    assert Q == pytest.approx(Q_ref, rel=1e-9)
    np.testing.assert_allclose(state.P_inv, np.linalg.inv(state.P), rtol=1e-9, atol=1e-9)


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
    _sweep(rng, state, data, _kernel.STEP_SCAN, row=0)
    assert state.Z[0, 1] == 0.0
    assert_natural_params_exact(state)


def test_z_row_exact_inverse_fallback():
    # with sigma_B^2 = 1e13 a feature held by row 0 alone leaves P - z z^T
    # with a 1e-13 pivot: 1 - z^T P^{-1} z falls below the Sherman-Morrison
    # cutoff and the downdate takes the exact Cholesky route. A
    # Sherman-Morrison downdate there cancels terms of size 1e13, which
    # leaves errors of order 1e-4 in A's cross terms with that feature
    data = small_mixed_data(12, seed=46)
    hp = Hyperparams(alpha=0.0, sigma_B2=1e13, K_init=2, bias=True,
                     iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(47))
    state.Z[:, 1] = np.arange(state.N) % 2
    state.Z[:, 2] = 0.0
    state.Z[0, 2] = 1.0
    state.recompute_natural()

    s, Q = _sweep(RngState(48), state, data, _kernel.STEP_SCAN, row=0)
    assert state.Z[0, 2] == 0.0  # used by no other row: forced off
    assert_natural_params_exact(state)
    # the scan's final statistics are those of the committed row: the
    # forced-off flip recomputes them from A and M, since an update would
    # cancel A's 1e13 entries (A_kk ~ 1e13 against 2 h_k ~ 2e13)
    s_ref, Q_ref = reference_row_stats(state, 0)
    assert s == pytest.approx(s_ref, rel=1e-9)
    np.testing.assert_allclose(Q, Q_ref, rtol=1e-9, atol=0)
    # the committed inverse is the downdate's A, updated for the new row:
    # its cross terms with the now unused feature are exactly 0
    np.testing.assert_allclose(state.P_inv, np.linalg.inv(state.P), rtol=1e-9, atol=1e-9)


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
        _sweep(rng, state, None, _kernel.STEP_WEIGHTS, dim=0)
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
        _sweep(rng, state, data, _sweep_steps(state.hp))
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
        _sweep(rng, state, data, _kernel.STEP_PSEUDO, row=0, dim=0)
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
        _sweep(rng, state, data, _kernel.STEP_PSEUDO, row=n, dim=0)
    np.testing.assert_allclose(state.Y[:, 0], data.cells[:, 0])


def test_pseudo_obs_respects_intervals():
    data = small_mixed_data(30, missing_rate=0.1, seed=22)
    hp = Hyperparams(K_init=2, bias=True, iterations=0, burn_in=0)
    rng = RngState(23)
    state = init_state(data, hp, rng)
    for _ in range(4):
        _sweep(rng, state, data, _sweep_steps(state.hp))
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


def ref_sample_pseudo_obs(rng, state, data, d):
    """Numpy reference of the pseudo-observation step over all rows: missing
    cells first, then the observed ones; a categorical attribute sweeps its
    columns in order, each column drawing the rows observed at its level
    before every other observed row."""
    spec, hp = state.specs[d], state.hp
    cs = state.dim_cols(d)
    Yold = state.Y[:, cs].copy()
    Ynew = Yold.copy()
    mean = state.Z @ state.B[:, cs]
    var_d = float(state.sigma2[d])
    sd = math.sqrt(var_d)
    miss = data.missing[:, d]
    obs = ~miss
    if np.any(miss):
        Ynew[miss] = mean[miss] + sd * rng.gen.standard_normal((int(miss.sum()), spec.S_d))
    kind = spec.kind
    if kind.is_continuous:
        target = state.obs_lo[obs, d]
        pv = 1.0 / (1.0 / var_d + 1.0 / hp.sigma_u2)
        pm = pv * (mean[obs, 0] / var_d + target / hp.sigma_u2)
        Ynew[obs, 0] = pm + math.sqrt(pv) * rng.gen.standard_normal(int(obs.sum()))
    elif kind is AttributeKind.COUNT:
        Ynew[obs, 0] = trunc_normal_sample(
            rng, mean[obs, 0], sd, state.obs_lo[obs, d], state.obs_hi[obs, d]
        )
    elif kind is AttributeKind.ORDINAL:
        pad = np.concatenate([[-np.inf], state.theta[d], [np.inf]])
        xi = data.cells[obs, d].astype(int)
        Ynew[obs, 0] = trunc_normal_sample(rng, mean[obs, 0], sd, pad[xi - 1], pad[xi])
    else:
        obs_rows = np.flatnonzero(obs)
        xi = np.zeros(state.N, dtype=int)
        xi[obs_rows] = data.cells[obs_rows, d].astype(int)
        for j in range(spec.R_d):
            own = obs_rows[xi[obs_rows] == j + 1]
            other = obs_rows[xi[obs_rows] != j + 1]
            if own.size:
                rivals = Ynew[own].copy()
                rivals[:, j] = -np.inf
                Ynew[own, j] = trunc_normal_sample(
                    rng, mean[own, j], sd, rivals.max(axis=1), np.inf
                )
            if other.size:
                hi = Ynew[other, xi[other] - 1]
                Ynew[other, j] = trunc_normal_sample(rng, mean[other, j], sd, -np.inf, hi)
    state.lam[:, cs] += state.Z.T @ (Ynew - Yold)
    state.Y[:, cs] = Ynew


def test_pseudo_obs_match_numpy_reference():
    # every attribute kind, drawn by the kernel and by the numpy reference
    # from the same stream: the same values, the same stream position
    data = small_mixed_data(40, missing_rate=0.2, seed=55)
    hp = Hyperparams(alpha=2.0, K_init=3, bias=True, sigma_u2=0.3,
                     sample_variance=True, iterations=0, burn_in=0)
    rng = RngState(56)
    state = init_state(data, hp, rng)
    for _ in range(2):
        _sweep(rng, state, data, _sweep_steps(state.hp))
    for d, spec in enumerate(data.specs):
        reference = state.copy()
        replay = RngState(0)
        replay.set_state(rng.get_state())
        _sweep(rng, state, data, _kernel.STEP_PSEUDO, dim=d)
        ref_sample_pseudo_obs(replay, reference, data, d)
        np.testing.assert_allclose(state.Y, reference.Y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(state.lam, reference.lam, rtol=1e-12, atol=1e-9)
        assert rng.get_state() == replay.get_state(), spec.name

    # with no bias column and some rows that hold no feature, the
    # pseudo-observations again, then the noise step: its shape and rate from
    # numpy, and the kernel's inverse-gamma draw on the replayed stream
    hp = Hyperparams(alpha=2.0, K_init=3, bias=False, sigma_u2=0.3,
                     sample_variance=True, iterations=0, burn_in=0)
    state = init_state(data, hp, rng)
    for _ in range(2):
        _sweep(rng, state, data, _sweep_steps(state.hp))
    state.Z[::3] = 0.0
    state.recompute_natural()
    for d, spec in enumerate(data.specs):
        reference = state.copy()
        replay = RngState(0)
        replay.set_state(rng.get_state())
        _sweep(rng, state, data, _kernel.STEP_PSEUDO | _kernel.STEP_NOISE, dim=d)
        ref_sample_pseudo_obs(replay, reference, data, d)
        np.testing.assert_allclose(state.Y, reference.Y, rtol=1e-12, atol=1e-12)
        cs = reference.dim_cols(d)
        n_free = spec.S_d - 1 if spec.kind is AttributeKind.CATEGORICAL else spec.S_d
        ss = float(np.sum((reference.Y[:, cs] - reference.Z @ reference.B[:, cs]) ** 2))
        bb = float(np.sum(reference.B[:, cs][:, :n_free] ** 2))
        shape = hp.beta1 + (state.N * spec.S_d + state.K * n_free) / 2
        rate = hp.beta2 + ss / 2 + bb / (2 * hp.sigma_B2)
        expected = inverse_gamma_sample(replay, shape, rate)
        assert state.sigma2[d] == pytest.approx(expected, rel=1e-12, abs=0), spec.name
        assert rng.get_state() == replay.get_state(), spec.name


def test_threshold_sampler_keeps_order_and_support():
    specs = [AttributeSpec("o", AttributeKind.ORDINAL, R_d=5)]
    rng_data = np.random.default_rng(1)
    cells = rng_data.integers(1, 6, size=(40, 1)).astype(float)
    data = DataMatrix(cells=cells, missing=np.zeros((40, 1), dtype=bool), specs=specs)
    hp = Hyperparams(K_init=1, bias=True, iterations=0, burn_in=0)
    rng = RngState(24)
    state = init_state(data, hp, rng)
    for _ in range(6):
        _sweep(rng, state, data, _sweep_steps(state.hp))
        th = state.theta[0]
        assert th[0] == 0.0
        assert np.all(np.diff(th) > 0)
        # every observed level's pseudo-observation sits inside its band
        pad = np.concatenate([[-np.inf], th, [np.inf]])
        xi = data.cells[:, 0].astype(int)
        y = state.Y[:, state.dim_cols(0).start]
        assert np.all(y > pad[xi - 1])
        assert np.all(y <= pad[xi])


def test_thresholds_of_a_million_level_ordinal_run_to_completion():
    # the threshold step keeps three numbers per level of R_d, which has no
    # upper bound; a child process keeps a crash from ending the test run
    script = textwrap.dedent("""
        import numpy as np
        from glfm.data import AttributeKind, AttributeSpec, DataMatrix
        from glfm.engine import Hyperparams, run_chain
        cells = np.random.default_rng(0).integers(1, 4, size=(20, 1)).astype(float)
        data = DataMatrix(cells=cells, missing=np.zeros((20, 1), dtype=bool),
                          specs=[AttributeSpec("o1", AttributeKind.ORDINAL, R_d=10**6)])
        hp = Hyperparams(K_init=1, bias=True, iterations=2, burn_in=0, seed=1)
        assert np.all(np.diff(run_chain(data, hp).state.theta[0]) > 0)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_noise_variance_conjugate_distribution():
    # one bias row with residual 2 and bias weight 0, under the prior
    # B ~ N(0, sigma^2 sigma_B^2): the row and the weight each add 1/2 to
    # the shape, the residual 4/2 to the rate, so the posterior is
    # InvGamma(1 + 1/2 + 1/2, 1 + 4/2 + 0)
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
        _sweep(rng, state, data, _kernel.STEP_NOISE, dim=0)
        draws[i] = state.sigma2[0]
    result = kstest(draws, invgamma(a=2.0, scale=3.0).cdf)
    assert result.pvalue > 1e-3
    # E[1/v] = shape/rate = 2/3
    assert (1.0 / draws).mean() == pytest.approx(2.0 / 3.0, abs=0.02)


def test_birth_respects_k_max():
    # alpha this large fills the cap within every row loop; prune may then
    # drop columns, so the cap is checked before it, on every sweep
    data = small_mixed_data(12, seed=27)
    hp = Hyperparams(alpha=50.0, K_max=5, K_init=1, bias=True, iterations=0, burn_in=0)
    rng = RngState(28)
    state = init_state(data, hp, rng)
    steps = _kernel.STEP_WEIGHTS | _kernel.STEP_PSEUDO | _kernel.STEP_THRESHOLDS
    for _ in range(15):
        _sweep(rng, state, data, _kernel.STEP_SCAN | _kernel.STEP_BIRTH)
        assert state.K == hp.K_max
        _sweep(None, state, None, _kernel.STEP_PRUNE)
        assert state.K <= hp.K_max
        _sweep(rng, state, data, steps)


def test_birth_room_is_sized_by_the_rows_not_by_k_max():
    # the room grows with the births the rows draw, whatever K_max is; each
    # row sees the same birth truncation, so the draws do not depend on the
    # cap while K stays below it
    data = small_mixed_data(40, seed=84)
    runs = [run_chain(data, Hyperparams(alpha=5.0, K_max=k_max, K_init=2, bias=True,
                                        sample_variance=True, iterations=5, burn_in=0,
                                        seed=85))
            for k_max in (200, 10**6)]
    np.testing.assert_array_equal(runs[1].state.Z, runs[0].state.Z)
    np.testing.assert_array_equal(runs[1].state.B, runs[0].state.B)
    assert runs[1].trace == runs[0].trace


def with_room_for_k_max(state):
    """Move the state's K-column arrays to the front of a room of K_max
    columns, so that no birth returns ERR_ROOM."""
    shapes = _k_shapes(state.N, state.hp.K_max, state.S)
    state.room = {name: np.empty(math.prod(shape)) for name, shape in shapes.items()}
    for name, buf in state.room.items():
        a = getattr(state, name)
        buf[: a.size] = a.ravel()
        setattr(state, name, buf[: a.size].reshape(a.shape))


@pytest.mark.parametrize("case", ["birth on the last row", "whole sweeps", "no bias from K = 0"])
def test_births_that_do_not_fit_resume_where_they_were_drawn(case, monkeypatch):
    # a row's births that do not fit return ERR_ROOM with the count pending,
    # and the call resumes at that row once the room has grown. A chain whose
    # state loses its room before every call, so that ERR_ROOM fires on every
    # call with a birth, must match the chain of a state with room for K_max
    # columns from the start, which never meets it: a resume must not redraw
    # the row, move the row range of the attribute steps or write a birth
    # into arrays that have no room for it
    data = small_mixed_data(20, seed=86)
    hp = Hyperparams(alpha=10.0, K_max=60, K_init=1, bias=case != "no bias from K = 0",
                     sample_variance=True, iterations=0, burn_in=0)
    rng = RngState(87)
    state = init_state(data, hp, rng)
    if not hp.bias:
        # no feature column: the kernel's workspace has one, the state none
        state.Z, state.B = state.Z[:, :0], state.B[:0]
        state.recompute_natural()
    roomy, roomy_rng = state.copy(), RngState(0)
    roomy_rng.set_state(rng.get_state())
    with_room_for_k_max(roomy)
    codes, call = [], _kernel.call
    monkeypatch.setattr(_kernel, "call", lambda *args: codes.append(call(*args)) or codes[-1])

    def sweep(rng, state, strip):
        # one pass of kernel calls, each on a state without room when strip
        steps = [functools.partial(_sweep, rng, state, data, _sweep_steps(state.hp))]
        if case == "birth on the last row":
            steps = [functools.partial(_sweep, rng, state, data, _kernel.STEP_BIRTH, row=n)
                     for n in range(state.N)]
            steps.append(functools.partial(_sweep, rng, state, data, _kernel.STEP_PRUNE
                                           | _kernel.STEP_WEIGHTS | _kernel.STEP_PSEUDO))
        for step in steps:
            if strip:
                state.room = {}
            step()

    resumed = 0
    for _ in range(6):
        sweep(rng, state, strip=True)
        resumed += codes.count(_kernel.ERR_ROOM)
        codes.clear()
        sweep(roomy_rng, roomy, strip=False)
        assert _kernel.ERR_ROOM not in codes
        for name in ("Z", "Y", "B", "P", "P_inv", "lam", "col_sums", "sigma2"):
            np.testing.assert_array_equal(getattr(state, name), getattr(roomy, name))
        assert rng.get_state() == roomy_rng.get_state()
    assert resumed >= 6


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and ru_maxrss in KiB are Linux's")
def test_a_huge_k_max_costs_no_memory_at_n_4000():
    # the room grows with the births the rows draw, not with K_max. Room for
    # 3 births on each of 4000 rows would be 12,003 columns, with a 3.5 GB
    # workspace; a child process limited to 3 GB of address space must run
    # K_max = 10**6 at the peak RSS of K_max = 200, within 1 MB
    _kernel.load()  # built here, so the child only loads it
    script = textwrap.dedent("""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
        from glfm.engine import Hyperparams, run_chain
        from glfm.synthetic import generate
        data, _ = generate(4000, missing_rate=0.1, seed=1)
        run_chain(data, Hyperparams(alpha=5.0, K_max=int(sys.argv[1]), K_init=2, bias=True,
                                    sample_variance=True, iterations=3, seed=2))
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    peak_kib = {}
    for k_max in (200, 10**6):
        proc = subprocess.run([sys.executable, "-c", script, str(k_max)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        peak_kib[k_max] = int(proc.stdout)
    assert abs(peak_kib[10**6] - peak_kib[200]) <= 1024, peak_kib


def test_birth_adds_columns_for_row():
    data = real_only_data(4, seed=29)
    hp = Hyperparams(alpha=200.0, K_max=10, K_init=1, bias=False,
                     iterations=0, burn_in=0)
    rng = RngState(30)
    state = init_state(data, hp, rng)
    K0 = state.K
    grew = False
    for _ in range(20):
        _sweep(rng, state, data, _kernel.STEP_BIRTH, row=2)
        if state.K > K0:
            grew = True
            np.testing.assert_array_equal(state.Z[2, K0:], 1.0)
            assert np.all(state.Z[[0, 1, 3], K0:] == 0.0)
            break
    assert grew
    assert_natural_params_exact(state)


@pytest.mark.parametrize("sigma_B2", [0.2, 1.0, 1e6])
def test_in_kernel_births_keep_natural_params_exact(sigma_B2):
    # a birth borders P, extends lam and the counts and rebuilds P^{-1} inside
    # the kernel. Row by row, every birth is checked against Z and Y; the
    # same stream through one row loop call must grow the same state. Wide
    # real columns at unit noise make births likely even at sigma_B^2 = 1e6
    cells = np.random.default_rng(82).normal(scale=10.0, size=(30, 3))
    data = DataMatrix(cells=cells, missing=np.zeros(cells.shape, dtype=bool),
                      specs=[AttributeSpec(f"x{i}", AttributeKind.REAL) for i in range(3)])
    hp = Hyperparams(alpha=20.0, sigma_B2=sigma_B2, K_max=12, K_init=1, bias=True,
                     iterations=0, burn_in=0)
    rng = RngState(83)
    state = init_state(data, hp, rng)
    births, at_cap = 0, 0
    for _ in range(6):
        fused, fused_rng = state.copy(), RngState(0)
        fused_rng.set_state(rng.get_state())
        for n in range(state.N):
            K_before = state.K
            _sweep(rng, state, data, _kernel.STEP_SCAN | _kernel.STEP_BIRTH, row=n)
            if state.K > K_before:
                births += 1
                assert np.all(state.Z[n, K_before:] == 1.0)
                assert np.all(np.delete(state.Z, n, axis=0)[:, K_before:] == 0.0)
                assert np.all(state.B[K_before:] == 0.0)
                assert_natural_params_exact(state)
                P_inv = _chol_inverse(state.P)
                np.testing.assert_allclose(state.P_inv, P_inv, rtol=1e-10,
                                           atol=1e-10 * np.abs(P_inv).max())
        at_cap += state.K == hp.K_max
        _sweep(fused_rng, fused, data, _kernel.STEP_SCAN | _kernel.STEP_BIRTH)
        for name in ("Z", "B", "P", "P_inv", "lam", "col_sums"):
            np.testing.assert_array_equal(getattr(fused, name), getattr(state, name))
        assert fused_rng.get_state() == rng.get_state()
        _sweep(None, state, None, _kernel.STEP_PRUNE)
        _sweep(rng, state, data, _kernel.STEP_WEIGHTS | _kernel.STEP_PSEUDO)
    assert births >= 3 and at_cap >= 1


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10000))
def test_birth_from_scan_statistics_matches_fresh_statistics(seed):
    # a sweep's fused row loop hands the scan's final statistics to the
    # birth step; the scan then the birth, row by row, recomputes
    # them fresh. Both must draw the same Z from the same stream
    data, _ = generate(10, missing_rate=0.2, seed=seed)
    hp = Hyperparams(alpha=20.0, sigma_B2=0.2, K_max=30, K_init=2, bias=True,
                     sample_variance=True, iterations=0, burn_in=0)
    rng = RngState(seed + 1)
    state = init_state(data, hp, rng)
    _sweep(rng, state, data, _sweep_steps(state.hp))
    fused = state.copy()
    fused_rng = RngState(0)
    fused_rng.set_state(rng.get_state())
    births = 0
    for n in range(state.N):
        s, Q = _sweep(rng, state, data, _kernel.STEP_SCAN, row=n)
        if state.K > state.n_bias:  # else nothing was scanned
            s_ref, Q_ref = reference_row_stats(state, n)
            assert s == pytest.approx(s_ref, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(Q, Q_ref, rtol=1e-9, atol=1e-12)
        K_before = state.K
        _sweep(rng, state, data, _kernel.STEP_BIRTH, row=n)
        births += state.K > K_before
    _sweep(fused_rng, fused, data, _kernel.STEP_SCAN | _kernel.STEP_BIRTH)
    np.testing.assert_array_equal(state.Z, fused.Z)
    assert rng.get_state() == fused_rng.get_state()
    assert_natural_params_exact(state)
    assert births > 0


@settings(max_examples=300, deadline=None)
@given(
    s=st.floats(-1.0, 5.0),
    n_free=st.integers(1, 40),
    Q=st.floats(0.0, 500.0),
    sigma_B2=st.floats(1e-3, 10.0),
)
def test_birth_gain_bound_dominates_every_birth_count(s, n_free, Q, sigma_B2):
    s0 = max(s, 0.0)
    ll = [kernel_row_helper("glfm_row_loglik", s0 + k * sigma_B2, n_free, Q)
          for k in range(4)]
    bound = kernel_row_helper("glfm_birth_gain_bound", s, n_free, Q)
    assert bound >= 0.0
    for k in range(1, 4):
        assert ll[k] - ll[0] <= bound + 1e-9 * (1.0 + abs(ll[0]))


def reference_birth_count(state, s, Q, u):
    """Test-local birth draw: score every count k = 0..kmax under the
    truncated Poisson(alpha/N) prior and invert the CDF at u."""
    hp = state.hp
    kmax = min(kernel_enums()["MAX_BIRTHS_PER_ROW"], hp.K_max - state.K)
    if hp.alpha == 0.0 or kmax <= 0:
        return 0
    n_free = int(state.free_cols.sum())
    lw = []
    for k in range(kmax + 1):
        v = 1.0 + max(s, 0.0) + k * hp.sigma_B2
        ll = -0.5 * (n_free * math.log(v) + Q / v)
        lw.append(k * math.log(hp.alpha / state.N) - math.lgamma(k + 1) + ll)
    w = np.exp(np.array(lw) - max(lw))
    cdf = np.cumsum(w / w.sum())
    return int(np.searchsorted(cdf / cdf[-1], u, side="right"))


@pytest.mark.parametrize("alpha", [1.0, 50.0])
def test_birth_shortcut_matches_full_scoring(alpha):
    # the kernel skips scoring when the birth uniform lies below a lower
    # bound on P(no birth); replaying each row's uniform into a reference
    # that scores every count must give the kernel's birth count
    data = small_mixed_data(40, seed=49)
    hp = Hyperparams(alpha=alpha, K_max=20, K_init=2, bias=True,
                     sample_variance=True, iterations=0, burn_in=0)
    rng = RngState(50)
    state = init_state(data, hp, rng)
    replay = RngState(0)
    births = 0
    for _ in range(4):
        for n in range(state.N):
            s, Q = _sweep(rng, state, data, _kernel.STEP_SCAN, row=n)
            if state.K == state.n_bias:  # nothing was scanned
                s, Q = reference_row_stats(state, n)
            replay.set_state(rng.get_state())
            expected = reference_birth_count(state, s, Q, replay.gen.random())
            K_before = state.K
            _sweep(rng, state, data, _kernel.STEP_BIRTH, row=n)
            assert state.K - K_before == expected
            births += expected > 0
        _sweep(None, state, None, _kernel.STEP_PRUNE)
        _sweep(rng, state, data, _kernel.STEP_WEIGHTS | _kernel.STEP_PSEUDO
               | _kernel.STEP_THRESHOLDS | _kernel.STEP_NOISE)
    assert births >= 3


def test_birth_disabled_at_zero_alpha():
    data = real_only_data(6, seed=31)
    hp = Hyperparams(alpha=0.0, K_init=2, bias=False, iterations=0, burn_in=0)
    rng = RngState(32)
    state = init_state(data, hp, rng)
    for _ in range(10):
        _sweep(rng, state, data, _sweep_steps(state.hp))
    assert state.K <= 2  # prune may shrink but nothing is born


def test_prune_drops_dead_columns_keeps_bias():
    data = real_only_data(5, seed=33)
    hp = Hyperparams(K_init=3, bias=True, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(34))
    state.Z[:, 2] = 0.0
    state.recompute_natural()
    K0 = state.K
    _sweep(None, state, None, _kernel.STEP_PRUNE)
    assert state.K == K0 - 1
    np.testing.assert_array_equal(state.Z[:, 0], 1.0)
    assert_natural_params_exact(state)


@pytest.mark.parametrize("sigma_B2", [0.2, 1.0])
def test_in_kernel_prune_keeps_the_state_exact(sigma_B2, monkeypatch):
    # the prune compacts Z, P, B, lam and the counts inside the sweep's one
    # kernel call: the kept entries must stay those of Z'Z + I / sigma_B^2
    # and Z'Y, and P^{-1} must be rebuilt at the new K, with no refit
    data = small_mixed_data(20, seed=11)
    hp = Hyperparams(alpha=5.0, sigma_B2=sigma_B2, K_max=30, K_init=2, bias=True,
                     sample_variance=True, iterations=0, burn_in=0)
    rng = RngState(11)
    state = init_state(data, hp, rng)

    def refit(self):
        raise AssertionError("a sweep refit the natural parameters")

    monkeypatch.setattr(LatentState, "recompute_natural", refit)
    pruned = 0
    for _ in range(300):
        K_before = state.K
        _sweep(rng, state, data, _sweep_steps(state.hp))
        if state.K < K_before:  # only the prune lowers K
            pruned += 1
            assert_natural_params_exact(state)
            P_inv = _chol_inverse(state.P)
            np.testing.assert_allclose(state.P_inv, P_inv, rtol=1e-10,
                                       atol=1e-10 * np.abs(P_inv).max())
    assert pruned >= 20
    # lam is never refreshed from Z'Y, and its rounding must not build up
    lam_ref = state.Z.T @ state.Y
    assert np.max(np.abs(state.lam - lam_ref)) <= 1e-9 * np.abs(lam_ref).max()


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


@pytest.mark.parametrize("N", [1, 9, 1000])
def test_ibp_lof_log_prior_matches_the_tuple_counter_exactly(N):
    # the history counts, summed in order of first appearance as a Counter of
    # column tuples does, give the same float; the input is a strided view
    rng = np.random.default_rng(N)
    Z = (rng.random((N, 24)) < 0.3).astype(float)
    Z[0] = 1.0
    Z[:, 10] = Z[:, 4]
    Z[:, 16] = Z[:, 4]
    Z_active = Z[:, ::2]
    alpha = 1.3
    expected = -alpha * float(np.sum(1.0 / np.arange(1, N + 1)))
    expected += Z_active.shape[1] * math.log(alpha)
    histories = Counter(tuple(col) for col in Z_active.astype(int).T)
    expected -= sum(math.lgamma(c + 1) for c in histories.values())
    expected += float(np.sum([math.lgamma(N - m + 1) + math.lgamma(m) - math.lgamma(N + 1)
                              for m in Z_active.sum(axis=0).tolist()]))
    assert ibp_lof_log_prior(Z_active, alpha, N) == expected
    # at alpha = 0, the prior given K+: log 1! - log H_4 + log(0! 3! / 4!)
    assert ibp_lof_log_prior(np.ones((4, 1)), 0.0, 4) == pytest.approx(
        -math.log(25 / 12) + math.log(0.25), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_ibp_lof_log_prior_at_zero_alpha_is_the_prior_given_k_plus(alpha):
    # the full prior factors as Poisson(K+; alpha H_N) times a term free of
    # alpha, which is what alpha = 0 returns
    rng = np.random.default_rng(7)
    N = 9
    Z = (rng.random((N, 6)) < 0.4).astype(float)
    Z[:, 3] = Z[:, 1]
    Z = Z[:, Z.sum(axis=0) > 0]
    K_plus = Z.shape[1]
    rate = alpha * sum(1.0 / i for i in range(1, N + 1))
    log_poisson = K_plus * math.log(rate) - rate - math.lgamma(K_plus + 1)
    full = ibp_lof_log_prior(Z, alpha, N)
    assert full - log_poisson == pytest.approx(ibp_lof_log_prior(Z, 0.0, N), abs=1e-12)


@pytest.mark.parametrize("K_plus", [1, 2])
def test_ibp_lof_log_prior_at_zero_alpha_sums_to_one_over_classes(K_plus):
    # a left-ordered class is a multiset of K+ nonzero column histories
    N = 3
    histories = [h for h in itertools.product([0.0, 1.0], repeat=N) if any(h)]
    total = sum(math.exp(ibp_lof_log_prior(np.array(cols).T, 0.0, N))
                for cols in itertools.combinations_with_replacement(histories, K_plus))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_collapsed_flip_logodds_rejects_bias_and_out_of_range_columns():
    data = small_mixed_data(12, seed=41)
    hp = Hyperparams(alpha=2.0, K_max=8, K_init=2, bias=True, iterations=0, burn_in=0)
    state = init_state(data, hp, RngState(42))
    with pytest.raises(ValueError):
        collapsed_flip_logodds(state, 0, state.K)
    with pytest.raises(ValueError):
        collapsed_flip_logodds(state, 0, 0)  # bias column is not flippable


PINNED_TABLE = (AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=3),
                AttributeSpec("x", AttributeKind.REAL))


def fixed_z_state(specs, sigma2, seed=0):
    """N = 6 rows and K = 3 features, no bias column, every feature held by
    at least two rows; random Y and B (pinned columns at 0), ordinal cut
    points 0, 0.4, 1.1, ... and the given noise variances."""
    gen = np.random.default_rng(seed)
    Z = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    hp = Hyperparams(alpha=1.5, sigma_B2=0.7, sigma_theta2=2.0, beta1=2.0, beta2=1.5,
                     K_init=3, sample_variance=True, iterations=0, burn_in=0)
    S = sum(spec.S_d for spec in specs)
    theta = {d: np.array([0.0, 0.4, 1.1][: spec.R_d - 1])
             for d, spec in enumerate(specs) if spec.kind is AttributeKind.ORDINAL}
    state = LatentState(specs=specs, hp=hp, Z=Z, Y=gen.normal(size=(6, S)),
                        B=gen.normal(size=(3, S)), theta=theta,
                        sigma2=np.array(sigma2, dtype=float))
    state.B[:, ~state.free_cols] = 0.0
    state.recompute_natural()
    return state


@pytest.mark.parametrize("sigma2", [(1.0, 1.0), (4.0, 0.25), (0.3, 2.5)])
def test_collapsed_flip_logodds_matches_exact_gaussian_marginal(sigma2):
    # with B_c ~ N(0, sigma_c^2 sigma_B^2 I) on each free column, the column
    # y_c ~ N(0, sigma_c^2 (sigma_B^2 Z Z^T + I)); the categorical's pinned
    # column is N(0, sigma^2 I) whatever Z is, so it drops out of the odds
    state = fixed_z_state(PINNED_TABLE, sigma2)
    hp, N = state.hp, state.N

    def log_marginal(Z):
        cov = hp.sigma_B2 * Z @ Z.T + np.eye(N)
        return sum(
            multivariate_normal(np.zeros(N), state.sigma2[state.col_dim[c]] * cov).logpdf(
                state.Y[:, c])
            for c in np.flatnonzero(state.free_cols)
        )

    for n in range(N):
        for k in range(state.K):
            m = state.Z[:, k].sum() - state.Z[n, k]
            Z1, Z0 = state.Z.copy(), state.Z.copy()
            Z1[n, k], Z0[n, k] = 1.0, 0.0
            expected = math.log(m / (N - m)) + log_marginal(Z1) - log_marginal(Z0)
            assert collapsed_flip_logodds(state, n, k) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("sigma2", [0.25, 4.0])
def test_log_joint_matches_independent_scipy_computation(sigma2):
    # IBP prior by direct enumeration, B_d ~ N(0, sigma_d^2 sigma_B^2) on the
    # free columns, Y ~ N(Z B, sigma_d^2), the free ordinal cut points
    # ~ N(0, sigma_theta^2) and sigma_d^2 ~ InvGamma(beta1, beta2)
    specs = (*PINNED_TABLE, AttributeSpec("o", AttributeKind.ORDINAL, R_d=4))
    state = fixed_z_state(specs, [sigma2] * 3, seed=3)
    hp, N, Z = state.hp, state.N, state.Z

    H = sum(1.0 / i for i in range(1, N + 1))
    expected = -hp.alpha * H + Z.shape[1] * math.log(hp.alpha)
    cols = [tuple(col) for col in Z.T.astype(int)]
    expected -= sum(math.lgamma(cols.count(c) + 1) for c in set(cols))
    for m in Z.sum(axis=0):
        expected += math.lgamma(N - m + 1) + math.lgamma(m) - math.lgamma(N + 1)
    sd = np.sqrt(state.sigma2[state.col_dim])
    free = state.free_cols
    expected += norm.logpdf(state.B[:, free], scale=sd[free] * math.sqrt(hp.sigma_B2)).sum()
    expected += norm.logpdf(state.Y, loc=Z @ state.B, scale=sd).sum()
    expected += norm.logpdf(state.theta[2][1:], scale=math.sqrt(hp.sigma_theta2)).sum()
    expected += invgamma.logpdf(state.sigma2, a=hp.beta1, scale=hp.beta2).sum()
    assert complete_data_log_joint(state) == pytest.approx(expected, abs=1e-9)


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


LOG_JOINT_SPECS = (
    AttributeSpec("r", AttributeKind.REAL),
    AttributeSpec("p", AttributeKind.POSITIVE_REAL),
    AttributeSpec("n", AttributeKind.COUNT),
    AttributeSpec("o", AttributeKind.ORDINAL, R_d=4),
    AttributeSpec("o2", AttributeKind.ORDINAL, R_d=2),
    AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=3),
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 12), K=st.integers(0, 9),
       bias=st.booleans(), sample_variance=st.booleans(),
       alpha=st.sampled_from([0.0, 0.4, 3.0]), repeats=st.integers(0, 3))
@example(seed=1, N=5, K=0, bias=False, sample_variance=True, alpha=2.0, repeats=0)  # K = 0
@example(seed=2, N=4, K=3, bias=True, sample_variance=False, alpha=0.0, repeats=3)
def test_kernel_log_joint_matches_the_reference(seed, N, K, bias, sample_variance, alpha,
                                                repeats):
    # a hand-built state over a random subset of every kind, with dead
    # columns, K+ = 0 (every non-bias column dead) and repeated histories
    gen = np.random.default_rng(seed)
    specs = tuple(s for s in LOG_JOINT_SPECS if gen.random() < 0.6) or LOG_JOINT_SPECS[-1:]
    K += bias
    Z = (gen.random((N, K)) < gen.random()).astype(float)
    if bias:
        Z[:, 0] = 1.0
    for _ in range(repeats if K > bias + 1 else 0):
        src, dst = gen.integers(bias, K, size=2)
        Z[:, dst] = Z[:, src]
    hp = Hyperparams(alpha=alpha, sigma_B2=gen.uniform(0.1, 5.0),
                     sigma_theta2=gen.uniform(0.2, 3.0), beta1=gen.uniform(0.5, 4.0),
                     beta2=gen.uniform(0.5, 4.0), K_init=1, bias=bias,
                     sample_variance=sample_variance, iterations=0)
    S = sum(spec.S_d for spec in specs)
    theta = {d: np.concatenate([[0.0], np.sort(gen.uniform(0.0, 3.0, spec.R_d - 2))])
             for d, spec in enumerate(specs) if spec.kind is AttributeKind.ORDINAL}
    state = LatentState(specs=specs, hp=hp, Z=Z, Y=gen.normal(size=(N, S)) * 2.0,
                        B=gen.normal(size=(K, S)), theta=theta,
                        sigma2=gen.uniform(0.05, 5.0, len(specs)))
    state.B[:, ~state.free_cols] = 0.0
    state.recompute_natural()
    expected = reference_log_joint(state)
    assert complete_data_log_joint(state) == pytest.approx(expected, rel=1e-12)


def chain_spy(monkeypatch):
    """The RngState of every chain started after this call, and the
    (sweeps, code) of every glfm_sweep call."""
    rngs, calls, call = [], [], _kernel.call

    class Recorded(RngState):
        def __init__(self, *args):
            super().__init__(*args)
            rngs.append(self)

    def spy(rng, name, *args):
        code = call(rng, name, *args)
        if name == "glfm_sweep":
            calls.append((args[6], code))
        return code

    monkeypatch.setattr(engine, "RngState", Recorded)
    monkeypatch.setattr(_kernel, "call", spy)
    return rngs, calls


@pytest.mark.parametrize("keep_last, rows_per_call", [(1, None), (3, None), (40, None), (1, 50)])
def test_multi_sweep_calls_match_one_sweep_per_call(keep_last, rows_per_call, monkeypatch):
    # run_chain runs the sweeps before the last keep_last in one kernel call,
    # or in calls of 50 // 20 = 2 sweeps, whose state starts with no room to
    # spare, so births return ERR_ROOM in the middle of a call and it resumes
    # in the sweep it stopped in. A chain of one sweep per call, each on a
    # state stripped of its room, must give the same states, stream and trace
    data = small_mixed_data(20, seed=86)
    hp = Hyperparams(alpha=10.0, K_max=60, K_init=1, bias=True, sample_variance=True,
                     iterations=12, seed=88)
    rngs, calls = chain_spy(monkeypatch)
    if rows_per_call:
        monkeypatch.setattr(engine, "_ROWS_PER_CALL", rows_per_call)
    res = run_chain(data, hp, keep_last=keep_last)
    head = hp.iterations - keep_last
    if head > 1:
        assert calls[0][0] == (2 if rows_per_call else head)
        assert [c for s, c in calls if s > 1].count(_kernel.ERR_ROOM) >= 2
    assert not any(c < 0 and c != _kernel.ERR_ROOM for _, c in calls)

    rng = RngState(hp.seed)
    state = init_state(data, hp, rng)
    steps = engine._sweep_steps(hp) | _kernel.STEP_LOG_JOINT
    trace, saved = [], []
    for t in range(hp.iterations):
        state.room = {}
        record = np.empty(2 + len(state.specs))
        _sweep(rng, state, data, steps, record=record)
        trace.append({"iteration": t + 1, "K_plus": int(record[0]),
                      "log_joint": float(record[1]), "sigma2": record[2:].tolist()})
        if t >= head:
            saved.append(state.copy())
    assert res.trace == trace
    assert rngs[0].get_state() == rng.get_state()
    assert len(res.saved) == len(saved)
    for got, want in zip([*res.saved, res.state], [*saved, state]):
        for name in ("Z", "Y", "B", "sigma2", "P", "P_inv", "lam", "col_sums"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert got.theta.keys() == want.theta.keys()
        for d in got.theta:
            np.testing.assert_array_equal(got.theta[d], want.theta[d])


def test_traced_log_joint_is_the_reference_at_every_kept_state():
    # the log-joint step runs after the noise variances are redrawn, so each
    # sweep's traced value is the log joint of the state the sweep left
    data = small_mixed_data(25, seed=90)
    hp = Hyperparams(alpha=3.0, K_max=20, K_init=2, bias=True, sample_variance=True,
                     iterations=8, seed=91)
    res = run_chain(data, hp, keep_last=hp.iterations)
    assert len(res.saved) == len(res.trace) == hp.iterations
    for kept, row in zip(res.saved, res.trace):
        assert row["log_joint"] == pytest.approx(reference_log_joint(kept), rel=1e-12)
        assert row["K_plus"] == kept.K_plus
        assert row["sigma2"] == kept.sigma2.tolist()


def test_chains_on_threads_trace_as_each_chain_alone():
    # kernels on threads share no state: two chains run at once must trace
    # as each does alone
    data = small_mixed_data(30, seed=92)
    hps = [Hyperparams(alpha=4.0, K_max=20, K_init=2, bias=True, sample_variance=True,
                       iterations=150, seed=seed) for seed in (93, 94)]
    alone = [run_chain(data, hp, keep_last=2) for hp in hps]
    with ThreadPoolExecutor(max_workers=2) as pool:
        together = list(pool.map(lambda hp: run_chain(data, hp, keep_last=2), hps))
    for a, b in zip(alone, together):
        assert a.trace == b.trace
        np.testing.assert_array_equal(a.state.Z, b.state.Z)


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
        _sweep(rng, state, data, _sweep_steps(state.hp))
    assert_natural_params_exact(state)


GEWEKE_SPECS = (
    AttributeSpec("r", AttributeKind.REAL),
    AttributeSpec("p", AttributeKind.POSITIVE_REAL),
    AttributeSpec("n", AttributeKind.COUNT),
    AttributeSpec("o", AttributeKind.ORDINAL, R_d=4),
    AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=3),
)
GEWEKE_ORDINAL = 3


def geweke_prior_draw(gen, state):
    """Set sigma^2, B, theta and Y of `state` to one draw from the prior at
    its fixed Z: sigma_d^2 ~ InvGamma(beta1, beta2), free weights
    ~ N(0, sigma_d^2 sigma_B^2), ordinal cut points 0 < theta_2 < ... iid
    N(0, sigma_theta^2) conditioned on their order, Y ~ N(Z B, sigma_d^2)."""
    hp = state.hp
    state.sigma2 = 1.0 / gen.gamma(hp.beta1, 1.0 / hp.beta2, size=len(state.specs))
    sd = np.sqrt(state.sigma2[state.col_dim])
    free = state.free_cols
    state.B = np.zeros((state.K, state.S))
    state.B[:, free] = gen.normal(size=(state.K, free.sum())) * sd[free] * math.sqrt(hp.sigma_B2)
    R = state.specs[GEWEKE_ORDINAL].R_d
    cuts = np.sort(np.abs(gen.normal(size=R - 2))) * math.sqrt(hp.sigma_theta2)
    state.theta = {GEWEKE_ORDINAL: np.concatenate([[0.0], cuts])}
    state.Y = state.Z @ state.B + gen.normal(size=(state.N, state.S)) * sd


def geweke_observe(gen, state, data):
    """Draw X given Y and theta into data.cells and the state's observation
    caches: a continuous target is y + N(0, sigma_u^2) on the encoded scale;
    a count, an ordinal level or a category is the one whose interval (or
    argmax) holds y."""
    for d, spec in enumerate(state.specs):
        y = state.Y[:, state.dim_cols(d)]
        if spec.kind.is_continuous:
            state.obs_lo[:, d] = y[:, 0] + math.sqrt(state.hp.sigma_u2) * gen.normal(size=state.N)
            data.cells[:, d] = map_forward(state.obs_lo[:, d], spec, spec.kind)
        elif spec.kind is AttributeKind.COUNT:
            x = map_forward(y[:, 0], spec, spec.kind)
            data.cells[:, d] = x
            state.obs_lo[:, d] = map_inverse(x, spec, spec.kind)
            state.obs_hi[:, d] = map_inverse(x + 1.0, spec, spec.kind)
        elif spec.kind is AttributeKind.ORDINAL:
            data.cells[:, d] = map_forward(y[:, 0], spec, spec.kind, state.theta[d])
        else:
            data.cells[:, d] = np.argmax(y, axis=1) + 1


def geweke_moments(state):
    """The test functions: free weights, log sigma^2, the free ordinal cut
    points and Y, plus B^2 / sigma_d^2 on the free weights, whose mean
    (sigma_B^2 under the prior) ties the weights' scale to sigma^2."""
    free = state.free_cols
    Bf = state.B[:, free]
    return np.concatenate([
        Bf.ravel(), np.log(state.sigma2), state.theta[GEWEKE_ORDINAL][1:], state.Y.ravel(),
        (Bf * Bf / state.sigma2[state.col_dim[free]]).ravel(),
    ])


def test_geweke_joint_distribution_with_z_held_fixed():
    # Geweke, "Getting it right" (JASA 2004): plain prior draws of
    # (B, sigma^2, theta, Y) and a chain that alternates a draw of the data
    # with the attribute phase (weights, pseudo-observations, thresholds,
    # noise variances) must agree in the means of every test function. The
    # data step draws (Y, X) given the parameters, Y ~ N(Z B, sigma^2) and X
    # from Y: a discrete X is a function of Y and the pseudo-observation step
    # keeps Y inside X's cell, so drawing X from the current Y alone would
    # never move it from its start
    Z = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0]])
    N, D = Z.shape[0], len(GEWEKE_SPECS)
    hp = Hyperparams(alpha=0.0, sigma_B2=0.8, sigma_u2=0.5, sigma_theta2=1.5, beta1=3.0,
                     beta2=2.0, K_init=1, bias=True, sample_variance=True, iterations=0,
                     burn_in=0)
    S = sum(spec.S_d for spec in GEWEKE_SPECS)
    state = LatentState(specs=GEWEKE_SPECS, hp=hp, Z=Z, Y=np.zeros((N, S)),
                        B=np.zeros((2, S)), theta={}, sigma2=np.ones(D),
                        obs_lo=np.full((N, D), np.nan), obs_hi=np.full((N, D), np.nan))
    data = DataMatrix(cells=np.ones((N, D)), missing=np.zeros((N, D), dtype=bool),
                      specs=GEWEKE_SPECS)
    gen = np.random.default_rng(60)
    n_draws, n_batches = 20000, 50

    marginal = []
    for _ in range(n_draws):
        geweke_prior_draw(gen, state)
        marginal.append(geweke_moments(state))
    marginal = np.array(marginal)

    rng = RngState(61)
    steps = (_kernel.STEP_WEIGHTS | _kernel.STEP_PSEUDO | _kernel.STEP_THRESHOLDS
             | _kernel.STEP_NOISE)
    geweke_prior_draw(gen, state)
    chain = np.empty_like(marginal)
    for t in range(n_draws):
        sd = np.sqrt(state.sigma2[state.col_dim])
        state.Y = Z @ state.B + gen.normal(size=(N, S)) * sd
        state.recompute_natural()
        geweke_observe(gen, state, data)
        _sweep(rng, state, data, steps)
        chain[t] = geweke_moments(state)

    batch_means = chain.reshape(n_batches, -1, chain.shape[1]).mean(axis=1)
    se2 = batch_means.var(axis=0, ddof=1) / n_batches + marginal.var(axis=0, ddof=1) / n_draws
    z = (chain.mean(axis=0) - marginal.mean(axis=0)) / np.sqrt(se2)
    # 59 test functions; batch means with 50 batches have heavier
    # tails than a normal, so the bound is wide, and a model mismatch such as
    # a noise-variance draw that ignores the weights reads |z| > 10
    assert np.max(np.abs(z)) < 5.0, np.round(z, 2)
