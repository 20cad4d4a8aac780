"""End-to-end command line behavior through main()."""

import json
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from glfm.cli import HYPER_FLAGS, build_parser, main, state_from_json, state_to_json
from glfm.data import (
    AttributeKind,
    AttributeSpec,
    fit_transforms,
    load_dataset,
    parse_attribute_spec,
)
from glfm.engine import Hyperparams, LatentState, run_chain
from glfm.randkit import spawn_seeds
from glfm.synthetic import generate, to_csv

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

FAST = ["--iters", "4", "--burn-in", "1", "--kmax", "6", "--kinit", "1",
        "--alpha", "1.5", "--bias", "--seed", "11"]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "data.csv").write_text(CSV_TEXT)
    (tmp_path / "cols.spec").write_text(SPEC_TEXT)
    return tmp_path


def run_cli(args):
    return main([str(a) for a in args])


def readme_hyperparameter_rows() -> dict[str, str]:
    """Each flag of README's Hyperparameters table, with its default cell."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Hyperparameters\n", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `--"):
            flags, default = [cell.strip() for cell in line.strip("|").split("|")[:2]]
            rows.update((flag, default) for flag in re.findall(r"`(--[a-z0-9-]+)", flags))
    return rows


def test_readme_hyperparameter_table_matches_the_cli():
    rows = readme_hyperparameter_rows()
    dests = {flag: dest for flag, dest, _, _ in HYPER_FLAGS}
    assert set(rows) >= set(dests) | {"--bias", "--sample-variance", "--chains"}
    parser, hp = build_parser(), Hyperparams()
    for command in ("infer", "complete", "explore"):
        head = [command, "data.csv", "-o", "out"]
        for flag, default in rows.items():
            dest = dests.get(flag, flag[2:].replace("-", "_"))
            if default == "off":
                # a switch: on when given, off in Hyperparams
                assert getattr(parser.parse_args(head + [flag]), dest) is True
                assert getattr(hp, dest) is False, flag
            else:
                # a Hyperparams field, or else a flag with its own parser default
                want = getattr(hp if flag in dests else parser.parse_args(head), dest)
                got = getattr(parser.parse_args(head + [flag, default]), dest)
                assert float(default) == want == got, flag


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_exits_2(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["infer", str(workdir / "data.csv"), "--frobnicate"])
    assert exc.value.code == 2


def test_missing_out_flag_exits_2(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["infer", str(workdir / "data.csv"), "--spec", str(workdir / "cols.spec")])
    assert exc.value.code == 2


def test_nonexistent_data_exits_1(workdir, capsys):
    code = run_cli(["infer", workdir / "nope.csv", "--spec", workdir / "cols.spec",
                    "-o", workdir / "out"] + FAST)
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_spec_exits_1(workdir, capsys):
    code = run_cli(["infer", workdir / "data.csv", "-o", workdir / "out"] + FAST)
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_non_finite_hyperparameter_exits_1_in_one_line(workdir, capsys):
    code = run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", workdir / "out", "--iters", "3", "--alpha", "nan"])
    assert code == 1
    assert capsys.readouterr().err == "error: alpha must be finite, got nan\n"
    assert not (workdir / "out" / "trace.ndjson").exists()


def test_sigma_b2_too_large_for_the_table_exits_1_in_one_line(workdir, capsys):
    # 1/sigma_B2 = 1e-300 is lost against the feature counts in
    # P = Z^T Z + I/sigma_B2, so P is singular where columns repeat; the
    # error names the setting and the cause instead of a failed factorization
    (workdir / "tiny.csv").write_text("".join(CSV_TEXT.splitlines(keepends=True)[:5]))
    code = run_cli(["complete", workdir / "tiny.csv", "--spec", workdir / "cols.spec",
                    "-o", workdir / "out", "--iters", "5", "--sigma-b2", "1e300"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sigma_B2 = 1e+300 is too large for 4 rows: ")
    assert "lost to rounding" in err and "--sigma-b2" in err
    assert err.count("\n") == 1


def test_infer_writes_state_and_trace(workdir, capsys):
    out = workdir / "out"
    code = run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out] + FAST)
    assert code == 0
    captured = capsys.readouterr().out
    assert "chain 0: K_plus=" in captured
    assert "wrote" in captured

    state = state_from_json((out / "state.json").read_text())
    assert state.N == 8
    assert state.specs[2].labels == ("red", "blue", "green")
    assert state.hp.alpha == 1.5

    lines = (out / "trace.ndjson").read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        entry = json.loads(line)
        assert set(entry) == {"iteration", "K_plus", "log_joint", "sigma2"}


def test_short_run_without_burn_in_flag(workdir):
    # burn_in defaults to 0, so a run shorter than any fixed burn-in works
    out = workdir / "short"
    code = run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out, "--iters", "3", "--kinit", "1", "--bias"])
    assert code == 0
    state = json.loads((out / "state.json").read_text())
    assert state["hyperparams"]["burn_in"] == 0
    assert state["hyperparams"]["iterations"] == 3


def test_state_json_roundtrip(workdir):
    data, _ = generate(12, missing_rate=0.1, seed=70)
    hp = Hyperparams(alpha=2.0, K_max=6, K_init=2, bias=True,
                     iterations=6, burn_in=1, seed=71)
    res = run_chain(data, hp)
    text = state_to_json(res.state)
    back = state_from_json(text)
    np.testing.assert_array_equal(back.Z, res.state.Z)
    np.testing.assert_array_equal(back.B, res.state.B)
    np.testing.assert_array_equal(back.sigma2, res.state.sigma2)
    for d, th in res.state.theta.items():
        np.testing.assert_array_equal(back.theta[d], th)
    assert back.hp == res.state.hp
    assert [s.kind for s in back.specs] == [s.kind for s in res.state.specs]
    # natural parameters are rebuilt and exact
    np.testing.assert_allclose(
        back.P, back.Z.T @ back.Z + np.eye(back.K) / hp.sigma_B2
    )
    # a second serialization is byte-identical
    assert state_to_json(back) == text


@pytest.mark.parametrize("K", [1, 7, 8, 9, 20])
def test_state_json_z_rows_round_trip(K):
    Z = (np.random.default_rng(K).random((50, K)) < 0.4).astype(float)
    state = LatentState(
        specs=(AttributeSpec("r", AttributeKind.REAL),), hp=Hyperparams(K_max=K, K_init=K),
        Z=Z, Y=np.zeros((50, 1)), B=np.zeros((K, 1)), theta={}, sigma2=np.ones(1),
    )
    state.recompute_natural()
    obj = json.loads(state_to_json(state))
    # the per-entry form the rows were written in before
    assert obj["Z"] == ["".join(str(int(v)) for v in row) for row in Z]
    back = state_from_json(json.dumps(obj))
    np.testing.assert_array_equal(back.Z, Z)
    assert back.Z.dtype == np.float64


@pytest.mark.parametrize("row,edit,message", [
    (3, lambda z: z[:-1] + "2", "Z row 3 holds a value"),
    (5, lambda z: z[:-1] + "\u00e9", "Z row 5 holds a value"),
    (4, lambda z: z + "1", "Z row 4 has"),
    (2, lambda z: z[:-1], "Z row 2 has"),
])
def test_state_json_rejects_bad_z_rows(workdir, capsys, row, edit, message):
    out = workdir / "fit"
    assert run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out] + FAST) == 0
    obj = json.loads((out / "state.json").read_text())
    obj["Z"][row] = edit(obj["Z"][row])
    with pytest.raises(ValueError, match=message):
        state_from_json(json.dumps(obj))
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli(["explore", "--state", bad, "-o", workdir / "explored"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


def test_cli_runs_without_loading_scipy(workdir):
    # scipy is a test-only dependency: fitting, imputing and exploring a
    # saved state must not import it
    script = textwrap.dedent(f"""
        import sys
        from glfm.cli import main
        work = {str(workdir)!r}
        assert main(["complete", work + "/data.csv", "--spec", work + "/cols.spec",
                     "-o", work + "/out", *{FAST!r}]) == 0
        assert main(["explore", "--state", work + "/out/state.json",
                     "-o", work + "/explored"]) == 0
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "explored" / "pdfs.csv").exists()


def test_state_json_with_legacy_birth_prior_only_key(workdir):
    # states written while Hyperparams had birth_prior_only carry the key,
    # always false; such a state loads, and a true value is refused
    data, _ = generate(10, missing_rate=0.1, seed=72)
    hp = Hyperparams(alpha=2.0, K_max=6, K_init=2, bias=True,
                     iterations=3, burn_in=1, seed=73)
    res = run_chain(data, hp)
    obj = json.loads(state_to_json(res.state))
    assert "birth_prior_only" not in obj["hyperparams"]
    obj["hyperparams"]["birth_prior_only"] = False
    back = state_from_json(json.dumps(obj))
    assert back.hp == res.state.hp
    np.testing.assert_array_equal(back.Z, res.state.Z)
    assert state_to_json(back) == state_to_json(res.state)

    obj["hyperparams"]["birth_prior_only"] = True
    with pytest.raises(ValueError, match="birth_prior_only"):
        state_from_json(json.dumps(obj))


def test_state_json_with_legacy_count_xmax_key(workdir):
    # states written while count tables were sized from the training data
    # carry each count attribute's bound; such a state loads, without it
    data, _ = generate(10, missing_rate=0.1, seed=72)
    hp = Hyperparams(alpha=2.0, K_max=6, K_init=2, bias=True,
                     iterations=3, burn_in=1, seed=73)
    text = state_to_json(run_chain(data, hp).state)
    obj = json.loads(text)
    assert "count_xmax" not in obj
    obj["count_xmax"] = {"4": 140}
    assert state_to_json(state_from_json(json.dumps(obj))) == text


def test_state_without_feature_columns_round_trips_and_explores(workdir, capsys):
    # a chain that prunes its last column writes "B": [], which has no width
    specs = (AttributeSpec("r", AttributeKind.REAL),
             AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=3, labels=("a", "b", "c")),
             AttributeSpec("n", AttributeKind.COUNT))
    state = LatentState(specs=specs, hp=Hyperparams(alpha=0.0, K_init=1), Z=np.zeros((4, 0)),
                        Y=np.zeros((4, 5)), B=np.zeros((0, 5)), theta={}, sigma2=np.ones(3))
    state.recompute_natural()
    text = state_to_json(state)
    assert json.loads(text)["B"] == []
    back = state_from_json(text)
    assert back.Z.shape == (4, 0) and back.B.shape == (0, 5)
    assert state_to_json(back) == text

    (workdir / "state.json").write_text(text)
    out = workdir / "explored"
    code = run_cli(["explore", "--state", workdir / "state.json", "-o", out])
    assert code == 0, capsys.readouterr().err
    assert (out / "patterns.csv").read_text() == "pattern,count,empirical_prob\n(),4,1.0\n"
    names = {line.split(",")[0] for line in (out / "pdfs.csv").read_text().splitlines()[1:]}
    assert names == {"r", "c", "n"}


def test_complete_fills_missing_cells(workdir, capsys):
    out = workdir / "out"
    code = run_cli(["complete", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out] + FAST)
    assert code == 0
    assert "imputed 4 cells" in capsys.readouterr().out

    completed = (out / "completed.csv").read_text()
    lines = completed.splitlines()
    assert lines[0] == "r1,p1,c1,o1,n1"
    # observed text preserved verbatim
    assert lines[1] == "0.5,1.2,red,2,3"
    # row 3 had missing r1 and o1: both now present
    row3 = lines[3].split(",")
    assert row3[0] != "" and row3[3] != ""
    float(row3[0])
    assert row3[3] in {"1", "2", "3"}
    # row 7 count filled with a nonnegative integer
    row7 = lines[7].split(",")
    assert int(row7[4]) >= 0
    assert (out / "state.json").exists()
    assert (out / "trace.ndjson").exists()


def write_huge_count_table(path: Path) -> list[str]:
    """A 300-row real and count table with counts up to 2e9, about a tenth of
    them missing, as data.csv and cols.spec under path; returns the count
    column's cells."""
    rng = np.random.default_rng(0)
    counts = [str(int(c)) if rng.random() > 0.1 else "" for c in rng.integers(0, 2 * 10**9, 300)]
    (path / "data.csv").write_text(
        "r1,n1\n" + "".join(f"{rng.normal():.4f},{c}\n" for c in counts))
    (path / "cols.spec").write_text("r1,real\nn1,count\n")
    return counts


def test_multistate_completion_of_huge_counts_scores_only_the_windows(tmp_path, capsys):
    # counts up to 2e9: the states' centers lie far apart, and scoring the
    # whole range between them took GiBs. Each row's windows are enough
    counts = write_huge_count_table(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["complete", tmp_path / "data.csv", "--spec", tmp_path / "cols.spec",
                    "-o", out, "--iters", "4", "--seed", "3", "--average-last", "3"])
    assert code == 0, capsys.readouterr().err
    rows = [line.split(",") for line in (out / "completed.csv").read_text().splitlines()[1:]]
    filled = [int(row[1]) for row, c in zip(rows, counts) if c == ""]
    assert len(filled) == counts.count("") > 0
    assert all(x >= 0 for x in filled)


def test_explore_of_huge_counts_writes_bounded_count_tables(tmp_path, capsys):
    # a count table once spanned 0 .. 4 x the largest count + 100, 59 GiB here;
    # it spans each pattern's predictive, in at most --grid-points values
    write_huge_count_table(tmp_path)
    fit, out = tmp_path / "fit", tmp_path / "explored"
    assert run_cli(["infer", tmp_path / "data.csv", "--spec", tmp_path / "cols.spec",
                    "-o", fit, "--iters", "4", "--seed", "3"]) == 0
    code = run_cli(["explore", "--state", fit / "state.json", "-o", out])
    assert code == 0, capsys.readouterr().err
    n_patterns = len((out / "patterns.csv").read_text().splitlines()) - 1
    rows = [line.split(",") for line in (out / "pdfs.csv").read_text().splitlines()
            if line.startswith("n1,")]
    per_pattern = Counter(row[1] for row in rows)
    assert len(per_pattern) == n_patterns > 0
    assert max(per_pattern.values()) <= 101
    assert all(int(row[2]) >= 0 for row in rows)
    values = np.array([float(row[3]) for row in rows])
    assert np.all(np.isfinite(values)) and np.all(values >= 0)


@pytest.mark.parametrize("top", [2**53, 10**15])
def test_a_count_too_large_for_its_interval_exits_1_in_one_line(tmp_path, capsys, top):
    # at 2**53, x + 1 rounds to x, so the count's interval (x, x + 1] on the
    # pseudo-observation scale is empty. The error names the column, the CSV
    # line and the value; a table of counts up to 10**15 still runs
    gen = np.random.default_rng(19)
    counts = gen.integers(0, 20 if top == 2**53 else top, 60).tolist()
    counts[17] = top
    (tmp_path / "data.csv").write_text(
        "r1,n1\n" + "".join(f"{gen.normal():.4f},{c}\n" for c in counts))
    (tmp_path / "cols.spec").write_text("r1,real\nn1,count\n")
    code = run_cli(["infer", tmp_path / "data.csv", "--spec", tmp_path / "cols.spec",
                    "-o", tmp_path / "out", "--iters", "3"])
    err = capsys.readouterr().err
    if top == 10**15:
        assert code == 0, err
        return
    assert code == 1
    assert err == ("error: n1 row 19: count 9007199254740992 is too large to tell from the next "
                   "count on the pseudo-observation scale\n")


def test_complete_warns_on_a_fully_observed_table(workdir, capsys):
    full = "".join(line + "\n" for line in CSV_TEXT.splitlines()
                   if ",," not in line and not line.startswith(",") and not line.endswith(","))
    (workdir / "data.csv").write_text(full)
    out = workdir / "out"
    code = run_cli(["complete", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out] + FAST)
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: no missing cells to complete\n"
    assert "imputed 0 cells" in captured.out
    assert (out / "completed.csv").read_text() == full


def test_complete_heldout_writes_scores_only(workdir, capsys):
    out = workdir / "scored"
    code = run_cli(["complete", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out, "--heldout", "0.2", "--splits", "2"] + FAST)
    assert code == 0
    assert "mean log predictive" in capsys.readouterr().out
    scores = json.loads((out / "scores.json").read_text())
    assert scores["rate"] == 0.2
    assert len(scores["splits"]) == 2
    assert "mean_per_cell" in scores
    assert not (out / "completed.csv").exists()


def test_complete_rejects_a_non_finite_cell_in_one_line(workdir, capsys):
    (workdir / "data.csv").write_text(CSV_TEXT.replace("2.5,0.9", "inf,0.9"))
    code = run_cli(["complete", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", workdir / "out"] + FAST)
    assert code == 1
    assert capsys.readouterr().err == "error: r1 row 5: non-finite value 'inf'\n"


def test_heldout_transform_fit_error_names_split_and_column(workdir, capsys):
    # r1 keeps two observed cells, so a split that hides one cannot fit it
    lines = CSV_TEXT.splitlines()
    sparse = [lines[0], lines[1]] + [
        line if line.startswith("2.5") else "," + line.split(",", 1)[1]
        for line in lines[2:]
    ]
    (workdir / "data.csv").write_text("\n".join(sparse) + "\n")
    code = run_cli(["complete", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", workdir / "out", "--heldout", "0.2", "--splits", "2"] + FAST)
    assert code == 1
    assert capsys.readouterr().err == (
        "error: split 0: r1: need at least 2 non-missing values to fit transforms\n"
    )


def test_explore_writes_summaries(workdir):
    out = workdir / "explored"
    code = run_cli(["explore", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out, "--top", "3", "--grid-points", "21"] + FAST)
    assert code == 0
    patterns = (out / "patterns.csv").read_text().splitlines()
    assert patterns[0] == "pattern,count,empirical_prob"
    assert len(patterns) >= 2
    assert patterns[1].startswith("(")

    probs = (out / "feature_probs.csv").read_text().splitlines()
    assert probs[0] == "feature,prob"

    pdfs = (out / "pdfs.csv").read_text().splitlines()
    assert pdfs[0] == "attribute,pattern,x,value"
    names = {line.split(",")[0] for line in pdfs[1:]}
    assert names == {"r1", "p1", "c1", "o1", "n1"}
    # categorical support is shown with original labels
    cat_x = {line.split(",")[2] for line in pdfs[1:] if line.startswith("c1,")}
    assert cat_x == {"red", "blue", "green"}


def test_explore_from_saved_state(workdir):
    out1 = workdir / "fit"
    assert run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out1] + FAST) == 0
    out2 = workdir / "explored2"
    code = run_cli(["explore", "--state", out1 / "state.json", "-o", out2])
    assert code == 0
    assert (out2 / "patterns.csv").exists()
    assert (out2 / "pdfs.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--top", "-1"], "error: top must be >= 0, got -1\n"),
    (["--grid-points", "0"], "error: n_points must be >= 2, got 0\n"),
    (["--grid-points", "1"], "error: n_points must be >= 2, got 1\n"),
])
def test_explore_rejects_bad_top_and_grid_in_one_line(workdir, capsys, flags, message):
    fit = workdir / "fit"
    assert run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", fit] + FAST) == 0
    capsys.readouterr()
    out = workdir / "explored"
    code = run_cli(["explore", "--state", fit / "state.json", "-o", out] + flags)
    assert code == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_explore_without_data_or_state_exits_1(workdir, capsys):
    code = run_cli(["explore", "-o", workdir / "nothing"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_and_flag_precedence(workdir):
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps({"alpha": 0.7, "K_max": 5, "iterations": 3,
                               "burn_in": 1, "K_init": 1, "bias": True}))
    out1 = workdir / "cfg_only"
    assert run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out1, "--config", cfg, "--seed", "5"]) == 0
    st1 = json.loads((out1 / "state.json").read_text())
    assert st1["hyperparams"]["alpha"] == 0.7
    assert st1["hyperparams"]["K_max"] == 5

    out2 = workdir / "cfg_overridden"
    assert run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out2, "--config", cfg, "--seed", "5", "--alpha", "2.0"]) == 0
    st2 = json.loads((out2 / "state.json").read_text())
    assert st2["hyperparams"]["alpha"] == 2.0


def test_bad_config_exits_1(workdir, capsys):
    cfg = workdir / "bad.json"
    cfg.write_text(json.dumps({"alphaa": 1.0}))
    code = run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", workdir / "out", "--config", cfg] + FAST)
    assert code == 1
    assert "unknown hyperparameter" in capsys.readouterr().err


def test_missing_token_flag(workdir):
    (workdir / "na.csv").write_text("a,b\n1.0,NA\n2.0,3.0\nNA,4.0\n0.5,1.5\n")
    (workdir / "na.spec").write_text("a,real\nb,real\n")
    out = workdir / "na_out"
    code = run_cli(["complete", workdir / "na.csv", "--spec", workdir / "na.spec",
                    "-o", out, "--missing", "NA"] + FAST)
    assert code == 0
    lines = (out / "completed.csv").read_text().splitlines()
    assert "NA" not in lines[1] and "NA" not in lines[3]


def test_identical_runs_are_byte_identical(workdir):
    args = ["complete", workdir / "data.csv", "--spec", workdir / "cols.spec"] + FAST
    out_a, out_b = workdir / "a", workdir / "b"
    assert run_cli(args + ["-o", out_a]) == 0
    assert run_cli(args + ["-o", out_b]) == 0
    for name in ("state.json", "trace.ndjson", "completed.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_multichain_keeps_best(workdir, capsys):
    out = workdir / "multi"
    code = run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", out, "--chains", "2"] + FAST)
    assert code == 0
    captured = capsys.readouterr().out
    assert "chain 0:" in captured and "chain 1:" in captured
    assert "kept chain" in captured


def chain_summaries(stdout):
    """(index, log joint) of each `chain i: ...` line, and the kept index."""
    chains = [(int(line.split()[1].rstrip(":")), float(line.rsplit("=", 1)[1]))
              for line in stdout.splitlines() if line.startswith("chain ")]
    kept = [int(line.split()[-1]) for line in stdout.splitlines() if line.startswith("kept")]
    return chains, kept[0]


def test_multichain_at_zero_alpha_keeps_the_larger_log_joint(workdir, capsys):
    # at alpha = 0 the log joint is finite, so the chains are compared; at
    # this seed chain 1 ends higher
    code = run_cli(["infer", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", workdir / "zero"] + FAST + ["--alpha", "0", "--chains", "2",
                                                       "--seed", "13"])
    assert code == 0
    chains, kept = chain_summaries(capsys.readouterr().out)
    assert all(np.isfinite(lj) for _, lj in chains)
    assert kept == max(chains, key=lambda c: c[1])[0] == 1


def test_multichain_runs_are_deterministic_and_keep_a_lone_chain(workdir, capsys):
    # chains run on threads: reruns are byte-identical, and the kept chain is
    # the chain its spawned seed runs alone
    args = ["infer", workdir / "data.csv", "--spec", workdir / "cols.spec"] + FAST
    outputs = []
    for rerun in range(2):
        assert run_cli(args + ["-o", workdir / f"three{rerun}", "--chains", "3"]) == 0
        outputs.append([(workdir / f"three{rerun}" / name).read_bytes()
                        for name in ("state.json", "trace.ndjson")])
    assert outputs[0] == outputs[1]
    _, kept = chain_summaries(capsys.readouterr().out)
    data = fit_transforms(load_dataset(CSV_TEXT, parse_attribute_spec(SPEC_TEXT)))
    hp = Hyperparams(iterations=4, burn_in=1, K_max=6, K_init=1, alpha=1.5, bias=True,
                     seed=spawn_seeds(11, 3)[kept])
    assert state_to_json(run_chain(data, hp).state).encode() == outputs[0][0]


def test_heldout_rejects_several_chains(workdir, capsys):
    code = run_cli(["complete", workdir / "data.csv", "--spec", workdir / "cols.spec",
                    "-o", workdir / "held", "--heldout", "0.2", "--chains", "2"] + FAST)
    assert code == 1
    assert capsys.readouterr().err == (
        "error: --heldout runs one chain per split; --chains must be 1\n")
    assert not (workdir / "held" / "scores.json").exists()


def test_synthetic_csv_runs_through_cli(workdir):
    data, _ = generate(15, missing_rate=0.1, seed=72)
    (workdir / "syn.csv").write_text(to_csv(data))
    (workdir / "syn.spec").write_text(
        "r1,real\np1,positivereal\nc1,categorical,3\no1,ordinal,3\nn1,count\nr2,real\n"
    )
    out = workdir / "syn_out"
    code = run_cli(["complete", workdir / "syn.csv", "--spec", workdir / "syn.spec",
                    "-o", out] + FAST)
    assert code == 0
    assert (out / "completed.csv").exists()


# stand-ins for the system C compiler: none on PATH, or one that fails
BROKEN_CC = "#!/bin/sh\necho 'cc: error: cannot compile' >&2\nexit 1\n"


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_kernel_build_failure_exits_1_with_one_line(workdir, compiler):
    # a fresh kernel cache and no working `cc`: the sweep cannot be built,
    # and glfm says so on one line, with no traceback and no fallback
    bin_dir = workdir / "bin"
    bin_dir.mkdir()
    if compiler == "failing":
        (bin_dir / "cc").write_text(BROKEN_CC)
        (bin_dir / "cc").chmod(0o755)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PATH=str(bin_dir), XDG_CACHE_HOME=str(workdir / "cache"),
               PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "glfm", "infer", str(workdir / "data.csv"),
         "--spec", str(workdir / "cols.spec"), "-o", str(workdir / "out"), *FAST],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "sampler kernel" in lines[0]
    assert not (workdir / "out" / "state.json").exists()
