"""src/ holds what the command line runs.

Six CLI commands run on a small synthetic table in a fresh interpreter
under sys.setprofile and threading.setprofile (chains run on threads),
which record every Python function entered. A function defined in
src/glfm that no command enters fails the test by name, unless ALLOWED
names it with its reason. Code that only tests call belongs in tests/.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from glfm.synthetic import generate, to_csv

SRC = Path(__file__).resolve().parent.parent / "src"

# functions no command reaches that stay in src/, each with its reason; a
# name ending in ".*" covers a whole module
ALLOWED = {
    "_kernel._command": "kernel build: runs only when no cached kernel matches the source",
    "_kernel._build": "kernel build: runs only when no cached kernel matches the source",
    "engine._sigma_B2_too_large": "error path: sigma_B2 too large for P to stay positive "
                                  "definite, exercised by tests",
    "likelihoods.ndtr": "test hook: the kernel's normal CDF, checked against scipy",
    "randkit.trunc_normal_sample": "test hook: the kernel's truncated normal draws",
    "randkit.inverse_gamma_sample": "test hook: the kernel's inverse-gamma draw",
    "randkit.RngState.get_state": "kept to save a chain's stream for resuming it",
    "randkit.RngState.set_state": "kept to restore a chain's stream when resuming it",
    "synthetic.*": "table generator for experiments, called by scripts/ and perfbench/",
    "tasks.as_all_real": "the all-real baseline of scripts/run_missing_benchmark.py",
}

TABLE = ["data.csv", "--spec", "cols.spec", "--iters", "4", "--kmax", "8", "--alpha", "1"]
COMMANDS = [
    ["infer", *TABLE, "-o", "infer", "--bias", "--sample-variance"],
    ["infer", *TABLE, "-o", "init", "--iters", "0"],
    ["complete", *TABLE, "-o", "complete", "--chains", "2", "--average-last", "3"],
    ["complete", *TABLE, "-o", "heldout", "--heldout", "0.2", "--splits", "2"],
    ["explore", "--state", "infer/state.json", "-o", "explore-state"],
    ["explore", *TABLE, "-o", "explore"],
]

# runs in the table's directory: argv[1] the commands, argv[2] the output
TRACE = textwrap.dedent("""
    import json, sys, threading
    from glfm.cli import main

    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    threading.setprofile(profile)
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
    sys.setprofile(None)
    threading.setprofile(None)
    with open(sys.argv[2], "w") as fh:
        json.dump({"codes": codes, "reached": sorted(reached)}, fh)
""")


def src_functions() -> dict[tuple[str, int], str]:
    """Each def in src/glfm, keyed as its code object's (file, first line),
    which is its first decorator's line: its name within the package."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(os.path.realpath(path), first)] = name
            visit(child, path, name)

    for path in sorted((SRC / "glfm").glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return found


def is_allowed(name: str) -> bool:
    return name in ALLOWED or f"{name.split('.')[0]}.*" in ALLOWED


def test_every_src_function_runs_under_some_cli_command(tmp_path):
    data, _ = generate(20, missing_rate=0.1, seed=5)
    assert data.missing.any(axis=0).all()  # every kind's imputation runs
    (tmp_path / "data.csv").write_text(to_csv(data))
    (tmp_path / "cols.spec").write_text(
        "r1,real\np1,positivereal\nc1,categorical,3\no1,ordinal,3\nn1,count\nr2,real\n")
    proc = subprocess.run(
        [sys.executable, "-c", TRACE, json.dumps(COMMANDS), str(tmp_path / "trace.json")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "trace.json").read_text())
    assert result["codes"] == [0] * len(COMMANDS), proc.stderr

    functions = src_functions()
    names = set(functions.values())
    stale = [n for n in ALLOWED if not any(n in (m, f"{m.split('.')[0]}.*") for m in names)]
    assert stale == [], f"ALLOWED names functions that no longer exist: {stale}"
    reached = {(os.path.realpath(f), line) for f, line in result["reached"]}
    unreached = sorted(name for key, name in functions.items()
                       if key not in reached and not is_allowed(name))
    assert unreached == [], (
        f"src functions that no CLI command reaches: {unreached}; move them to tests/ "
        "or add each to ALLOWED with its reason")
