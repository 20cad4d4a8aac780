"""The experiment scripts run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY_ARGS = {
    "run_missing_benchmark.py": ["--rows", "80", "--iters", "4", "--burn-in", "1"],
    "run_prior_recovery.py": ["--rows", "5", "--iters", "30", "--burn-in", "10"],
    "run_synthetic_recovery.py": ["--rows", "80", "--iters", "4", "--burn-in", "1"],
}


def test_scripts_run_at_tiny_sizes():
    scripts = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
    assert scripts == sorted(TINY_ARGS), "give every script tiny arguments here"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    for name in scripts:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / name), *TINY_ARGS[name]],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, f"{name} exited {proc.returncode}:\n{proc.stderr}"
