"""Benchmark of `glfm complete` on synthetic mixed-type tables.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

A run makes the workload's inputs from the seed, times set-up in fresh
interpreters (untraced runs only), then starts one fresh worker process that
repeats the workload's CLI commands for about S seconds (see worker.py). It
checks the outputs, prints a readable report and, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
Everything it writes goes under .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread for this process and every process it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_SECONDS = 30
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 165

# (name, unit, better, bound): the end-to-end metrics, in report order
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("fit_rows_per_s", "rows/s", "higher", 0.25),
    ("post_fit_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("impute_error", "ratio", "lower", 0.2),
)
# printed with the end-to-end metrics but not bounded: error_rate reads 0 when
# all is well (the result line counts failures in `failed`), and the held-out
# score exists on one workload only, while a bounded metric must exist on all
REPORTED = (
    ("error_rate", "ratio"),
    ("heldout_ll_per_cell", "nats"),
)

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import glfm.cli
from glfm.data import fit_transforms, load_dataset, parse_attribute_spec
specs = parse_attribute_spec(open(sys.argv[2]).read())
fit_transforms(load_dataset(open(sys.argv[1]).read(), specs))
print(time.perf_counter() - t0)
"""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def write_manifest(workloads, per_layer) -> None:
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")


def measure_setup(inputs: dict) -> list[float]:
    """Seconds for import glfm.cli + parse spec + load + fit_transforms,
    each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, inputs["csv"], inputs["spec"]],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_worker(job: dict, work: Path) -> dict:
    job_path = work / "job.json"
    result_path = work / "result.json"
    job_path.write_text(json.dumps(job))
    result_path.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        timeout=WORKER_TIMEOUT_S, check=True,
    )
    return json.loads(result_path.read_text())


def count_failures(result: dict) -> tuple[int, int]:
    """(attempted, failed) commands: a command fails on a nonzero exit, a
    failed output check, or outputs that differ from an earlier repetition
    with the same chain seed."""
    reps = result["reps"]
    n_cmds = len(reps[0]["codes"])
    failed = sum(code != 0 for r in reps for code in r["codes"])
    failed += sum(1 for p in result["problems"] if p)
    first_hash = {}
    for r in reps:
        if first_hash.setdefault(r["chain_seed"], r["hash"]) != r["hash"]:
            failed += n_cmds
    return n_cmds * len(reps), failed


def end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    """Medians over the untraced repetitions that ran a chain, plus quality
    from the first repetition. A metric that cannot be formed is left out."""
    fitted = [r for r in result["reps"] if not r["traced"] and r["chain_s"] > 0]
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        **result["quality"],
    }
    if fitted:
        values["wall_s"] = statistics.median(r["wall_s"] for r in fitted)
        values["fit_rows_per_s"] = statistics.median(r["rows_sweeps"] / r["chain_s"] for r in fitted)
        values["post_fit_s"] = statistics.median(r["wall_s"] - r["chain_s"] for r in fitted)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "glfm" / "cli.py").is_file():
        return _fail(f"no glfm sources at {SRC.relative_to(ROOT)}/glfm; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import glfm
    import glfm.cli  # noqa: F401  (compiles it once, before set-up is timed)
    import numpy
    import scipy

    if Path(glfm.__file__).resolve().parent != SRC / "glfm":
        return _fail(f"imported glfm from {glfm.__file__}, not from this checkout")
    from tracer import PER_LAYER
    from workloads import BY_NAME, WORKLOADS, make_inputs

    if args.write_manifest:
        write_manifest(WORKLOADS, PER_LAYER)
        return 0
    if args.workload not in BY_NAME:
        return _fail(f"--workload must be one of {sorted(BY_NAME)}")
    workload = BY_NAME[args.workload]

    work = ROOT / ".perfbench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    inputs = make_inputs(workload, args.seed, work / "inputs")
    setup = None if args.trace else measure_setup(inputs)
    job = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "work": str(work), **inputs,
    }
    started = time.perf_counter()
    result = run_worker(job, work)
    worker_s = time.perf_counter() - started
    attempted, failed = count_failures(result)

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
        "table": {k: inputs[k] for k in ("shape", "S", "missing_cells")},
    }
    reps = result["reps"]
    print(f"workload {workload.name}: {workload.why}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"{len(reps)} repetitions ({sum(r['traced'] for r in reps)} traced) of "
          f"{workload.sweeps} sweeps in {worker_s:.1f} s, chain seeds "
          f"{sorted({r['chain_seed'] for r in reps})}")
    for i, problems in enumerate(result["problems"]):
        for line in problems:
            print(f"check failed (command {i + 1}): {line}")
    messages = [line for r in reps for line in r["messages"]]
    for line in dict.fromkeys(messages):
        print(f"command output ({messages.count(line)}x): {line}")
    for seed in sorted({r["chain_seed"] for r in reps}):
        if len({r["hash"] for r in reps if r["chain_seed"] == seed}) > 1:
            print(f"check failed: outputs differ between repetitions with chain seed {seed}")
    nonfinite, sweeps = result["log_joint_nonfinite"]
    if nonfinite:
        print(f"known sharp edge: log_joint is -inf on {nonfinite} of {sweeps} sweeps "
              "(ibp_lof_log_prior gives -inf when alpha=0 and K+ > 0); not gated")

    if args.trace:
        values = result["per_layer"]
        listed = [(name, unit) for name, unit, _ in PER_LAYER]
        extra = []
    else:
        values = end_to_end(result, setup)
        values["error_rate"] = failed / attempted
        listed = [(name, unit) for name, unit, *_ in END_TO_END]
        extra = [(name, unit) for name, unit in REPORTED if name in values]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in listed if name in values}
    for name, unit in listed + extra:
        shown = f"{values[name]:.6g}" if name in values else "missing"
        print(f"  {name:44s} {shown} {unit}{'  (reported, not bounded)' if (name, unit) in extra else ''}")
    correct = failed == 0 and len(metrics) == len(listed)
    (work / "report.json").write_text(json.dumps(
        {"environment": env, "values": values, "reps": reps}, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
