"""Run one workload's repetitions in a fresh process and time them.

Usage: python3 perfbench/worker.py JOB_JSON RESULT_JSON

The job names the workload, seed, seconds, trace flag, the input files and a
work directory. Each repetition runs the workload's CLI commands in-process
through `glfm.cli.main`. Untraced repetitions time only the whole command
list and each `run_chain` call; in a traced run every second repetition runs
under `tracer.Tracer`. Repetitions start while the previous ones leave room
in the time budget, with a minimum number of each kind.

Repetitions cycle through CHAIN_SEEDS chain seeds derived from the workload
seed, so a run's median averages over chains whose feature count K differs;
a traced repetition reuses the chain seed of the untraced one before it.
Repetitions with the same chain seed must write byte-identical outputs.
"""

from __future__ import annotations

import functools
import gc
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import glfm.cli  # noqa: E402
import glfm.tasks  # noqa: E402
from glfm.data import parse_attribute_spec  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import BY_NAME, commands  # noqa: E402

CHAIN_SEEDS = 5
MIN_UNTRACED_REPS = CHAIN_SEEDS + 1  # so one chain seed runs twice
HARD_LIMIT_S = 110


def chain_index(rep: int, traced_run: bool) -> int:
    return rep // 2 if traced_run else rep % CHAIN_SEEDS


def _timed_run_chain(fn, calls: list):
    """run_chain with one timer pair per chain; keeps (seconds, rows x
    sweeps, data, result) per call."""

    @functools.wraps(fn)
    def run_chain(data, hp, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(data, hp, *args, **kwargs)
        calls.append((time.perf_counter() - t0, data.n_rows * hp.iterations, data, result))
        return result

    return run_chain


def _cli(argv: list[str]) -> int:
    """Exit code of `glfm.cli.main`, including argparse's exits."""
    try:
        return glfm.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    workload = BY_NAME[job["workload"]]
    work = Path(job["work"])
    csv_path = Path(job["csv"])
    shown = checks.read_rows(csv_path)
    truth = checks.read_rows(Path(job["truth"]))
    specs = parse_attribute_spec(Path(job["spec"]).read_text())

    calls: list = []
    glfm.cli.run_chain = _timed_run_chain(glfm.cli.run_chain, calls)
    glfm.tasks.run_chain = _timed_run_chain(glfm.tasks.run_chain, calls)
    tracer = tracing.Tracer() if job["trace"] else None

    reps = []
    first_calls = None
    started = time.perf_counter()
    while True:
        i = len(reps)
        traced = tracer is not None and i % 2 == 1
        out = work / f"rep{i}"
        if out.exists():
            shutil.rmtree(out)
        calls.clear()
        sink = io.StringIO()
        codes = []
        if traced:
            last_traced_start = len(tracer.spans)
            tracer.install()
        try:
            t0 = time.perf_counter()
            chain_seed = job["seed"] * CHAIN_SEEDS + chain_index(i, tracer is not None)
            for argv in commands(workload, csv_path, Path(job["spec"]), chain_seed, out):
                with redirect_stdout(sink), redirect_stderr(sink):
                    if traced:
                        with tracer.span("cli.main", "cli"):
                            codes.append(_cli(argv))
                    else:
                        codes.append(_cli(argv))
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        rep = {
            "traced": traced,
            "chain_seed": chain_seed,
            "wall_s": wall,
            "chain_s": sum(c[0] for c in calls),
            "rows_sweeps": sum(c[1] for c in calls),
            "codes": codes,
            "hash": checks.output_hash(out) if out.exists() else "",
            "out_bytes": sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) if out.exists() else 0,
            "messages": sink.getvalue().splitlines()[-3:] if any(codes) else [],
        }
        reps.append(rep)
        if i == 0:
            first_calls = list(calls)
        else:
            shutil.rmtree(out, ignore_errors=True)
        calls.clear()
        gc.collect()

        elapsed = time.perf_counter() - started
        n_untraced = sum(not r["traced"] for r in reps)
        n_traced = len(reps) - n_untraced
        usable = n_untraced >= 1 and (tracer is None or n_traced >= 1)
        enough = usable and (tracer is not None or n_untraced >= MIN_UNTRACED_REPS)
        if enough and elapsed + wall > job["seconds"]:
            break
        if usable and elapsed > HARD_LIMIT_S:  # a slow machine: keep the run bounded
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks and quality on the first repetition, outside every timing --
    out0 = work / "rep0"
    problems: list[list[str]] = [[] for _ in reps[0]["codes"]]
    quality = {}
    nonfinite = sum(
        1 for c in first_calls for t in c[3].trace if not math.isfinite(t["log_joint"])
    )
    sweeps = sum(len(c[3].trace) for c in first_calls)
    if reps[0]["codes"][0] == 0:
        if workload.heldout:
            problems[0] += checks.check_scores(out0 / "scores.json")
            if not problems[0]:
                scores = json.loads((out0 / "scores.json").read_text())
                quality["heldout_ll_per_cell"] = scores["mean_per_cell"]
                last = first_calls[-1]
                filled = checks.impute_from_final_state(last[3], last[2], shown)
                quality["impute_error"] = checks.impute_error(filled, truth, shown, specs)
        else:
            problems[0] += checks.check_completed(out0 / "completed.csv", shown, specs)
            problems[0] += checks.check_state(out0 / "state.json", len(shown))
            if not problems[0]:
                filled = checks.read_rows(out0 / "completed.csv")
                quality["impute_error"] = checks.impute_error(filled, truth, shown, specs)
        if len(problems) > 1 and reps[0]["codes"][1] == 0:
            problems[1] += checks.check_explore(out0 / "explore")

    per_layer = {}
    if tracer is not None:
        traced = [r for r in reps if r["traced"]]
        untraced_wall = statistics.median(r["wall_s"] for r in reps if not r["traced"])
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        per_layer = tracing.per_layer_metrics(tracer, len(traced), untraced_wall)
        per_layer.update({
            "cli.out_bytes": float(reps[0]["out_bytes"]),
            "engine.log_joint_nonfinite_share": nonfinite / sweeps if sweeps else 0.0,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.spans_per_rep": len(tracer.spans) / len(traced),
        })
        tracer.write(work / "spans.jsonl", first=last_traced_start)  # the last traced repetition

    Path(result_path).write_text(json.dumps({
        "reps": reps,
        "problems": problems,
        "quality": quality,
        "peak_rss_mb": peak_rss_mb,
        "log_joint_nonfinite": [nonfinite, sweeps],
        "per_layer": per_layer,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
