"""Command line interface.

Three subcommands share one data pipeline (load CSV, fit per-column
transforms, run chains):

    glfm infer     fit the model, write state.json and trace.ndjson
    glfm complete  additionally impute missing cells into completed.csv,
                   or score random hold-outs with --heldout
    glfm explore   summarize feature patterns and per-pattern distributions

All outputs are deterministic for a fixed seed: JSON keys are sorted, floats
are written with repr precision, and nothing records wall-clock time.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from glfm.data import (
    AttributeKind,
    AttributeSpec,
    DataMatrix,
    decode_column,
    fit_transforms,
    format_column,
    load_dataset,
    parse_attribute_spec,
    render_csv,
)
from glfm.engine import (
    ChainResult,
    Hyperparams,
    LatentState,
    complete_data_log_joint,
    hyperparams_from_dict,
    hyperparams_to_dict,
    run_chain,
)
from glfm.randkit import spawn_seeds
from glfm.tasks import (
    compute_pdf,
    extract_patterns,
    feature_activation_probs,
    heldout_benchmark,
    impute_from_states,
)

__all__ = ["main", "state_from_json", "state_to_json"]

HYPER_FLAGS = (
    ("--alpha", "alpha", float, "feature birth rate of the buffet prior"),
    ("--sigma-b2", "sigma_B2", float,
     "prior variance of weights, relative to the attribute's noise variance"),
    ("--sigma-y2", "sigma_y2", float, "pseudo-observation noise variance"),
    ("--sigma-u2", "sigma_u2", float, "continuous observation noise variance"),
    ("--sigma-theta2", "sigma_theta2", float, "prior variance of ordinal cut points"),
    ("--beta1", "beta1", float, "noise variance prior shape"),
    ("--beta2", "beta2", float, "noise variance prior rate"),
    ("--kmax", "K_max", int, "hard cap on feature columns"),
    ("--kinit", "K_init", int, "starting number of feature columns"),
    ("--iters", "iterations", int, "Gibbs sweeps to run"),
    ("--burn-in", "burn_in", int, "recorded in state.json (default 0); must be below --iters"),
    ("--seed", "seed", int, "RNG seed"),
)


# the least value of each count flag, checked before any work is done
FLAG_MINIMA = (("--chains", "chains", 1), ("--average-last", "average_last", 1),
               ("--splits", "splits", 1), ("--grid-points", "grid_points", 2),
               ("--top", "top", 0))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glfm",
        description="Binary latent feature modeling of mixed-type tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="fit the model to a table")
    _add_common(p_infer, data_required=True)

    p_complete = sub.add_parser("complete", help="fit and fill in missing cells")
    _add_common(p_complete, data_required=True)
    p_complete.add_argument(
        "--heldout",
        type=float,
        default=None,
        metavar="RATE",
        help="hide this fraction of observed cells and write scores.json "
        "instead of a completion",
    )
    p_complete.add_argument(
        "--splits", type=int, default=5, help="hold-out repetitions (default 5)"
    )
    p_complete.add_argument(
        "--average-last",
        type=int,
        default=1,
        metavar="M",
        help="average predictions over the last M states (default 1)",
    )

    p_explore = sub.add_parser("explore", help="summarize feature patterns")
    _add_common(p_explore, data_required=False)
    p_explore.add_argument(
        "--state", type=Path, default=None, help="reuse a saved state.json"
    )
    p_explore.add_argument(
        "--top", type=int, default=10, help="patterns to report (default 10)"
    )
    p_explore.add_argument(
        "--grid-points",
        type=int,
        default=101,
        help="continuous grid size and largest count table (default 101)",
    )
    return parser


def _add_common(p: argparse.ArgumentParser, data_required: bool):
    p.add_argument(
        "data",
        type=Path,
        nargs=None if data_required else "?",
        help="CSV table (header row, empty cells missing)",
    )
    p.add_argument(
        "--spec",
        type=Path,
        default=None,
        help="attribute spec file: one `name,kind[,R][,preprocess]` per line",
    )
    p.add_argument("-o", "--out", type=Path, required=True, help="output directory")
    p.add_argument(
        "--missing", default="", metavar="TOKEN", help="extra missing-value token"
    )
    p.add_argument(
        "--config", type=Path, default=None, help="JSON file of hyperparameters"
    )
    p.add_argument(
        "--chains", type=int, default=1, help="independent chains (best kept)"
    )
    p.add_argument(
        "--bias",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="include an always-on bias feature",
    )
    p.add_argument(
        "--sample-variance",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="resample per-attribute noise variances",
    )
    for flag, dest, typ, helptext in HYPER_FLAGS:
        p.add_argument(flag, dest=dest, type=typ, default=None, help=helptext)


def _build_hyperparams(args) -> Hyperparams:
    config = {}
    if args.config is not None:
        config = json.loads(Path(args.config).read_text())
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    overrides = {}
    for _, dest, _, _ in HYPER_FLAGS:
        overrides[dest] = getattr(args, dest)
    overrides["bias"] = args.bias
    overrides["sample_variance"] = args.sample_variance
    return hyperparams_from_dict(config, **overrides)


def _load_data(args) -> DataMatrix:
    if args.data is None:
        raise ValueError("a data CSV is required (or --state for explore)")
    if args.spec is None:
        raise ValueError("--spec is required when reading a data CSV")
    specs = parse_attribute_spec(Path(args.spec).read_text())
    data = load_dataset(Path(args.data).read_text(), specs, missing_sentinel=args.missing)
    return fit_transforms(data)


def _run_chains(data: DataMatrix, hp: Hyperparams, n_chains: int, keep_last: int = 1):
    """Run chains with seeds spawned from hp.seed, on threads: the kernel
    releases the GIL, and each chain draws from its own PCG64 stream.

    Returns (best result, best index, per-chain summaries); the best chain is
    the one with the highest final log joint, first such on ties.
    """
    hps = [replace(hp, seed=int(s)) for s in spawn_seeds(hp.seed, n_chains)]
    with ThreadPoolExecutor(max_workers=min(n_chains, 8)) as pool:
        results = list(pool.map(lambda h: run_chain(data, h, keep_last=keep_last), hps))
    best_i = 0
    best_lj = -np.inf
    summaries = []
    for i, res in enumerate(results):
        lj = res.trace[-1]["log_joint"] if res.trace else complete_data_log_joint(res.state)
        summaries.append((i, res.state.K_plus, lj))
        if lj > best_lj:
            best_i, best_lj = i, lj
    return results[best_i], best_i, summaries


def _z_rows(Z: np.ndarray) -> list[str]:
    """Each row of a 0/1 matrix as a string of '0' and '1' characters."""
    N, K = Z.shape
    if K == 0:
        return [""] * N
    return (Z.astype(np.uint8) + ord("0")).view(f"S{K}").ravel().astype(str).tolist()


def _parse_z_rows(rows: list[str], K: int) -> np.ndarray:
    """The 0/1 matrix that _z_rows wrote, checked row by row."""
    short = next((n for n, row in enumerate(rows) if len(row) != K), None)
    if short is not None:
        raise ValueError(f"state.json Z row {short} has {len(rows[short])} entries, expected {K}")
    # a non-ASCII character becomes '?', which the digit check rejects
    flat = "".join(rows).encode("ascii", "replace")
    Z = np.frombuffer(flat, dtype=np.uint8).reshape(len(rows), K) - np.uint8(ord("0"))
    bad = np.flatnonzero((Z > 1).any(axis=1))
    if bad.size:
        raise ValueError(f"state.json Z row {bad[0]} holds a value other than 0 and 1")
    return Z.astype(float)


def state_to_json(state: LatentState) -> str:
    attributes = []
    for spec in state.specs:
        attributes.append(
            {
                "name": spec.name,
                "kind": spec.kind.value,
                "R_d": spec.R_d,
                "w": spec.w,
                "mu": spec.mu,
                "preprocess": spec.external_preprocess,
                "labels": None if spec.labels is None else list(spec.labels),
            }
        )
    obj = {
        "version": 1,
        "N": state.N,
        "K": state.K,
        "K_plus": state.K_plus,
        "hyperparams": hyperparams_to_dict(state.hp),
        "attributes": attributes,
        "Z": _z_rows(state.Z),
        "B": [[float(v) for v in row] for row in state.B],
        "theta": {str(d): [float(v) for v in th] for d, th in state.theta.items()},
        "sigma2": [float(v) for v in state.sigma2],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def state_from_json(text: str) -> LatentState:
    """Rebuild a sampler state saved by state_to_json.

    Pseudo-observations are reconstituted at their conditional mean Z B, which
    is all the downstream summaries need. Keys this version does not read,
    as older files may carry, are ignored.
    """
    obj = json.loads(text)
    specs = tuple(
        AttributeSpec(
            name=a["name"],
            kind=AttributeKind.from_tag(a["kind"]),
            R_d=a["R_d"],
            w=a["w"],
            mu=a["mu"],
            external_preprocess=a["preprocess"],
            labels=None if a["labels"] is None else tuple(a["labels"]),
        )
        for a in obj["attributes"]
    )
    hp_dict = dict(obj["hyperparams"])
    # states written before birth_prior_only was removed carry it as false
    if hp_dict.pop("birth_prior_only", False):
        raise ValueError("state.json sets birth_prior_only, which is no longer supported")
    hp = hyperparams_from_dict(hp_dict)
    Z = _parse_z_rows(obj["Z"], int(obj["K"]))
    # a state with no feature column writes B as [], which has no width
    B = np.array(obj["B"], dtype=float).reshape(Z.shape[1], sum(s.S_d for s in specs))
    state = LatentState(
        specs=specs,
        hp=hp,
        Z=Z,
        Y=Z @ B,
        B=B,
        theta={int(d): np.array(th, dtype=float) for d, th in obj["theta"].items()},
        sigma2=np.array(obj["sigma2"], dtype=float),
    )
    state.recompute_natural()
    return state


def _write_trace(path: Path, trace: list[dict]):
    with path.open("w") as fh:
        for entry in trace:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _write_state_outputs(out: Path, result: ChainResult):
    (out / "state.json").write_text(state_to_json(result.state))
    _write_trace(out / "trace.ndjson", result.trace)


def _print_summaries(summaries, best_index):
    for i, k_plus, lj in summaries:
        print(f"chain {i}: K_plus={k_plus} log_joint={lj:.6f}")
    if len(summaries) > 1:
        print(f"kept chain {best_index}")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_infer(args) -> int:
    data = _load_data(args)
    hp = _build_hyperparams(args)
    best, best_i, summaries = _run_chains(data, hp, args.chains)
    args.out.mkdir(parents=True, exist_ok=True)
    _write_state_outputs(args.out, best)
    _print_summaries(summaries, best_i)
    print(f"wrote {args.out / 'state.json'}")
    return 0


def cmd_complete(args) -> int:
    data = _load_data(args)
    hp = _build_hyperparams(args)
    args.out.mkdir(parents=True, exist_ok=True)

    if args.heldout is not None:
        if args.chains != 1:
            raise ValueError("--heldout runs one chain per split; --chains must be 1")
        scores = heldout_benchmark(
            data,
            hp,
            rate=args.heldout,
            n_splits=args.splits,
            seed=hp.seed,
            average_last=args.average_last,
        )
        path = args.out / "scores.json"
        path.write_text(json.dumps(scores, sort_keys=True, indent=2) + "\n")
        print(f"mean log predictive per held-out cell: {scores['mean_per_cell']:.6f}")
        print(f"wrote {path}")
        return 0

    if not data.missing.any():
        print("warning: no missing cells to complete", file=sys.stderr)
    best, best_i, summaries = _run_chains(data, hp, args.chains, keep_last=args.average_last)
    filled = impute_from_states(best.saved, data)
    (args.out / "completed.csv").write_text(render_csv(data, fill=filled))
    _write_state_outputs(args.out, best)
    _print_summaries(summaries, best_i)
    print(f"imputed {int(data.missing.sum())} cells")
    print(f"wrote {args.out / 'completed.csv'}")
    return 0


def cmd_explore(args) -> int:
    if args.state is not None:
        state = state_from_json(Path(args.state).read_text())
    else:
        data = _load_data(args)
        hp = _build_hyperparams(args)
        best, _, _ = _run_chains(data, hp, args.chains)
        state = best.state

    patterns = extract_patterns(state, top=args.top)
    rows = []
    for pat in patterns:
        z = np.array(pat.bits, dtype=float)
        label = pat.label
        for d, spec in enumerate(state.specs):
            xs, vals = compute_pdf(state, d, z, n_points=args.grid_points)
            # continuous pdfs come back in original units, the others encoded
            shown = format_column(spec, xs if spec.kind.is_continuous else decode_column(spec, xs))
            rows.extend([spec.name, label, x, repr(v)] for x, v in zip(shown, vals.tolist()))

    # every table is computed before the first is written, so a failure
    # leaves no partial output
    args.out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        args.out / "patterns.csv",
        ["pattern", "count", "empirical_prob"],
        [[pat.label, str(pat.count), repr(pat.empirical_prob)] for pat in patterns],
    )
    probs = feature_activation_probs(state)
    _write_csv(
        args.out / "feature_probs.csv",
        ["feature", "prob"],
        [[f"feature_{i}", repr(float(p))] for i, p in enumerate(probs, start=1)],
    )
    _write_csv(args.out / "pdfs.csv", ["attribute", "pattern", "x", "value"], rows)

    print(f"{len(patterns)} patterns over {state.K_plus} active features")
    print(f"wrote {args.out / 'patterns.csv'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"infer": cmd_infer, "complete": cmd_complete, "explore": cmd_explore}
    try:
        for flag, dest, least in FLAG_MINIMA:
            if getattr(args, dest, least) < least:
                raise ValueError(f"{flag} must be >= {least}, got {getattr(args, dest)}")
        return handlers[args.command](args)
    except Exception as exc:  # surface a clean one-line failure, exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
