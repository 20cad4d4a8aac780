"""Input tables and workload definitions for the `glfm complete` benchmark.

Inputs come from `glfm.synthetic.generate` and the workload seed, so the
same seed always gives the same CSV, spec file and hidden truth. Nothing in
this module is timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from glfm.data import AttributeKind, AttributeSpec, DataMatrix
from glfm.synthetic import default_specs, generate, to_csv

MISSING_RATE = 0.1
K_TRUE = 4
TABLE_SEED = 0


def _wide_specs() -> tuple[AttributeSpec, ...]:
    """Table B: the default six columns plus six more, S = 22."""
    return default_specs() + (
        AttributeSpec(name="c2", kind=AttributeKind.CATEGORICAL, R_d=6),
        AttributeSpec(name="c3", kind=AttributeKind.CATEGORICAL, R_d=4),
        AttributeSpec(name="o2", kind=AttributeKind.ORDINAL, R_d=7),
        AttributeSpec(name="n2", kind=AttributeKind.COUNT, w=0.5, mu=1.0),
        AttributeSpec(name="p2", kind=AttributeKind.POSITIVE_REAL, w=2.0, mu=0.5),
        AttributeSpec(name="r3", kind=AttributeKind.REAL, w=3.0, mu=4.0),
    )


# name -> (rows, specs); A is 4000 x 6 with S = 8, B is 1000 x 12 with S = 22
TABLES = {
    "A": (4000, default_specs),
    "B": (1000, _wide_specs),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    table: str
    sweeps: int
    flags: tuple[str, ...]
    explore: bool = False

    @property
    def heldout(self) -> bool:
        return "--heldout" in self.flags


# Why each workload exists, in more detail than `why`:
# - scan-pinned: alpha=0 keeps K at 9 columns (8 + bias), so births return at
#   once and `sample_z_row` is ~90% of wall time. A birth or scoring change
#   should leave it unchanged.
# - births-impute: K starts at 3 and grows, so `birth_features` (~30%) and
#   `recompute_natural` on each birth and prune carry weight; imputation
#   averages 3 states, and `explore --state` reloads the written state.json.
# - heldout-wide: S = 22 with three categorical columns, two hold-out splits
#   with transforms refit per split, and every held-out cell scored twice
#   (~40% of wall time in `tasks`).
WORKLOADS = (
    Workload(
        name="scan-pinned",
        why="K pinned at 9 (alpha=0): the row-scan kernel is ~90% of wall time and births do nothing",
        table="A",
        sweeps=5,
        flags=("--alpha", "0", "--kinit", "8", "--bias"),
    ),
    Workload(
        name="births-impute",
        why="K grows from 3: births ~30% of wall time, then 3-state imputation and explore --state",
        table="A",
        sweeps=3,
        flags=("--alpha", "1", "--kinit", "2", "--bias", "--sample-variance",
               "--average-last", "3"),
        explore=True,
    ),
    Workload(
        name="heldout-wide",
        why="S=22, two hold-out splits: held-out scoring in tasks/likelihoods ~40% of wall time",
        table="B",
        sweeps=5,
        flags=("--alpha", "1", "--kinit", "2", "--bias", "--sample-variance",
               "--heldout", "0.2", "--splits", "2", "--average-last", "5"),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def _spec_line(spec: AttributeSpec) -> str:
    if spec.R_d is None:
        return f"{spec.name},{spec.kind.value}"
    return f"{spec.name},{spec.kind.value},{spec.R_d}"


def make_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's table.csv and table.spec, and the hidden truth
    (every cell, the missing ones included) as truth.csv.

    The table itself comes from `generate` at TABLE_SEED, so its latent
    structure, and with it how hard the table is to fit, is the same in every
    run. The workload seed draws which cells are missing; the worker derives
    the chain seeds from it too.
    """
    rows, make_specs = TABLES[workload.table]
    specs = make_specs()
    full, _ = generate(rows, specs, k_true=K_TRUE, seed=TABLE_SEED)
    missing = np.random.default_rng(seed).random(full.cells.shape) < MISSING_RATE
    shown = DataMatrix(cells=np.where(missing, np.nan, full.cells), missing=missing, specs=full.specs)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "csv": directory / "table.csv",
        "spec": directory / "table.spec",
        "truth": directory / "truth.csv",
    }
    paths["csv"].write_text(to_csv(shown))
    paths["truth"].write_text(to_csv(full))
    paths["spec"].write_text("".join(_spec_line(s) + "\n" for s in specs))
    return {
        **{k: str(v) for k, v in paths.items()},
        "shape": list(shown.cells.shape),
        "S": sum(s.S_d for s in specs),
        "missing_cells": int(missing.sum()),
    }


def commands(workload: Workload, csv_path: Path, spec_path: Path, chain_seed: int,
             out: Path) -> list[list[str]]:
    """The CLI argument lists one repetition of the workload runs, in order."""
    cmds = [[
        "complete", str(csv_path), "--spec", str(spec_path),
        "-o", str(out), "--seed", str(chain_seed), "--iters", str(workload.sweeps),
        "--burn-in", "0", *workload.flags,
    ]]
    if workload.explore:
        cmds.append(["explore", "--state", str(out / "state.json"), "-o", str(out / "explore")])
    return cmds
