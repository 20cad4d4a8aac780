"""Output checks and quality figures for one workload repetition.

Checks return a list of problems (empty when the outputs are right); a
problem fails the command that wrote the file. Quality figures compare the
outputs with the generator's hidden truth. Nothing here is timed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from glfm.cli import state_from_json
from glfm.data import AttributeKind, AttributeSpec, DataMatrix, render_csv
from glfm.tasks import impute_from_states


def read_rows(path: Path) -> list[list[str]]:
    """CSV body rows as strings (header dropped)."""
    return list(csv.reader(io.StringIO(path.read_text())))[1:]


def output_hash(out: Path) -> str:
    """One digest over every file below `out`, names included."""
    h = hashlib.sha256()
    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(out)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def _in_domain(spec: AttributeSpec, text: str, labels: set[str]) -> bool:
    kind = spec.kind
    if kind is AttributeKind.CATEGORICAL:
        return text in labels or text in {str(r) for r in range(1, spec.R_d + 1)}
    try:
        v = float(text)
    except ValueError:
        return False
    if not math.isfinite(v):
        return False
    if kind is AttributeKind.ORDINAL:
        return v == int(v) and 1 <= v <= spec.R_d and text == str(int(v))
    if kind is AttributeKind.COUNT:
        return v == int(v) and v >= 0 and text == str(int(v))
    if kind is AttributeKind.POSITIVE_REAL:
        return v > 0
    return True


def check_completed(path: Path, shown: list[list[str]], specs) -> list[str]:
    """Observed cells round-trip byte for byte; imputed cells are in domain."""
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = read_rows(path)
    if len(rows) != len(shown):
        return [f"{path.name}: {len(rows)} rows, expected {len(shown)}"]
    labels = [{r[d] for r in shown if r[d] != ""} for d in range(len(specs))]
    problems = []
    for i, (got, src) in enumerate(zip(rows, shown)):
        if len(got) != len(src):
            problems.append(f"row {i + 1}: {len(got)} fields, expected {len(src)}")
            continue
        for d, spec in enumerate(specs):
            if src[d] != "":
                if got[d] != src[d]:
                    problems.append(f"row {i + 1} {spec.name}: observed {src[d]!r} became {got[d]!r}")
            elif not _in_domain(spec, got[d], labels[d]):
                problems.append(f"row {i + 1} {spec.name}: imputed {got[d]!r} outside the {spec.kind.value} domain")
    return problems[:5]


def check_scores(path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    numbers = []

    def walk(v):
        if isinstance(v, dict):
            for x in v.values():
                walk(x)
        elif isinstance(v, list):
            for x in v:
                walk(x)
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            numbers.append(float(v))

    try:
        scores = json.loads(path.read_text())
    except ValueError as exc:
        return [f"{path.name} is not JSON: {exc}"]
    walk(scores)
    if not isinstance(scores, dict) or "mean_per_cell" not in scores:
        return [f"{path.name} has no mean_per_cell"]
    if not all(math.isfinite(v) for v in numbers):
        return [f"{path.name} holds a non-finite number"]
    return []


def check_state(path: Path, n_rows: int) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    try:
        state = state_from_json(path.read_text())
    except (ValueError, KeyError, TypeError, np.linalg.LinAlgError) as exc:
        return [f"{path.name} does not reload: {exc}"]
    if state.N != n_rows:
        return [f"{path.name}: N={state.N}, expected {n_rows}"]
    return []


def check_explore(out: Path) -> list[str]:
    problems = []
    for name in ("patterns.csv", "feature_probs.csv", "pdfs.csv"):
        if not (out / name).is_file():
            problems.append(f"explore/{name} missing")
    if not problems:
        try:
            values = [float(r[-1]) for r in read_rows(out / "pdfs.csv")]
        except (ValueError, IndexError):
            values = []
        if not values or not all(math.isfinite(v) and v >= 0 for v in values):
            problems.append("explore/pdfs.csv is empty or holds a bad value")
    return problems


# -- quality against the hidden truth ------------------------------------


def impute_error(filled: list[list[str]], truth: list[list[str]], shown: list[list[str]], specs) -> float:
    """Mean over attributes of the error on the cells that were missing.

    Discrete kinds count wrong values; continuous and count kinds take the
    RMSE divided by the standard deviation of the true column.
    """
    errors = []
    for d, spec in enumerate(specs):
        idx = [i for i, r in enumerate(shown) if r[d] == ""]
        if not idx:
            continue
        if spec.kind.is_discrete_finite:
            errors.append(float(np.mean([filled[i][d] != truth[i][d] for i in idx])))
        else:
            col = np.array([float(r[d]) for r in truth])
            diff = np.array([float(filled[i][d]) for i in idx]) - col[idx]
            errors.append(float(np.sqrt(np.mean(diff * diff)) / np.std(col, ddof=1)))
    return float(np.mean(errors))


def impute_from_final_state(chain, train: DataMatrix, shown: list[list[str]]) -> list[list[str]]:
    """The table's missing cells filled from a chain's final state, as the
    rows `glfm complete` would write for them."""
    missing = np.array([[c == "" for c in r] for r in shown])
    data = DataMatrix(cells=train.cells, missing=missing, specs=train.specs, raw=train.raw)
    filled = impute_from_states([chain.state], data)
    return list(csv.reader(io.StringIO(render_csv(data, fill=filled))))[1:]
