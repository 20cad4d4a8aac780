"""Load, type, encode, and preprocess heterogeneous tabular data.

Attribute types are declared, never inferred. One column codec per kind
(`_encode_column`, `_check_encoded`, `decode_column`, `format_column`) serves
loading, validation, rendering and the pdf grid. `PREPROCESS` holds the two
optional transforms, g1(x) = log(x + 1) for heavy right tails and
g2(x) = log((100 - x) + 1) for percentage-like attributes piled up near 100.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "AttributeKind",
    "AttributeSpec",
    "DataMatrix",
    "apply_preprocess",
    "decode_column",
    "fit_transform_params",
    "fit_transforms",
    "format_column",
    "invert_preprocess",
    "load_dataset",
    "parse_attribute_spec",
    "preprocess_jacobian",
    "render_csv",
]

# preprocess tag -> (g, inverse of g), over arrays. The Jacobian |dg/dx| is
# 1/(1 + x) for log1p and 1/(101 - x) for reflected-log1p: exp(-g(x)) in both.
PREPROCESS = {
    "log1p": (np.log1p, np.expm1),
    "reflected-log1p": (lambda x: np.log(101.0 - x), lambda v: 101.0 - np.exp(v)),
}


class AttributeKind(enum.Enum):
    """The five supported attribute types."""

    REAL = "real"
    POSITIVE_REAL = "positivereal"
    CATEGORICAL = "categorical"
    ORDINAL = "ordinal"
    COUNT = "count"

    @property
    def is_discrete_finite(self) -> bool:
        return self in (AttributeKind.CATEGORICAL, AttributeKind.ORDINAL)

    @property
    def is_continuous(self) -> bool:
        return self in (AttributeKind.REAL, AttributeKind.POSITIVE_REAL)

    @classmethod
    def from_tag(cls, tag: str) -> "AttributeKind":
        try:
            return cls(tag.strip().lower())
        except ValueError:
            raise ValueError(f"unknown attribute kind tag: {tag!r}") from None


@dataclass
class AttributeSpec:
    """Per-column metadata: kind, transform parameters, and category layout.

    w and mu shift/scale the pseudo-observation before the kind's mapping
    function; R_d is the category count for categorical/ordinal columns;
    labels records the raw-label-to-index encoding for categorical columns.
    """

    name: str
    kind: AttributeKind
    R_d: int | None = None
    w: float = 1.0
    mu: float = 0.0
    external_preprocess: str | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.w > 0:
            raise ValueError(f"{self.name}: transform scale w must be > 0")
        if self.kind.is_discrete_finite:
            if self.R_d is None or self.R_d < 2:
                raise ValueError(f"{self.name}: {self.kind.value} needs R_d >= 2")
        elif self.R_d is not None:
            raise ValueError(f"{self.name}: R_d supplied for non-finite kind")
        if self.external_preprocess is not None:
            if self.external_preprocess not in PREPROCESS:
                raise ValueError(
                    f"{self.name}: unknown preprocess {self.external_preprocess!r}"
                )
            if not self.kind.is_continuous:
                raise ValueError(
                    f"{self.name}: external preprocess only applies to "
                    "real/positive-real columns"
                )

    @property
    def S_d(self) -> int:
        """Pseudo-observation columns: R_d for categorical, 1 otherwise."""
        return self.R_d if self.kind is AttributeKind.CATEGORICAL else 1


@dataclass
class DataMatrix:
    """N x D observation table: encoded cells, missing mask, column specs.

    cells holds encoded values (labels mapped to 1..R_d, preprocess applied);
    missing marks absent entries (cells are nan there); raw preserves the
    source strings so completed tables round-trip untouched cells byte for
    byte. Read-only after construction.
    """

    cells: np.ndarray
    missing: np.ndarray
    specs: tuple[AttributeSpec, ...]
    raw: list[list[str]] | None = None

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=float)
        self.missing = np.asarray(self.missing, dtype=bool)
        if self.cells.shape != self.missing.shape:
            raise ValueError("cells and missing mask shapes differ")
        if self.cells.shape[1] != len(self.specs):
            raise ValueError("column count does not match spec count")
        for d, spec in enumerate(self.specs):
            _check_encoded(spec, self.cells[~self.missing[:, d], d])

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    @property
    def n_cols(self) -> int:
        return self.cells.shape[1]


def parse_attribute_spec(text: str) -> list[AttributeSpec]:
    """Parse a column-spec document: one `name,kind[,R_d][,preprocess]` per line."""
    specs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) < 2:
            raise ValueError(f"spec line {lineno}: need at least name,kind")
        name = fields[0]
        kind = AttributeKind.from_tag(fields[1])
        extra = fields[2:]
        R_d = None
        preprocess = None
        if kind.is_discrete_finite:
            if not extra:
                raise ValueError(f"spec line {lineno}: {kind.value} needs R_d")
            try:
                R_d = int(extra[0])
            except ValueError:
                raise ValueError(f"spec line {lineno}: bad R_d {extra[0]!r}") from None
            extra = extra[1:]
        if extra:
            tag = extra.pop(0).lower()
            if tag != "none":
                if _leading_numbers([tag]):
                    raise ValueError(
                        f"spec line {lineno}: R_d supplied for {kind.value} column"
                    )
                preprocess = tag
        if extra:
            raise ValueError(f"spec line {lineno}: trailing fields {extra}")
        specs.append(
            AttributeSpec(name=name, kind=kind, R_d=R_d, external_preprocess=preprocess)
        )
    if not specs:
        raise ValueError("empty attribute spec document")
    return specs


def _leading_numbers(strings) -> list[float]:
    """float() of each string, up to the first one it cannot parse."""
    numbers = []
    for s in strings:
        try:
            numbers.append(float(s))
        except ValueError:
            break
    return numbers


def apply_preprocess(spec: AttributeSpec, x: np.ndarray) -> np.ndarray:
    """The spec's preprocess applied to original-unit values x."""
    return x if spec.external_preprocess is None else PREPROCESS[spec.external_preprocess][0](x)


def invert_preprocess(spec: AttributeSpec, v: np.ndarray) -> np.ndarray:
    """Original-unit values of preprocessed values v."""
    return v if spec.external_preprocess is None else PREPROCESS[spec.external_preprocess][1](v)


def preprocess_jacobian(spec: AttributeSpec, v: np.ndarray) -> np.ndarray:
    """|dg/dx| of the preprocess g, at preprocessed values v = g(x)."""
    # taken from v, it stays finite where x rounds onto the transform's boundary
    return np.ones_like(v) if spec.external_preprocess is None else np.exp(-v)


def load_dataset(
    csv_text: str,
    specs: list[AttributeSpec] | tuple[AttributeSpec, ...],
    missing_sentinel: str = "",
) -> DataMatrix:
    """Encode an RFC-4180 CSV document (header row required) into a DataMatrix.

    A cell is missing when it is empty or equals missing_sentinel exactly.
    Of several bad cells, the error names the first in row-major order.
    Deterministic: identical inputs produce an identical DataMatrix.
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV document") from None
    names = [s.name for s in specs]
    if [h.strip() for h in header] != names:
        raise ValueError(f"CSV header {header} does not match spec names {names}")

    rows = [row for row in reader if row]
    if not rows:
        raise ValueError("CSV contains no data rows")
    D = len(specs)
    short = next((i for i, row in enumerate(rows) if len(row) != D), len(rows))
    columns, errors = [], []
    for spec, strings in zip(specs, zip(*rows[:short])):
        try:
            columns.append(_encode_column(spec, strings, missing_sentinel))
        except ValueError as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda exc: exc.row)
    if short < len(rows):
        raise ValueError(f"row {short + 2}: expected {D} fields, got {len(rows[short])}")
    values, missing, labels = zip(*columns)
    specs = tuple(replace(spec, labels=seen or spec.labels) for spec, seen in zip(specs, labels))
    return DataMatrix(np.column_stack(values), np.column_stack(missing), specs, raw=rows)


def _encode_column(spec: AttributeSpec, strings, missing_sentinel: str):
    """Encode one CSV column as `spec`'s kind: (values, missing mask, labels).
    Labels are coded 1..R_d by first appearance. The first bad cell raises
    ValueError, with its index in `strings` as the `row` attribute."""
    missing = np.array([s == "" or s == missing_sentinel for s in strings], dtype=bool)
    observed = np.flatnonzero(~missing)
    present = [strings[r] for r in observed.tolist()]
    at = "{name} row {row}: "
    # (mask of bad cells, error), in the order a cell is checked
    if spec.kind is AttributeKind.CATEGORICAL:
        codes = {label: k for k, label in enumerate(dict.fromkeys(present), start=1)}
        labels = tuple(codes)
        x = np.array([codes[s] for s in present], dtype=float)
        checks = [(x > spec.R_d, at + "label {cell!r} exceeds R_d={R_d}")]
    else:
        labels = ()
        parsed = _leading_numbers(present)
        x = np.array(parsed + [np.nan] * (len(present) - len(parsed)))
        if spec.kind is AttributeKind.COUNT:
            x = x + 0.0  # "-0" counts as 0, not -0.0
        out_of_range, rule = _kind_range(spec, x)
        noun = "" if spec.kind is AttributeKind.POSITIVE_REAL else f"{spec.kind.value} cells "
        checks = [(np.arange(len(present)) == len(parsed), at + "non-numeric value {cell!r}"),
                  (~np.isfinite(x), at + "non-finite value {cell!r}"),
                  (out_of_range, at + noun + f"must be {rule}, got {{cell!r}}")]
        if spec.external_preprocess == "log1p":
            checks.append((x <= -1, "{name}: log1p needs values > -1, got {value}"))
        elif spec.external_preprocess == "reflected-log1p":
            limit = 100.0 if spec.kind is AttributeKind.POSITIVE_REAL else 101.0
            checks.append((x >= limit, f"{{name}}: reflected-log1p needs values < {limit:g}, "
                                       "got {value}"))
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if bad.size:
        i = int(bad[0])
        error = next(e for m, e in checks if m[i])
        exc = ValueError(error.format(name=spec.name, row=observed[i] + 2, R_d=spec.R_d,
                                      cell=present[i], value=float(x[i])))
        exc.row = observed[i]  # load_dataset reports the first bad cell in row-major order
        raise exc
    values = np.full(len(strings), np.nan)
    values[observed] = apply_preprocess(spec, x)
    return values, missing, labels


def _check_encoded(spec: AttributeSpec, values: np.ndarray) -> None:
    """Check a column's observed encoded cells: finite and in the kind's range.
    Positive-real cells must be > 0 on the encoded scale, after any
    preprocess, as `likelihoods.map_inverse` requires."""
    out_of_range, rule = _kind_range(spec, values)
    if out_of_range.any():
        raise ValueError(f"{spec.name}: {spec.kind.value} cells must be {rule}")
    if not np.isfinite(values).all():
        raise ValueError(f"{spec.name}: cells must be finite")


def _kind_range(spec: AttributeSpec, x: np.ndarray) -> tuple[np.ndarray, str]:
    """Mask of the values outside the kind's range, and the range in words."""
    if spec.kind.is_discrete_finite:
        return (x != np.trunc(x)) | (x < 1) | (x > spec.R_d), f"integers in 1..{spec.R_d}"
    if spec.kind is AttributeKind.COUNT:
        return (x != np.trunc(x)) | (x < 0), "integers >= 0"
    if spec.kind is AttributeKind.POSITIVE_REAL:
        return x <= 0, "> 0"
    return np.zeros(x.shape, dtype=bool), ""


def fit_transform_params(values, missing_mask, kind: AttributeKind) -> tuple[float, float]:
    """Fit (w, mu) from a column's non-missing encoded values.

    Real: mu = mean, w = std, so the pseudo-observation (x - mu)/w is the
    z-score. PositiveReal/Count: mu = min, w = std/2. Categorical/Ordinal:
    (1, 0), unused. Sample std uses divisor N-1.
    """
    if kind.is_discrete_finite:
        return 1.0, 0.0
    obs = np.asarray(values, dtype=float)[~np.asarray(missing_mask, dtype=bool)]
    if obs.size < 2:
        raise ValueError("need at least 2 non-missing values to fit transforms")
    std = float(np.std(obs, ddof=1))
    if std == 0:
        raise ValueError("degenerate column: standard deviation is 0")
    if kind is AttributeKind.REAL:
        return std, float(np.mean(obs))
    return std / 2.0, float(np.min(obs))


def fit_transforms(data: DataMatrix) -> DataMatrix:
    """Return a copy of `data` whose specs carry fitted (w, mu) per column."""
    new_specs = []
    for d, spec in enumerate(data.specs):
        try:
            w, mu = fit_transform_params(data.cells[:, d], data.missing[:, d], spec.kind)
        except ValueError as exc:
            raise ValueError(f"{spec.name}: {exc}") from None
        new_specs.append(replace(spec, w=w, mu=mu))
    return DataMatrix(
        cells=data.cells, missing=data.missing, specs=tuple(new_specs), raw=data.raw
    )


def decode_column(spec: AttributeSpec, encoded) -> list:
    """Encoded values in original units: labels (the code where none is
    known), ints for ordinal and count, floats with the preprocess inverted."""
    encoded = np.asarray(encoded, dtype=float)
    if spec.kind is AttributeKind.CATEGORICAL:
        labels = spec.labels or ()
        return [labels[i - 1] if 1 <= i <= len(labels) else i for i in map(int, encoded.tolist())]
    if not spec.kind.is_continuous:
        return list(map(int, encoded.tolist()))
    return invert_preprocess(spec, encoded).tolist()


def format_column(spec: AttributeSpec, decoded) -> list[str]:
    """Deterministic CSV strings of decoded values: strings as they are,
    integers in decimal, floats by repr."""
    return [v if isinstance(v, str) else str(int(v)) if isinstance(v, (int, np.integer))
            else repr(float(v)) for v in decoded]


def render_csv(data: DataMatrix, fill: np.ndarray | None = None) -> str:
    """Write a DataMatrix back to CSV text.

    Observed cells reuse their source strings when available so untouched
    values round-trip unchanged. Missing cells are left empty, or decoded
    from `fill` (an N x D array of encoded values) when given.
    """
    if fill is not None:
        fill = np.asarray(fill, dtype=float)
        if fill.shape != data.cells.shape:
            raise ValueError("fill shape does not match data shape")
    columns = []
    for d, spec in enumerate(data.specs):
        missing = data.missing[:, d]
        if data.raw is None:
            col = np.full(data.n_rows, "", dtype=object)
            col[~missing] = format_column(spec, decode_column(spec, data.cells[~missing, d]))
        else:
            col = np.array(["" if m else row[d] for row, m in zip(data.raw, missing)], dtype=object)
        if fill is not None:
            col[missing] = format_column(spec, decode_column(spec, fill[missing, d]))
        columns.append(col)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([s.name for s in data.specs])
    writer.writerows(zip(*columns))
    return buf.getvalue()
