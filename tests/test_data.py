"""Dataset encoding, column specs, transform fitting, CSV round-trips."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glfm.data import (
    AttributeKind,
    AttributeSpec,
    DataMatrix,
    decode_column,
    fit_transform_params,
    fit_transforms,
    format_column,
    load_dataset,
    parse_attribute_spec,
    render_csv,
)

CSV_MIXED = (
    "r1,p1,c1,o1,n1\n"
    "0.5,1.2,red,2,3\n"
    "-1.0,0.4,blue,1,0\n"
    ",2.2,red,,7\n"
    "2.5,,green,3,1\n"
)

SPEC_MIXED = (
    "r1,real\n"
    "p1,positivereal\n"
    "c1,categorical,3\n"
    "o1,ordinal,3\n"
    "n1,count\n"
)


def test_kind_tags_roundtrip():
    for tag in ("real", "positivereal", "categorical", "ordinal", "count"):
        kind = AttributeKind.from_tag(tag)
        assert kind.value == tag
    with pytest.raises(ValueError):
        AttributeKind.from_tag("complex")
    assert AttributeKind.CATEGORICAL.is_discrete_finite
    assert AttributeKind.ORDINAL.is_discrete_finite
    assert not AttributeKind.COUNT.is_discrete_finite
    assert AttributeKind.REAL.is_continuous
    assert AttributeKind.POSITIVE_REAL.is_continuous
    assert not AttributeKind.COUNT.is_continuous


def test_attribute_spec_validation():
    with pytest.raises(ValueError):
        AttributeSpec("x", AttributeKind.REAL, w=0.0)
    with pytest.raises(ValueError):
        AttributeSpec("x", AttributeKind.REAL, w=-2.0)
    with pytest.raises(ValueError):
        AttributeSpec("x", AttributeKind.CATEGORICAL)  # R_d required
    with pytest.raises(ValueError):
        AttributeSpec("x", AttributeKind.ORDINAL, R_d=1)
    with pytest.raises(ValueError):
        AttributeSpec("x", AttributeKind.REAL, R_d=3)
    with pytest.raises(ValueError):
        AttributeSpec("x", AttributeKind.COUNT, external_preprocess="log1p")
    with pytest.raises(ValueError):
        AttributeSpec("x", AttributeKind.REAL, external_preprocess="sqrt")
    cat = AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=4)
    assert cat.S_d == 4
    assert AttributeSpec("r", AttributeKind.REAL).S_d == 1


def test_parse_attribute_spec():
    specs = parse_attribute_spec(SPEC_MIXED)
    assert [s.name for s in specs] == ["r1", "p1", "c1", "o1", "n1"]
    assert specs[2].R_d == 3
    assert specs[3].R_d == 3
    assert specs[4].R_d is None

    with_pre = parse_attribute_spec("a,real,log1p\nb,positivereal,none\n")
    assert with_pre[0].external_preprocess == "log1p"
    assert with_pre[1].external_preprocess is None


def test_parse_attribute_spec_errors():
    with pytest.raises(ValueError, match="need at least"):
        parse_attribute_spec("lonely\n")
    with pytest.raises(ValueError, match="needs R_d"):
        parse_attribute_spec("c,categorical\n")
    with pytest.raises(ValueError, match="bad R_d"):
        parse_attribute_spec("c,categorical,many\n")
    with pytest.raises(ValueError, match="R_d supplied"):
        parse_attribute_spec("r,real,3\n")
    with pytest.raises(ValueError, match="trailing"):
        parse_attribute_spec("c,categorical,3,none,extra\n")
    with pytest.raises(ValueError, match="empty"):
        parse_attribute_spec("\n\n")
    with pytest.raises(ValueError):
        parse_attribute_spec("x,integer\n")


def test_load_dataset_mixed():
    specs = parse_attribute_spec(SPEC_MIXED)
    data = load_dataset(CSV_MIXED, specs)
    assert data.n_rows == 4
    assert data.n_cols == 5
    # first-appearance label encoding
    assert data.specs[2].labels == ("red", "blue", "green")
    np.testing.assert_array_equal(data.cells[:, 2], [1.0, 2.0, 1.0, 3.0])
    assert data.missing[2, 0] and data.missing[2, 3] and data.missing[3, 1]
    assert data.missing.sum() == 3
    np.testing.assert_array_equal(data.cells[:, 4], [3.0, 0.0, 7.0, 1.0])


def test_load_dataset_missing_sentinel():
    specs = parse_attribute_spec("a,real\nb,real\n")
    data = load_dataset("a,b\n1.0,NA\nNA,2.0\n", specs, missing_sentinel="NA")
    assert data.missing[0, 1] and data.missing[1, 0]
    assert not data.missing[0, 0]


def test_load_dataset_errors():
    specs = parse_attribute_spec("a,real\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset("b\n1.0\n", specs)
    with pytest.raises(ValueError, match="no data rows"):
        load_dataset("a\n", specs)
    with pytest.raises(ValueError, match="empty CSV"):
        load_dataset("", specs)
    with pytest.raises(ValueError, match="expected 1 fields"):
        load_dataset("a\n1.0,2.0\n", specs)
    with pytest.raises(ValueError, match="non-numeric"):
        load_dataset("a\nuh\n", specs)

    pos = parse_attribute_spec("p,positivereal\n")
    with pytest.raises(ValueError, match="must be > 0"):
        load_dataset("p\n-1.0\n", pos)

    ord_spec = parse_attribute_spec("o,ordinal,3\n")
    with pytest.raises(ValueError, match="1..3"):
        load_dataset("o\n4\n", ord_spec)
    with pytest.raises(ValueError, match="integers"):
        load_dataset("o\n1.5\n", ord_spec)

    cnt = parse_attribute_spec("n,count\n")
    with pytest.raises(ValueError, match=">= 0"):
        load_dataset("n\n-2\n", cnt)

    cat = parse_attribute_spec("c,categorical,2\n")
    with pytest.raises(ValueError, match="exceeds R_d"):
        load_dataset("c\nx\ny\nz\n", cat)


def test_load_dataset_applies_preprocess():
    specs = parse_attribute_spec("a,real,log1p\n")
    data = load_dataset("a\n0.0\n1.0\n", specs)
    np.testing.assert_allclose(data.cells[:, 0], [0.0, math.log(2.0)])
    with pytest.raises(ValueError, match="log1p"):
        load_dataset("a\n-1.5\n", specs)

    refl = parse_attribute_spec("b,positivereal,reflected-log1p\n")
    data2 = load_dataset("b\n1.0\n", refl)
    assert data2.cells[0, 0] == pytest.approx(math.log(100.0))
    with pytest.raises(ValueError, match="reflected-log1p"):
        load_dataset("b\n100.0\n", refl)


def test_fit_transform_params_examples():
    # centered column: w = sample std with divisor N-1, mu = mean
    w, mu = fit_transform_params([-1.0, 0.0, 1.0], [False] * 3, AttributeKind.REAL)
    assert (w, mu) == (1.0, 0.0)
    # {1, 3, 5}: std = 2, so positive-real fits w = std/2 = 1, mu = min = 1
    w, mu = fit_transform_params([1.0, 3.0, 5.0], [False] * 3, AttributeKind.POSITIVE_REAL)
    assert (w, mu) == (1.0, 1.0)
    w, mu = fit_transform_params([1.0, 3.0, 5.0], [False] * 3, AttributeKind.COUNT)
    assert (w, mu) == (1.0, 1.0)
    # discrete-finite kinds never rescale
    assert fit_transform_params([1, 2], [False] * 2, AttributeKind.ORDINAL) == (1.0, 0.0)
    assert fit_transform_params([1, 2], [False] * 2, AttributeKind.CATEGORICAL) == (1.0, 0.0)


def test_fit_transform_params_errors():
    with pytest.raises(ValueError, match="at least 2"):
        fit_transform_params([1.0], [False], AttributeKind.REAL)
    with pytest.raises(ValueError, match="at least 2"):
        fit_transform_params([1.0, 2.0], [False, True], AttributeKind.REAL)
    with pytest.raises(ValueError, match="deviation is 0"):
        fit_transform_params([2.0, 2.0, 2.0], [False] * 3, AttributeKind.REAL)


def test_fit_transforms_respects_missing():
    specs = parse_attribute_spec("a,real\nb,real\n")
    data = load_dataset("a,b\n-1.0,9.0\n0.0,9.5\n1.0,8.0\n5.0,\n", specs)
    # drop the masked b cell, then fit per column
    fitted = fit_transforms(DataMatrix(
        cells=data.cells,
        missing=data.missing | np.array([[False, False]] * 3 + [[True, False]]),
        specs=data.specs,
        raw=data.raw,
    ))
    assert fitted.specs[0].w == pytest.approx(1.0)
    assert fitted.specs[0].mu == pytest.approx(0.0)
    # original object untouched
    assert data.specs[0].w == 1.0 and data.specs[0].mu == 0.0


def test_data_matrix_validation():
    spec = AttributeSpec("o", AttributeKind.ORDINAL, R_d=3)
    with pytest.raises(ValueError):
        DataMatrix(
            cells=np.array([[4.0]]), missing=np.zeros((1, 1), dtype=bool), specs=[spec]
        )
    with pytest.raises(ValueError):
        DataMatrix(
            cells=np.array([[1.0], [2.0]]),
            missing=np.zeros((1, 1), dtype=bool),
            specs=[spec],
        )
    pos = AttributeSpec("p", AttributeKind.POSITIVE_REAL)
    with pytest.raises(ValueError):
        DataMatrix(
            cells=np.array([[-0.5]]), missing=np.zeros((1, 1), dtype=bool), specs=[pos]
        )
    # masked cells are exempt from domain checks
    ok = DataMatrix(
        cells=np.array([[np.nan]]), missing=np.ones((1, 1), dtype=bool), specs=[pos]
    )
    assert ok.n_rows == 1


def test_decode_and_format_cell():
    cat = AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=3, labels=("x", "y", "z"))
    assert decode_column(cat, [2.0]) == ["y"]
    assert format_column(cat, ["y"]) == ["y"]
    bare = AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=3)
    assert decode_column(bare, [2.0]) == [2]

    cnt = AttributeSpec("n", AttributeKind.COUNT)
    assert decode_column(cnt, [7.0]) == [7]
    assert format_column(cnt, [7]) == ["7"]

    pre = AttributeSpec("a", AttributeKind.REAL, external_preprocess="log1p")
    assert decode_column(pre, [math.log(2.0)]) == [pytest.approx(1.0)]

    real = AttributeSpec("r", AttributeKind.REAL)
    assert format_column(real, [0.5]) == ["0.5"]


def test_render_csv_roundtrip_preserves_raw():
    specs = parse_attribute_spec(SPEC_MIXED)
    data = load_dataset(CSV_MIXED, specs)
    assert render_csv(data) == CSV_MIXED
    # a second load of the render is identical
    again = load_dataset(render_csv(data), specs)
    np.testing.assert_array_equal(
        np.nan_to_num(again.cells), np.nan_to_num(data.cells)
    )
    np.testing.assert_array_equal(again.missing, data.missing)


def test_render_csv_fill():
    specs = parse_attribute_spec(SPEC_MIXED)
    data = load_dataset(CSV_MIXED, specs)
    fill = np.ones_like(data.cells)
    out = render_csv(data, fill=fill)
    lines = out.splitlines()
    # row 3 had missing r1 and o1: filled with encoded 1.0 -> "1.0" and "1"
    assert lines[3].split(",")[0] == "1.0"
    assert lines[3].split(",")[3] == "1"
    # observed cells keep their source text
    assert lines[1] == "0.5,1.2,red,2,3"
    with pytest.raises(ValueError, match="fill shape"):
        render_csv(data, fill=np.ones((2, 2)))


def test_render_csv_quotes_survive():
    spec = [AttributeSpec("c", AttributeKind.CATEGORICAL, R_d=2)]
    text = 'c\n"a,b"\nplain\n'
    data = load_dataset(text, spec)
    assert data.specs[0].labels == ("a,b", "plain")
    out = render_csv(data)
    again = load_dataset(out, spec)
    assert again.specs[0].labels == ("a,b", "plain")


@pytest.mark.parametrize("spec_text", [
    "x,real\n", "x,real,log1p\n", "x,positivereal\n",
    "x,positivereal,reflected-log1p\n", "x,ordinal,3\n", "x,count\n",
])
@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_load_dataset_rejects_non_finite_numbers(spec_text, cell):
    specs = parse_attribute_spec(spec_text)
    with pytest.raises(ValueError) as exc:
        load_dataset(f"x\n1\n{cell}\n", specs)
    assert str(exc.value) == f"x row 3: non-finite value {cell!r}"


@pytest.mark.parametrize("kind", [AttributeKind.REAL, AttributeKind.POSITIVE_REAL,
                                  AttributeKind.COUNT])
def test_data_matrix_rejects_non_finite_cells(kind):
    spec = AttributeSpec("x", kind)
    with pytest.raises(ValueError, match="x: cells must be finite"):
        DataMatrix(cells=[[1.0], [np.inf]], missing=np.zeros((2, 1), dtype=bool),
                   specs=[spec])


def test_positive_real_rule_is_checked_on_the_encoded_scale():
    # 101 - exp(log(101 - 1e-14)) rounds to 0, but the raw value is in (0, 100)
    # and its encoded value log(101 - 1e-14) is > 0
    specs = parse_attribute_spec("b,positivereal,reflected-log1p\n")
    data = load_dataset("b\n1e-14\n", specs)
    assert data.cells[0, 0] == pytest.approx(math.log(101.0 - 1e-14), rel=1e-15)
    # encoded cells must be > 0, whatever the preprocess
    with pytest.raises(ValueError, match="b: positivereal cells must be > 0"):
        DataMatrix(cells=[[-0.5]], missing=[[False]], specs=data.specs)


def test_fit_transforms_names_the_column():
    specs = parse_attribute_spec("a,real\nb,real\n")
    data = load_dataset("a,b\n1.0,2.0\n2.0,\n3.0,\n", specs)
    with pytest.raises(ValueError) as exc:
        fit_transforms(data)
    assert str(exc.value) == "b: need at least 2 non-missing values to fit transforms"
    flat = load_dataset("a,b\n1.0,2.0\n2.0,2.0\n3.0,2.0\n", specs)
    with pytest.raises(ValueError, match="^b: degenerate column"):
        fit_transforms(flat)


# -- the column codec against a per-cell reference encoder ------------------


def reference_load(csv_text, specs, missing_sentinel):
    """load_dataset as a per-cell loop: (cells, missing, labels, raw rows)."""
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader)
    names = [s.name for s in specs]
    if [h.strip() for h in header] != names:
        raise ValueError(f"CSV header {header} does not match spec names {names}")
    rows = [row for row in reader if row]
    if not rows:
        raise ValueError("CSV contains no data rows")
    N, D = len(rows), len(specs)
    cells = np.full((N, D), np.nan)
    missing = np.zeros((N, D), dtype=bool)
    label_maps = [{} for _ in range(D)]
    for i, row in enumerate(rows):
        if len(row) != D:
            raise ValueError(f"row {i + 2}: expected {D} fields, got {len(row)}")
        for d, cell in enumerate(row):
            if cell == "" or (missing_sentinel != "" and cell == missing_sentinel):
                missing[i, d] = True
                continue
            cells[i, d] = reference_encode_cell(specs[d], cell, label_maps[d], i + 2)
    labels = [tuple(m) if m else None for m in label_maps]
    return cells, missing, labels, rows


def reference_encode_cell(spec, cell, label_map, rowno):
    kind = spec.kind
    if kind is AttributeKind.CATEGORICAL:
        if cell not in label_map:
            if len(label_map) == spec.R_d:
                raise ValueError(
                    f"{spec.name} row {rowno}: label {cell!r} exceeds R_d={spec.R_d}"
                )
            label_map[cell] = len(label_map) + 1
        return float(label_map[cell])
    try:
        v = float(cell)
    except ValueError:
        raise ValueError(f"{spec.name} row {rowno}: non-numeric value {cell!r}") from None
    if kind is AttributeKind.ORDINAL:
        if v != int(v) or not 1 <= v <= spec.R_d:
            raise ValueError(
                f"{spec.name} row {rowno}: ordinal cells must be integers "
                f"in 1..{spec.R_d}, got {cell!r}"
            )
        return float(int(v))
    if kind is AttributeKind.COUNT:
        if v != int(v) or v < 0:
            raise ValueError(
                f"{spec.name} row {rowno}: count cells must be integers >= 0, "
                f"got {cell!r}"
            )
        return float(int(v))
    if kind is AttributeKind.POSITIVE_REAL and v <= 0:
        raise ValueError(f"{spec.name} row {rowno}: must be > 0, got {cell!r}")
    if spec.external_preprocess == "log1p":
        if v <= -1:
            raise ValueError(f"{spec.name}: log1p needs values > -1, got {v}")
        return math.log1p(v)
    if spec.external_preprocess == "reflected-log1p":
        limit = 100.0 if kind is AttributeKind.POSITIVE_REAL else 101.0
        if v >= limit:
            raise ValueError(
                f"{spec.name}: reflected-log1p needs values < {limit:g}, got {v}"
            )
        return math.log(101.0 - v)
    return v


def number_text(x):
    """x written as a CSV number, in repr or exponent form, maybe padded."""
    return st.tuples(
        st.sampled_from(["", " "]),
        st.sampled_from([repr, "{:.3e}".format, "{:E}".format]),
        st.sampled_from(["", "  "]),
    ).map(lambda t: t[0] + t[1](x) + t[2])


def in_range(lo, hi):
    return st.floats(lo, hi, allow_nan=False).flatmap(number_text)


# spec line -> cells in its domain; categorical,3 draws from 4 labels, so R_d can overflow
VALID_CELLS = {
    "real": in_range(-0.9, 100), "real,log1p": in_range(-0.9, 1e6),
    "real,reflected-log1p": in_range(-1e6, 100.9), "positivereal": in_range(1e-14, 1e6),
    "positivereal,log1p": in_range(1e-14, 1e6),
    "positivereal,reflected-log1p": in_range(1e-14, 99.9),
    "categorical,2": st.sampled_from(["red", "a,b"]),
    "categorical,3": st.sampled_from(["red", "a,b", 'say "hi"', " red"]),
    "ordinal,2": st.integers(1, 2).flatmap(number_text),
    "ordinal,4": st.integers(1, 4).flatmap(number_text),
    "count": st.integers(0, 50).flatmap(number_text),
}
ANY_CELL = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False).flatmap(number_text),
    st.integers(-3, 120).flatmap(number_text),
    st.sampled_from(["", "NA", "red", "a,b", 'say "hi"', " red", "1.2.3", "x", "-0",
                     "1e-14", "99.99999999999999", "-1", "0.0", "100", "101"]),
)


@st.composite
def csv_tables(draw):
    """Small CSV tables of every kind and preprocess. Half of them mix in bad
    and missing cells; now and then a row has the wrong length."""
    kinds = draw(st.lists(st.sampled_from(sorted(VALID_CELLS)), min_size=1, max_size=4))
    names = [f"c{d}" for d in range(len(kinds))]
    specs = parse_attribute_spec("".join(f"{n},{k}\n" for n, k in zip(names, kinds)))
    n_rows = draw(st.integers(1, 6))
    noisy = draw(st.booleans())
    cell = {k: st.one_of(v, ANY_CELL) if noisy else st.one_of(v, v, v, st.just(""))
            for k, v in VALID_CELLS.items()}
    rows = [[draw(cell[k]) for k in kinds] for _ in range(n_rows)]
    if draw(st.integers(0, 19)) == 0:
        r = draw(st.integers(0, n_rows - 1))
        rows[r] = rows[r] + ["1"] if draw(st.booleans()) else rows[r][:-1]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([names] + rows)
    return buf.getvalue(), specs, draw(st.sampled_from(["", "NA"]))


def _parses_non_finite(text):
    try:
        return not math.isfinite(float(text))
    except ValueError:
        return False


@settings(max_examples=400, deadline=None)
@given(csv_tables())
def test_load_dataset_matches_the_per_cell_encoder(table):
    csv_text, specs, sentinel = table
    assume(not any(_parses_non_finite(cell) for row in csv.reader(io.StringIO(csv_text))
                   for cell in row))
    try:
        expected = reference_load(csv_text, specs, sentinel)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            load_dataset(csv_text, specs, missing_sentinel=sentinel)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    cells, missing, labels, raw = expected
    data = load_dataset(csv_text, specs, missing_sentinel=sentinel)
    np.testing.assert_array_equal(data.missing, missing)
    assert data.raw == raw
    assert [s.labels for s in data.specs] == labels
    for d, spec in enumerate(specs):
        if spec.external_preprocess is None:
            # exact, down to the sign of zero
            assert data.cells[:, d].tobytes() == cells[:, d].tobytes()
        else:
            # numpy's log1p and log may differ from math's in the last place
            np.testing.assert_array_max_ulp(data.cells[:, d], cells[:, d], maxulp=1)


def cell_text(spec, encoded):
    """One encoded cell decoded and formatted on its own."""
    return format_column(spec, decode_column(spec, [encoded]))[0]


def reference_render(data, fill):
    rows = []
    for i in range(data.n_rows):
        row = []
        for d, spec in enumerate(data.specs):
            if not data.missing[i, d]:
                if data.raw is not None:
                    row.append(data.raw[i][d])
                else:
                    row.append(cell_text(spec, data.cells[i, d]))
            elif fill is None:
                row.append("")
            else:
                row.append(cell_text(spec, fill[i, d]))
        rows.append(row)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([[s.name for s in data.specs]] + rows)
    return buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(csv_tables(), st.booleans(), st.integers(0, 2**32 - 1))
def test_render_csv_matches_per_cell_format(table, keep_raw, seed):
    csv_text, specs, sentinel = table
    try:
        data = load_dataset(csv_text, specs, missing_sentinel=sentinel)
    except ValueError:
        assume(False)
    if not keep_raw:
        data = DataMatrix(cells=data.cells, missing=data.missing, specs=data.specs)
    rng = np.random.default_rng(seed)
    fill = np.empty_like(data.cells)
    for d, spec in enumerate(data.specs):
        if spec.kind.is_continuous:
            fill[:, d] = rng.uniform(0.01, 4.0, data.n_rows)
        else:
            # categorical codes past the known labels decode to the code itself
            top = spec.R_d + 1 if spec.kind.is_discrete_finite else 50
            fill[:, d] = rng.integers(0 if spec.kind is AttributeKind.COUNT else 1, top + 1,
                                      data.n_rows)
    assert render_csv(data) == reference_render(data, None)
    assert render_csv(data, fill=fill) == reference_render(data, fill)
