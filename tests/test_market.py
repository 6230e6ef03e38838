"""Tests for return-matrix loading and moment estimation."""

from __future__ import annotations

import csv
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longplan.market import (
    AssetStats,
    ReturnMatrix,
    ReturnsFormatError,
    estimate_stats,
    load_returns,
)


def _write(tmp_path, text):
    path = tmp_path / "returns.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_two_assets(tmp_path):
    path = _write(tmp_path, "A,B\n0.01,0.02\n0.03,-0.01\n")
    rm = load_returns(path, 12)
    assert list(rm.asset_ids) == ["A", "B"]
    assert rm.periods_per_year == 12
    np.testing.assert_allclose(rm.data, [[0.01, 0.02], [0.03, -0.01]])


def test_load_strips_a_utf8_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a byte-order mark,
    # which must not end up in the first asset id
    path = tmp_path / "returns.csv"
    path.write_text("A,B\n0.01,0.02\n0.03,-0.01\n", encoding="utf-8-sig")
    assert list(load_returns(path, 12).asset_ids) == ["A", "B"]


def test_load_single_asset(tmp_path):
    path = _write(tmp_path, "ONLY\n0.01\n0.00\n-0.02\n")
    rm = load_returns(path, 4)
    assert rm.data.shape == (3, 1)


def test_ragged_row_reports_position(tmp_path):
    path = _write(tmp_path, "A,B\n0.01,0.02\n0.01,0.02,0.03\n")
    with pytest.raises(ReturnsFormatError) as err:
        load_returns(path, 12)
    assert "3" in str(err.value)  # offending row number


def test_non_numeric_cell_reports_position(tmp_path):
    path = _write(tmp_path, "A,B\n0.01,oops\n0.03,0.04\n")
    with pytest.raises(ReturnsFormatError) as err:
        load_returns(path, 12)
    message = str(err.value)
    assert "2" in message and "oops" in message


@pytest.mark.parametrize("cell", ["nan", "1e999", "-inf"])
def test_non_finite_cell_reports_position(tmp_path, cell):
    path = _write(tmp_path, f"A,B\n0.01,0.02\n0.03,{cell}\n")
    with pytest.raises(ReturnsFormatError) as err:
        load_returns(path, 12)
    message = str(err.value)
    assert str(path) in message and "row 3, column 2" in message and cell in message


# Arabic-Indic and fullwidth digits, which float() reads as 0.02 and 0.1
@pytest.mark.parametrize("cell", ["\u0660.\u0660\u0662", "\uff10.\uff11"])
def test_non_ascii_cell_reports_position(tmp_path, cell):
    path = _write(tmp_path, f"A,B\n0.01,0.02\n0.03,{cell}\n0.05,0.06\n")
    with pytest.raises(ReturnsFormatError) as err:
        load_returns(path, 12)
    message = str(err.value)
    assert str(path) in message and "row 3, column 2" in message and cell in message


@st.composite
def finite_matrices(draw):
    """A T x N list of finite floats, T 2-6 and N 1-4, any magnitude and
    sign, subnormals and -0.0 included."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=2, max_size=6))


def _load_cells(cells):
    """load_returns of a file of the cells, under a header A0, A1, ..."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "returns.csv"
        header = ",".join(f"A{j}" for j in range(len(cells[0])))
        path.write_text("\n".join([header, *(",".join(row) for row in cells)]) + "\n",
                        encoding="utf-8")
        return path, load_returns(path, 12)


@settings(max_examples=100, deadline=None)
@given(finite_matrices())
def test_a_matrix_written_with_repr_reads_back_exactly(matrix):
    _, returns = _load_cells([[repr(value) for value in row] for row in matrix])
    np.testing.assert_array_equal(returns.data, matrix)
    np.testing.assert_array_equal(np.signbit(returns.data), np.signbit(matrix))


@settings(max_examples=100, deadline=None)
@given(finite_matrices(), st.data(),
       st.sampled_from(["nan", "-inf", "1e999", "oops", "1__0", "0x10", " ", "\u0660.5"]))
def test_a_bad_cell_anywhere_is_named_by_row_and_column(matrix, data, bad):
    # every cell is converted at once, and a failure is then named cell by
    # cell: the first bad cell in reading order, whether the file is ASCII
    # or not
    cells = [[repr(value) for value in row] for row in matrix]
    i = data.draw(st.integers(0, len(cells) - 1))
    j = data.draw(st.integers(0, len(cells[0]) - 1) if bad.strip() or len(cells[0]) > 1
                  else st.nothing())
    cells[i][j] = bad
    with pytest.raises(ReturnsFormatError) as err:
        _load_cells(cells)
    assert str(err.value).endswith(
        f"returns.csv: row {i + 2}, column {j + 1}: not a finite number: {bad.strip()!r}")


def _oracle(path):
    """(asset ids, data) of a returns file as the csv module and float()
    read it, row by row, or the ReturnsFormatError message due: the first
    ragged row or bad cell in reading order, then too few rows."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return f"{path}: file is empty"
    ids = [name.strip() for name in rows[0]]
    if not all(ids):
        return f"{path}: row 1: empty asset id in header"
    for col, name in enumerate(ids, start=1):
        if ids.index(name) + 1 < col:
            return (f"{path}: row 1: asset id {name!r} repeated in columns "
                    f"{ids.index(name) + 1} and {col}")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(ids):
            return f"{path}: row {lineno}: expected {len(ids)} fields, got {len(row)}"
        for col, cell in enumerate(row, start=1):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                return (f"{path}: row {lineno}, column {col}: "
                        f"not a finite number: {cell.strip()!r}")
            data.append(value)
    if len(data) < 2 * len(ids):
        return f"{path}: need at least 2 data rows, got {len(data) // len(ids)}"
    return tuple(ids), np.array(data).reshape(-1, len(ids))


# numbers, and cells that are padded, quoted or faulty, or that the
# one-pass parser must leave to the cell-by-cell reader
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.floats(-1.0, 1.0).map(repr), st.integers(-10**6, 10**6).map(str))
_ODD_CELLS = st.sampled_from([
    " 0.25", "0.25 ", "\t-1.5", "\x0b2", "\x0c3", '"0.5"', '"1,5"', "#", "#1", "1_000", "nan",
    "inf", "-inf", "1e999", "", " ", "x", "0x10", "1e5", "+.5", "5.", "-0",
    "\x1c0.5", "0.5\x1d", "\x1e1", "2\x1f"])


@st.composite
def returns_files(draw):
    """The text of an ASCII returns CSV: a header, then data rows, blank
    and whitespace-only lines among them, some rows ragged and some with
    an odd cell, with LF, CRLF or CR line ends, maybe a byte-order mark and
    maybe no final newline; an odd header id may be quoted."""
    n = draw(st.integers(1, 4))
    ids = [f"A{j}" for j in range(n)]
    if draw(st.integers(0, 9)) == 0:
        ids[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
            ["A0", " ", " A1 ", '"A2"', '"A\n3"', '"A,4"']))
    lines = [",".join(ids)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "  "])))
            continue
        width = n + (draw(st.sampled_from([-1, 1])) if kind == 1 else 0)
        cells = draw(st.lists(_NUMBERS, min_size=width, max_size=width))
        if cells and draw(st.booleans()):
            cells[draw(st.integers(0, width - 1))] = draw(_ODD_CELLS)
        lines.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(returns_files())
def test_load_returns_reads_as_csv_and_float_do(case):
    # the one-pass body parser returns what the cell-by-cell reader would,
    # bit for bit, and leaves every fault to it, so each message is the one
    # the csv module and float() lead to; no warning escapes either way
    text, bom = case
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "returns.csv"
        path.write_bytes(text.encode("utf-8-sig" if bom else "utf-8"))
        expected = _oracle(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(ReturnsFormatError) as err:
                    load_returns(path, 12)
                assert str(err.value) == expected
                return
            returns = load_returns(path, 12)
    ids, data = expected
    assert returns.asset_ids == ids
    assert returns.data.shape == data.shape
    assert returns.data.tobytes() == data.tobytes()


def test_too_few_rows(tmp_path):
    path = _write(tmp_path, "A,B\n0.01,0.02\n")
    with pytest.raises(ReturnsFormatError):
        load_returns(path, 12)


def test_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_returns(tmp_path / "absent.csv", 12)


def test_duplicate_ids_rejected(tmp_path):
    path = _write(tmp_path, "A,A\n0.01,0.02\n0.03,0.04\n")
    with pytest.raises(ValueError):
        load_returns(path, 12)


def test_duplicate_id_reports_path_row_and_columns(tmp_path):
    path = _write(tmp_path, "A,B,A\n0.01,0.02,0.03\n0.03,0.04,0.05\n")
    with pytest.raises(ReturnsFormatError) as err:
        load_returns(path, 12)
    assert str(err.value) == f"{path}: row 1: asset id 'A' repeated in columns 1 and 3"


def test_stats_constant_column():
    rm = ReturnMatrix(asset_ids=["A"], data=np.full((3, 1), 0.01),
                      periods_per_year=12)
    stats = estimate_stats(rm)
    np.testing.assert_allclose(stats.mu, [0.12])
    np.testing.assert_allclose(stats.sigma, [[0.0]], atol=1e-18)


def test_stats_hand_computed_variance():
    rm = ReturnMatrix(asset_ids=["A"], data=np.array([[0.00], [0.02]]),
                      periods_per_year=12)
    stats = estimate_stats(rm)
    np.testing.assert_allclose(stats.mu, [0.12])
    # sample variance (ddof=1) of {0, 0.02} is 2e-4; annualized: 0.0024
    np.testing.assert_allclose(stats.sigma, [[0.0024]], rtol=1e-12)


def test_stats_identical_columns_fully_correlated():
    rng = np.random.default_rng(7)
    col = rng.normal(0.01, 0.05, size=24)
    rm = ReturnMatrix(asset_ids=["A", "B"], data=np.column_stack([col, col]),
                      periods_per_year=12)
    stats = estimate_stats(rm)
    assert stats.sigma[0, 0] == stats.sigma[1, 1]
    assert stats.sigma[0, 1] == stats.sigma[0, 0]


def test_stats_symmetry_exact_and_psd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        data = rng.normal(0.0, 0.04, size=(30, 5))
        rm = ReturnMatrix(asset_ids=list("ABCDE"), data=data,
                          periods_per_year=12)
        stats = estimate_stats(rm)
        assert np.array_equal(stats.sigma, stats.sigma.T)
        eigmin = np.linalg.eigvalsh(stats.sigma).min()
        assert eigmin >= -1e-10 * np.trace(stats.sigma)


def test_stats_scaling_property():
    rng = np.random.default_rng(13)
    data = rng.normal(0.0, 0.03, size=(20, 3))
    base = estimate_stats(ReturnMatrix(list("ABC"), data, 12))
    scaled = estimate_stats(ReturnMatrix(list("ABC"), 2.5 * data, 12))
    np.testing.assert_allclose(scaled.mu, 2.5 * base.mu, rtol=1e-12)
    np.testing.assert_allclose(scaled.sigma, 6.25 * base.sigma, rtol=1e-12)


def test_stats_requires_two_rows():
    rm_kwargs = dict(asset_ids=["A"], data=np.array([[0.01]]),
                     periods_per_year=12)
    with pytest.raises((ReturnsFormatError, ValueError)):
        estimate_stats(ReturnMatrix(**rm_kwargs))


def test_asset_stats_dimension_check():
    with pytest.raises(ValueError):
        AssetStats(asset_ids=["A", "B"], mu=np.array([0.1]),
                   sigma=np.eye(2))


@pytest.mark.parametrize("name, mu, sigma", [
    ("mu", [0.1, np.nan], np.eye(2)),
    ("mu", [np.inf, 0.1], np.eye(2)),
    ("sigma", [0.1, 0.1], [[np.nan, 0.0], [0.0, 1.0]]),
    ("sigma", [0.1, 0.1], [[1.0, np.inf], [np.inf, 1.0]]),
])
def test_asset_stats_rejects_non_finite_moments(name, mu, sigma):
    # a NaN sigma passed the symmetry check, and a NaN mu reached the
    # solver, which rejected it only as "constraint data"
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        AssetStats(asset_ids=["A", "B"], mu=np.array(mu), sigma=np.array(sigma))


@pytest.mark.parametrize("build, message", [
    (lambda: ReturnMatrix(["A"], np.zeros(3), 12), r"data must be a 2-D array of shape \(T, N\)"),
    (lambda: ReturnMatrix([], np.zeros((3, 0)), 12), "need at least one asset column"),
    (lambda: ReturnMatrix(["A"], np.zeros((3, 2)), 12), "1 asset ids for 2 data columns"),
    (lambda: ReturnMatrix(["A", "A"], np.zeros((3, 2)), 12), "asset ids must be unique"),
    (lambda: ReturnMatrix(["A"], [[0.1], [np.nan]], 12), "returns must be finite"),
    (lambda: AssetStats(["A", "B"], np.zeros(2), [[1.0, 0.5], [0.4, 1.0]]),
     "sigma must be symmetric"),
    (lambda: AssetStats(["A", "B"], np.zeros(2), [[1.0, 2.0], [2.0, 1.0]]),
     r"sigma is not positive semidefinite \(min eigenvalue -1\)"),
])
def test_boundary_errors_name_their_cause(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
