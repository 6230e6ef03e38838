"""Tests for return-matrix loading and moment estimation."""

from __future__ import annotations

import tempfile
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
