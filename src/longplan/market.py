"""Return-matrix ingestion and annualized moment estimation.

Input is a CSV of simple per-period returns, one column per asset, with a
header row of asset identifiers (UTF-8, comma separated, '.' decimal point,
no thousands separators).  Sample moments are annualized by multiplying both
the mean vector and the covariance matrix by the number of periods per year.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._counts import whole


class ReturnsFormatError(ValueError):
    """Raised when a returns CSV is malformed (position reported in message)."""


@dataclass(frozen=True)
class ReturnMatrix:
    """T x N matrix of simple per-period returns for N identified assets."""

    asset_ids: tuple[str, ...]
    data: np.ndarray
    periods_per_year: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))
        if data.ndim != 2:
            raise ValueError("data must be a 2-D array of shape (T, N)")
        t, n = data.shape
        if n < 1:
            raise ValueError("need at least one asset column")
        if t < 2:
            raise ValueError(f"need at least 2 return periods, got {t}")
        if len(self.asset_ids) != n:
            raise ValueError(
                f"{len(self.asset_ids)} asset ids for {n} data columns"
            )
        if len(set(self.asset_ids)) != n:
            raise ValueError("asset ids must be unique")
        if not np.all(np.isfinite(data)):
            raise ValueError("returns must be finite")
        object.__setattr__(self, "periods_per_year",
                           whole("periods_per_year", self.periods_per_year, 1))
        data.setflags(write=False)

    @property
    def n_periods(self) -> int:
        return self.data.shape[0]

    @property
    def n_assets(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class AssetStats:
    """Annualized expected returns and covariance for a set of assets."""

    asset_ids: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))
        n = mu.shape[0]
        if mu.ndim != 1 or sigma.shape != (n, n) or len(self.asset_ids) != n:
            raise ValueError("inconsistent dimensions between ids, mu and sigma")
        scale = max(1.0, float(np.abs(sigma).max())) if n else 1.0
        if np.abs(sigma - sigma.T).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("sigma must be symmetric")
        trace = float(np.trace(sigma))
        min_eig = float(np.linalg.eigvalsh(sigma).min()) if n else 0.0
        if min_eig < -1e-10 * max(trace, 1e-300):
            raise ValueError(
                f"sigma is not positive semidefinite (min eigenvalue {min_eig:g})"
            )
        mu.setflags(write=False)
        sigma.setflags(write=False)

    @property
    def n_assets(self) -> int:
        return self.mu.shape[0]


def load_returns(path: str | Path, periods_per_year: int) -> ReturnMatrix:
    """Parse a returns CSV (header of asset ids, then one row per period).

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    ReturnsFormatError
        On an empty file, ragged row, non-numeric, non-ASCII or non-finite
        cell or fewer than two data rows; the message carries the 1-based row (and
        column) position.  A repeated asset id in the header names row 1,
        the id and both of its columns.
    ValueError
        If ``periods_per_year`` is not a positive integer.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"returns file not found: {path}")

    with path.open(newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ReturnsFormatError(f"{path}: file is empty") from None
    asset_ids = [name.strip() for name in header]
    if any(not name for name in asset_ids):
        raise ReturnsFormatError(f"{path}: row 1: empty asset id in header")
    for col, name in enumerate(asset_ids, start=1):
        first = asset_ids.index(name) + 1
        if first < col:
            raise ReturnsFormatError(
                f"{path}: row 1: asset id {name!r} repeated in columns {first} and {col}")
    n = len(asset_ids)

    rows: list[list[str]] = []
    linenos: list[int] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != n:
            _scan_cells(path, rows, linenos)    # a bad cell above is named first
            raise ReturnsFormatError(
                f"{path}: row {lineno}: expected {n} fields, got {len(row)}"
            )
        rows.append(row)
        linenos.append(lineno)

    # all cells at once; float() also reads non-ASCII digits, so only an
    # all-ASCII file takes this path, and any failure is named cell by cell
    data = None
    if text.isascii():
        try:
            data = np.array(rows, dtype=float).reshape(len(rows), n)
        except ValueError:
            pass
    if data is None or not np.isfinite(data).all():
        data = _scan_cells(path, rows, linenos).reshape(len(rows), n)
    if len(rows) < 2:
        raise ReturnsFormatError(
            f"{path}: need at least 2 data rows, got {len(rows)}"
        )
    return ReturnMatrix(
        asset_ids=tuple(asset_ids),
        data=data,
        periods_per_year=periods_per_year,
    )


def _scan_cells(path: Path, rows: list[list[str]], linenos: list[int]) -> np.ndarray:
    """The cells of rows as floats, read one by one; raises
    ReturnsFormatError at the first non-numeric, non-ASCII or non-finite
    cell, naming its row (linenos, 1-based) and column."""
    data = []
    for lineno, row in zip(linenos, rows):
        for col, cell in enumerate(row, start=1):
            try:
                value = float(cell) if cell.isascii() else math.nan
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ReturnsFormatError(
                    f"{path}: row {lineno}, column {col}: "
                    f"not a finite number: {cell.strip()!r}"
                )
            data.append(value)
    return np.array(data, dtype=float)


def estimate_stats(returns: ReturnMatrix) -> AssetStats:
    """Annualized sample mean and covariance of a return matrix.

    The per-period sample mean and unbiased covariance (divisor T-1) are
    both multiplied by ``periods_per_year``.
    """
    data = returns.data
    if data.shape[0] < 2:
        raise ValueError("covariance needs at least 2 periods")
    ppy = float(returns.periods_per_year)
    mu = data.mean(axis=0) * ppy
    sigma = np.atleast_2d(np.cov(data, rowvar=False, ddof=1)) * ppy
    sigma = (sigma + sigma.T) / 2.0  # store exactly symmetric
    return AssetStats(asset_ids=returns.asset_ids, mu=mu, sigma=sigma)
