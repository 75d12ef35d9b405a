"""CSV ingestion of price/relative series and the synthetic two-asset markets.

File format: comma-separated, header row of asset names required, optionally
preceded by a ``date`` column (first column, header cell ``date``,
case-insensitive) whose labels are carried through to reports verbatim and
ignored by all math. Two modes:

* ``relatives``: each data row is one trading day of price relatives;
* ``prices``: each data row is an opening-price snapshot; T+1 rows become T
  relatives via row[t+1] / row[t].

Files are read and written as UTF-8; a leading byte-order mark, as
spreadsheet "CSV UTF-8" exports write, is dropped on reading. All number
cells are converted in one array cast with one finiteness test; only a file
that fails either is walked cell by cell, to name the first bad cell by line
and column. Output text is decimal with 17 significant digits, which
round-trips doubles exactly.
"""

from __future__ import annotations

import csv
import io
import math
import os

import numpy as np

from .core import PortfolioError, PriceRelativeMatrix, validate_relatives

MODE_RELATIVES = "relatives"
MODE_PRICES = "prices"


class ParseError(PortfolioError):
    """A cell failed to parse; line and column are 1-based file coordinates."""

    def __init__(self, line: int, column: int, detail: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {detail}")


class EmptyFile(PortfolioError):
    """The file has no header row."""


class TooFewRows(PortfolioError):
    """Price mode needs at least two price rows to form one relative."""


class NonPositivePrice(PortfolioError):
    """Opening prices must be strictly positive."""


def _parse_rows(numbered_rows: list[tuple[int, list[str]]], has_dates: bool):
    dates: list[str] = []
    values: list[list[float]] = []
    for line_no, row in numbered_rows:
        cells = row
        if has_dates:
            dates.append(cells[0])
            cells = cells[1:]
        parsed = []
        for j, cell in enumerate(cells):
            col = j + 2 if has_dates else j + 1
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(line_no, col, f"not a number: {cell!r}") from None
            if not math.isfinite(v):
                raise ParseError(line_no, col, f"not finite: {cell!r}")
            parsed.append(v)
        values.append(parsed)
    return values, (dates if has_dates else None)


def load_csv(path: str, mode: str = MODE_RELATIVES) -> PriceRelativeMatrix:
    """Read a CSV of relatives or prices into a validated PriceRelativeMatrix."""
    if mode not in (MODE_RELATIVES, MODE_PRICES):
        raise PortfolioError(f"mode must be '{MODE_RELATIVES}' or '{MODE_PRICES}', got {mode!r}")
    rows, lines = [], []  # non-blank rows, and the file line each starts on
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        line = 1
        for row in reader:
            if row:
                rows.append([c.strip() for c in row])
                lines.append(line)
            line = reader.line_num + 1  # a quoted cell may have spanned several lines
    if not rows:
        raise EmptyFile(f"{path}: no header row")
    header = rows[0]
    has_dates = bool(header) and header[0].lower() == "date"
    names = header[1:] if has_dates else header
    if not names:
        raise ParseError(lines[0], 1, "header has no asset columns")
    width = len(header)
    numbered = list(zip(lines[1:], rows[1:]))
    for line_no, row in numbered:
        if len(row) != width:
            raise ParseError(line_no, len(row) + 1, f"expected {width} cells, got {len(row)}")
    dates = [row[0] for row in rows[1:]] if has_dates else None
    cells = [row[1:] for row in rows[1:]] if has_dates else rows[1:]
    try:  # numpy's str -> float cast accepts exactly what float() accepts
        values = np.array(cells, dtype=float).reshape(len(cells), len(names))
        parsed = bool(np.isfinite(values).all())
    except ValueError:
        parsed = False
    if not parsed:  # cell by cell, to name the first bad one
        values, dates = _parse_rows(numbered, has_dates)
    if mode == MODE_PRICES:
        return prices_to_relatives(values, names, dates)
    return validate_relatives(values, names, dates)


def prices_to_relatives(
    prices,
    names,
    dates=None,
) -> PriceRelativeMatrix:
    """Turn T+1 opening-price rows into T daily relatives row[t+1]/row[t].

    A relative is dated by the row it realizes on, so dates (if given) lose
    their first entry.
    """
    grid = np.asarray(prices, dtype=float)
    if grid.ndim != 2 or grid.shape[0] < 2:
        raise TooFewRows(f"need at least 2 price rows, got shape {grid.shape}")
    bad = ~(grid > 0) | ~np.isfinite(grid)
    if bad.any():
        r, c = map(int, np.argwhere(bad)[0])
        raise NonPositivePrice(f"price row {r}, column {c} is {float(grid[r, c])!r}; prices must be > 0")
    rel = grid[1:] / grid[:-1]
    return validate_relatives(rel, names, None if dates is None else list(dates)[1:])


def write_csv(X: PriceRelativeMatrix, path_or_buffer) -> None:
    """Write relatives to CSV with 17-significant-digit decimals (exact round-trip)."""
    own = isinstance(path_or_buffer, (str, os.PathLike))
    fh = open(path_or_buffer, "w", newline="", encoding="utf-8") if own else path_or_buffer
    try:
        writer = csv.writer(fh, lineterminator="\n")
        header = (["date"] if X.dates is not None else []) + list(X.asset_names)
        writer.writerow(header)
        for t in range(X.days):
            row = [X.dates[t]] if X.dates is not None else []
            writer.writerow(row + [f"{v:.17g}" for v in X.values[t]])
    finally:
        if own:
            fh.close()


def to_csv_text(X: PriceRelativeMatrix) -> str:
    buf = io.StringIO()
    write_csv(X, buf)
    return buf.getvalue()


def synth_volatility_pair(n: int) -> PriceRelativeMatrix:
    """2n days of a flat asset next to one that halves on odd days, doubles on even.

    Each asset alone goes nowhere; a daily-rebalanced even split grows by 9/8
    every two days.
    """
    if n < 1:
        raise PortfolioError(f"need n >= 1 half-periods, got {n}")
    values = np.ones((2 * n, 2))
    values[0::2, 1] = 0.5  # day 1, 3, 5, ... (odd trading days)
    values[1::2, 1] = 2.0
    return PriceRelativeMatrix(values, ("steady", "volatile"))


def synth_regime_pair(n: int) -> PriceRelativeMatrix:
    """Two mirrored regimes: asset 1 gains 3/2 for n days then loses 3/4 of its
    value daily for n days; asset 2 does the reverse.

    Any constant rebalanced mix decays (the even split loses 1/8 every day),
    while holding asset 1 then switching to asset 2 compounds 3/2 daily.
    """
    if n < 1:
        raise PortfolioError(f"need n >= 1 phase days, got {n}")
    values = np.empty((2 * n, 2))
    values[:n, 0] = 1.5
    values[n:, 0] = 0.25
    values[:n, 1] = 0.25
    values[n:, 1] = 1.5
    return PriceRelativeMatrix(values, ("up_then_down", "down_then_up"))
