"""CSV ingestion of price/relative series and the synthetic two-asset markets.

File format: comma-separated, header row of asset names required, optionally
preceded by a ``date`` column (first column, header cell ``date``,
case-insensitive) whose labels are carried through to reports verbatim and
ignored by all math. Two modes:

* ``relatives``: each data row is one trading day of price relatives;
* ``prices``: each data row is an opening-price snapshot; T+1 rows become T
  relatives via row[t+1] / row[t].

Files are read and written as UTF-8; a leading byte-order mark, as
spreadsheet "CSV UTF-8" exports write, is dropped on reading. A file is read
in one pass (it may be a pipe), and each row's number cells go through
``float`` straight into one flat buffer of doubles, so a load holds little
more than the numbers themselves. Output text is decimal with 17 significant
digits, which round-trips doubles exactly.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct

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


def _checked_row(line: int, cells: list[str], first_column: int) -> list[float]:
    """The row's values, cell by cell; raises the ParseError of the first that is not a finite number.

    Each cell is stripped before ``float`` reads it: ``float`` itself skips only
    some of the whitespace that ``str.strip`` removes.
    """
    values = []
    for column, cell in enumerate(cells, first_column):
        cell = cell.strip()
        try:
            v = float(cell)
        except ValueError:
            raise ParseError(line, column, f"not a number: {cell!r}") from None
        if not math.isfinite(v):
            raise ParseError(line, column, f"not finite: {cell!r}")
        values.append(v)
    return values


def load_csv(path: str, mode: str = MODE_RELATIVES) -> PriceRelativeMatrix:
    """Read a CSV of relatives or prices into a validated PriceRelativeMatrix.

    Blank rows are skipped, and cells, dates and names are stripped. Errors
    are raised once the whole file is read, in this order: no header row, a
    header without asset columns, the first row whose cell count differs from
    the header's, then the first cell, in reading order, that is not a finite
    number. A ParseError names the file line its row starts on.
    """
    if mode not in (MODE_RELATIVES, MODE_PRICES):
        raise PortfolioError(f"mode must be '{MODE_RELATIVES}' or '{MODE_PRICES}', got {mode!r}")
    header = None
    # The data rows' cells as packed doubles, row after row: ``struct`` is loaded with numpy, where
    # an ``array('d')`` would map one more extension module into every CLI process.
    values = bytearray()
    dates: list[str] = []
    ragged = bad = None  # the ParseError of the first ragged row and of the first bad cell
    isfinite = math.isfinite
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next_line = 1
        for row in reader:
            line, next_line = next_line, reader.line_num + 1  # a quoted cell may span several lines
            if not row:
                continue
            if header is None:
                header, header_line = [c.strip() for c in row], line
                has_dates = header[0].lower() == "date"
                width = len(header)
                pack = struct.Struct(f"{width - has_dates}d").pack
            elif len(row) != width:
                ragged = ragged or ParseError(line, len(row) + 1, f"expected {width} cells, got {len(row)}")
            elif not (ragged or bad):  # after either, only ragged rows matter
                if has_dates:
                    dates.append(row[0].strip())
                    del row[0]
                try:
                    parsed = list(map(float, row))
                    good = isfinite(sum(parsed))  # a sum that overflowed is walked for nothing
                except ValueError:
                    good = False
                if not good:
                    try:
                        parsed = _checked_row(line, row, 2 if has_dates else 1)
                    except ParseError as exc:  # raised after the last row, unless a ragged row follows
                        bad = exc
                        continue
                values += pack(*parsed)
    if header is None:
        raise EmptyFile(f"{path}: no header row")
    names = header[1:] if has_dates else header
    if not names:
        raise ParseError(header_line, 1, "header has no asset columns")
    if ragged or bad:
        raise ragged or bad
    grid = np.frombuffer(values, dtype=float).reshape(-1, len(names))
    if mode == MODE_PRICES:
        return prices_to_relatives(grid, names, dates if has_dates else None)
    return validate_relatives(grid, names, dates if has_dates else None)


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


def csv_cell(text: str) -> str:
    """text as one CSV cell: quoted, inner quotes doubled, if it holds , " CR or LF; else as it is.

    This is csv.writer's minimal quoting, except that a CR is quoted whatever the
    line terminator, so that every date and name reads back through ``load_csv``.
    """
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(X: PriceRelativeMatrix, path_or_buffer) -> None:
    """Write relatives to CSV with 17-significant-digit decimals (exact round-trip).

    Dates and names are written by ``csv_cell``. A header of one empty name is
    written ``""``, as csv.writer writes a row of one empty field, so that it
    is not read back as a blank line.
    """
    own = isinstance(path_or_buffer, (str, os.PathLike))
    fh = open(path_or_buffer, "w", newline="", encoding="utf-8") if own else path_or_buffer
    try:
        header = (["date"] if X.dates is not None else []) + list(X.asset_names)
        fh.write((",".join(map(csv_cell, header)) or '""') + "\n")
        for t in range(X.days):
            date = csv_cell(X.dates[t]) + "," if X.dates is not None else ""
            fh.write(date + ",".join([f"{v:.17g}" for v in X.values[t]]) + "\n")
    finally:
        if own:
            fh.close()


def to_csv_text(X: PriceRelativeMatrix) -> str:
    buf = io.StringIO()
    write_csv(X, buf)
    return buf.getvalue()


SYNTH_MAX_N = 10**6  # largest n of a synthetic market: 2 million days, 32 MB of relatives


def _synth_days(n: int, unit: str) -> int:
    """The 2n days of a synthetic market; an n below 1 or above SYNTH_MAX_N is refused."""
    if n < 1:
        raise PortfolioError(f"need n >= 1 {unit}, got {n}")
    if n > SYNTH_MAX_N:
        raise PortfolioError(f"need n <= {SYNTH_MAX_N} {unit}, got {n}")
    return 2 * n


def synth_volatility_pair(n: int) -> PriceRelativeMatrix:
    """2n days of a flat asset next to one that halves on odd days, doubles on even.

    Each asset alone goes nowhere; a daily-rebalanced even split grows by 9/8
    every two days.
    """
    values = np.ones((_synth_days(n, "half-periods"), 2))
    values[0::2, 1] = 0.5  # day 1, 3, 5, ... (odd trading days)
    values[1::2, 1] = 2.0
    return PriceRelativeMatrix(values, ("steady", "volatile"))


def synth_regime_pair(n: int) -> PriceRelativeMatrix:
    """Two mirrored regimes: asset 1 gains 3/2 for n days then loses 3/4 of its
    value daily for n days; asset 2 does the reverse.

    Any constant rebalanced mix decays (the even split loses 1/8 every day),
    while holding asset 1 then switching to asset 2 compounds 3/2 daily.
    """
    values = np.empty((_synth_days(n, "phase days"), 2))
    values[:n, 0] = 1.5
    values[n:, 0] = 0.25
    values[:n, 1] = 0.25
    values[n:, 1] = 1.5
    return PriceRelativeMatrix(values, ("up_then_down", "down_then_up"))
