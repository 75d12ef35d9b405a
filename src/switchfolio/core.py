"""Shared domain types: price-relative grids, switching regimes, and the one simplex rule for weights.

Conventions used throughout the package:

* Trading days are 1-based: day t runs over {1..T}. State captured "before
  trading day t" carries index t-1, so a freshly initialized algorithm state
  sits at day 0.
* A price relative is the ratio of an asset's next opening price to its
  current opening price, so it is a strictly positive multiplicative return.
* Wealth that accumulates over days (algorithm states, regime products, the
  mixture oracle) is kept as a natural-log accumulator, not a raw product,
  because (9/8)^n style growth and (7/8)^T style decay leave the
  representable range after a few thousand days. Linear wealth is formed
  only for reports.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import FrozenInstanceError
from typing import Sequence

import numpy as np

SIMPLEX_TOL = 1e-12
LOG2 = math.log(2.0)
GROWTH_MIN, GROWTH_MAX = 2.0**-512, 2.0**512  # a day whose growth leaves these is divided by a power of two


class PortfolioError(Exception):
    """Base class for all validation and computation errors in this package."""


class NonPositiveRelative(PortfolioError):
    """A price relative was zero or negative (day and asset are 0-based)."""

    def __init__(self, day: int, asset: int, value: float | None = None):
        self.day = day
        self.asset = asset
        self.value = value
        detail = "" if value is None else f" (value {value!r})"
        super().__init__(f"non-positive price relative at day {day}, asset {asset}{detail}")


class RaggedRows(PortfolioError):
    """Rows of the input grid do not all have the same length."""


class DuplicateAssetName(PortfolioError):
    """Two asset columns carry the same name."""


class DimensionMismatch(PortfolioError):
    """Vector/row lengths do not agree with the number of assets."""


class NegativeEntry(PortfolioError):
    """A vector that must be nonnegative had a negative entry."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class _Frozen:
    """Base of the small immutable records: the ``__slots__`` are the fields,
    compared, hashed and shown by value as a frozen dataclass does, and never reassigned.

    A record's ``__init__`` takes its fields in slot order, checks them and ends in one
    :meth:`_set`, so ``__reduce__`` can rebuild it from its fields."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Fill the slots, in order, with values: the one write of a record's ``__init__``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def scaled_days(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each day of rows (one day's relatives, or a (days, N) block) divided by the power of two 2^e
    that brings its largest relative into [1/2, 1), and the exponents e (keepdims, one per day).

    Every portfolio's log wealth on a scaled day is e ln 2 below the day's own; no growth overflows.
    """
    _, e = np.frexp(rows.max(axis=-1, keepdims=True))
    return np.ldexp(rows, -e), e


@np.errstate(over="ignore", invalid="ignore")  # an inf or nan sum is refused, not warned about
def simplex_refusal(w: np.ndarray) -> tuple[int, PortfolioError] | None:
    """(row, error) for the first row of w (a vector, or a track of them) off the simplex, else None.

    A row is refused for a negative or NaN entry, or else for a sum farther than SIMPLEX_TOL from 1.
    """
    rows = w.reshape(-1, w.shape[-1])
    negative = ~(np.minimum.reduce(rows, axis=1) >= 0)  # a NaN minimum fails this test too
    totals = np.add.reduce(rows, axis=1)
    bad = negative | (np.abs(totals - 1.0) > SIMPLEX_TOL)
    if not bad.any():
        return None
    k = int(bad.argmax())
    if negative[k]:
        row = rows[k]
        return k, NegativeEntry(f"negative or NaN portfolio weight: {float(row[~(row >= 0)][0])!r}")
    return k, PortfolioError(f"portfolio weights sum to {float(totals[k])!r}, not 1 within {SIMPLEX_TOL}")


class PriceRelativeMatrix(_Frozen):
    """T x N grid of strictly positive daily price relatives.

    ``values[t-1, i]`` is the day-t relative of asset i. ``dates`` optionally
    carries one label per day, preserved verbatim from input files; it plays
    no role in any computation. Equality and hashing are by identity.
    """

    __slots__ = ("values", "asset_names", "dates")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, values: np.ndarray, asset_names: tuple[str, ...], dates: tuple[str, ...] | None = None):
        v = np.asarray(values, dtype=float)
        if v.ndim != 2:
            raise RaggedRows("price relatives must form a rectangular T x N grid")
        names = tuple(str(n) for n in asset_names)
        if len(names) != v.shape[1]:
            raise DimensionMismatch(f"{len(names)} asset names for {v.shape[1]} columns")
        if len(set(names)) != len(names):
            raise DuplicateAssetName(f"asset names not distinct: {names}")
        if v.shape[1] < 1:
            raise DimensionMismatch("need at least one asset column")
        bad = ~(v > 0) | ~np.isfinite(v)
        if bad.any():
            day, asset = map(int, np.argwhere(bad)[0])
            raise NonPositiveRelative(day, asset, float(v[day, asset]))
        if dates is not None:
            dates = tuple(str(d) for d in dates)
            if len(dates) != v.shape[0]:
                raise DimensionMismatch(f"{len(dates)} dates for {v.shape[0]} days")
        self._set(_readonly(v), names, dates)

    @property
    def days(self) -> int:
        return self.values.shape[0]

    @property
    def assets(self) -> int:
        return self.values.shape[1]


class RegimeSpec(_Frozen):
    """A switching schedule: when to move all wealth, and between which assets.

    ``switch_times`` are the 1-based trading days *after* which the regime
    switches; ``strategies`` lists the asset index held in each of the
    ``len(switch_times) + 1`` segments. Consecutive strategies must differ
    (staying put is not a switch). Bounds against a concrete (T, N) are
    checked by the regimes module, since the schedule alone does not carry
    the horizon.
    """

    __slots__ = ("switch_times", "strategies")

    def __init__(self, switch_times: tuple[int, ...], strategies: tuple[int, ...]):
        try:  # operator.index takes numpy integers and refuses what only rounds to one
            times = tuple(map(operator.index, switch_times))
            strats = tuple(map(operator.index, strategies))
        except TypeError:
            raise PortfolioError(
                f"switch times {switch_times} and strategies {strategies} must be integers"
            ) from None
        if len(strats) != len(times) + 1:
            raise PortfolioError(
                f"{len(strats)} strategies for {len(times)} switch times; need one more strategy"
            )
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise PortfolioError(f"switch times not strictly increasing: {times}")
        if times and times[0] < 1:
            raise PortfolioError(f"switch times must be >= 1: {times}")
        if any(a == b for a, b in zip(strats, strats[1:])):
            raise PortfolioError(f"adjacent strategies equal in {strats}: switches must change asset")
        if any(i < 0 for i in strats):
            raise PortfolioError(f"negative strategy index in {strats}")
        self._set(times, strats)


def validate_relatives(
    raw: Sequence[Sequence[float]] | np.ndarray,
    names: Sequence[str],
    dates: Sequence[str] | None = None,
) -> PriceRelativeMatrix:
    """Validate a raw grid of price relatives into a PriceRelativeMatrix.

    Accepts an empty grid (T=0). A 2-D array with one column per name is
    taken as a whole; other input is converted row by row. Raises RaggedRows,
    NonPositiveRelative, DuplicateAssetName, or DimensionMismatch on bad input.
    """
    n = len(names)
    if isinstance(raw, np.ndarray) and raw.ndim == 2 and raw.shape[1] == n:
        values = np.array(raw, dtype=float)
    else:
        rows = [list(map(float, r)) for r in raw]
        if any(len(r) != n for r in rows):
            lengths = sorted({len(r) for r in rows})
            raise RaggedRows(f"rows have lengths {lengths}, expected {n} columns")
        values = np.array(rows, dtype=float).reshape(len(rows), n)
    return PriceRelativeMatrix(values, tuple(names), None if dates is None else tuple(dates))
