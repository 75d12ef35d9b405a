"""Shared domain types: price-relative grids, portfolio vectors, switching regimes.

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

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SIMPLEX_TOL = 1e-12


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


@dataclass(frozen=True, eq=False)
class PortfolioVector:
    """Nonnegative weights summing to one: the fraction of wealth per asset.

    Construction rejects vectors farther than SIMPLEX_TOL from the simplex
    rather than silently renormalizing. Equality and hashing are by identity.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise DimensionMismatch("portfolio weights must be a non-empty 1-D vector")
        if not w.min() >= 0:  # a NaN minimum fails this test too
            raise NegativeEntry(f"negative or NaN portfolio weight: {float(w[~(w >= 0)][0])!r}")
        total = float(w.sum())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise PortfolioError(f"portfolio weights sum to {total!r}, not 1 within {SIMPLEX_TOL}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def assets(self) -> int:
        return self.weights.size

    @classmethod
    def uniform(cls, n: int) -> "PortfolioVector":
        if n < 1:
            raise DimensionMismatch("need at least one asset")
        return cls(np.full(n, 1.0 / n))

    def __iter__(self):
        return iter(self.weights)


@dataclass(frozen=True, eq=False)
class PriceRelativeMatrix:
    """T x N grid of strictly positive daily price relatives.

    ``values[t-1, i]`` is the day-t relative of asset i. ``dates`` optionally
    carries one label per day, preserved verbatim from input files; it plays
    no role in any computation. Equality and hashing are by identity, so a
    matrix can key a cache of what is computed from it.
    """

    values: np.ndarray
    asset_names: tuple[str, ...]
    dates: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise RaggedRows("price relatives must form a rectangular T x N grid")
        names = tuple(str(n) for n in self.asset_names)
        if len(names) != v.shape[1]:
            raise DimensionMismatch(
                f"{len(names)} asset names for {v.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise DuplicateAssetName(f"asset names not distinct: {names}")
        if v.shape[1] < 1:
            raise DimensionMismatch("need at least one asset column")
        bad = ~(v > 0) | ~np.isfinite(v)
        if bad.any():
            day, asset = map(int, np.argwhere(bad)[0])
            raise NonPositiveRelative(day, asset, float(v[day, asset]))
        if self.dates is not None:
            dates = tuple(str(d) for d in self.dates)
            if len(dates) != v.shape[0]:
                raise DimensionMismatch(f"{len(dates)} dates for {v.shape[0]} days")
            object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "asset_names", names)

    @property
    def days(self) -> int:
        return self.values.shape[0]

    @property
    def assets(self) -> int:
        return self.values.shape[1]

    def day_row(self, t: int) -> np.ndarray:
        """Relatives for 1-based trading day t."""
        if not 1 <= t <= self.days:
            raise DimensionMismatch(f"day {t} outside 1..{self.days}")
        return self.values[t - 1]


@dataclass(frozen=True)
class RegimeSpec:
    """A switching schedule: when to move all wealth, and between which assets.

    ``switch_times`` are the 1-based trading days *after* which the regime
    switches; ``strategies`` lists the asset index held in each of the
    ``len(switch_times) + 1`` segments. Consecutive strategies must differ
    (staying put is not a switch). Bounds against a concrete (T, N) are
    checked by the regimes module, since the schedule alone does not carry
    the horizon.
    """

    switch_times: tuple[int, ...]
    strategies: tuple[int, ...]

    def __post_init__(self):
        try:  # operator.index takes numpy integers and refuses what only rounds to one
            times = tuple(map(operator.index, self.switch_times))
            strats = tuple(map(operator.index, self.strategies))
        except TypeError:
            raise PortfolioError(
                f"switch times {self.switch_times} and strategies {self.strategies} must be integers"
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
        object.__setattr__(self, "switch_times", times)
        object.__setattr__(self, "strategies", strats)

    @classmethod
    def _checked(cls, switch_times: tuple[int, ...], strategies: tuple[int, ...]) -> "RegimeSpec":
        """A regime from int tuples that already passed these checks, not checked again."""
        regime = object.__new__(cls)
        object.__setattr__(regime, "switch_times", switch_times)
        object.__setattr__(regime, "strategies", strategies)
        return regime

    @property
    def switches(self) -> int:
        """Number of strategy changes (the regime's complexity)."""
        return len(self.switch_times)


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
