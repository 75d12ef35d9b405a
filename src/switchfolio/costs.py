"""Transaction cost models and realized (netted-trade) wealth accounting.

Two commission models are supported, plus cost-free operation signalled by
passing ``None`` wherever a cost model is accepted:

* ``per-trade``: a fixed fraction c of every amount traded, charged on sells
  and again on buys. Moving a lump of wealth between two assets retains
  (1-c)^2 of it.
* ``parallel``: the whole allocation is reshaped at once and the commission
  c * sum_i |S_i - S'_i| is then deducted proportionally so the target
  proportions are preserved. A full switch retains 1 - 2c.

``switch_factor`` gives the lump-move retention used inside the algorithms'
wealth bookkeeping. ``realized_wealth_track`` implements the netted accounting
used for realized-wealth reporting, as a natural-log track: each asset trades
only its net delta, which is the cheapest execution under proportional
commissions.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionMismatch, PortfolioError, _Frozen

PER_TRADE = "per-trade"
PARALLEL = "parallel"


class NegativeAllocation(PortfolioError):
    """Wealth allocations handed to cost accounting must be nonnegative."""


class CostModel(_Frozen):
    """A commission scheme with rate c in [0, 0.5).

    The upper bound keeps the parallel model's full-switch factor 1 - 2c
    positive.
    """

    __slots__ = ("kind", "rate")

    def __init__(self, kind: str, rate: float):
        if kind not in (PER_TRADE, PARALLEL):
            raise PortfolioError(f"unknown cost model kind {kind!r}")
        if not 0.0 <= rate < 0.5:
            raise PortfolioError(f"commission rate must be in [0, 0.5), got {rate!r}")
        self._set(kind, rate)

    @classmethod
    def per_trade(cls, c: float) -> "CostModel":
        return cls(PER_TRADE, c)

    @classmethod
    def parallel(cls, c: float) -> "CostModel":
        return cls(PARALLEL, c)


def switch_factor(model: CostModel | None) -> float:
    """Fraction of a lump of wealth that survives a full move between assets."""
    if model is None:
        return 1.0
    if model.kind == PER_TRADE:
        return (1.0 - model.rate) ** 2
    return 1.0 - 2.0 * model.rate


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # the caller refuses a track off the doubles
def realized_wealth_track(
    weights: np.ndarray,
    X,
    model: CostModel | None,
) -> np.ndarray:
    """Natural-log wealth track from literally holding a day-by-day weight schedule.

    ``weights`` is a T x N array whose row t is the allocation held during
    trading day t+1; X supplies the relatives.
    Day t's returns are applied, then the holdings are reshaped to the next
    day's target and the netted commission deducted. The deduction keeps the
    target proportions: the post-cost total is (old total - c * sum |delta|),
    with deltas measured against the target at the pre-cost total (closed
    form of the parallel model's proportional shrink). The initial purchase
    and the final day are not charged, matching algorithm-state bookkeeping
    that prices switches only.

    Returns T+1 natural-log wealths starting at 0: the running sum of the days' log factors.
    """
    W = np.asarray(weights, dtype=float)
    if W.shape != (X.days, X.assets):
        raise DimensionMismatch(
            f"weight schedule {W.shape} does not match {X.days} days x {X.assets} assets"
        )
    if X.days >= 2 and np.any(W < 0):  # a schedule of one day never trades
        raise NegativeAllocation("wealth allocations must be nonnegative")
    # Day t multiplies wealth by g_t = W[t-1] . x_t, less c * sum |W[t-1] * x_t - W[t] * g_t|
    # for the reshape into day t+1's target.
    held = W * X.values
    factor = held.sum(axis=1)
    if model is not None:
        moved = np.abs(held[:-1] - W[1:] * factor[:-1, None]).sum(axis=1)
        factor[:-1] -= model.rate * moved
    log_wealth = np.zeros(X.days + 1)
    np.cumsum(np.log(factor), out=log_wealth[1:])
    return log_wealth
