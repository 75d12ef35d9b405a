"""The switching-portfolios algorithms as incremental day-by-day state machines.

Both variants maintain, for every asset, the wealth a mixture over all
switching schedules currently assigns to holding that asset. After each
trading day a slice of every asset's wealth is redistributed to the others:

* fixed switching probability gamma: a constant fraction gamma leaves each
  asset and is split evenly over the other N-1 (constant work per asset per
  day);
* adaptive switching probability: wealth is bucketed by (asset, start day);
  a bucket held for dt days keeps fraction (dt + 1/2)/(dt + 1) and leaks
  1/(2(dt + 1)), split evenly over the other assets, so long-held positions
  become progressively stickier (O(t) work on day t). Each bucket is stored
  once, at birth, relative to its asset's running growth against the
  mixture, so a day is one read-only pass over the buckets (see
  :class:`AdaptiveState`).

Transaction costs shrink only the redistributed (switched-in) mass by the
cost model's lump-move factor; the stay term and the initial purchase are
never charged.

States store simplex shares plus a log-wealth accumulator rather than raw
linear wealth: over thousands of days raw products leave double range, while
shares stay O(1) and the log tracks total growth exactly. ``asset_wealth``
and ``bucket_view()`` reconstruct shares and linear values on demand, as new
arrays. States are mutable, single-writer: one step call at a time per state.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DimensionMismatch, PortfolioError, PortfolioVector
from .costs import CostModel, switch_factor
from .regimes import kt_neg_log2_sequence


class GammaOutOfRange(PortfolioError):
    """gamma must lie in (0, (N-1)/N] for the weight update to stay on the simplex."""


class TooFewAssets(PortfolioError):
    """Switching needs at least two assets: redistribution must have a target."""


def gamma_hat(dt: int | float) -> float:
    """Switching probability after holding the same asset for dt full days.

    Defined as (1/2)/(dt + 1): one half at dt=0, decaying so that positions
    become stickier the longer they are held.
    """
    if dt < 0:
        raise PortfolioError(f"holding duration must be nonnegative, got {dt}")
    return 0.5 / (dt + 1.0)


class FixedGammaState:
    """Per-asset wealth evolved with a constant switching probability.

    The day's pre-return mass is cached under ``day`` and the cost's switch
    factor: whichever of a weights call and the next step comes first
    computes it, and the other reads it.
    """

    __slots__ = ("gamma", "day", "shares", "log_wealth", "_day_cache")

    def __init__(self, gamma: float, shares: np.ndarray, day: int = 0, log_wealth: float = 0.0):
        self.gamma = float(gamma)
        self.shares = np.asarray(shares, dtype=float)
        self.day = int(day)
        self.log_wealth = float(log_wealth)
        self._day_cache = (-1, None, None)  # (day, switch factor, pre-return mass)

    @property
    def assets(self) -> int:
        return self.shares.size

    @property
    def asset_wealth(self) -> np.ndarray:
        """Linear per-asset wealth S_t^i (unit initial investment)."""
        return self.shares * math.exp(self.log_wealth)


class AdaptiveState:
    """Wealth bucketed by (asset, start day) under the adaptive switching rule.

    Bucket (i, k) holds the wealth sitting in asset i since trading day k+1;
    after day t exactly N*t buckets exist. After its birth day a bucket's
    share of total wealth changes only by two factors: the stay product
    P(a) = prod_{j=1..a} (j - 1/2)/j of its age a, and asset i's return
    relative to the whole mixture. So each bucket is stored once, at birth,
    as ``coef[i, k]`` = its share on day k+1 divided by ``scale[i]``, the
    running product of asset i's relative over the mixture's daily growth.
    After day t its share is ``coef[i, k] * P(t-1-k) * scale[i]``, and a day
    reads ``coef[:, :t]`` once against two reversed age kernels, stay P(a)
    and leak P(a-1)/(2a), without writing any bucket. A scale that leaves
    [1e-150, 1e150] is folded into its row of ``coef`` and reset to 1, so
    extreme markets stay finite. The day's new bucket and pre-return mass
    (stay plus new bucket) are cached under ``day`` and the cost's switch
    factor: whichever of a weights call and the next step comes first
    computes them, and the other reads them.
    """

    __slots__ = ("day", "log_wealth", "_coef", "_scale", "_kernel", "_day_cache")

    def __init__(self, n: int):
        self.day = 0
        self.log_wealth = 0.0
        self._coef = np.zeros((n, 0))
        self._scale = np.ones(n)
        self._kernel = np.zeros((2, 0))
        self._day_cache = (-1, None, None, None)  # (day, switch factor, new bucket, pre-return mass)
        self._grow(16)

    @property
    def assets(self) -> int:
        return self._scale.size

    def _grow(self, needed: int):
        """Make room for at least ``needed`` start days (at least double the capacity)."""
        capacity = max(needed, 2 * self._kernel.shape[1])
        grown = np.zeros((self.assets, capacity))
        grown[:, : self.day] = self._coef[:, : self.day]
        self._coef = grown
        # Column j serves age a = capacity - j, so day t reads the last t columns.
        age = np.arange(1.0, capacity + 1)
        stay = np.exp2(-kt_neg_log2_sequence(capacity))
        leak = np.concatenate(([1.0], stay[:-1])) / (2.0 * age)
        self._kernel = np.ascontiguousarray(np.stack((stay, leak))[:, ::-1])

    def bucket_view(self) -> np.ndarray:
        """Shares by (asset, start day): a new read-only (N, day) array of fractions of total."""
        t = self.day
        held = np.append(self._kernel[0, self._kernel.shape[1] - t + 1 :], 1.0)[:t]  # P(t-1-k)
        view = self._coef[:, :t] * held * self._scale[:, None]
        view.setflags(write=False)
        return view

    def bucket_wealth(self) -> np.ndarray:
        """Linear bucket wealth S_{t,t0}^i, shape (N, day)."""
        return self.bucket_view() * math.exp(self.log_wealth)


def fixed_init(n: int, gamma: float) -> FixedGammaState:
    """Uniform unit wealth over n assets, before any trading day."""
    if n < 2:
        raise TooFewAssets(f"need at least 2 assets to switch between, got {n}")
    if not 0.0 < gamma <= (n - 1) / n:
        raise GammaOutOfRange(f"gamma must be in (0, {(n - 1) / n!r}] for N={n}, got {gamma!r}")
    return FixedGammaState(gamma, np.full(n, 1.0 / n))


def adaptive_init(n: int) -> AdaptiveState:
    """Empty adaptive state; the first step seeds one bucket per asset at 1/n."""
    if n < 2:
        raise TooFewAssets(f"need at least 2 assets to switch between, got {n}")
    return AdaptiveState(n)


def _check_row(n: int, x) -> np.ndarray:
    row = np.asarray(x, dtype=float)
    if row.shape != (n,):
        raise DimensionMismatch(f"day row has shape {row.shape}, state has {n} assets")
    return row


def _fixed_pre_return_mass(state: FixedGammaState, cost: CostModel | None) -> np.ndarray:
    """Post-trade mass per asset before the next day's returns, as shares of wealth."""
    g, n, t = state.gamma, state.assets, state.day
    factor = switch_factor(cost)
    cached_day, cached_factor, mass = state._day_cache
    if cached_day == t and cached_factor == factor:
        return mass
    if t == 0:
        mass = state.shares.copy()  # initial purchase: nothing to trade yet
    else:
        stay = (1.0 - g) * state.shares
        switched_in = (g / (n - 1)) * (1.0 - state.shares)
        mass = stay + factor * switched_in
    state._day_cache = (t, factor, mass)
    return mass


def fixed_step(state: FixedGammaState, x, cost: CostModel | None = None) -> FixedGammaState:
    """Advance one trading day in place: redistribute, charge cost, apply returns."""
    row = _check_row(state.assets, x)
    mass = _fixed_pre_return_mass(state, cost) * row
    total = float(mass.sum())
    state.shares = mass / total
    state.log_wealth += math.log(total)
    state.day += 1
    return state


def fixed_weights(state: FixedGammaState, cost: CostModel | None = None) -> PortfolioVector:
    """Portfolio held on the next trading day.

    With no cost model this is the affine share update
    w_i -> (1 - gamma*N/(N-1)) * w_i + gamma/(N-1), applied to the current
    post-return shares. With costs, the switched-in term is shrunk by the
    lump-move factor and the result renormalized.
    """
    mass = _fixed_pre_return_mass(state, cost)
    return PortfolioVector(mass / mass.sum())


def _adaptive_pre_return_mass(state: AdaptiveState, cost: CostModel | None):
    """(new bucket, stay + new bucket) per asset as shares of wealth, before returns; day >= 1."""
    t = state.day
    factor = switch_factor(cost)
    cached_day, cached_factor, new_bucket, mass = state._day_cache
    if cached_day == t and cached_factor == factor:
        return new_bucket, mass
    kernel = state._kernel[:, state._kernel.shape[1] - t :]
    stay, leaked = ((state._coef[:, :t] @ kernel.T) * state._scale[:, None]).T
    # Leaked mass is split evenly over the other N-1 assets.
    new_bucket = factor * (leaked.sum() - leaked) / (state.assets - 1)
    mass = stay + new_bucket
    state._day_cache = (t, factor, new_bucket, mass)
    return new_bucket, mass


def adaptive_step(state: AdaptiveState, x, cost: CostModel | None = None) -> AdaptiveState:
    """Advance one trading day in place; bucket count grows by one per asset."""
    row = _check_row(state.assets, x)
    t = state.day
    if t == 0:
        new_bucket = mass = np.full(state.assets, 1.0 / state.assets)  # uncharged purchase
    else:
        new_bucket, mass = _adaptive_pre_return_mass(state, cost)
    if t >= state._kernel.shape[1]:
        state._grow(t + 1)
    scale = state._scale
    # Stored against the pre-return scale, which today's row / total turns into its share.
    state._coef[:, t] = new_bucket / scale
    mass = mass * row
    total = float(mass.sum())
    scale *= row / total
    # Fold a scale outside [1e-150, 1e150] into its row before it leaves double range.
    if scale.min() < 1e-150 or scale.max() > 1e150:
        out = (scale < 1e-150) | (scale > 1e150)
        state._coef[out, : t + 1] *= scale[out, None]
        scale[out] = 1.0
    state.log_wealth += math.log(total)
    state.day = t + 1
    return state


def adaptive_weights(state: AdaptiveState, cost: CostModel | None = None) -> PortfolioVector:
    """Portfolio held on the next trading day: stay mass plus switched-in mass per asset."""
    if state.day < 1:
        raise PortfolioError("adaptive weights are defined only after the first trading day")
    _, mass = _adaptive_pre_return_mass(state, cost)
    return PortfolioVector(mass / mass.sum())


def log_total_wealth(state: FixedGammaState | AdaptiveState) -> float:
    """Natural log of total wealth (unit initial investment)."""
    return state.log_wealth


def total_wealth(state: FixedGammaState | AdaptiveState) -> float:
    """Total wealth: the prior-weighted mixture over all switching schedules."""
    return math.exp(state.log_wealth)
