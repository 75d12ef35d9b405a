"""Reference implementations that only the tests call.

Each is the direct, unoptimized form of a quantity the package computes by a
faster route: a regime's prior and wealth one at a time, the regimes one at a
time, the universal portfolio's sample points all at once, and the netted
commission of one reshape. The tests compare the package against them.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from switchfolio.backtest import AlgoSpec
from switchfolio.baselines import _simplex_draws
from switchfolio.core import DimensionMismatch, PriceRelativeMatrix, RegimeSpec
from switchfolio.costs import CostModel, NegativeAllocation, switch_factor
from switchfolio.regimes import (
    InvalidRegime,
    _check_regime,
    _prior_gamma,
    _segment_log_priors,
    block_regimes,
    switch_time_blocks,
)


def log_prior(regime: RegimeSpec, T: int, N: int, spec: AlgoSpec) -> float:
    """Natural log of a regime's prior probability over T days and N assets, under the switching spec's prior.

    Under the fixed-gamma prior it is log of 1/(N (N-1)^l) gamma^l (1-gamma)^(T-l-1)
    for a regime with l switches; see ``regimes._segment_log_priors`` for both priors.
    """
    if T >= 1 and N < 2:  # a horizon of no days is refused first, by the regime check
        raise InvalidRegime("switching priors need at least two assets")
    _check_regime(regime, T, N)
    ending, final = _segment_log_priors(T, _prior_gamma(spec))
    stays = np.diff((0,) + regime.switch_times + (T,)) - 1
    l = len(regime.switch_times)
    return -math.log(N) - l * math.log(N - 1) + float(ending[stays[:-1]].sum() + final[stays[-1]])


def log_regime_wealth(regime: RegimeSpec, X: PriceRelativeMatrix, cost: CostModel | None = None) -> float:
    """Natural log of a regime's wealth over X, with the lump-move factor charged
    once per executed switch (l times) and never for the initial purchase."""
    T, times = X.days, regime.switch_times
    _check_regime(regime, T, X.assets)
    log_sf = math.log(switch_factor(cost))
    logs = np.log(X.values)
    total = 0.0
    for asset, start, end in zip(regime.strategies, (0,) + times, times + (T,)):
        total += float(logs[start:end, asset].sum())
    return total + len(times) * log_sf


def enumerate_regimes(T: int, N: int) -> Iterator[RegimeSpec]:
    """Yield every switching regime for T days and N assets once, in the order of
    ``regimes.switch_time_blocks``; the regimes of a block share its switch-time tuple object."""
    for times, rows in switch_time_blocks(T, N):
        yield from block_regimes(times, rows)


def sample_simplex(m: int, n: int, seed: int) -> np.ndarray:
    """m points uniform on the n-simplex from a Philox stream seeded with seed."""
    return _simplex_draws(np.random.Generator(np.random.Philox(seed)), m, n)


def rebalance_cost(
    model: CostModel | None,
    current: np.ndarray,
    target: np.ndarray,
) -> float:
    """Commission for reshaping per-asset wealth ``current`` into ``target``.

    Both models charge c * sum_i |net delta_i|: netting means an asset that
    the bucket-level bookkeeping would both sell from and buy into trades only
    its net amount. The models differ in the lump-move factors applied inside
    algorithm state (see ``costs.switch_factor``), not here.
    """
    cur = np.asarray(current, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if cur.shape != tgt.shape:
        raise DimensionMismatch(f"allocations differ in shape: {cur.shape} vs {tgt.shape}")
    if np.any(cur < 0) or np.any(tgt < 0):
        raise NegativeAllocation("wealth allocations must be nonnegative")
    if model is None:
        return 0.0
    return model.rate * float(np.abs(cur - tgt).sum())
