"""Regime priors, regime wealths, the exhaustive mixture oracle, and bound checks.

A switching regime is scored two ways:

* its prior probability under either the fixed-gamma duration model
  (geometric segment lengths) or the adaptive model (each extra holding day
  makes staying likelier, the classic half-integer sequential estimator);
* its wealth: the product of the held asset's relatives per segment, with an
  optional commission factor per executed switch (or per segment, including
  the initial purchase, under the alternative convention).

``mixture_oracle`` sums prior * wealth over every regime by brute force.
That is exponential in T on purpose: it is the independent ground truth the
fast recursive algorithms are checked against.

All bound arithmetic is in base-2 logarithms and reported in bits. Products
are accumulated in log domain; only final results are exponentiated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import PortfolioError, PriceRelativeMatrix, RegimeSpec
from .costs import CostModel, switch_factor

LOG2 = math.log(2.0)

CHARGE_SWITCHES_ONLY = "switches-only"
CHARGE_ALL_SEGMENTS = "all-segments"

ENUMERATION_GUARD = 10_000_000


class InvalidRegime(PortfolioError):
    """Regime is inconsistent with the given horizon or asset count."""


class InstanceTooLarge(PortfolioError):
    """Exhaustive enumeration would exceed the regime-count guard."""


@dataclass(frozen=True)
class FixedGammaPrior:
    """Geometric duration model with constant switching probability gamma."""

    gamma: float

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise PortfolioError(f"prior gamma must be in (0,1), got {self.gamma!r}")


@dataclass(frozen=True)
class AdaptivePrior:
    """Duration model where the switching probability after dt days is (1/2)/(dt+1)."""


Prior = FixedGammaPrior | AdaptivePrior


def _check_regime(regime: RegimeSpec, T: int, N: int, for_prior: bool = False) -> None:
    if T < 1:
        raise InvalidRegime(f"regimes need at least one trading day, got T={T}")
    if for_prior and N < 2:
        raise InvalidRegime("switching priors need at least two assets")
    if regime.switch_times and regime.switch_times[-1] > T - 1:
        raise InvalidRegime(f"switch time {regime.switch_times[-1]} outside 1..{T - 1}")
    if any(i >= N for i in regime.strategies):
        raise InvalidRegime(f"strategy index out of range for N={N}: {regime.strategies}")


def _segment_bounds(regime: RegimeSpec, T: int) -> list[tuple[int, int, int]]:
    """(asset, first day, last day) per segment, days 1-based inclusive."""
    starts = (0,) + regime.switch_times
    ends = regime.switch_times + (T,)
    return [(a, s + 1, e) for a, s, e in zip(regime.strategies, starts, ends)]


def _stay_cumlog2(T: int) -> np.ndarray:
    """cum[d] = log2 of prod_{j=1..d} (j - 1/2)/j, for d = 0..T (T >= 1)."""
    return np.concatenate(([0.0], -kt_neg_log2_sequence(T)))


def _log_prior(segments, T: int, N: int, gamma: float | None, stay_cum) -> float:
    """Natural log of a regime's prior, given its segments (see :func:`_segment_bounds`).

    ``gamma`` selects the fixed-gamma prior 1/(N (N-1)^l) gamma^l (1-gamma)^(T-l-1);
    ``None`` selects the adaptive prior, which reads ``stay_cum = _stay_cumlog2(T)``.
    Under the adaptive prior a segment of length d that ends in a switch
    contributes d-1 stay factors (1 - (1/2)/j) for j = 1..d-1 and then the
    switch probability (1/2)/d, split uniformly over the N-1 target assets;
    the last segment has no terminating switch. The first asset is picked
    uniformly under both priors.
    """
    l = len(segments) - 1
    if gamma is not None:
        return (
            -math.log(N)
            - l * math.log(N - 1)
            + l * math.log(gamma)
            + (T - l - 1) * math.log1p(-gamma)
        )
    lp = -math.log(N) - l * math.log(N - 1)
    for _, start, end in segments[:-1]:
        d = end - start + 1
        lp += (stay_cum[d - 1] + math.log2(0.5 / d)) * LOG2
    _, start, end = segments[-1]
    return lp + stay_cum[end - start] * LOG2


def prior_fixed(regime: RegimeSpec, T: int, N: int, gamma: float) -> float:
    """Fixed-gamma prior probability of a regime."""
    _check_regime(regime, T, N, for_prior=True)
    if not 0.0 < gamma < 1.0:
        raise PortfolioError(f"gamma must be in (0,1), got {gamma!r}")
    return math.exp(_log_prior(_segment_bounds(regime, T), T, N, gamma, None))


def prior_adaptive(regime: RegimeSpec, T: int, N: int) -> float:
    """Adaptive prior probability of a regime."""
    _check_regime(regime, T, N, for_prior=True)
    return math.exp(_log_prior(_segment_bounds(regime, T), T, N, None, _stay_cumlog2(T)))


def log_regime_wealth(
    regime: RegimeSpec,
    X: PriceRelativeMatrix,
    cost: CostModel | None = None,
    convention: str = CHARGE_SWITCHES_ONLY,
) -> float:
    """Natural log of a regime's wealth over X, including commission factors.

    ``switches-only`` charges the lump-move factor once per executed switch
    (l times); ``all-segments`` also charges the initial purchase (l+1 times).
    """
    _check_regime(regime, X.days, X.assets)
    if convention not in (CHARGE_SWITCHES_ONLY, CHARGE_ALL_SEGMENTS):
        raise PortfolioError(f"unknown cost convention {convention!r}")
    logs = np.log(X.values)
    total = 0.0
    for asset, start, end in _segment_bounds(regime, X.days):
        total += float(logs[start - 1 : end, asset].sum())
    l = regime.switches
    charges = l if convention == CHARGE_SWITCHES_ONLY else l + 1
    return total + charges * math.log(switch_factor(cost))


def regime_wealth(
    regime: RegimeSpec,
    X: PriceRelativeMatrix,
    cost: CostModel | None = None,
    convention: str = CHARGE_SWITCHES_ONLY,
) -> float:
    return math.exp(log_regime_wealth(regime, X, cost, convention))


def count_regimes(T: int, N: int) -> int:
    """Number of distinct switching regimes over T days: N * N^(T-1)."""
    if T < 1:
        return 0
    return N**T


def require_enumerable(T: int, N: int) -> None:
    """Raise :class:`InstanceTooLarge` if T days over N assets exceed ENUMERATION_GUARD regimes."""
    if count_regimes(T, N) > ENUMERATION_GUARD:
        raise InstanceTooLarge(f"{N}^{T} regimes for T={T}, N={N} exceeds guard {ENUMERATION_GUARD}")


def enumerate_regimes(T: int, N: int) -> Iterator[RegimeSpec]:
    """Yield every switching regime for T days and N assets exactly once.

    Deliberately exponential (this is the oracle's price); guarded at
    ENUMERATION_GUARD regimes.
    """
    if N < 1:
        raise InvalidRegime(f"need at least one asset, got N={N}")
    if T < 1:
        return
    require_enumerable(T, N)
    others = [[j for j in range(N) if j != i] for i in range(N)]
    for l in range(T):
        for times in itertools.combinations(range(1, T), l):
            for first in range(N):
                for hops in itertools.product(range(N - 1), repeat=l):
                    strategies = [first]
                    for hop in hops:
                        strategies.append(others[strategies[-1]][hop])
                    yield RegimeSpec(times, tuple(strategies))


def log_mixture_wealth(
    X: PriceRelativeMatrix,
    prior: Prior,
    cost: CostModel | None = None,
    convention: str = CHARGE_SWITCHES_ONLY,
) -> float:
    """Natural log of sum over all regimes of prior(Q) * wealth(Q).

    Brute-force ground truth for the recursive algorithms; log-sum-exp
    accumulation keeps the sum stable however small the individual terms.
    """
    T, N = X.days, X.assets
    if N < 2:
        raise InvalidRegime("the switching mixture needs at least two assets")
    if T == 0:
        return 0.0
    # Per-asset cumulative log relatives: segment wealth by two lookups.
    cumlog = np.zeros((T + 1, N))
    np.cumsum(np.log(X.values), axis=0, out=cumlog[1:])
    if convention not in (CHARGE_SWITCHES_ONLY, CHARGE_ALL_SEGMENTS):
        raise PortfolioError(f"unknown cost convention {convention!r}")
    stay_cum = _stay_cumlog2(T)
    gamma = prior.gamma if isinstance(prior, FixedGammaPrior) else None
    log_sf = math.log(switch_factor(cost))
    extra_charge = 0 if convention == CHARGE_SWITCHES_ONLY else 1

    acc = -math.inf
    for regime in enumerate_regimes(T, N):
        segments = _segment_bounds(regime, T)
        lw = (regime.switches + extra_charge) * log_sf
        for asset, start, end in segments:
            lw += cumlog[end, asset] - cumlog[start - 1, asset]
        lp = _log_prior(segments, T, N, gamma, stay_cum)
        acc = np.logaddexp(acc, lp + lw)
    return float(acc)


def mixture_oracle(
    X: PriceRelativeMatrix,
    prior: Prior,
    cost: CostModel | None = None,
    convention: str = CHARGE_SWITCHES_ONLY,
) -> float:
    """Total mixture wealth over all regimes (see :func:`log_mixture_wealth`)."""
    return math.exp(log_mixture_wealth(X, prior, cost, convention))


def kt_neg_log2_sequence(n_max: int) -> np.ndarray:
    """-log2 of the stay-run product prod_{i=0..n-1} (i + 1/2)/(i + 1), for every n in 1..n_max.

    The product is the sequential half-integer estimator's probability of an
    all-stays run; it falls like 1/sqrt(n), never faster than 2^-(log2(n)/2 + 1).
    """
    if n_max < 1:
        raise PortfolioError(f"need n_max >= 1, got {n_max}")
    i = np.arange(n_max, dtype=float)
    return -np.cumsum(np.log2((i + 0.5) / (i + 1.0)))


def adaptive_penalty(T: int, N: int, l: int) -> float:
    """Worst-case log-wealth concession (bits) to a regime with l switches,
    under the adaptive prior: (3/2) l log2(T/l) + (1/2) log2(T) + (l+1) log2(4N).

    The l log2(T/l) term is 0 at l = 0 (its limit value).
    """
    if T < 2:
        raise PortfolioError(f"penalty defined for T >= 2, got T={T}")
    if not 0 <= l <= T - 1:
        raise PortfolioError(f"switch count l={l} outside 0..{T - 1}")
    complexity = 1.5 * l * math.log2(T / l) if l > 0 else 0.0
    return complexity + 0.5 * math.log2(T) + (l + 1) * math.log2(4 * N)


def fixed_gamma_penalty(T: int, N: int, l: int, gamma: float) -> float:
    """Concession bound (bits) for the fixed-gamma prior:
    (l+1) log2(N) + l log2(1/gamma) + (T-l) log2(1/(1-gamma))."""
    if not 0.0 < gamma < 1.0:
        raise PortfolioError(f"gamma must be in (0,1), got {gamma!r}")
    if not 0 <= l <= max(T - 1, 0):
        raise PortfolioError(f"switch count l={l} outside 0..{T - 1}")
    return (
        (l + 1) * math.log2(N)
        + l * math.log2(1.0 / gamma)
        + (T - l) * math.log2(1.0 / (1.0 - gamma))
    )


@dataclass(frozen=True)
class BoundReport:
    """Competitiveness accounting for one regime, everything in bits.

    slack = algorithm_log_wealth - (regime_log_wealth - penalty); the
    guarantee is slack >= 0 whenever the algorithm matches the prior.
    """

    regime_log_wealth: float
    penalty: float
    algorithm_log_wealth: float

    @property
    def slack(self) -> float:
        return self.algorithm_log_wealth - self.regime_log_wealth + self.penalty


def bound_check(
    X: PriceRelativeMatrix,
    prior: Prior,
    algorithm_log2_wealth: float,
    regime: RegimeSpec,
    cost: CostModel | None = None,
    convention: str = CHARGE_SWITCHES_ONLY,
) -> BoundReport:
    """Compare achieved algorithm log2-wealth against one hindsight regime.

    ``algorithm_log2_wealth`` must come from the algorithm matching ``prior``
    run on the same X, cost model, and convention.
    """
    lw = log_regime_wealth(regime, X, cost, convention) / LOG2
    if isinstance(prior, FixedGammaPrior):
        penalty = fixed_gamma_penalty(X.days, X.assets, regime.switches, prior.gamma)
    else:
        penalty = adaptive_penalty(X.days, X.assets, regime.switches)
    return BoundReport(lw, penalty, algorithm_log2_wealth)
