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
fast recursive algorithms are checked against, and it shares no code with
them but the KT stay product. Scoring regimes in blocks (below) keeps it a
brute-force enumeration.

The oracle's unit of work is a :class:`RegimeBlock`: every regime with one
switch-time tuple. Those share their segments, so their prior and charges,
and differ only in their N (N-1)^l strategy rows; :func:`regime_blocks`
yields the 2^(T-1) blocks and :func:`log_mixture_wealth` forms a block's
terms as whole arrays. Each term still gets the bits a regime-by-regime loop
gives: every elementwise operation is the scalar loop's, in its order, and
the blocks' terms are folded into one running ``np.logaddexp`` reduction in
enumeration order, a sequential left-to-right sum. :func:`enumerate_regimes`
unpacks the blocks, so the enumeration order has one source.

:func:`bound_check` scores one regime. It reads each segment's per-asset log
wealth from a table kept for the latest matrix and filled one segment at a
time (at most T(T+1)/2 segments, each summed as ``logs[start:end, a].sum()``),
so scoring every regime of a ``bounds`` run costs a few lookups per regime.

All bound arithmetic is in base-2 logarithms and reported in bits. Products
are accumulated in log domain; only final results are exponentiated.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import PortfolioError, PriceRelativeMatrix, RegimeSpec, check_switch_times
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


class RegimeBlock:
    """Every regime that shares one switch-time tuple: one row of ``strategies`` each.

    ``strategies`` is a read-only (K, len(switch_times) + 1) int array. The
    checks are :class:`RegimeSpec`'s, run on all rows at once; an error names
    the first row that fails. A read-only input array is kept, not copied,
    so blocks can share one. A slotted class rather than a frozen
    dataclass, whose creation would add over a millisecond to every CLI start.
    """

    __slots__ = ("switch_times", "strategies")

    def __init__(self, switch_times: tuple[int, ...], strategies: np.ndarray):
        times = tuple(int(t) for t in switch_times)
        strats = np.asarray(strategies, dtype=int)
        if strats.ndim != 2:
            raise PortfolioError(f"block strategies must be a 2-D array, got shape {strats.shape}")
        check_switch_times(times, strats.shape[1])
        adjacent = (strats[:, 1:] == strats[:, :-1]).any(axis=1)
        if adjacent.any():
            row = tuple(strats[adjacent.argmax()].tolist())
            raise PortfolioError(f"adjacent strategies equal in {row}: switches must change asset")
        negative = (strats < 0).any(axis=1)
        if negative.any():
            row = tuple(strats[negative.argmax()].tolist())
            raise PortfolioError(f"negative strategy index in {row}")
        if strats.flags.writeable:
            strats = strats.copy()
            strats.setflags(write=False)
        self.switch_times = times
        self.strategies = strats

    @property
    def switches(self) -> int:
        return len(self.switch_times)


def _check_regime(regime: RegimeSpec, T: int, N: int, for_prior: bool = False) -> None:
    if T < 1:
        raise InvalidRegime(f"regimes need at least one trading day, got T={T}")
    if for_prior and N < 2:
        raise InvalidRegime("switching priors need at least two assets")
    if regime.switch_times and regime.switch_times[-1] > T - 1:
        raise InvalidRegime(f"switch time {regime.switch_times[-1]} outside 1..{T - 1}")
    if max(regime.strategies) >= N:
        raise InvalidRegime(f"strategy index out of range for N={N}: {regime.strategies}")


def _segment_days(switch_times: tuple[int, ...], T: int) -> list[tuple[int, int]]:
    """(first day, last day) per segment, days 1-based inclusive."""
    return list(zip((1,) + tuple(t + 1 for t in switch_times), switch_times + (T,)))


def _stay_cumlog2(T: int) -> np.ndarray:
    """cum[d] = log2 of prod_{j=1..d} (j - 1/2)/j, for d = 0..T (T >= 1)."""
    return np.concatenate(([0.0], -kt_neg_log2_sequence(T)))


def _log_prior(segments, T: int, N: int, gamma: float | None, stay_cum) -> float:
    """Natural log of a regime's prior, given its segments (see :func:`_segment_days`).

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
    for start, end in segments[:-1]:
        d = end - start + 1
        lp += (stay_cum[d - 1] + math.log2(0.5 / d)) * LOG2
    start, end = segments[-1]
    return lp + stay_cum[end - start] * LOG2


def prior_fixed(regime: RegimeSpec, T: int, N: int, gamma: float) -> float:
    """Fixed-gamma prior probability of a regime."""
    _check_regime(regime, T, N, for_prior=True)
    if not 0.0 < gamma < 1.0:
        raise PortfolioError(f"gamma must be in (0,1), got {gamma!r}")
    return math.exp(_log_prior(_segment_days(regime.switch_times, T), T, N, gamma, None))


def prior_adaptive(regime: RegimeSpec, T: int, N: int) -> float:
    """Adaptive prior probability of a regime."""
    _check_regime(regime, T, N, for_prior=True)
    return math.exp(_log_prior(_segment_days(regime.switch_times, T), T, N, None, _stay_cumlog2(T)))


class _SegmentLogWealth(dict):
    """(start, end) -> each asset's log wealth over days start+1..end of X, each segment summed once.

    Entry a is ``float(logs[start:end, a].sum())``, numpy's order for one
    column (pairwise from 8 days on). X is held weakly.
    """

    def __init__(self, X: PriceRelativeMatrix):
        super().__init__()
        self.X = weakref.ref(X, _forget_segments)
        self._logs = np.log(X.values)

    def __missing__(self, segment: tuple[int, int]) -> list[float]:
        start, end = segment
        logs = self._logs
        sums = self[segment] = [float(logs[start:end, a].sum()) for a in range(logs.shape[1])]
        return sums


_latest_segments: _SegmentLogWealth | None = None


def _forget_segments(X_ref: weakref.ref) -> None:
    global _latest_segments
    if _latest_segments is not None and _latest_segments.X is X_ref:
        _latest_segments = None


def _segment_log_wealth(X: PriceRelativeMatrix) -> _SegmentLogWealth:
    """The segment table of X, kept while X lives and until another matrix is
    scored, so that every regime scored against one X (a ``bounds`` run) reads one table."""
    global _latest_segments
    table = _latest_segments
    if table is None or table.X() is not X:
        table = _latest_segments = _SegmentLogWealth(X)
    return table


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
    segment_sums = _segment_log_wealth(X)
    times = regime.switch_times
    total = 0.0
    for asset, start, end in zip(regime.strategies, (0,) + times, times + (X.days,)):
        total += segment_sums[start, end][asset]
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


def regime_blocks(T: int, N: int) -> Iterator[RegimeBlock]:
    """Yield every switching regime for T days and N assets once, one block per switch-time tuple.

    Blocks come by switch count l, then by time tuple in lexicographic
    order; a block's rows by first asset, then by each hop to one of the
    other N-1 assets (in index order), the last hop fastest. The rows for l
    switches are built once and shared by that l's blocks. Deliberately
    exponential (this is the oracle's price); guarded at ENUMERATION_GUARD
    regimes.
    """
    if N < 1:
        raise InvalidRegime(f"need at least one asset, got N={N}")
    if T < 1:
        return
    require_enumerable(T, N)
    # others[i, h]: the h-th asset other than i
    others = np.array([[j for j in range(N) if j != i] for i in range(N)], dtype=int)
    others = others.reshape(N, N - 1)
    strategies = np.arange(N).reshape(N, 1)
    for l in range(T):
        if l:
            hops = others[strategies[:, -1]].reshape(-1)
            strategies = np.column_stack((np.repeat(strategies, N - 1, axis=0), hops))
        strategies.setflags(write=False)
        for times in itertools.combinations(range(1, T), l):
            yield RegimeBlock(times, strategies)


def enumerate_regimes(T: int, N: int) -> Iterator[RegimeSpec]:
    """Yield every switching regime for T days and N assets once, in :func:`regime_blocks` order.

    A block has run :class:`RegimeSpec`'s checks on all its rows, so its regimes are not
    checked again one by one.
    """
    for block in regime_blocks(T, N):
        for strategies in block.strategies.tolist():
            yield RegimeSpec._checked(block.switch_times, tuple(strategies))


def log_mixture_wealth(
    X: PriceRelativeMatrix,
    prior: Prior,
    cost: CostModel | None = None,
    convention: str = CHARGE_SWITCHES_ONLY,
) -> float:
    """Natural log of sum over all regimes of prior(Q) * wealth(Q).

    Brute-force ground truth for the recursive algorithms; log-sum-exp
    accumulation keeps the sum stable however small the individual terms.
    Each block's terms are formed as whole arrays and folded into the running
    sum one at a time, in enumeration order.
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

    acc = np.array([-math.inf])
    for block in regime_blocks(T, N):
        segments = _segment_days(block.switch_times, T)
        lw = np.full(block.strategies.shape[0], (block.switches + extra_charge) * log_sf)
        for assets, (start, end) in zip(block.strategies.T, segments):
            lw += cumlog[end, assets] - cumlog[start - 1, assets]
        terms = _log_prior(segments, T, N, gamma, stay_cum) + lw
        acc = np.logaddexp.reduce(np.concatenate((acc, terms)), keepdims=True)
    return float(acc[0])


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
