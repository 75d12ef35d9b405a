"""Regime priors, regime wealths, the exact mixture oracle, and bound checks.

The oracle and the bounds take the switching ``AlgoSpec`` that
``backtest.run`` executes, so they certify the algorithm under its own prior
and cost model. A switching regime is scored two ways:

* its prior probability under the spec's duration model: fixed-gamma
  (geometric segment lengths) when the spec sets gamma, else adaptive (each
  extra holding day makes staying likelier, the classic half-integer
  sequential estimator);
* its wealth: the product of the held asset's relatives per segment, with the
  spec's commission factor per executed switch, none for the initial
  purchase: the charges every algorithm state pays.

:func:`mixture_oracle` sums prior * wealth over every regime. Both priors factor
over segments: a segment's prior term depends only on its length and on
whether a switch ends it (:func:`_segment_log_priors`). So the N^T-term sum
splits at each switch and :func:`mixture_oracle` computes its natural log
exactly by a dynamic program over the day a segment starts, in O(T^2 N). It
shares no code with the recursive algorithms it certifies but the adaptive
prior's terms (:func:`adaptive_prior_terms`): it has none of their state
scaling, bucket bookkeeping or cost placement.

:func:`bound_check` scores one regime against a :class:`BoundTable`, which
fixes a run's market, spec and algorithm wealth once. The table
sums each segment's per-asset log wealth on its first read (at most T(T+1)/2
segments, each as ``logs[start:end, a].sum()``) and holds each switch count's
penalty. :meth:`BoundTable.scored_blocks` scores each switch-time block of the
enumeration at once in numpy, one gather and one addition per segment over the
block's strategy rows, and a ``bound_check`` of the block's next regime reads
its value from there.

All bound arithmetic is in base-2 logarithms and reported in bits. Products
are accumulated in log domain; only final results are exponentiated.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .core import (KIND_SWITCHING_ADAPTIVE, KIND_SWITCHING_FIXED, LOG2, PortfolioError, PriceRelativeMatrix,
                   RegimeSpec, _Frozen)
from .costs import switch_factor

if TYPE_CHECKING:
    from .backtest import AlgoSpec

ENUMERATION_GUARD = 10_000_000


class InvalidRegime(PortfolioError):
    """Regime is inconsistent with the given horizon or asset count."""


class InstanceTooLarge(PortfolioError):
    """Exhaustive enumeration would exceed the regime-count guard."""


def _prior_gamma(spec: AlgoSpec) -> float | None:
    """The switching spec's fixed gamma, or None for the adaptive prior; any other kind is refused."""
    if spec.kind not in (KIND_SWITCHING_FIXED, KIND_SWITCHING_ADAPTIVE):
        raise PortfolioError(f"the switching mixture needs a switching spec, got kind {spec.kind!r}")
    return spec.gamma


def _check_regime(regime: RegimeSpec, T: int, N: int) -> None:
    if T < 1:
        raise InvalidRegime(f"regimes need at least one trading day, got T={T}")
    if regime.switch_times and regime.switch_times[-1] > T - 1:
        raise InvalidRegime(f"switch time {regime.switch_times[-1]} outside 1..{T - 1}")
    if max(regime.strategies) >= N:
        raise InvalidRegime(f"strategy index out of range for N={N}: {regime.strategies}")


def _segment_log_priors(T: int, gamma: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Natural-log prior terms ``(ending, final)`` of a segment that stays k = 0..T-1
    days after its first: ``ending[k]`` if a switch ends it, ``final[k]`` if it is the last.

    A regime's prior is 1/N for the first asset, 1/(N-1) for each switch's
    target, and these terms of its segments. Under the fixed-gamma prior each
    day stays with 1-gamma and switches with gamma; under the adaptive prior
    (gamma None) they are the logs of :func:`adaptive_prior_terms`.
    """
    if gamma is not None:
        final = np.arange(T, dtype=float) * math.log1p(-gamma)
        return final + math.log(gamma), final
    stay, switch = adaptive_prior_terms(T)
    return np.log(switch), np.log(stay)


_new = object.__new__
_set_switch_times, _set_strategies = (RegimeSpec.__dict__[name].__set__ for name in RegimeSpec.__slots__)


def require_enumerable(T: int, N: int) -> None:
    """Raise :class:`InstanceTooLarge` if T days over N assets exceed ENUMERATION_GUARD regimes.

    There are N^T regimes: N first assets, then after each of the first T-1 days
    N choices (stay, or switch to one of the N-1 others).
    """
    if T >= 1 and N**T > ENUMERATION_GUARD:
        raise InstanceTooLarge(f"{N}^{T} regimes for T={T}, N={N} exceeds guard {ENUMERATION_GUARD}")


def switch_time_blocks(T: int, N: int) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Yield every switching regime for T days and N assets once, as switch-time blocks.

    A block is a switch-time tuple and the list of its strategy rows, each a
    tuple of len(times) + 1 assets: every first asset and every hop to one of
    the other N-1 assets (in index order), the last hop fastest. Blocks come
    by switch count l, then by switch-time tuple in lexicographic order; the
    blocks of one switch count share one list of rows. Deliberately
    exponential; guarded at ENUMERATION_GUARD regimes.
    """
    if N < 1:
        raise InvalidRegime(f"need at least one asset, got N={N}")
    if T < 1:
        return
    require_enumerable(T, N)
    others = [[j for j in range(N) if j != i] for i in range(N)]
    rows = [(i,) for i in range(N)]
    for l in range(T):
        if l:
            rows = [row + (j,) for row in rows for j in others[row[-1]]]
            if not rows:  # one asset never switches
                return
        for times in itertools.combinations(range(1, T), l):
            yield times, rows


def block_regimes(times: tuple[int, ...], rows: list[tuple[int, ...]]) -> Iterator[RegimeSpec]:
    """The regimes of one block of :func:`switch_time_blocks`, in its order, sharing its tuples."""
    for row in rows:  # checked by construction, so the slots are filled directly
        regime = _new(RegimeSpec)
        _set_switch_times(regime, times)
        _set_strategies(regime, row)
        yield regime


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by the largest term so none overflows.

    A slice whose terms are all -inf sums to -inf (shifted by 0, not by -inf).
    """
    peak = np.max(a, axis=axis, keepdims=True)
    peak[peak == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True)) + peak
    return np.squeeze(total, axis=axis)


def mixture_oracle(X: PriceRelativeMatrix, spec: AlgoSpec) -> float:
    """Natural log of the sum over all regimes of prior(Q) * wealth(Q), exactly, in O(T^2 N),
    under the switching spec's prior and cost model.

    ``enter[j, s-1]`` is the log mass (prior, wealth and charges) of every
    regime prefix that enters asset j on day s. On day e, ``leave[j]`` is that
    of every prefix whose segment on j ends there with a switch, summed over
    the segment's first day. The mass switching into j sums ``leave`` over the
    other N-1 assets alone, never as the total minus j's term, which would
    cancel when j holds nearly all the mass. Each sum is a max-shifted
    log-sum-exp, stable however small its terms.
    """
    gamma = _prior_gamma(spec)
    T, N = X.days, X.assets
    if N < 2:
        raise InvalidRegime("the switching mixture needs at least two assets")
    if T == 0:
        return 0.0
    # cumlog[j, t]: asset j's log wealth over days 1..t, so a segment's by two lookups
    cumlog = np.zeros((N, T + 1))
    np.cumsum(np.log(X.values.T), axis=1, out=cumlog[:, 1:])
    log_sf = math.log(switch_factor(spec.cost))
    ending, final = _segment_log_priors(T, gamma)
    others = np.array([[i for i in range(N) if i != j] for j in range(N)])
    enter = np.empty((N, T))
    enter[:, 0] = -math.log(N)
    for e in range(1, T):
        # segments on days s..e for s = 1..e, which stay e-s days and then switch
        terms = enter[:, :e] + (cumlog[:, e, None] - cumlog[:, :e]) + ending[e - 1 :: -1]
        leave = _logsumexp(terms, axis=1)
        enter[:, e] = _logsumexp(leave[others], axis=1) + (log_sf - math.log(N - 1))
    terms = enter + (cumlog[:, T, None] - cumlog[:, :T]) + final[::-1]
    return float(_logsumexp(terms))


def adaptive_prior_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The adaptive prior's terms ``(stay, switch)`` for a segment that has stayed k = 0..n-1 days.

    ``stay[k]`` = P(k) = prod_{j=1..k} (j - 1/2)/j, the sequential half-integer
    estimator's probability of k stays in a row, is one running product;
    ``switch[k]`` = P(k) (1/2)/(k+1) is that of k stays and then a switch.
    P(k) falls like 1/sqrt(k), never below 2^-(log2(k)/2 + 1).
    """
    j = np.arange(1.0, n)
    stay = np.ones(n)
    np.cumprod((j - 0.5) / j, out=stay[1:])
    return stay, stay * 0.5 / np.arange(1.0, n + 1)


def adaptive_penalty(T: int, N: int, l: int) -> float:
    """Worst-case log-wealth concession (bits) to a regime with l switches,
    under the adaptive prior: (3/2) l log2(T/l) + (1/2) log2(T) + (l+1) log2(4N).

    The l log2(T/l) term is 0 at l = 0 (its limit value). At T = 1 the only
    count is l = 0 and the penalty is log2(4N), above the prior's log2(N).
    """
    if T < 1:
        raise PortfolioError(f"penalty defined for T >= 1, got T={T}")
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
        + l * -math.log2(gamma)  # not log2(1/gamma): 1/gamma is inf for a subnormal gamma
        + (T - l) * -math.log2(1.0 - gamma)
    )


class BoundReport(_Frozen):
    """Competitiveness accounting for one regime, everything in bits.

    slack = algorithm_log_wealth - (regime_log_wealth - penalty); the
    guarantee is slack >= 0 whenever the algorithm matches the prior.
    """

    __slots__ = ("regime_log_wealth", "penalty", "algorithm_log_wealth")

    def __init__(self, regime_log_wealth: float, penalty: float, algorithm_log_wealth: float):
        _set_regime_log_wealth(self, regime_log_wealth)
        _set_penalty(self, penalty)
        _set_algorithm_log_wealth(self, algorithm_log_wealth)

    @property
    def slack(self) -> float:
        return self.algorithm_log_wealth - self.regime_log_wealth + self.penalty


# The slots' own setters: one report is made per regime, and these skip __init__ and the refusing __setattr__.
_set_regime_log_wealth, _set_penalty, _set_algorithm_log_wealth = (
    BoundReport.__dict__[name].__set__ for name in BoundReport.__slots__
)


class BoundTable:
    """One bound run for :func:`bound_check`: a market, a switching spec (its prior, and its cost
    model, charged once per executed switch) and the spec's log2 wealth on it, fixed at construction.

    The table keeps each segment's per-asset log wealths, ``float(logs[start:end, a].sum())``
    (numpy's order for one column, pairwise from 8 days on), keyed by ``(start, end)`` and
    summed on first read; each switch count's penalty; and the block that
    :meth:`scored_blocks` scored last. It does not hold X.
    """

    __slots__ = ("days", "assets", "algorithm_log2_wealth", "_logs", "_segments", "_penalties", "_log_sf",
                 "_block", "_position")

    def __init__(self, X: PriceRelativeMatrix, spec: AlgoSpec, algorithm_log2_wealth: float):
        gamma = _prior_gamma(spec)
        self._log_sf = math.log(switch_factor(spec.cost))
        T, N = self.days, self.assets = X.days, X.assets
        self.algorithm_log2_wealth = algorithm_log2_wealth
        self._logs = np.log(X.values)
        self._segments: dict[tuple[int, int], np.ndarray] = {}
        if gamma is not None:
            self._penalties = [fixed_gamma_penalty(T, N, l, gamma) for l in range(T)]
        else:
            self._penalties = [adaptive_penalty(T, N, l) for l in range(T)]
        self._block = (None, [], np.empty(0))  # (switch times, strategy rows, their log2 wealths)
        self._position = 0  # the row of the block that bound_check reads next

    def _score(self, times: tuple[int, ...], strategies: np.ndarray) -> np.ndarray:
        """Log2 wealths of the regimes with these switch times and (R, l+1) strategy rows.

        Each regime's segment wealths are added left to right from 0.0, then its
        log charge, then the sum is divided by ``LOG2``: a lone regime's additions
        in its order, so every value keeps its bits.
        """
        total = np.zeros(len(strategies))
        for k, segment in enumerate(zip((0,) + times, times + (self.days,))):
            row = self._segments.get(segment)
            if row is None:
                start, end = segment
                row = self._segments[segment] = np.array(
                    [float(self._logs[start:end, a].sum()) for a in range(self.assets)])
            total += row[strategies[:, k]]
        return (total + len(times) * self._log_sf) / LOG2

    def scored_blocks(self) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]], np.ndarray, float]]:
        """Yield each block of :func:`switch_time_blocks` for the table's days and assets as
        ``(switch times, strategy rows, their log2 wealths, penalty in bits)``, scored at once.

        While a block is out, :func:`bound_check` reads its regimes, in order, from it.
        """
        rows_seen = None
        for times, rows in switch_time_blocks(self.days, self.assets):
            if rows is not rows_seen:  # a new switch count: one index array for all its blocks,
                # of the smallest integer type (at N=8, T=7 an intp array would add 46 MiB to the peak)
                rows_seen, strategies = rows, np.array(rows, dtype=np.min_scalar_type(self.assets - 1))
            log2_wealth = self._score(times, strategies)
            self._block, self._position = (times, rows, log2_wealth), 0
            yield times, rows, log2_wealth, self._penalties[len(times)]


def bound_check(table: BoundTable, regime: RegimeSpec) -> BoundReport:
    """Compare the table's algorithm log2-wealth against one hindsight regime.

    The next regime of the block that :meth:`BoundTable.scored_blocks` scored
    last (the block's switch-time tuple object and the strategy tuple at the
    block's position) is read from it. Any other regime is checked and scored
    as a one-row block.
    """
    times, rows, log2_wealths = table._block
    position = table._position
    if regime.switch_times is times and position < len(rows) and regime.strategies is rows[position]:
        table._position = position + 1
        log2_wealth = log2_wealths.item(position)
    else:
        _check_regime(regime, table.days, table.assets)
        log2_wealth = float(table._score(regime.switch_times, np.array([regime.strategies]))[0])
    report = _new(BoundReport)
    _set_regime_log_wealth(report, log2_wealth)
    _set_penalty(report, table._penalties[len(regime.switch_times)])
    _set_algorithm_log_wealth(report, table.algorithm_log2_wealth)
    return report
