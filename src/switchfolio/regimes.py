"""Regime priors, regime wealths, the exact mixture oracle, and bound checks.

A switching regime is scored two ways:

* its prior probability under either the fixed-gamma duration model
  (geometric segment lengths) or the adaptive model (each extra holding day
  makes staying likelier, the classic half-integer sequential estimator);
* its wealth: the product of the held asset's relatives per segment, with an
  optional commission factor per executed switch (or per segment, including
  the initial purchase, under the alternative convention).

:func:`log_mixture_wealth` sums prior * wealth over every regime. Both priors factor
over segments: a segment's prior term depends only on its length and on
whether a switch ends it (:func:`_segment_log_priors`). So the N^T-term sum
splits at each switch and :func:`log_mixture_wealth` computes it exactly by a
dynamic program over the day a segment starts, in O(T^2 N). It shares no code
with the recursive algorithms it certifies but the KT stay product: it has
none of their state scaling, bucket bookkeeping or cost placement.

:func:`bound_check` scores one regime. It reads each segment's per-asset log
wealth from a table kept for the matrix while the matrix lives and filled one
segment at a time (at most T(T+1)/2 segments, each summed as
``logs[start:end, a].sum()``, keyed by one integer per segment). The same
table keeps each switch count's penalty for the latest prior and the log
switch factor of the latest cost model, so scoring every regime of a
``bounds`` run costs a few lookups, two additions per segment and one small
record per regime.

All bound arithmetic is in base-2 logarithms and reported in bits. Products
are accumulated in log domain; only final results are exponentiated.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import FrozenInstanceError
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


class _Frozen:
    """Base of the small immutable records here: the ``__slots__`` are the fields,
    compared, hashed and shown by value as a frozen dataclass does, and never reassigned."""

    __slots__ = ()

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


class FixedGammaPrior(_Frozen):
    """Geometric duration model with constant switching probability gamma."""

    __slots__ = ("gamma",)

    def __init__(self, gamma: float):
        if not 0.0 < gamma < 1.0:
            raise PortfolioError(f"prior gamma must be in (0,1), got {gamma!r}")
        object.__setattr__(self, "gamma", gamma)


class AdaptivePrior(_Frozen):
    """Duration model where the switching probability after dt days is (1/2)/(dt+1)."""

    __slots__ = ()


Prior = FixedGammaPrior | AdaptivePrior


def _check_regime(regime: RegimeSpec, T: int, N: int, for_prior: bool = False) -> None:
    if T < 1:
        raise InvalidRegime(f"regimes need at least one trading day, got T={T}")
    if for_prior and N < 2:
        raise InvalidRegime("switching priors need at least two assets")
    if regime.switch_times and regime.switch_times[-1] > T - 1:
        raise InvalidRegime(f"switch time {regime.switch_times[-1]} outside 1..{T - 1}")
    if max(regime.strategies) >= N:
        raise InvalidRegime(f"strategy index out of range for N={N}: {regime.strategies}")


def _segment_log_priors(T: int, prior: Prior) -> tuple[np.ndarray, np.ndarray]:
    """Natural-log prior terms ``(ending, final)`` of a segment that stays k = 0..T-1
    days after its first: ``ending[k]`` if a switch ends it, ``final[k]`` if it is the last.

    A regime's prior is 1/N for the first asset, 1/(N-1) for each switch's
    target, and these terms of its segments. Under the fixed-gamma prior each
    day stays with 1-gamma and switches with gamma; under the adaptive prior
    the j-th stay has probability 1 - (1/2)/j and a switch after d days (1/2)/d.
    """
    k = np.arange(T, dtype=float)
    if isinstance(prior, FixedGammaPrior):
        final = k * math.log1p(-prior.gamma)
        return final + math.log(prior.gamma), final
    final = np.concatenate(([0.0], -kt_neg_log2_sequence(T)))[:T] * LOG2
    return final + np.log(0.5 / (k + 1.0)), final


def log_prior(regime: RegimeSpec, T: int, N: int, prior: Prior) -> float:
    """Natural log of a regime's prior probability over T days and N assets.

    Under the fixed-gamma prior it is log of 1/(N (N-1)^l) gamma^l (1-gamma)^(T-l-1)
    for a regime with l switches; see :func:`_segment_log_priors` for both priors.
    """
    _check_regime(regime, T, N, for_prior=True)
    ending, final = _segment_log_priors(T, prior)
    stays = np.diff((0,) + regime.switch_times + (T,)) - 1
    l = regime.switches
    return -math.log(N) - l * math.log(N - 1) + float(ending[stays[:-1]].sum() + final[stays[-1]])


class _SegmentLogWealth(dict):
    """start * (T+1) + end -> each asset's log wealth over days start+1..end of X, each segment summed once.

    Entry a is ``float(logs[start:end, a].sum())``, numpy's order for one
    column (pairwise from 8 days on). The table does not hold X. It also keeps
    what every regime scored against X shares: each switch count's penalty
    under the latest prior, and the log switch factor of the latest cost model.
    """

    def __init__(self, X: PriceRelativeMatrix):
        super().__init__()
        self.days, self.assets = X.days, X.assets
        self._logs = np.log(X.values)
        self._prior, self._penalties = None, {}
        self._cost, self._log_sf = None, 0.0  # no cost model: log(switch_factor(None)) = log(1)

    def __missing__(self, key: int) -> list[float]:
        start, end = divmod(key, self.days + 1)
        logs = self._logs
        sums = self[key] = [float(logs[start:end, a].sum()) for a in range(self.assets)]
        return sums

    def log_wealth(self, regime: RegimeSpec, cost: CostModel | None, convention: str) -> float:
        """See :func:`log_regime_wealth`."""
        T = self.days
        _check_regime(regime, T, self.assets)
        if convention not in (CHARGE_SWITCHES_ONLY, CHARGE_ALL_SEGMENTS):
            raise PortfolioError(f"unknown cost convention {convention!r}")
        times = regime.switch_times
        stride = T + 1
        total = 0.0
        start = 0
        for asset, end in zip(regime.strategies, times + (T,)):
            total += self[start * stride + end][asset]
            start = end
        if cost is not self._cost:
            self._cost, self._log_sf = cost, math.log(switch_factor(cost))
        charges = len(times) if convention == CHARGE_SWITCHES_ONLY else len(times) + 1
        return total + charges * self._log_sf

    def penalty(self, prior: Prior, l: int) -> float:
        """The concession (bits) to a regime with l switches under prior."""
        if prior is not self._prior:
            self._prior, self._penalties = prior, {}
        penalty = self._penalties.get(l)
        if penalty is None:
            if isinstance(prior, FixedGammaPrior):
                penalty = fixed_gamma_penalty(self.days, self.assets, l, prior.gamma)
            else:
                penalty = adaptive_penalty(self.days, self.assets, l)
            self._penalties[l] = penalty
        return penalty


# Each live matrix's segment table, by the matrix's id. A finalizer drops the entry with
# the matrix, so no id is reused while it is here. (``bounds`` looks a table up once per
# regime, and a WeakKeyDictionary lookup measured about twice as long as this one.)
_segment_tables: dict[int, _SegmentLogWealth] = {}


def _segment_log_wealth(X: PriceRelativeMatrix) -> _SegmentLogWealth:
    """The segment table of X, so that every regime scored against one X (a ``bounds`` run) reads one table."""
    table = _segment_tables.get(id(X))
    if table is None:
        table = _segment_tables[id(X)] = _SegmentLogWealth(X)
        weakref.finalize(X, _segment_tables.pop, id(X), None)
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
    return _segment_log_wealth(X).log_wealth(regime, cost, convention)


def require_enumerable(T: int, N: int) -> None:
    """Raise :class:`InstanceTooLarge` if T days over N assets exceed ENUMERATION_GUARD regimes.

    There are N^T regimes: N first assets, then after each of the first T-1 days
    N choices (stay, or switch to one of the N-1 others).
    """
    if T >= 1 and N**T > ENUMERATION_GUARD:
        raise InstanceTooLarge(f"{N}^{T} regimes for T={T}, N={N} exceeds guard {ENUMERATION_GUARD}")


def enumerate_regimes(T: int, N: int) -> Iterator[RegimeSpec]:
    """Yield every switching regime for T days and N assets once.

    Regimes come by switch count l, then by switch-time tuple in lexicographic
    order, then by first asset and by each hop to one of the other N-1 assets
    (in index order), the last hop fastest. Deliberately exponential; guarded
    at ENUMERATION_GUARD regimes.
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
        for times in itertools.combinations(range(1, T), l):
            for row in rows:
                yield RegimeSpec._checked(times, row)


def _logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) along axis, shifted by the largest term so none overflows.

    A slice whose terms are all -inf sums to -inf (shifted by 0, not by -inf).
    """
    peak = np.max(a, axis=axis, keepdims=True)
    peak[peak == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(np.exp(a - peak), axis=axis, keepdims=True)) + peak
    return np.squeeze(total, axis=axis)


def log_mixture_wealth(
    X: PriceRelativeMatrix,
    prior: Prior,
    cost: CostModel | None = None,
    convention: str = CHARGE_SWITCHES_ONLY,
) -> float:
    """Natural log of sum over all regimes of prior(Q) * wealth(Q), exactly, in O(T^2 N).

    ``enter[j, s-1]`` is the log mass (prior, wealth and charges) of every
    regime prefix that enters asset j on day s. On day e, ``leave[j]`` is that
    of every prefix whose segment on j ends there with a switch, summed over
    the segment's first day. The mass switching into j sums ``leave`` over the
    other N-1 assets alone, never as the total minus j's term, which would
    cancel when j holds nearly all the mass. Each sum is a max-shifted
    log-sum-exp, stable however small its terms.
    """
    T, N = X.days, X.assets
    if N < 2:
        raise InvalidRegime("the switching mixture needs at least two assets")
    if T == 0:
        return 0.0
    # cumlog[j, t]: asset j's log wealth over days 1..t, so a segment's by two lookups
    cumlog = np.zeros((N, T + 1))
    np.cumsum(np.log(X.values.T), axis=1, out=cumlog[:, 1:])
    if convention not in (CHARGE_SWITCHES_ONLY, CHARGE_ALL_SEGMENTS):
        raise PortfolioError(f"unknown cost convention {convention!r}")
    ending, final = _segment_log_priors(T, prior)
    log_sf = math.log(switch_factor(cost))
    others = np.array([[i for i in range(N) if i != j] for j in range(N)])
    enter = np.empty((N, T))
    enter[:, 0] = -math.log(N) + (convention == CHARGE_ALL_SEGMENTS) * log_sf
    for e in range(1, T):
        # segments on days s..e for s = 1..e, which stay e-s days and then switch
        terms = enter[:, :e] + (cumlog[:, e, None] - cumlog[:, :e]) + ending[e - 1 :: -1]
        leave = _logsumexp(terms, axis=1)
        enter[:, e] = _logsumexp(leave[others], axis=1) + (log_sf - math.log(N - 1))
    terms = enter + (cumlog[:, T, None] - cumlog[:, :T]) + final[::-1]
    return float(_logsumexp(terms))


def mixture_oracle(
    X: PriceRelativeMatrix,
    prior: Prior,
    cost: CostModel | None = None,
    convention: str = CHARGE_SWITCHES_ONLY,
) -> float:
    """Total mixture wealth over all regimes (see :func:`log_mixture_wealth`), which ``oracle`` prints."""
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
        + l * math.log2(1.0 / gamma)
        + (T - l) * math.log2(1.0 / (1.0 - gamma))
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


# The slots' own setters: one report is made per regime, and these skip the refusing __setattr__.
_set_regime_log_wealth, _set_penalty, _set_algorithm_log_wealth = (
    BoundReport.__dict__[name].__set__ for name in BoundReport.__slots__
)


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
    table = _segment_log_wealth(X)
    lw = table.log_wealth(regime, cost, convention) / LOG2
    return BoundReport(lw, table.penalty(prior, len(regime.switch_times)), algorithm_log2_wealth)
