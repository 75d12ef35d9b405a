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
  become progressively stickier. Each bucket is stored once, at birth,
  relative to its asset's running growth against the mixture, so a day's
  stay and leak masses are a causal convolution of the stored buckets with
  two fixed age kernels. Ages below 64 are summed directly; older ages are
  read from pending sums that FFT block products added ahead of time
  (relaxed multiplication), so the first T days cost O(N T log² T) in all,
  not O(N T²) (see :class:`AdaptiveState`). The state is sized to its run's
  horizon and holds exactly the days the run reads.

Transaction costs shrink only the redistributed (switched-in) mass by the
cost model's lump-move factor; the stay term and the initial purchase are
never charged. A state takes its cost model once, at init, for the whole
run; each step ends by computing the next day's pre-return mass, which a
weights call only normalizes into a plain ``(N,)`` array.

States store simplex shares plus a log-wealth accumulator rather than raw
linear wealth: over thousands of days raw products leave double range, while
shares stay O(1) and the log tracks total growth exactly (linear wealth is
shares times ``exp(log_wealth)``, where representable). A day whose growth
leaves [2^-512, 2^512] is first divided by a power of two
(:func:`core.scaled_days`), whose log the accumulator adds. ``bucket_view()`` gives
the adaptive shares as a new array. States are mutable, single-writer: one
step call at a time per state.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GROWTH_MAX, GROWTH_MIN, LOG2, DimensionMismatch, PortfolioError, scaled_days
from .costs import CostModel, switch_factor
from .regimes import adaptive_prior_terms

SHORT_AGES = 63  # ages a day sums directly; level L = 64, 128, ... holds ages [L, 2L)
FIRST_LEVEL = SHORT_AGES + 1
FOLD_LO, FOLD_HI = 1e-150, 1e150  # an adaptive scale outside this range is folded
# Real samples an FFT product transforms at once (512 KiB of float64): the transforms of a
# level run over groups of assets, row by row as over all of them, so the bits do not change.
FFT_SAMPLES = 1 << 16


class GammaOutOfRange(PortfolioError):
    """gamma must lie in (0, (N-1)/N] for the weight update to stay on the simplex."""


class TooFewAssets(PortfolioError):
    """Switching needs at least two assets: redistribution must have a target."""


class FixedGammaState:
    """Per-asset wealth evolved with a constant switching probability.

    ``shares`` are the post-return shares after ``day`` days, uniform over
    the n assets at day 0; ``_mass`` is the next day's pre-return mass under
    the state's cost (on day 0, the uncharged purchase: the shares
    themselves). A step overwrites both arrays in place; ``_keep`` = 1 - gamma
    and ``_spread`` = gamma/(N-1) are taken once, at init.
    """

    __slots__ = ("gamma", "day", "shares", "log_wealth", "_factor", "_keep", "_spread", "_mass")

    def __init__(self, gamma: float, n: int, cost: CostModel | None = None):
        self.gamma = float(gamma)
        self.shares = np.full(n, 1.0 / n)
        self.day = 0
        self.log_wealth = 0.0
        self._factor = switch_factor(cost)
        self._keep, self._spread = 1.0 - self.gamma, self.gamma / (n - 1)
        self._mass = self.shares.copy()


def _fixed_mass(state: FixedGammaState) -> np.ndarray:
    """Post-trade mass per asset before the next day's returns, as shares of wealth, written
    into and returned as ``state._mass``; day >= 1."""
    mass, shares = state._mass, state.shares
    np.subtract(1.0, shares, out=mass)
    mass *= state._spread  # the switched-in mass
    if state._factor != 1.0:  # multiplying by 1 would change no bit
        mass *= state._factor
    mass += state._keep * shares
    return mass


class AdaptiveState:
    """Wealth bucketed by (asset, start day) under the adaptive switching rule.

    Bucket (i, k) holds the wealth sitting in asset i since trading day k+1;
    after day t exactly N*t buckets exist. After its birth day a bucket's
    share of total wealth changes only by two factors: the stay product
    P(a) = prod_{j=1..a} (j - 1/2)/j of its age a, and asset i's return
    relative to the whole mixture. So each bucket is stored once, at birth,
    as ``coef[i, k]`` = its share on day k+1 divided by ``scale[i]``, the
    running product of asset i's relative over the mixture's daily growth.
    After day t its share is ``coef[i, k] * P(t-1-k) * scale[i]``.

    On day t asset i's stay and leaked masses are ``scale[i]`` times
    sum_k coef[i, k] K(t-k), with the kernel K either stay P(a) or leak
    P(a-1)/(2a). The day sums ages 1..63 directly over its last 63
    coefficients. Every older age a lies in one level [L, 2L), L = 64, 128,
    ..., and is read from ``pending[t]``, where the ages of level L were
    added ahead of time (relaxed multiplication, after van der Hoeven 2002):
    on each day t that L divides, one batched FFT product of the
    coefficients of days t-2L..t-1 with the level's two kernel segments
    adds the ages [L, 2L) of days t..t+L-1, over all assets at once. The
    kernel spectra are kept per level; both kernels are read from one table
    of the prior's terms (:func:`regimes.adaptive_prior_terms`), taken at
    init for every age the run reaches. A day's work is O(N) plus O(N log L)
    amortized per level, and runs shorter than 64 days never reach a level.

    Given the run's ``horizon`` T, the state holds ``coef`` and the pending
    sums for T+1 days (the weights after day T read ``pending[T]``), and a
    product that would reach past day T fills only the days up to T: its
    source days, kernel ages and FFT length shrink to what those days read.
    A step past the horizon is refused.

    A scale that leaves [1e-150, 1e150] is folded into its row of ``coef``
    and of the pending sums, and reset to 1, so extreme markets stay finite.
    ``_new_bucket`` and ``_mass`` are the next day's new bucket and
    pre-return mass (stay plus new bucket) under the state's cost; before
    the first day both are the uncharged purchase, 1/N per asset.
    """

    __slots__ = (
        "day", "horizon", "log_wealth", "_coef", "_pending", "_scale", "_kernels", "_short", "_spectra", "_others",
        "_sum", "_factor", "_new_bucket", "_mass",
    )

    def __init__(self, n: int, horizon: int, cost: CostModel | None = None):
        self.day = 0
        self.horizon = horizon
        self.log_wealth = 0.0
        self._coef = np.zeros((n, horizon + 1))
        self._pending = np.zeros((horizon + 1, n, 2))  # [day, asset, stay or leak], like coef
        self._scale = np.ones(n)
        # Stay P(a) and leak P(a-1)/(2a) by age a = 0..max(horizon, 63); no day reads the leak at age 0.
        stay, switch = adaptive_prior_terms(max(horizon, SHORT_AGES) + 1)
        self._kernels = np.stack((stay, np.roll(switch, 1)))
        # Row j serves age 63 - j, so day t reads the last min(t, 63) rows.
        self._short = self._kernels[:, SHORT_AGES:0:-1].copy().T
        self._spectra = {}  # (level, ages, FFT length) -> the rfft of the two kernels over those ages
        # 0-d arrays, not scalars, meet the day's vectors: numpy combines them faster, to the same bits.
        self._others = np.array(n - 1.0)  # the assets a leak is split over
        self._sum = np.empty(())  # receives each of the day's sums in turn
        self._factor = switch_factor(cost)
        self._new_bucket = self._mass = np.full(n, 1.0 / n)

    @property
    def assets(self) -> int:
        return self._scale.size

    def _spectrum(self, level: int, ages: int, length: int) -> np.ndarray:
        """rfft of the given length of the stay and leak kernels over ages [L, L + ages), shape (2, length//2 + 1)."""
        key = (level, ages, length)
        spectrum = self._spectra.get(key)
        if spectrum is None:
            spectrum = self._spectra[key] = np.fft.rfft(self._kernels[:, level : level + ages], length)
        return spectrum

    def bucket_view(self) -> np.ndarray:
        """Shares by (asset, start day): a new read-only (N, day) array of fractions of total."""
        t = self.day
        held = self._kernels[0, :t][::-1]  # P(t-1-k); the bucket born on day t has held for no day yet
        view = self._coef[:, :t] * held * self._scale[:, None]
        view.setflags(write=False)
        return view


def fixed_init(n: int, gamma: float, cost: CostModel | None = None) -> FixedGammaState:
    """Uniform unit wealth over n assets, before any trading day, under one cost model for the run."""
    if n < 2:
        raise TooFewAssets(f"need at least 2 assets to switch between, got {n}")
    if not 0.0 < gamma <= (n - 1) / n:
        raise GammaOutOfRange(f"gamma must be in (0, {(n - 1) / n!r}] for N={n}, got {gamma!r}")
    return FixedGammaState(gamma, n, cost)


def adaptive_init(n: int, horizon: int, cost: CostModel | None = None) -> AdaptiveState:
    """Empty adaptive state sized to a run of ``horizon`` days under one cost model; the first
    step seeds one bucket per asset at 1/n."""
    if n < 2:
        raise TooFewAssets(f"need at least 2 assets to switch between, got {n}")
    if not (isinstance(horizon, (int, np.integer)) and horizon >= 0):
        raise PortfolioError(f"horizon must be a whole number of days >= 0, got {horizon!r}")
    return AdaptiveState(n, int(horizon), cost)


def _check_row(n: int, x) -> np.ndarray:
    row = np.asarray(x, dtype=float)
    if row.shape != (n,):
        raise DimensionMismatch(f"day row has shape {row.shape}, state has {n} assets")
    return row


def fixed_step(state: FixedGammaState, x) -> FixedGammaState:
    """Advance one trading day in place: apply returns to the pre-return mass, then redistribute."""
    shares = state.shares
    row = _check_row(shares.size, x)
    np.multiply(state._mass, row, out=shares)
    total = float(np.add.reduce(shares))
    if not GROWTH_MIN <= total <= GROWTH_MAX:  # a day at an end of the double range, rescaled
        row, e = scaled_days(row)
        state.log_wealth += e.item() * LOG2
        np.multiply(state._mass, row, out=shares)
        total = float(np.add.reduce(shares))
    shares /= total
    state.log_wealth += math.log(total)
    state.day += 1
    _fixed_mass(state)
    return state


def fixed_weights(state: FixedGammaState) -> np.ndarray:
    """Portfolio held on the next trading day, shape (N,).

    With no cost model this is the affine share update
    w_i -> (1 - gamma*N/(N-1)) * w_i + gamma/(N-1), applied to the current
    post-return shares. With costs, the switched-in term is shrunk by the
    lump-move factor and the result renormalized.
    """
    mass = state._mass
    return mass / np.add.reduce(mass)


def _relax(state: AdaptiveState) -> None:
    """Add the ages [L, 2L) of days t..t+L-1, up to the horizon, to the pending sums, for each L dividing t."""
    t = state.day
    top = t & -t  # the largest power of two that divides t
    level = FIRST_LEVEL
    while level <= top:
        days = min(level, state.horizon + 1 - t)  # pending days t..t+days-1
        # Coefficients of days t-2L..t+days-1-L (from day 0 when t = L) against ages [L, L+ages):
        # a circular convolution is exact on the outputs that land on days t..t+days-1 when its
        # length reaches past them and past the wrapped tail of the full product (a middle
        # product). With days = L that is length 2L over all of [L, 2L).
        lo, hi = max(t - 2 * level, 0), t + days - level
        first = t - level - lo
        ages = min(level, hi - lo)
        length = 1 << (max(hi - lo + ages - 1 - first, first + days) - 1).bit_length()  # a power of two
        kernel_spectra = state._spectrum(level, ages, length)
        group = max(1, FFT_SAMPLES // length)  # assets a product transforms at once
        for i in range(0, state.assets, group):
            spectrum = np.fft.rfft(state._coef[i : i + group, lo:hi], length)
            for kernel, kernel_spectrum in enumerate(kernel_spectra):  # one at a time: fewer temporaries
                sums = np.fft.irfft(spectrum * kernel_spectrum, length)[:, first : first + days]
                state._pending[t : t + days, i : i + group, kernel] += sums.T
        level *= 2


def adaptive_step(state: AdaptiveState, x) -> AdaptiveState:
    """Advance one trading day in place; bucket count grows by one per asset."""
    row = _check_row(state._scale.size, x)
    t = state.day
    if t == state.horizon:
        raise PortfolioError(f"the adaptive state holds {t} days; day {t + 1} is past its horizon")
    scale = state._scale
    # Stored against the pre-return scale, which today's row / total turns into its share.
    np.divide(state._new_bucket, scale, out=state._coef[:, t])
    mass = state._mass * row
    total = np.add.reduce(mass, out=state._sum)
    growth = float(total)
    if not GROWTH_MIN <= growth <= GROWTH_MAX:  # a day at an end of the double range, rescaled
        row, e = scaled_days(row)
        state.log_wealth += e.item() * LOG2
        mass = state._mass * row
        growth = float(np.add.reduce(mass, out=state._sum))  # total is state._sum: it holds the new sum
    scale *= row / total
    # Fold a scale outside [1e-150, 1e150] into its rows before it leaves double range.
    scales = scale.tolist()
    if min(scales) < FOLD_LO or max(scales) > FOLD_HI:
        out = (scale < FOLD_LO) | (scale > FOLD_HI)
        state._coef[out, : t + 1] *= scale[out, None]
        state._pending[t + 1 : 2 * t, out] *= scale[out, None]  # relaxed days t' wrote below 2t'
        scale[out] = 1.0
    state.log_wealth += math.log(growth)
    state.day = t = t + 1
    if t % FIRST_LEVEL == 0:
        _relax(state)
    # The next day's (N, 2) stay and leak sums over coef: ages up to 63 here, older ones pending.
    if t <= SHORT_AGES:
        sums = state._coef[:, :t] @ state._short[SHORT_AGES - t :]
    else:
        sums = state._coef[:, t - SHORT_AGES : t] @ state._short
        sums += state._pending[t]
    leaked = sums[:, 1] * scale
    # Leaked mass is split evenly over the other N-1 assets.
    state._new_bucket = state._factor * (np.add.reduce(leaked, out=state._sum) - leaked) / state._others
    state._mass = sums[:, 0] * scale + state._new_bucket
    return state


def adaptive_weights(state: AdaptiveState) -> np.ndarray:
    """Portfolio held on the next trading day, shape (N,): stay mass plus switched-in mass per asset.

    At day 0 this is the 1/N purchase, as :func:`fixed_weights` gives it.
    """
    mass = state._mass
    return mass / np.add.reduce(mass, out=state._sum)
