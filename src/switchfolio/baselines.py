"""Comparison strategies: CRP, hindsight-best CRP, multiplicative-update (EG),
the universal portfolio, and the best single stock.

A constant rebalanced portfolio (CRP) restores the same weight vector every
day, which costs real money under commissions: with a cost model, each day's
drifted allocation is traded back to the target and the netted commission
deducted: ``backtest.run`` runs one through costs.realized_wealth_track.

The universal portfolio mixes every CRP under the uniform prior. For two
assets without costs it is computed exactly: a CRP's wealth is a polynomial
in its weight with non-negative coefficients, so the mixture is a sum of
Beta integrals, carried from day to day as shares that sum to 1 and a
natural-log wealth, in one O(t) pass on day t. The sample count and seed
change nothing there.

Otherwise (three or more assets, or a cost model) it is approximated by
Monte Carlo: M weight vectors drawn uniformly from the simplex, each run as
its own CRP (paying its own rebalancing costs when a model is active), with
the strategy's wealth the plain average of the M wealth tracks (its natural log
is returned, as for every track). Sampling
uses a counter-based generator (Philox) so a (seed, M) pair reproduces
bit-identically across platforms. The M CRPs run in tiles of days x samples,
512 KiB each, that reuse one buffer allocated per call: no tile allocates or
faults in fresh pages. Samples are drawn a chunk at a time from the one
stream, so they are the same points, bitwise, as one draw of all M, and the
full M x N sample matrix is never held.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .core import (GROWTH_MAX, GROWTH_MIN, LOG2, DimensionMismatch, PortfolioError, PriceRelativeMatrix,
                   scaled_days, simplex_refusal)

if TYPE_CHECKING:
    from .backtest import AlgoSpec

_BCRP_MAX_ITER = 20_000
_BCRP_TOL = 1e-12  # relative objective improvement per sweep
# Universal portfolio tile: days x samples of float64, 512 KiB, picked by timing
_TILE_DAYS = 8
_TILE_SAMPLES = 8192


class NoData(PortfolioError):
    """Operation needs at least one trading day."""


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1} (sort-based)."""
    # Shift-invariant; then the largest entry qualifies, even where rounding near 2^53 left none.
    # The threshold is then at least -1, so an entry below -1 gets weight 0: raising those below -2
    # to -2 changes no weight and keeps the running sum finite after a step near the double range.
    v = np.maximum(v - v.max(), -2.0)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _log_wealth(weights: np.ndarray, V: np.ndarray) -> float:
    return float(np.log(V @ weights).sum())


def _rows_in_range(V: np.ndarray) -> np.ndarray:
    """V with each row whose largest relative lies outside [2^-512, 2^512] multiplied by a
    power of two that brings that relative into [1/2, 1); every other row keeps its bits.

    A row's scale shifts the log wealth of every portfolio by the same constant, so the
    best portfolio does not move, and no product ``V @ w`` of the scaled rows overflows.
    """
    top = V.max(axis=1)
    out = (top < GROWTH_MIN) | (top > GROWTH_MAX)
    if not out.any():
        return V
    V = V.copy()
    V[out] = scaled_days(V[out])[0]
    return V


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # past the double range the ascent stops or refuses
def bcrp_solve(X: PriceRelativeMatrix) -> tuple[np.ndarray, float]:
    """Hindsight-optimal constant rebalanced portfolio, an (N,) array, and its log-wealth (natural log).

    Maximizes the concave objective sum_t log(w . x^t) over the simplex by
    projected gradient ascent with backtracking, restarted from the uniform
    point and up to five corners; the best run wins. A day whose largest
    relative lies outside [2^-512, 2^512] is first scaled by an exact power
    of two, which moves no optimum; the log-wealth returned is that of the
    given relatives, infinite where it leaves the double range. A result off
    the simplex is refused, as :func:`core.simplex_refusal` words it.
    """
    if X.days < 1:
        raise NoData("best CRP needs at least one trading day")
    n = X.assets
    if n == 1:
        w = np.ones(1)
        return w, _log_wealth(w, X.values)

    starts = [np.full(n, 1.0 / n)]
    for i in range(min(n, 5)):
        corner = np.zeros(n)
        corner[i] = 1.0
        starts.append(corner)

    best_w, best_f = None, -math.inf
    V = _rows_in_range(X.values)
    for w in starts:
        f = _log_wealth(w, V)
        step = 1.0
        stalled = 0
        for _ in range(_BCRP_MAX_ITER):
            grad = (V / (V @ w)[:, None]).sum(axis=0)
            if not np.isfinite(grad).all():  # on a face, where any step lands on a corner: a start of its own
                break
            # The projection ignores a shift along (1, ..., 1); dropping the
            # gradient's mean keeps the entries it rounds O(1) however far the
            # step has grown, so the weight sum stays within SIMPLEX_TOL.
            grad -= grad.mean()
            improved = False
            while step > 1e-18:
                moved = w + step * grad / X.days
                if np.isfinite(moved).all():  # a step past the double range is shortened
                    cand = _project_to_simplex(moved)
                    f_cand = _log_wealth(cand, V)
                    if f_cand > f:
                        improved = True
                        break
                step *= 0.5
            if not improved:
                break
            gain = f_cand - f
            w, f = cand, f_cand
            step *= 2.0
            stalled = stalled + 1 if gain <= _BCRP_TOL * max(1.0, abs(f)) else 0
            if stalled >= 3:
                break
        if f > best_f:
            best_w, best_f = w, f
    if V is not X.values:
        best_f = _log_wealth(best_w, X.values)
    refused = simplex_refusal(best_w)
    if refused is not None:
        raise refused[1]
    return best_w, best_f


@np.errstate(over="ignore", invalid="ignore")  # inf and nan are refused by the caller's weights check
def eg_step(w: np.ndarray, x, eta: float) -> np.ndarray:
    """Multiplicative weight update: w_i <- w_i * exp(eta * x_i / (w . x)), renormalized.

    Scale-free in x, so a day whose growth w . x leaves [2^-512, 2^512] is first divided by a
    power of two (:func:`core.scaled_days`); eta = 0 leaves w unchanged. Takes and returns an (N,) array.
    """
    if eta < 0:
        raise PortfolioError(f"learning rate must be >= 0, got {eta}")
    w = np.asarray(w, dtype=float)
    row = np.asarray(x, dtype=float)
    if row.shape != w.shape:
        raise DimensionMismatch(f"weights {w.shape} vs row {row.shape}")
    growth = float(np.dot(w, row))
    if not GROWTH_MIN <= growth <= GROWTH_MAX:  # a day at an end of the double range, rescaled
        row = scaled_days(row)[0]
        growth = float(np.dot(w, row))
    boosted = w * np.exp(eta * row / growth)
    return boosted / np.add.reduce(boosted)


def _simplex_draws(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """The next m points uniform on the n-simplex from rng, via normalized exponential spacings.

    Each point reads its own n uniforms in stream order, so drawing m1 then
    m2 points gives the same points, bitwise, as drawing m1 + m2 at once.
    """
    u = rng.random((m, n))
    e = -np.log1p(-u)  # exponential(1) from uniform [0,1)
    return e / e.sum(axis=1, keepdims=True)


def universal_tracks(X: PriceRelativeMatrix, spec: AlgoSpec) -> tuple[np.ndarray, np.ndarray]:
    """Natural-log wealth track and implied weight track of the uniform-prior universal portfolio.

    Returns (log wealth of length T+1, weights of shape (T+1, N)); weights[t] is
    the portfolio going into day t+1. Two assets without costs take the
    exact form; every other input, the Monte Carlo mixture of the universal
    spec's samples CRPs, drawn from its seed.
    """
    if X.assets == 2 and spec.cost is None:
        return _exact_pair_tracks(X)
    return _sampled_tracks(X, spec)


def _exact_pair_tracks(X: PriceRelativeMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The two-asset universal portfolio under the uniform prior, exactly.

    After t days a CRP holding b of asset 1 has wealth sum_k e_k b^k (1-b)^(t-k)
    with every e_k >= 0, so the mixture's wealth is sum_k e_k B(k+1, t-k+1).
    The shares f_k = e_k B(k+1, t-k+1) / wealth sum to 1, the weight on asset 1
    is sum_k f_k (k+1)/(t+2) (on asset 2, sum_k f_k (t+1-k)/(t+2)), and a day
    with relatives (x1, x2) maps the shares to

        f'_k = (x1 k f_{k-1} + x2 (t+1-k) f_k) / ((t+2) s),  k = 0..t+1,

    where s = x1 w1 + x2 w2 is the day's growth, added to the log wealth as
    log s (a day with s outside [2^-512, 2^512] is first divided by a power of
    two, whose log is added back). Every term is positive, so nothing
    cancels. Both weights and the growth are computed so that swapping the
    two columns gives the same wealth and mirrored weights, bit for bit.

    The mirror needs each weight summed in the same order as its twin:
    swapping the columns reverses the shares, so asset 2's terms, held in
    share order, are summed from the last share down (``np.add.reduce`` over
    a reversed view keeps that order), as asset 1's are summed from the
    first share up. The days' growths are kept and turned into the log
    wealth by one ``np.log`` and one running sum after the loop, which add
    in day order as the loop would.
    """
    T = X.days
    ks = np.arange(1.0, T + 2)
    shares, spare = np.zeros(T + 2), np.zeros(T + 2)
    shares[0] = 1.0
    up, down = np.empty(T + 1), np.empty(T + 1)
    log_wealth = np.zeros(T + 1)  # each day's growth s, until the loop ends
    weights = np.empty((T + 1, 2))
    values, add = X.values, np.add.reduce
    shifts = {}  # day -> e, for each day divided by 2^e
    for t in range(T + 1):
        n = t + 1
        u, d = up[:n], down[:n]
        # u[j] = f_j (j+1) moves up to share j+1 with asset 1's relative; d[j] = f_j (t+1-j) stays
        # at share j with asset 2's. Swapping the columns reverses the shares, which turns u into
        # d read backwards, and with it swaps the two weights.
        np.multiply(shares[:n], ks[:n], out=u)
        np.multiply(shares[:n], ks[t::-1], out=d)
        w1, w2 = float(add(u)) / (t + 2), float(add(d[::-1])) / (t + 2)
        weights[t] = w1, w2
        if t == T:
            break
        x1, x2 = values[t].tolist()
        s = x1 * w1 + x2 * w2  # the new shares' sum before scaling
        if not GROWTH_MIN <= s <= GROWTH_MAX:  # a day at an end of the double range, rescaled
            row, e = scaled_days(values[t])
            (x1, x2), shifts[t + 1] = row.tolist(), e.item()
            s = x1 * w1 + x2 * w2
        log_wealth[t + 1] = s
        scale = 1.0 / ((t + 2) * s)
        np.multiply(u, x1 * scale, out=spare[1 : n + 1])
        spare[0] = 0.0
        d *= x2 * scale
        stays = spare[:n]
        np.add(stays, d, out=stays)
        shares, spare = spare, shares
    np.log(log_wealth[1:], out=log_wealth[1:])
    for day, e in shifts.items():
        log_wealth[day] += e * LOG2
    np.cumsum(log_wealth, out=log_wealth)
    return log_wealth, weights


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # the caller refuses a track off the doubles
def _sampled_tracks(X: PriceRelativeMatrix, spec: AlgoSpec) -> tuple[np.ndarray, np.ndarray]:
    """Natural-log wealth track and implied weight track of the sampled universal portfolio.

    Initial wealth is split equally across M uniformly sampled CRPs; each runs
    independently (paying its own rebalancing costs when configured). The
    strategy's wealth is the plain average of the M tracks, and its implied
    portfolio going into day t+1 is the wealth-weighted mean of the sampled
    vectors. Returns (log of the average, of length T+1, weights of shape (T+1, N)).

    Each chunk of _TILE_SAMPLES samples is carried through the days in blocks
    of _TILE_DAYS, adding its CRPs' wealth and wealth-weighted weights into
    one (T+1, N+1) table. Every tile is worked in the same buffers, allocated
    once per call, so no tile allocates memory or faults in fresh pages.
    """
    T, N = X.days, X.assets
    rng = np.random.Generator(np.random.Philox(spec.seed))
    c = spec.cost
    # table[t] = (total wealth, wealth-weighted weights) summed over the CRPs after day t
    table = np.zeros((T + 1, N + 1))
    part = np.empty((_TILE_DAYS, N + 1))
    tiles = np.empty((3, _TILE_DAYS * _TILE_SAMPLES))  # returns then wealth; commission; one asset's term
    for start in range(0, spec.samples, _TILE_SAMPLES):
        W = _simplex_draws(rng, min(_TILE_SAMPLES, spec.samples - start), N)
        m = W.shape[0]
        Wt = np.ascontiguousarray(W.T)
        rate_w = None if c is None else c.rate * Wt
        one_w = np.hstack([np.ones((m, 1)), W])
        table[0] += one_w.sum(axis=0)
        # Contiguous (days, m) views, also for a short last chunk
        tile, charge, term = (a[: _TILE_DAYS * m].reshape(_TILE_DAYS, m) for a in tiles)
        rows = list(tile)
        carry = np.ones(m)
        for t0 in range(0, T, _TILE_DAYS):
            x = X.values[t0 : t0 + _TILE_DAYS]
            days = x.shape[0]
            R = tile[:days]  # R[d, k]: CRP k's return on day t0+d+1, then its wealth after that day
            np.matmul(x, Wt, out=R)
            if c is not None:
                # Post-return allocation drifts to w*x/r; trading back to w costs
                # rate * sum_i |w_i x_i / r - w_i| of the wealth, which times r is
                # rate * sum_i w_i |x_i - r|. No trade follows the last day.
                charged = min(days, T - 1 - t0)
                ch, tm = charge[:charged], term[:charged]
                ch.fill(0.0)
                for i in range(N):
                    np.abs(np.subtract(x[:charged, i, None], R[:charged], out=tm), out=tm)
                    tm *= rate_w[i]
                    ch += tm
                R[:charged] -= ch
            # Running product down the days, one row at a time: a row is contiguous,
            # and np.multiply.accumulate(axis=0) measured several times slower here.
            np.multiply(rows[0], carry, out=rows[0])
            for d in range(1, days):
                np.multiply(rows[d], rows[d - 1], out=rows[d])
            carry[:] = rows[days - 1]  # the next tile's product overwrites the buffer
            np.matmul(R, one_w, out=part[:days])
            table[t0 + 1 : t0 + 1 + days] += part[:days]
    track = table[:, 1:] / table[:, :1]
    return np.log(table[:, 0] / spec.samples), track


def best_stock(X: PriceRelativeMatrix) -> tuple[int, float]:
    """Index and log-wealth (natural log) of the single best asset; ties go to the lowest index."""
    if X.days < 1:
        raise NoData("best stock needs at least one trading day")
    log_wealth = np.log(X.values).sum(axis=0)
    idx = int(np.argmax(log_wealth))
    return idx, float(log_wealth[idx])
