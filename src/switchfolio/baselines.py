"""Comparison strategies: CRP, hindsight-best CRP, multiplicative-update (EG),
sampled universal portfolio, and the best single stock.

A constant rebalanced portfolio (CRP) restores the same weight vector every
day, which costs real money under commissions: with a cost model, each day's
drifted allocation is traded back to the target and the netted commission
deducted: ``backtest.run`` runs one through costs.realized_wealth_track.

The universal portfolio is approximated by Monte Carlo: M weight vectors
drawn uniformly from the simplex, each run as its own CRP (paying its own
rebalancing costs when a model is active), with the strategy's wealth the
plain average of the M wealth tracks. Sampling uses a counter-based generator
(Philox) so a (seed, M) pair reproduces bit-identically across platforms.
The M CRPs run in tiles of days x samples, 512 KiB each, that reuse one
buffer allocated per call: no tile allocates or faults in fresh pages.
Samples are drawn a chunk at a time from the one stream, so they are the same
points, bitwise, as one draw of all M, and the full M x N sample matrix is
never held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    PortfolioError,
    PortfolioVector,
    PriceRelativeMatrix,
)
from .costs import CostModel

_BCRP_MAX_ITER = 20_000
_BCRP_TOL = 1e-12  # relative objective improvement per sweep
# Universal portfolio tile: days x samples of float64, 512 KiB, picked by timing
_TILE_DAYS = 8
_TILE_SAMPLES = 8192


class NoData(PortfolioError):
    """Operation needs at least one trading day."""


@dataclass(frozen=True)
class UniversalConfig:
    """Monte Carlo settings for the sampled universal portfolio."""

    samples: int
    rng_seed: int = 0
    cost: CostModel | None = None

    def __post_init__(self):
        if not _is_integer(self.samples):
            raise PortfolioError(f"sample count must be an integer, got {self.samples!r}")
        if self.samples < 1:
            raise PortfolioError(f"need at least one sample, got {self.samples}")
        if not _is_integer(self.rng_seed) or self.rng_seed < 0:
            raise PortfolioError(f"seed must be a non-negative integer, got {self.rng_seed!r}")


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is refused, though Python counts it as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _log_wealth(weights: np.ndarray, X: PriceRelativeMatrix) -> float:
    return float(np.log(X.values @ weights).sum())


def bcrp_solve(X: PriceRelativeMatrix) -> tuple[PortfolioVector, float]:
    """Hindsight-optimal constant rebalanced portfolio and its log-wealth (natural log).

    Maximizes the concave objective sum_t log(w . x^t) over the simplex by
    projected gradient ascent with backtracking, restarted from the uniform
    point and up to five corners; the best run wins.
    """
    if X.days < 1:
        raise NoData("best CRP needs at least one trading day")
    n = X.assets
    if n == 1:
        w = np.ones(1)
        return PortfolioVector(w), _log_wealth(w, X)

    starts = [np.full(n, 1.0 / n)]
    for i in range(min(n, 5)):
        corner = np.zeros(n)
        corner[i] = 1.0
        starts.append(corner)

    best_w, best_f = None, -math.inf
    V = X.values
    for w in starts:
        f = _log_wealth(w, X)
        step = 1.0
        stalled = 0
        for _ in range(_BCRP_MAX_ITER):
            grad = (V / (V @ w)[:, None]).sum(axis=0)
            # The projection ignores a shift along (1, ..., 1); dropping the
            # gradient's mean keeps the entries it rounds O(1) however far the
            # step has grown, so the weight sum stays within SIMPLEX_TOL.
            grad -= grad.mean()
            improved = False
            while step > 1e-18:
                cand = _project_to_simplex(w + step * grad / X.days)
                f_cand = _log_wealth(cand, X)
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
    return PortfolioVector(best_w), best_f


def eg_step(w: PortfolioVector, x, eta: float) -> PortfolioVector:
    """Multiplicative weight update: w_i <- w_i * exp(eta * x_i / (w . x)), renormalized.

    Scale-free in x; eta = 0 leaves w unchanged.
    """
    if eta < 0:
        raise PortfolioError(f"learning rate must be >= 0, got {eta}")
    row = np.asarray(x, dtype=float)
    weights = w.weights
    if row.shape != weights.shape:
        raise DimensionMismatch(f"weights {weights.shape} vs row {row.shape}")
    boosted = weights * np.exp(eta * row / float(weights @ row))
    return PortfolioVector(boosted / boosted.sum())


def _simplex_draws(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """The next m points uniform on the n-simplex from rng, via normalized exponential spacings.

    Each point reads its own n uniforms in stream order, so drawing m1 then
    m2 points gives the same points, bitwise, as drawing m1 + m2 at once.
    """
    u = rng.random((m, n))
    e = -np.log1p(-u)  # exponential(1) from uniform [0,1)
    return e / e.sum(axis=1, keepdims=True)


def sample_simplex(m: int, n: int, seed: int) -> np.ndarray:
    """m points uniform on the n-simplex from a Philox stream seeded with seed."""
    return _simplex_draws(np.random.Generator(np.random.Philox(seed)), m, n)


@np.errstate(over="ignore", invalid="ignore")  # inf and nan are refused by the caller's finiteness check
def universal_tracks(
    X: PriceRelativeMatrix, config: UniversalConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Wealth series and implied weight track of the sampled universal portfolio.

    Initial wealth is split equally across M uniformly sampled CRPs; each runs
    independently (paying its own rebalancing costs when configured). The
    strategy's wealth is the plain average of the M tracks, and its implied
    portfolio going into day t+1 is the wealth-weighted mean of the sampled
    vectors. Returns (wealth of length T+1, weights of shape (T+1, N)).

    Each chunk of _TILE_SAMPLES samples is carried through the days in blocks
    of _TILE_DAYS, adding its CRPs' wealth and wealth-weighted weights into
    one (T+1, N+1) table. Every tile is worked in the same buffers, allocated
    once per call, so no tile allocates memory or faults in fresh pages.
    """
    T, N = X.days, X.assets
    rng = np.random.Generator(np.random.Philox(config.rng_seed))
    c = config.cost
    # table[t] = (total wealth, wealth-weighted weights) summed over the CRPs after day t
    table = np.zeros((T + 1, N + 1))
    part = np.empty((_TILE_DAYS, N + 1))
    tiles = np.empty((3, _TILE_DAYS * _TILE_SAMPLES))  # returns then wealth; commission; one asset's term
    for start in range(0, config.samples, _TILE_SAMPLES):
        W = _simplex_draws(rng, min(_TILE_SAMPLES, config.samples - start), N)
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
    wealth = table[:, 0] / config.samples
    track = table[:, 1:] / table[:, :1]
    return wealth, track


def best_stock(X: PriceRelativeMatrix) -> tuple[int, float]:
    """Index and log-wealth (natural log) of the single best asset; ties go to the lowest index."""
    if X.days < 1:
        raise NoData("best stock needs at least one trading day")
    log_wealth = np.log(X.values).sum(axis=0)
    idx = int(np.argmax(log_wealth))
    return idx, float(log_wealth[idx])
