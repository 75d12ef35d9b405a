import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchfolio import baselines
from switchfolio.backtest import AlgoSpec, compare, comparison_tsv, run
from switchfolio.baselines import (
    _TILE_DAYS,
    _TILE_SAMPLES,
    NoData,
    _exact_pair_tracks,
    _sampled_tracks,
    _simplex_draws,
    bcrp_solve,
    best_stock,
    eg_step,
    universal_tracks,
)
from switchfolio.core import DimensionMismatch, PortfolioError, simplex_refusal, validate_relatives
from switchfolio.costs import CostModel
from switchfolio.market_data import synth_regime_pair, synth_volatility_pair

from reference import sample_simplex

HALF = np.array([0.5, 0.5])


def crp_wealth(w, X, cost=None):
    """Wealth series of the constant rebalanced portfolio w over X."""
    return np.exp(run(AlgoSpec("crp", weights=tuple(w), cost=cost), X).log_wealth)


def random_matrix(rng, T, N, spread=(0.25, 4.0)):
    vals = np.exp(rng.uniform(np.log(spread[0]), np.log(spread[1]), size=(T, N)))
    return validate_relatives(vals, [f"a{i}" for i in range(N)])


def ref_universal_tracks(X, config):
    """The sampled universal portfolio one day at a time over all M CRPs: the reference for the tiles."""
    W = sample_simplex(config.samples, X.assets, config.seed)
    wealth_per_crp = np.ones(config.samples)
    wealth = np.ones(X.days + 1)
    track = np.empty((X.days + 1, X.assets))
    track[0] = wealth_per_crp @ W / wealth_per_crp.sum()
    c = config.cost
    for t in range(1, X.days + 1):
        x = X.values[t - 1]
        r = W @ x
        wealth_per_crp = wealth_per_crp * r
        if c is not None and t < X.days:
            turnover = np.abs(W * (x / r[:, None]) - W).sum(axis=1)
            wealth_per_crp = wealth_per_crp * (1.0 - c.rate * turnover)
        wealth[t] = wealth_per_crp.mean()
        track[t] = wealth_per_crp @ W / wealth_per_crp.sum()
    return wealth, track


def assert_matches_reference(X, config):
    log_wealth, track = _sampled_tracks(X, config)
    wealth = np.exp(log_wealth)
    ref_wealth, ref_track = ref_universal_tracks(X, config)
    assert wealth.shape == ref_wealth.shape and track.shape == ref_track.shape
    assert np.all(np.abs(wealth - ref_wealth) <= 1e-12 * ref_wealth)
    assert np.all(np.abs(track - ref_track) <= 1e-12)


# Horizons and sample counts on either side of one and two tiles. For any power-of-two
# tile of up to 64 days, 63, 64, 65 and 130 end a day short of, on, a day past and two days
# past a tile boundary after one or many tiles.
TILE_HORIZONS = [0, 1, 2, _TILE_DAYS - 1, _TILE_DAYS, _TILE_DAYS + 1, 2 * _TILE_DAYS + 2, 63, 64, 65, 130]
TILE_SAMPLES = [1, 7, _TILE_SAMPLES - 1, _TILE_SAMPLES, _TILE_SAMPLES + 1, 2 * _TILE_SAMPLES + 1]
COST_MODELS = [None, CostModel.per_trade(0.01), CostModel.parallel(0.02)]


class TestCrpRun:
    def test_volatility_pair_growth(self):
        for n in (1, 6, 20):
            series = crp_wealth(HALF, synth_volatility_pair(n))
            assert series[0] == 1.0 and len(series) == 2 * n + 1
            assert math.isclose(series[-1], (9 / 8) ** n, rel_tol=1e-12)

    def test_pure_strategy_ignores_costs(self):
        rng = np.random.default_rng(51)
        X = random_matrix(rng, 15, 2)
        w = np.array([1.0, 0.0])
        expected = float(np.prod(X.values[:, 0]))
        for model in (None, CostModel.per_trade(0.05), CostModel.parallel(0.05)):
            assert math.isclose(crp_wealth(w, X, model)[-1], expected, rel_tol=1e-12)

    def test_regime_pair_decay(self):
        for n in (1, 5):
            series = crp_wealth(HALF, synth_regime_pair(n))
            assert math.isclose(series[-1], (7 / 8) ** (2 * n), rel_tol=1e-12)

    def test_dimension_mismatch(self):
        X = validate_relatives([[1.0, 1.0, 1.0]], ["a", "b", "c"])
        with pytest.raises(DimensionMismatch):
            crp_wealth(HALF, X)

    def test_costs_reduce_wealth(self):
        rng = np.random.default_rng(52)
        X = random_matrix(rng, 20, 2)
        free = crp_wealth(HALF, X)[-1]
        charged = crp_wealth(HALF, X, CostModel.parallel(0.02))[-1]
        assert charged < free


@st.composite
def extreme_markets(draw):
    """1-9 days of 2-4 relatives, each drawn from subnormals up to the top of the double range."""
    T, N = draw(st.integers(1, 9)), draw(st.integers(2, 4))
    values = [5e-324, 1e-320, 1e-310, 1e-200, 1.0, 1e200, 1e300, 1.7e308]
    return np.array(draw(st.lists(st.sampled_from(values), min_size=T * N, max_size=T * N))).reshape(T, N)


class TestBcrpSolve:
    def test_dominant_asset_takes_all(self):
        X = validate_relatives([[1.5, 1.0], [1.2, 0.9], [1.1, 0.7]], ["a", "b"])
        w, _ = bcrp_solve(X)
        assert w[0] > 1.0 - 1e-6

    def test_single_asset(self):
        X = validate_relatives([[1.3], [0.8]], ["a"])
        w, lw = bcrp_solve(X)
        assert w.tolist() == [1.0]
        assert math.isclose(lw, math.log(1.3 * 0.8), rel_tol=1e-12)

    def test_no_data(self):
        with pytest.raises(NoData):
            bcrp_solve(validate_relatives([], ["a"]))

    def test_matches_grid_search(self):
        rng = np.random.default_rng(53)
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
        W = np.stack([grid, 1.0 - grid], axis=1)
        for _ in range(8):
            X = random_matrix(rng, int(rng.integers(1, 51)), 2)
            _, lw = bcrp_solve(X)
            grid_best = float(np.log(W @ X.values.T).sum(axis=1).max())
            assert abs(lw - grid_best) / math.log(2) <= 1e-6
            assert lw >= grid_best - 1e-12

    def test_volatility_pair_optimum_is_even_split(self):
        X = synth_volatility_pair(8)
        w, lw = bcrp_solve(X)
        assert np.allclose(w, 0.5, atol=1e-4)
        assert math.isclose(lw, 8 * math.log(9 / 8), rel_tol=1e-9)

    def test_beats_corners_and_tested_mixes(self):
        rng = np.random.default_rng(54)
        X = random_matrix(rng, 30, 3)
        _, lw = bcrp_solve(X)
        _, best_single = best_stock(X)
        assert lw >= best_single - 1e-9
        for _ in range(20):
            w = rng.random(3) + 1e-9
            w /= w.sum()
            assert lw >= float(np.log(X.values @ w).sum()) - 1e-9

    @pytest.mark.parametrize("seed", [1, 9, 10])
    def test_grown_step_stays_on_simplex(self, seed):
        # Markets on which the doubled step once carried the projection to
        # entries in the thousands and the weight sum drifted past SIMPLEX_TOL.
        rng = np.random.default_rng(seed)
        X = validate_relatives(np.exp(rng.normal(0.0, 0.02, size=(500, 3))), ["a", "b", "c"])
        w, lw = bcrp_solve(X)
        assert math.isclose(float(np.log(X.values @ w).sum()), lw, rel_tol=1e-12)
        assert lw >= best_stock(X)[1] - 1e-12
        assert lw >= float(np.log(X.values @ np.full(3, 1 / 3)).sum()) - 1e-12

    def test_top_of_the_double_range_solves(self):
        # These rows once made the solve refuse its own weights (sum to inf); each is now scaled by a power of two.
        X = validate_relatives([[1e200, 1.0, 1e200, 1e-310], [1.0, 1e-310, 1.0, 1.7e308]], list("abcd"))
        w, lw = bcrp_solve(X)
        assert np.allclose(w, [0.25, 0.0, 0.25, 0.5], atol=1e-6)
        assert lw == float(np.log(X.values @ w).sum())  # of the given relatives

    @settings(max_examples=200, deadline=None)
    @given(values=extreme_markets())
    @example(values=np.array([[1e300, 1.0, 1.7e308]]))  # the ascent's step outgrew the projection's sums
    def test_extreme_relatives_give_a_simplex_point(self, values):
        X = validate_relatives(values, [f"a{i}" for i in range(values.shape[1])])
        w, _ = bcrp_solve(X)  # bcrp_solve refuses a point off the simplex
        assert w.shape == (X.assets,) and simplex_refusal(w) is None

    def test_off_simplex_result_refused(self, monkeypatch):
        # A projection that misses the simplex: its point (sum 1.2) beats the starts and is kept.
        monkeypatch.setattr(baselines, "_project_to_simplex", lambda v: np.full(v.size, 0.6))
        X = validate_relatives([[1.5, 1.0], [1.2, 0.9]], ["a", "b"])
        with pytest.raises(PortfolioError) as exc:
            bcrp_solve(X)
        assert str(exc.value) == "portfolio weights sum to 1.2, not 1 within 1e-12"

    def test_acceptance_market_solves(self):
        rng = np.random.default_rng(909)
        X = validate_relatives(
            np.exp(rng.uniform(np.log(0.97), np.log(1.03), size=(5651, 3))), ["a", "b", "c"]
        )
        w, lw = bcrp_solve(X)
        assert abs(w.sum() - 1.0) <= 1e-14
        assert lw >= best_stock(X)[1]


class TestEgStep:
    def test_zero_eta_is_identity(self):
        w = np.array([0.3, 0.7])
        out = eg_step(w, np.array([2.0, 0.5]), 0.0)
        assert np.allclose(out, w, atol=1e-15)

    def test_symmetric_day_keeps_uniform(self):
        out = eg_step(HALF, np.array([1.3, 1.3]), 0.05)
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_hand_evaluated_update(self):
        out = eg_step(HALF, np.array([2.0, 1.0]), 0.05)
        e1, e2 = math.exp(0.05 * 2.0 / 1.5), math.exp(0.05 * 1.0 / 1.5)
        assert math.isclose(out[0], e1 / (e1 + e2), rel_tol=1e-12)
        assert math.isclose(out[0], 0.50833, abs_tol=5e-6)

    def test_scale_invariant(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            w = rng.random(3) + 1e-9
            w = w / w.sum()
            x = np.exp(rng.uniform(-1, 1, 3))
            a = eg_step(w, x, 0.07)
            b = eg_step(w, 37.0 * x, 0.07)
            assert np.allclose(a, b, atol=1e-13)

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(56)
        w = np.full(4, 0.25)
        for _ in range(50):
            w = eg_step(w, np.exp(rng.uniform(-1, 1, 4)), 0.1)
            assert np.all(w >= 0)
            assert math.isclose(float(w.sum()), 1.0, abs_tol=1e-12)


class TestUniversal:
    def test_single_asset_is_buy_and_hold(self):
        X = validate_relatives([[1.2], [0.9], [1.4]], ["a"])
        series = np.exp(universal_tracks(X, AlgoSpec("universal", samples=7, seed=1))[0])
        assert math.isclose(series[-1], 1.2 * 0.9 * 1.4, rel_tol=1e-12)

    def test_empty_history(self):
        X = validate_relatives([], ["a", "b"])
        assert np.exp(universal_tracks(X, AlgoSpec("universal", samples=10, seed=0))[0]).tolist() == [1.0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(57)
        X = random_matrix(rng, 10, 3)
        cfg = AlgoSpec("universal", samples=500, seed=99)
        a = universal_tracks(X, cfg)[0]
        b = universal_tracks(X, cfg)[0]
        assert np.array_equal(a, b)

    def test_final_wealth_between_sampled_extremes(self):
        rng = np.random.default_rng(58)
        X = random_matrix(rng, 10, 2)
        cfg = AlgoSpec("universal", samples=200, seed=5)
        W = sample_simplex(200, 2, 5)
        finals = np.prod(W @ X.values.T, axis=1)
        u = math.exp(_sampled_tracks(X, cfg)[0][-1])
        assert finals.min() - 1e-12 <= u <= finals.max() + 1e-12

    def test_never_beats_bcrp(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            X = random_matrix(rng, 12, 2)
            log_u = universal_tracks(X, AlgoSpec("universal", samples=2000, seed=3))[0][-1]
            _, lw = bcrp_solve(X)
            assert log_u <= lw + 1e-9

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(60)
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        W = np.stack([grid, 1.0 - grid], axis=1)
        for _ in range(3):
            X = random_matrix(rng, int(rng.integers(1, 11)), 2)
            exact = float(np.trapezoid(np.prod(W @ X.values.T, axis=1), grid))
            mc = math.exp(_sampled_tracks(X, AlgoSpec("universal", samples=100_000, seed=7))[0][-1])
            assert abs(mc - exact) / exact <= 0.01

    def test_weights_track_is_wealth_weighted_mean(self):
        rng = np.random.default_rng(61)
        X = random_matrix(rng, 6, 2)
        cfg = AlgoSpec("universal", samples=50, seed=11)
        log_wealth, track = _sampled_tracks(X, cfg)
        W = sample_simplex(50, 2, 11)
        finals = np.prod(W @ X.values.T, axis=1)
        expected_last = finals @ W / finals.sum()
        assert np.allclose(track[-1], expected_last, atol=1e-12)
        assert math.isclose(math.exp(log_wealth[-1]), float(finals.mean()), rel_tol=1e-12)

    @pytest.mark.parametrize("T", TILE_HORIZONS)
    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_tiles_match_per_day_reference(self, T, N):
        X = random_matrix(np.random.default_rng(62 + 10 * T + N), T, N)
        for M in TILE_SAMPLES:
            for cost in COST_MODELS:
                assert_matches_reference(X, AlgoSpec("universal", samples=M, seed=T + M, cost=cost))

    @settings(max_examples=40, deadline=None)
    @given(
        T=st.integers(0, 2 * _TILE_DAYS + 2),
        N=st.integers(1, 5),
        M=st.integers(1, 2 * _TILE_SAMPLES + 1),
        cost=st.sampled_from(COST_MODELS),
        seed=st.integers(0, 2**32),
        market_seed=st.integers(0, 2**32),
    )
    def test_tiles_match_reference_property(self, T, N, M, cost, seed, market_seed):
        X = random_matrix(np.random.default_rng(market_seed), T, N)
        assert_matches_reference(X, AlgoSpec("universal", samples=M, seed=seed, cost=cost))

    @pytest.mark.parametrize("chunk", [1, 7, 2048, 4096, _TILE_SAMPLES])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_chunked_draws_equal_one_draw(self, chunk, n):
        rng = np.random.Generator(np.random.Philox(17))
        m = 2 * _TILE_SAMPLES + 1
        chunks = [_simplex_draws(rng, min(chunk, m - start), n) for start in range(0, m, chunk)]
        assert np.array_equal(np.concatenate(chunks), sample_simplex(m, n, 17))

    @pytest.mark.parametrize("cost", COST_MODELS)
    def test_results_survive_a_later_call(self, cost):
        # The tile buffer is per call: a second call of another shape leaves the first's arrays alone.
        X = random_matrix(np.random.default_rng(5), 2 * _TILE_DAYS + 3, 3)
        wealth, track = universal_tracks(X, AlgoSpec("universal", samples=_TILE_SAMPLES + 5, seed=1, cost=cost))
        kept = wealth.copy(), track.copy()
        Y = random_matrix(np.random.default_rng(6), _TILE_DAYS + 1, 3)
        universal_tracks(Y, AlgoSpec("universal", samples=_TILE_SAMPLES - 3, seed=2, cost=cost))
        assert np.array_equal(wealth, kept[0]) and np.array_equal(track, kept[1])

    def test_numpy_integer_seed_accepted(self):
        X = validate_relatives([[1.2, 0.9], [0.8, 1.1]], ["a", "b"])
        a = _sampled_tracks(X, AlgoSpec("universal", samples=20, seed=np.int64(4)))
        b = _sampled_tracks(X, AlgoSpec("universal", samples=20, seed=4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_numpy_integer_sample_count_accepted(self):
        X = validate_relatives([[1.2, 0.9], [0.8, 1.1]], ["a", "b"])
        a = _sampled_tracks(X, AlgoSpec("universal", samples=np.int32(20), seed=4))
        b = _sampled_tracks(X, AlgoSpec("universal", samples=20, seed=4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_sampler_is_uniform_on_simplex(self):
        pts = sample_simplex(20_000, 3, 123)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(pts >= 0)
        # Uniform Dirichlet(1,1,1) has mean 1/3 per coordinate.
        assert np.allclose(pts.mean(axis=0), 1 / 3, atol=0.01)


def fraction_universal(X):
    """Wealth and asset-1 weight of the two-asset uniform-prior universal portfolio after each day, as rationals.

    Float relatives are exact rationals. A CRP holding b of asset 1 earns sum_k e_k b^k (1-b)^(t-k)
    after t days, and the uniform prior integrates b^k (1-b)^(t-k) to k! (t-k)! / (t+1)!.
    """

    def beta(i, j):
        return Fraction(math.factorial(i) * math.factorial(j), math.factorial(i + j + 1))

    coef = [Fraction(1)]
    wealth, first = [], []
    for t in range(X.days + 1):
        if t:
            x1, x2 = map(Fraction, X.values[t - 1].tolist())
            coef = [x1 * lower + x2 * same for lower, same in zip([0, *coef], [*coef, 0])]
        w = sum(c * beta(k, t - k) for k, c in enumerate(coef))
        wealth.append(w)
        first.append(sum(c * beta(k + 1, t - k) for k, c in enumerate(coef)) / w)
    return wealth, first


def pair_market(T, flat):
    return validate_relatives(np.array(flat, dtype=float).reshape(T, 2), ["a", "b"])


@st.composite
def pair_markets(draw, max_days):
    T = draw(st.integers(0, max_days))
    flat = draw(st.lists(st.floats(0.25, 4.0), min_size=2 * T, max_size=2 * T))
    return pair_market(T, flat)


class TestExactPair:
    @settings(max_examples=60, deadline=None)
    @given(X=pair_markets(8))
    def test_matches_rational_arithmetic(self, X):
        log_wealth, track = _exact_pair_tracks(X)
        wealth = np.exp(log_wealth)
        ref_wealth, ref_first = fraction_universal(X)
        assert wealth.shape == (X.days + 1,) and track.shape == (X.days + 1, 2)
        for got, want in [*zip(wealth, ref_wealth), *zip(track[:, 0], ref_first),
                          *zip(track[:, 1], (1 - f for f in ref_first))]:
            assert abs(Fraction(float(got)) - want) <= Fraction(1, 10**13) * want

    def test_no_trading_day(self):
        log_wealth, track = _exact_pair_tracks(validate_relatives([], ["a", "b"]))
        assert np.exp(log_wealth).tolist() == [1.0] and track.tolist() == [[0.5, 0.5]]

    def test_one_trading_day(self):
        log_wealth, track = _exact_pair_tracks(pair_market(1, [3.0, 0.5]))
        wealth = np.exp(log_wealth)
        assert wealth[0] == 1.0 and math.isclose(wealth[1], 1.75, rel_tol=1e-15)
        assert track[0].tolist() == [0.5, 0.5]
        # Posterior mean of b, with density proportional to 3b + 0.5(1 - b): (0.5 + 2 * 3) / (3 * 3.5)
        assert math.isclose(track[1, 0], 6.5 / 10.5, rel_tol=1e-15)
        assert math.isclose(track[1, 1], 4.0 / 10.5, rel_tol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(X=pair_markets(60))
    def test_swapped_columns_mirror_bitwise(self, X):
        wealth, track = _exact_pair_tracks(X)
        swapped = validate_relatives(X.values[:, ::-1], ["b", "a"])
        wealth_s, track_s = _exact_pair_tracks(swapped)
        assert np.array_equal(wealth, wealth_s)
        assert np.array_equal(track, track_s[:, ::-1])

    def test_universal_dispatch(self):
        X = random_matrix(np.random.default_rng(64), 40, 2)
        exact = _exact_pair_tracks(X)
        for samples, seed in [(1, 0), (500, 3), (20_000, 11)]:
            got = universal_tracks(X, AlgoSpec("universal", samples=samples, seed=seed))
            assert np.array_equal(got[0], exact[0]) and np.array_equal(got[1], exact[1])
        cfg = AlgoSpec("universal", samples=500, seed=3, cost=CostModel.per_trade(0.01))
        costed, sampled = universal_tracks(X, cfg), _sampled_tracks(X, cfg)
        assert np.array_equal(costed[0], sampled[0]) and np.array_equal(costed[1], sampled[1])

    def test_compare_ignores_samples_and_seed(self):
        X = random_matrix(np.random.default_rng(65), 300, 2)

        def figures(samples, seed):
            rows = comparison_tsv(compare([AlgoSpec("universal", samples=samples, seed=seed)], X))
            return [line.split("\t")[::2] for line in rows.splitlines()]

        assert figures(10, 0) == figures(100_000, 0) == figures(1000, 7)

    def test_sampled_error_shrinks_like_inverse_root_samples(self):
        # Each sampled estimate lies within four standard errors of the exact form, so
        # its error falls like 1/sqrt(M); across fixed seeds, 100x the samples cut it well over 3x.
        X = random_matrix(np.random.default_rng(63), 8, 2)
        exact = math.exp(_exact_pair_tracks(X)[0][-1])
        errors = {1000: [], 100_000: []}
        for seed in range(5):
            for M, errs in errors.items():
                mc = math.exp(_sampled_tracks(X, AlgoSpec("universal", samples=M, seed=seed))[0][-1])
                finals = np.prod(sample_simplex(M, 2, seed) @ X.values.T, axis=1)
                assert abs(mc - exact) <= 4 * finals.std() / math.sqrt(M)
                errs.append(abs(mc - exact))
        assert np.mean(errors[100_000]) * 3 <= np.mean(errors[1000])


def ref_exact_pair_tracks(X):
    """The exact two-asset universal portfolio in plain per-day steps: each weight a ``sum()`` of its
    terms in share order (asset 2's from a reversed copy of the shares), each day's ``np.log`` added
    to the running log wealth as the day ends. The reference for the kernel's bits."""
    T = X.days
    ks = np.arange(1.0, T + 2)
    shares = np.zeros(T + 2)
    shares[0] = 1.0
    log_wealth = np.zeros(T + 1)
    weights = np.empty((T + 1, 2))
    for t in range(T + 1):
        n = t + 1
        u = shares[:n] * ks[:n]
        d = shares[n - 1 :: -1] * ks[:n]
        w1, w2 = u.sum() / (t + 2), d.sum() / (t + 2)
        weights[t] = w1, w2
        if t == T:
            break
        x1, x2 = X.values[t]
        s = x1 * w1 + x2 * w2
        log_wealth[t + 1] = log_wealth[t] + np.log(s)
        scale = 1.0 / ((t + 2) * s)
        new = np.zeros(T + 2)
        new[1 : n + 1] = u * (x1 * scale)
        new[n - 1 :: -1] += d * (x2 * scale)
        shares = new
    return log_wealth, weights


def ref_eg_weights(X, eta):
    """EG's weight track one day at a time, each day from the row before it with ``w @ x`` and ``sum()``."""
    weights = np.empty((X.days + 1, X.assets))
    weights[0] = 1.0 / X.assets
    for t in range(1, X.days + 1):
        w, x = weights[t - 1], X.values[t - 1]
        boosted = w * np.exp(eta * x / float(w @ x))
        weights[t] = boosted / boosted.sum()
    return weights


class TestKernelsMatchPerDayReference:
    """The day loops keep every bit of the plain per-day formulas."""

    @settings(max_examples=60, deadline=None)
    @given(X=pair_markets(60))
    def test_exact_pair_and_its_mirror(self, X):
        swapped = validate_relatives(X.values[:, ::-1], ["b", "a"])
        for market in (X, swapped):
            wealth, track = _exact_pair_tracks(market)
            ref_wealth, ref_track = ref_exact_pair_tracks(market)
            assert np.array_equal(wealth, ref_wealth) and np.array_equal(track, ref_track)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), T=st.integers(0, 60), N=st.sampled_from([2, 3]), eta=st.floats(0.0, 2.0))
    def test_eg(self, data, T, N, eta):
        flat = data.draw(st.lists(st.floats(0.25, 4.0), min_size=T * N, max_size=T * N))
        X = validate_relatives(np.array(flat, dtype=float).reshape(T, N), [f"a{i}" for i in range(N)])
        assert np.array_equal(run(AlgoSpec("eg", eta=eta), X).weights, ref_eg_weights(X, eta))


class TestBestStock:
    def test_volatility_pair_ties_to_first(self):
        idx, log_final = best_stock(synth_volatility_pair(6))
        assert idx == 0
        assert math.isclose(log_final, 0.0, abs_tol=1e-12)

    def test_dominant_asset(self):
        X = validate_relatives([[1.0, 2.0], [1.0, 1.5]], ["a", "b"])
        idx, log_final = best_stock(X)
        assert idx == 1 and math.isclose(log_final, math.log(3.0), abs_tol=1e-12)

    def test_mirror_tie_takes_lowest_index(self):
        X = validate_relatives([[2.0, 0.5], [0.5, 2.0]], ["a", "b"])
        idx, log_final = best_stock(X)
        assert idx == 0 and math.isclose(log_final, 0.0, abs_tol=1e-12)

    def test_no_data(self):
        with pytest.raises(NoData):
            best_stock(validate_relatives([], ["a"]))
