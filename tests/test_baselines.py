import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchfolio.backtest import AlgoSpec, run
from switchfolio.baselines import (
    _TILE_DAYS,
    _TILE_SAMPLES,
    NoData,
    UniversalConfig,
    _simplex_draws,
    bcrp_solve,
    best_stock,
    eg_step,
    sample_simplex,
    universal_tracks,
)
from switchfolio.core import DimensionMismatch, PortfolioError, PortfolioVector, validate_relatives
from switchfolio.costs import CostModel
from switchfolio.market_data import synth_regime_pair, synth_volatility_pair

HALF = PortfolioVector(np.array([0.5, 0.5]))


def crp_wealth(w, X, cost=None):
    """Wealth series of the constant rebalanced portfolio w over X."""
    return run(AlgoSpec("crp", weights=tuple(w.weights), cost=cost), X).wealth


def random_matrix(rng, T, N, spread=(0.25, 4.0)):
    vals = np.exp(rng.uniform(np.log(spread[0]), np.log(spread[1]), size=(T, N)))
    return validate_relatives(vals, [f"a{i}" for i in range(N)])


def ref_universal_tracks(X, config):
    """The sampled universal portfolio one day at a time over all M CRPs: the reference for the tiles."""
    W = sample_simplex(config.samples, X.assets, config.rng_seed)
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
    wealth, track = universal_tracks(X, config)
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
        w = PortfolioVector(np.array([1.0, 0.0]))
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


class TestBcrpSolve:
    def test_dominant_asset_takes_all(self):
        X = validate_relatives([[1.5, 1.0], [1.2, 0.9], [1.1, 0.7]], ["a", "b"])
        w, _ = bcrp_solve(X)
        assert w.weights[0] > 1.0 - 1e-6

    def test_single_asset(self):
        X = validate_relatives([[1.3], [0.8]], ["a"])
        w, lw = bcrp_solve(X)
        assert w.weights.tolist() == [1.0]
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
        assert np.allclose(w.weights, 0.5, atol=1e-4)
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
        assert math.isclose(float(np.log(X.values @ w.weights).sum()), lw, rel_tol=1e-12)
        assert lw >= best_stock(X)[1] - 1e-12
        assert lw >= float(np.log(X.values @ np.full(3, 1 / 3)).sum()) - 1e-12

    def test_acceptance_market_solves(self):
        rng = np.random.default_rng(909)
        X = validate_relatives(
            np.exp(rng.uniform(np.log(0.97), np.log(1.03), size=(5651, 3))), ["a", "b", "c"]
        )
        w, lw = bcrp_solve(X)
        assert abs(w.weights.sum() - 1.0) <= 1e-14
        assert lw >= best_stock(X)[1]


class TestEgStep:
    def test_zero_eta_is_identity(self):
        w = PortfolioVector(np.array([0.3, 0.7]))
        out = eg_step(w, np.array([2.0, 0.5]), 0.0)
        assert np.allclose(out.weights, w.weights, atol=1e-15)

    def test_symmetric_day_keeps_uniform(self):
        w = PortfolioVector(np.array([0.5, 0.5]))
        out = eg_step(w, np.array([1.3, 1.3]), 0.05)
        assert np.allclose(out.weights, 0.5, atol=1e-15)

    def test_hand_evaluated_update(self):
        out = eg_step(HALF, np.array([2.0, 1.0]), 0.05)
        e1, e2 = math.exp(0.05 * 2.0 / 1.5), math.exp(0.05 * 1.0 / 1.5)
        assert math.isclose(out.weights[0], e1 / (e1 + e2), rel_tol=1e-12)
        assert math.isclose(out.weights[0], 0.50833, abs_tol=5e-6)

    def test_scale_invariant(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            w = rng.random(3) + 1e-9
            w = PortfolioVector(w / w.sum())
            x = np.exp(rng.uniform(-1, 1, 3))
            a = eg_step(w, x, 0.07).weights
            b = eg_step(w, 37.0 * x, 0.07).weights
            assert np.allclose(a, b, atol=1e-13)

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(56)
        w = PortfolioVector.uniform(4)
        for _ in range(50):
            w = eg_step(w, np.exp(rng.uniform(-1, 1, 4)), 0.1)
            assert np.all(w.weights >= 0)
            assert math.isclose(float(w.weights.sum()), 1.0, abs_tol=1e-12)


class TestUniversal:
    def test_single_asset_is_buy_and_hold(self):
        X = validate_relatives([[1.2], [0.9], [1.4]], ["a"])
        series = universal_tracks(X, UniversalConfig(samples=7, rng_seed=1))[0]
        assert math.isclose(series[-1], 1.2 * 0.9 * 1.4, rel_tol=1e-12)

    def test_empty_history(self):
        X = validate_relatives([], ["a", "b"])
        assert universal_tracks(X, UniversalConfig(samples=10, rng_seed=0))[0].tolist() == [1.0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(57)
        X = random_matrix(rng, 10, 3)
        cfg = UniversalConfig(samples=500, rng_seed=99)
        a = universal_tracks(X, cfg)[0]
        b = universal_tracks(X, cfg)[0]
        assert np.array_equal(a, b)

    def test_final_wealth_between_sampled_extremes(self):
        rng = np.random.default_rng(58)
        X = random_matrix(rng, 10, 2)
        cfg = UniversalConfig(samples=200, rng_seed=5)
        W = sample_simplex(200, 2, 5)
        finals = np.prod(W @ X.values.T, axis=1)
        u = universal_tracks(X, cfg)[0][-1]
        assert finals.min() - 1e-12 <= u <= finals.max() + 1e-12

    def test_never_beats_bcrp(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            X = random_matrix(rng, 12, 2)
            u = universal_tracks(X, UniversalConfig(samples=2000, rng_seed=3))[0][-1]
            _, lw = bcrp_solve(X)
            assert math.log(u) <= lw + 1e-9

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(60)
        grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        W = np.stack([grid, 1.0 - grid], axis=1)
        for _ in range(3):
            X = random_matrix(rng, int(rng.integers(1, 11)), 2)
            exact = float(np.trapezoid(np.prod(W @ X.values.T, axis=1), grid))
            mc = universal_tracks(X, UniversalConfig(samples=100_000, rng_seed=7))[0][-1]
            assert abs(mc - exact) / exact <= 0.01

    def test_weights_track_is_wealth_weighted_mean(self):
        rng = np.random.default_rng(61)
        X = random_matrix(rng, 6, 2)
        cfg = UniversalConfig(samples=50, rng_seed=11)
        wealth, track = universal_tracks(X, cfg)
        W = sample_simplex(50, 2, 11)
        finals = np.prod(W @ X.values.T, axis=1)
        expected_last = finals @ W / finals.sum()
        assert np.allclose(track[-1], expected_last, atol=1e-12)
        assert math.isclose(wealth[-1], float(finals.mean()), rel_tol=1e-12)

    @pytest.mark.parametrize("T", TILE_HORIZONS)
    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_tiles_match_per_day_reference(self, T, N):
        X = random_matrix(np.random.default_rng(62 + 10 * T + N), T, N)
        for M in TILE_SAMPLES:
            for cost in COST_MODELS:
                assert_matches_reference(X, UniversalConfig(samples=M, rng_seed=T + M, cost=cost))

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
        assert_matches_reference(X, UniversalConfig(samples=M, rng_seed=seed, cost=cost))

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
        wealth, track = universal_tracks(X, UniversalConfig(samples=_TILE_SAMPLES + 5, rng_seed=1, cost=cost))
        kept = wealth.copy(), track.copy()
        Y = random_matrix(np.random.default_rng(6), _TILE_DAYS + 1, 3)
        universal_tracks(Y, UniversalConfig(samples=_TILE_SAMPLES - 3, rng_seed=2, cost=cost))
        assert np.array_equal(wealth, kept[0]) and np.array_equal(track, kept[1])

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(PortfolioError, match="seed must be a non-negative integer"):
            UniversalConfig(samples=10, rng_seed=seed)

    @pytest.mark.parametrize("samples", [2.5, 5.0, "5", None, True, False, np.True_, np.float64(3)])
    def test_sample_count_must_be_an_integer(self, samples):
        with pytest.raises(PortfolioError, match=re.escape(f"sample count must be an integer, got {samples!r}")):
            UniversalConfig(samples=samples)

    @pytest.mark.parametrize("samples", [0, -3, np.int64(0)])
    def test_sample_count_must_be_positive(self, samples):
        with pytest.raises(PortfolioError, match="need at least one sample"):
            UniversalConfig(samples=samples)

    def test_numpy_integer_seed_accepted(self):
        X = validate_relatives([[1.2, 0.9], [0.8, 1.1]], ["a", "b"])
        a = universal_tracks(X, UniversalConfig(samples=20, rng_seed=np.int64(4)))
        b = universal_tracks(X, UniversalConfig(samples=20, rng_seed=4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_numpy_integer_sample_count_accepted(self):
        X = validate_relatives([[1.2, 0.9], [0.8, 1.1]], ["a", "b"])
        a = universal_tracks(X, UniversalConfig(samples=np.int32(20), rng_seed=4))
        b = universal_tracks(X, UniversalConfig(samples=20, rng_seed=4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_sampler_is_uniform_on_simplex(self):
        pts = sample_simplex(20_000, 3, 123)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(pts >= 0)
        # Uniform Dirichlet(1,1,1) has mean 1/3 per coordinate.
        assert np.allclose(pts.mean(axis=0), 1 / 3, atol=0.01)


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
