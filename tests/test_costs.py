import math

import numpy as np
import pytest

from switchfolio.core import DimensionMismatch, PortfolioError, RegimeSpec, validate_relatives
from switchfolio.costs import (
    CostModel,
    NegativeAllocation,
    realized_wealth_track,
    switch_factor,
)
from switchfolio.switching import _fixed_mass, fixed_init, fixed_step

from reference import log_regime_wealth, rebalance_cost


def random_matrix(rng, T, N):
    vals = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=(T, N)))
    return validate_relatives(vals, [f"a{i}" for i in range(N)])


class TestCostModel:
    def test_rate_bounds(self):
        CostModel.per_trade(0.0)
        CostModel.parallel(0.499)
        with pytest.raises(PortfolioError):
            CostModel.parallel(0.5)
        with pytest.raises(PortfolioError):
            CostModel.per_trade(-0.01)

    def test_unknown_kind(self):
        with pytest.raises(PortfolioError):
            CostModel("flat-fee", 0.01)


class TestSwitchFactor:
    def test_values(self):
        assert switch_factor(None) == 1.0
        assert math.isclose(switch_factor(CostModel.per_trade(0.02)), 0.9604, rel_tol=1e-15)
        assert math.isclose(switch_factor(CostModel.parallel(0.05)), 0.90, rel_tol=1e-15)


class TestRebalanceCost:
    def test_identical_allocations_free(self):
        a = np.array([0.3, 0.7])
        for model in (None, CostModel.per_trade(0.1), CostModel.parallel(0.1)):
            assert rebalance_cost(model, a, a) == 0.0

    def test_full_switch_parallel(self):
        c = rebalance_cost(CostModel.parallel(0.02), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert math.isclose(c, 0.04, rel_tol=1e-15)

    def test_netted_per_trade(self):
        c = rebalance_cost(
            CostModel.per_trade(0.01), np.array([0.6, 0.4]), np.array([0.5, 0.5])
        )
        assert math.isclose(c, 0.002, rel_tol=1e-12)

    def test_negative_allocation_rejected(self):
        with pytest.raises(NegativeAllocation):
            rebalance_cost(CostModel.parallel(0.1), np.array([-0.1, 1.1]), np.array([0.5, 0.5]))

    def test_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = rng.random(4), rng.random(4)
            for model in (CostModel.per_trade(0.03), CostModel.parallel(0.03)):
                assert rebalance_cost(model, a, b) == rebalance_cost(model, b, a)

    def test_zero_iff_identical(self):
        a = np.array([0.5, 0.5])
        b = np.array([0.5 + 1e-9, 0.5 - 1e-9])
        assert rebalance_cost(CostModel.parallel(0.1), a, b) > 0


def looped_wealth_track(W, X, model):
    """Reference: hold, apply the day's returns, reshape and charge, one day at a time."""
    wealth = np.ones(X.days + 1)
    holdings = W[0].copy() if X.days else None
    for t in range(1, X.days + 1):
        post = holdings * X.values[t - 1]
        total = float(post.sum())
        if t < X.days:
            total -= rebalance_cost(model, post, W[t] * total)
            holdings = W[t] * total
        wealth[t] = total
    return wealth


class TestRealizedWealthTrack:
    @pytest.mark.parametrize("model", [None, CostModel.per_trade(0.01), CostModel.parallel(0.3)])
    @pytest.mark.parametrize("T", [0, 1, 2, 500])
    def test_matches_day_by_day_loop(self, T, model):
        rng = np.random.default_rng(31 + T)
        X = random_matrix(rng, T, 4)
        schedule = rng.random((T, 4)) ** 3
        schedule /= schedule.sum(axis=1, keepdims=True)
        expected = looped_wealth_track(schedule, X, model)
        np.testing.assert_allclose(np.exp(realized_wealth_track(schedule, X, model)), expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model", [None, CostModel.parallel(0.1)])
    def test_negative_schedule_rejected(self, model):
        X = validate_relatives([[1.1, 0.9], [1.0, 1.2]], ["a", "b"])
        with pytest.raises(NegativeAllocation):
            realized_wealth_track(np.array([[0.5, 0.5], [1.5, -0.5]]), X, model)

    def test_pure_strategy_carries_no_cost(self):
        rng = np.random.default_rng(32)
        X = random_matrix(rng, 10, 3)
        schedule = np.zeros((10, 3))
        schedule[:, 1] = 1.0
        for model in (None, CostModel.per_trade(0.05), CostModel.parallel(0.05)):
            track = realized_wealth_track(schedule, X, model)
            assert math.isclose(math.exp(track[-1]), float(np.prod(X.values[:, 1])), rel_tol=1e-12)

    def test_zero_rate_matches_cost_free(self):
        rng = np.random.default_rng(33)
        X = random_matrix(rng, 8, 2)
        schedule = rng.random((8, 2)) + 1e-9
        schedule /= schedule.sum(axis=1, keepdims=True)
        free = np.exp(realized_wealth_track(schedule, X, None))
        zero = np.exp(realized_wealth_track(schedule, X, CostModel.parallel(0.0)))
        assert np.allclose(free, zero, rtol=1e-15)

    def test_nonincreasing_in_rate_pointwise(self):
        rng = np.random.default_rng(34)
        X = random_matrix(rng, 12, 2)
        schedule = rng.random((12, 2)) + 1e-9
        schedule /= schedule.sum(axis=1, keepdims=True)
        for build in (CostModel.per_trade, CostModel.parallel):
            prev = np.exp(realized_wealth_track(schedule, X, None))
            for c in (0.01, 0.05, 0.2):
                cur = np.exp(realized_wealth_track(schedule, X, build(c)))
                assert np.all(cur <= prev + 1e-15)
                prev = cur

    def test_pure_regime_matches_parallel_switch_charges(self):
        # Literally executing a pure-strategy switching schedule costs exactly
        # (1 - 2c) per switch under the parallel model.
        rng = np.random.default_rng(35)
        X = random_matrix(rng, 9, 2)
        regime = RegimeSpec((3, 7), (0, 1, 0))
        schedule = np.zeros((9, 2))
        schedule[:3, 0] = 1.0
        schedule[3:7, 1] = 1.0
        schedule[7:, 0] = 1.0
        model = CostModel.parallel(0.04)
        track = realized_wealth_track(schedule, X, model)
        expected = log_regime_wealth(regime, X, model)
        assert math.isclose(track[-1], expected, abs_tol=1e-12)

    def test_netted_at_most_gross_bucket_flow(self):
        # The fixed-gamma bookkeeping sells gamma of every asset and buys the
        # redistribution back; netting can only shrink the traded amount.
        rng = np.random.default_rng(36)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            g = float(rng.uniform(0.05, (n - 1) / n))
            shares = rng.random(n) + 1e-9
            shares /= shares.sum()
            state = fixed_init(n, g)
            fixed_step(state, shares)  # from uniform shares, a day's relatives become its shares
            post_trade = _fixed_mass(state)
            netted = float(np.abs(post_trade - state.shares).sum())
            gross = 2.0 * g  # every asset sheds gamma, same mass is re-bought
            assert netted <= gross + 1e-15

    def test_schedule_shape_must_match_market(self):
        X = validate_relatives([[1.1, 0.9], [1.0, 1.2]], ["a", "b"])
        for shape in ((1, 2), (2, 3), (4,)):
            with pytest.raises(DimensionMismatch):
                realized_wealth_track(np.full(shape, 0.5), X, None)

    def test_empty_history(self):
        X = validate_relatives([], ["a", "b"])
        track = realized_wealth_track(np.zeros((0, 2)), X, CostModel.parallel(0.1))
        assert np.exp(track).tolist() == [1.0]
