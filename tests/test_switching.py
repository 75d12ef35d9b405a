import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from switchfolio.backtest import AlgoSpec, run
from switchfolio.core import DimensionMismatch, PortfolioError, validate_relatives
from switchfolio.costs import CostModel, switch_factor
from switchfolio.regimes import AdaptivePrior, FixedGammaPrior, adaptive_prior_terms, mixture_oracle
from switchfolio.switching import (
    GammaOutOfRange,
    TooFewAssets,
    adaptive_init,
    adaptive_step,
    adaptive_weights,
    fixed_init,
    fixed_step,
    fixed_weights,
)


def random_matrix(rng, T, N):
    vals = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(T, N)))
    return validate_relatives(vals, [f"a{i}" for i in range(N)])


class TestFixedInit:
    def test_uniform_split(self):
        st = fixed_init(2, 1 / 3)
        assert np.allclose(st.shares * math.exp(st.log_wealth), [0.5, 0.5])
        assert st.day == 0 and st.log_wealth == 0.0

    def test_four_assets(self):
        st = fixed_init(4, 0.1)
        assert np.allclose(st.shares * math.exp(st.log_wealth), 0.25)

    def test_gamma_above_cap_rejected(self):
        with pytest.raises(GammaOutOfRange):
            fixed_init(2, 0.6)  # cap is (N-1)/N = 0.5

    def test_gamma_at_cap_allowed(self):
        fixed_init(2, 0.5)
        fixed_init(3, 2 / 3)

    def test_too_few_assets(self):
        with pytest.raises(TooFewAssets):
            fixed_init(1, 0.1)


class TestFixedStep:
    def test_hand_evaluated_day(self):
        st = fixed_init(2, 1 / 3)
        fixed_step(st, np.array([2.0, 1.0]))
        assert np.allclose(st.shares * math.exp(st.log_wealth), [1.0, 0.5], rtol=1e-15)
        assert math.isclose(st.log_wealth, math.log(1.5), abs_tol=1e-15)
        assert st.day == 1

    def test_no_switch_limit_is_buy_and_hold(self):
        st = fixed_init(2, 1e-9)
        x1, x2 = np.array([2.0, 0.5]), np.array([0.4, 3.0])
        fixed_step(st, x1)
        fixed_step(st, x2)
        hold = 0.5 * x1 * x2
        assert np.allclose(st.shares * math.exp(st.log_wealth), hold, rtol=1e-8)

    def test_per_trade_cost_hits_switched_mass_only(self):
        # Mid-run state with even shares (a flat first day): switched-in mass
        # (gamma/(N-1)) * 0.5 is scaled by (1-c)^2 = 0.9801, the stay mass is untouched.
        g = 1 / 3
        st = fixed_init(2, g, CostModel.per_trade(0.01))
        fixed_step(st, np.array([1.0, 1.0]))
        fixed_step(st, np.array([1.0, 1.0]))
        per_asset = (1 - g) * 0.5 + 0.9801 * g * 0.5
        assert np.allclose(st.shares * math.exp(st.log_wealth), per_asset, rtol=1e-15)
        assert math.isclose(st.log_wealth, math.log((1 - g) + 0.9801 * g), abs_tol=1e-15)

    def test_first_day_purchase_never_charged(self):
        for cost in (CostModel.per_trade(0.05), CostModel.parallel(0.1)):
            st = fixed_init(2, 1 / 3, cost)
            fixed_step(st, np.array([2.0, 1.0]))
            assert math.isclose(st.log_wealth, math.log(1.5), abs_tol=1e-15)

    def test_dimension_mismatch(self):
        st = fixed_init(2, 1 / 3)
        with pytest.raises(DimensionMismatch):
            fixed_step(st, np.array([1.0, 2.0, 3.0]))


class TestFixedWeights:
    def test_uniform_is_fixed_point(self):
        for n, g in [(2, 1 / 3), (3, 0.2), (5, 0.7)]:
            st = fixed_init(n, g)
            assert np.allclose(fixed_weights(st), 1.0 / n, atol=1e-15)

    def test_hand_evaluated_map(self):
        st = fixed_init(2, 1 / 3)
        fixed_step(st, np.array([1.0, 0.0]))  # the state kernel takes the zero: shares (1, 0)
        assert np.allclose(fixed_weights(st), [2 / 3, 1 / 3], rtol=1e-15)

    def test_sums_to_one_on_random_shares(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            g = float(rng.uniform(1e-6, (n - 1) / n))
            shares = rng.random(n) + 1e-12
            st = fixed_init(n, g)
            fixed_step(st, shares)  # from uniform shares, a day's relatives become its shares
            w = fixed_weights(st)
            assert np.all(w >= 0) and math.isclose(w.sum(), 1.0, abs_tol=1e-12)

    def test_matches_step_then_renormalize(self):
        # Applying the share map then per-asset returns then renormalizing
        # equals stepping the state and reading its shares.
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            g = float(rng.uniform(1e-4, (n - 1) / n))
            shares = rng.random(n) + 1e-9
            shares /= shares.sum()
            x = np.exp(rng.uniform(-1, 1, n))
            st = fixed_init(n, g)
            fixed_step(st, shares)
            mapped = fixed_weights(st) * x
            mapped /= mapped.sum()
            fixed_step(st, x)
            assert np.allclose(st.shares, mapped, atol=1e-12)


class TestAdaptiveInit:
    def test_first_step_seeds_buckets(self):
        st = adaptive_init(2, 1)
        adaptive_step(st, np.array([2.0, 1.0]))
        assert np.allclose(st.bucket_view() * math.exp(st.log_wealth), [[1.0], [0.5]], rtol=1e-15)

    def test_fresh_state_has_unit_wealth(self):
        st = adaptive_init(3, 5)
        assert st.log_wealth == 0.0 and st.day == 0

    def test_too_few_assets(self):
        with pytest.raises(TooFewAssets):
            adaptive_init(1, 5)


class TestAdaptiveStep:
    def test_single_bucket_stay_factor(self):
        # A bucket born on day 1, stepped at t=1, keeps (0+1/2)/(0+1) = 1/2.
        st = adaptive_init(2, 2)
        adaptive_step(st, np.array([1.0, 1.0]))
        adaptive_step(st, np.array([1.0, 1.0]))
        B = st.bucket_view() * math.exp(st.log_wealth)
        assert math.isclose(B[0, 0], 0.25, rel_tol=1e-15)  # 0.5 * 1/2

    def test_hand_evaluated_second_day(self):
        st = adaptive_init(2, 2)
        adaptive_step(st, np.array([2.0, 1.0]))
        adaptive_step(st, np.array([1.0, 1.0]))
        B = st.bucket_view() * math.exp(st.log_wealth)
        assert np.allclose(B, [[0.5, 0.25], [0.25, 0.5]], rtol=1e-14)
        assert math.isclose(st.log_wealth, math.log(1.5), abs_tol=1e-14)

    def test_parallel_cost_scales_new_buckets(self):
        st = adaptive_init(2, 2, CostModel.parallel(0.05))  # the first day's purchase is never charged
        adaptive_step(st, np.array([2.0, 1.0]))
        adaptive_step(st, np.array([1.0, 1.0]))
        B = st.bucket_view() * math.exp(st.log_wealth)
        assert np.allclose(B[:, 0], [0.5, 0.25], rtol=1e-14)  # stay buckets untouched
        assert np.allclose(B[:, 1], [0.9 * 0.25, 0.9 * 0.5], rtol=1e-14)

    def test_bucket_count_grows_by_n(self):
        st = adaptive_init(3, 7)
        rng = np.random.default_rng(10)
        for t in range(1, 8):
            adaptive_step(st, np.exp(rng.uniform(-0.5, 0.5, 3)))
            B = st.bucket_view()
            assert B.shape == (3, t)
            assert np.all(B > 0)

    def test_dimension_mismatch(self):
        st = adaptive_init(2, 1)
        with pytest.raises(DimensionMismatch):
            adaptive_step(st, np.array([1.0]))


class TestAdaptiveWeights:
    def test_uniform_after_symmetric_day(self):
        st = adaptive_init(2, 1)
        adaptive_step(st, np.array([1.0, 1.0]))
        assert np.allclose(adaptive_weights(st), 0.5, atol=1e-15)

    def test_hand_evaluated_masses(self):
        # Buckets (1.0, 0.5) at t=1: asset 1 keeps 0.5 and receives 0.25.
        st = adaptive_init(2, 1)
        adaptive_step(st, np.array([2.0, 1.0]))
        assert np.allclose(adaptive_weights(st), [0.5, 0.5], rtol=1e-14)

    def test_simplex_on_random_histories(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            days = int(rng.integers(1, 9))
            st = adaptive_init(n, days)
            for _ in range(days):
                adaptive_step(st, np.exp(rng.uniform(-1, 1, n)))
            w = adaptive_weights(st)
            assert np.all(w >= 0) and math.isclose(w.sum(), 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("cost", [None, CostModel.per_trade(0.05), CostModel.parallel(0.2)])
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_day_zero_agrees_with_fixed_weights(self, n, cost):
        # Both states hold the uncharged 1/N purchase before the first day.
        adaptive = adaptive_weights(adaptive_init(n, 4, cost))
        fixed = fixed_weights(fixed_init(n, 0.25, cost))
        assert adaptive.shape == (n,) and np.array_equal(adaptive, fixed)
        assert np.array_equal(adaptive, np.full(n, 1.0 / n) / np.add.reduce(np.full(n, 1.0 / n)))


class TestFixedDayCache:
    """Whether or not weights are asked for, fixed-gamma steps must produce the same bits."""

    @staticmethod
    def _run(X, gamma, cost, with_weights):
        state = fixed_init(X.shape[1], gamma, cost)
        logs = []
        for x in X:
            if with_weights:
                fixed_weights(state)
            fixed_step(state, x)
            logs.append(state.log_wealth)
        return np.array(logs), state.shares

    @settings(max_examples=40, deadline=None)
    @given(
        T=st_.integers(1, 400),
        N=st_.integers(2, 5),
        seed=st_.integers(0, 2**32 - 1),
        gamma_share=st_.floats(0.001, 1.0),
        kind=st_.sampled_from([None, "per-trade", "parallel"]),
        rate=st_.floats(0.0, 0.49),
    )
    def test_weights_calls_do_not_change_the_run(self, T, N, seed, gamma_share, kind, rate):
        X = random_matrix(np.random.default_rng(seed), T, N).values
        gamma = gamma_share * (N - 1) / N
        cost = None if kind is None else CostModel(kind, rate)
        logs, shares = self._run(X, gamma, cost, with_weights=True)
        ref_logs, ref_shares = self._run(X, gamma, cost, with_weights=False)
        assert logs.tobytes() == ref_logs.tobytes()
        assert shares.tobytes() == ref_shares.tobytes()


def ref_fixed_run(X, gamma, cost):
    """The fixed-gamma mixture one day at a time, each day's arrays made new: the log wealth, the
    shares and the next day's weights after every day. The reference for the day's bits."""
    n = X.shape[1]
    factor = switch_factor(cost)
    mass = np.full(n, 1.0 / n)
    log_wealth = 0.0
    logs, shares_track, weights = [], [], []
    for x in X:
        day = mass * x
        total = float(np.add.reduce(day))
        shares = day / total
        log_wealth += math.log(total)
        switched_in = (gamma / (n - 1)) * (1.0 - shares)
        if factor != 1.0:
            switched_in = factor * switched_in
        mass = (1.0 - gamma) * shares + switched_in
        logs.append(log_wealth)
        shares_track.append(shares)
        weights.append(mass / np.add.reduce(mass))
    return np.array(logs), np.array(shares_track).reshape(-1, n), np.array(weights).reshape(-1, n)


class TestFixedDayAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        T=st_.integers(0, 60),
        N=st_.sampled_from([2, 3]),
        seed=st_.integers(0, 2**32 - 1),
        gamma_share=st_.floats(0.001, 1.0),
        cost=st_.sampled_from([None, CostModel.per_trade(0.01), CostModel.parallel(0.02)]),
    )
    def test_bitwise_equal(self, T, N, seed, gamma_share, cost):
        X = random_matrix(np.random.default_rng(seed), T, N).values
        gamma = gamma_share * (N - 1) / N
        state = fixed_init(N, gamma, cost)
        logs, shares, weights = [], [], []
        for x in X:
            fixed_step(state, x)
            logs.append(state.log_wealth)
            shares.append(state.shares.copy())  # the step writes the next day's shares into this array
            weights.append(fixed_weights(state))
        ref_logs, ref_shares, ref_weights = ref_fixed_run(X, gamma, cost)
        assert np.array_equal(np.array(logs), ref_logs)
        assert np.array_equal(np.array(shares).reshape(-1, N), ref_shares)
        assert np.array_equal(np.array(weights).reshape(-1, N), ref_weights)


class TestDayCache:
    """Whether or not weights are asked for, the steps must produce the same bits."""

    @staticmethod
    def _run(X, cost, with_weights):
        state = adaptive_init(X.shape[1], X.shape[0], cost)
        logs = []
        for x in X:
            adaptive_step(state, x)
            logs.append(state.log_wealth)
            if with_weights:
                adaptive_weights(state)
        return np.array(logs), state.bucket_view()

    @settings(max_examples=40, deadline=None)
    @given(
        T=st_.integers(1, 400),
        N=st_.integers(2, 5),
        seed=st_.integers(0, 2**32 - 1),
        kind=st_.sampled_from([None, "per-trade", "parallel"]),
        rate=st_.floats(0.0, 0.49),
    )
    def test_weights_calls_do_not_change_the_run(self, T, N, seed, kind, rate):
        X = random_matrix(np.random.default_rng(seed), T, N).values
        cost = None if kind is None else CostModel(kind, rate)
        logs, buckets = self._run(X, cost, with_weights=True)
        ref_logs, ref_buckets = self._run(X, cost, with_weights=False)
        assert logs.tobytes() == ref_logs.tobytes()
        assert buckets.tobytes() == ref_buckets.tobytes()

    def test_folding_market(self):
        # Scales leave [1e-150, 1e150] and are folded while weights are read every day.
        X = np.tile([0.25, 1.5], (2000, 1))
        cost = CostModel.per_trade(0.01)
        logs, buckets = self._run(X, cost, with_weights=True)
        ref_logs, ref_buckets = self._run(X, cost, with_weights=False)
        assert logs.tobytes() == ref_logs.tobytes()
        assert buckets.tobytes() == ref_buckets.tobytes()

    def test_weights_read_twice_are_equal(self):
        # Each read is a new array of the same bits, and the state's cost reaches the weights.
        X = random_matrix(np.random.default_rng(4), 50, 3).values
        states = [adaptive_init(3, 50, cost) for cost in (CostModel.per_trade(0.01), None)]
        for x in X:
            for st in states:
                adaptive_step(st, x)
        first = adaptive_weights(states[0])
        again = adaptive_weights(states[0])
        assert again is not first and again.tobytes() == first.tobytes()
        assert not np.array_equal(first, adaptive_weights(states[1]))


class TestMixtureEquivalence:
    """The recursions must equal the exact mixture over all regimes."""

    @pytest.mark.parametrize("gamma", [0.1, 1 / 3, 0.45])
    def test_fixed(self, gamma):
        rng = np.random.default_rng(12)
        for _ in range(8):
            N = int(rng.integers(2, 4))
            T = int(rng.integers(1, 9))
            X = random_matrix(rng, T, N)
            st = fixed_init(N, gamma)
            for t in range(1, T + 1):
                fixed_step(st, X.values[t - 1])
            oracle = mixture_oracle(X, FixedGammaPrior(gamma))
            assert abs(st.log_wealth - oracle) <= 1e-10

    def test_adaptive(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            N = int(rng.integers(2, 4))
            T = int(rng.integers(1, 9))
            X = random_matrix(rng, T, N)
            st = adaptive_init(N, T)
            for t in range(1, T + 1):
                adaptive_step(st, X.values[t - 1])
            oracle = mixture_oracle(X, AdaptivePrior())
            assert abs(st.log_wealth - oracle) <= 1e-10


class TestCostMonotonicity:
    def test_wealth_nonincreasing_in_rate(self):
        rng = np.random.default_rng(14)
        X = random_matrix(rng, 12, 3)
        rates = [0.0, 0.01, 0.05, 0.1, 0.2, 0.4]
        for build in (CostModel.per_trade, CostModel.parallel):
            for init, step in (
                (lambda cost: fixed_init(3, 1 / 3, cost), fixed_step),
                (lambda cost: adaptive_init(3, X.days, cost), adaptive_step),
            ):
                finals = []
                for c in rates:
                    st = init(build(c) if c else None)
                    for t in range(1, X.days + 1):
                        step(st, X.values[t - 1])
                    finals.append(st.log_wealth)
                assert all(a >= b - 1e-15 for a, b in zip(finals, finals[1:]))


def switching_spec(N, fixed, gamma_share, cost=None):
    """Either switching kind; gamma ranges over (0, (N-1)/N], all that fixed_init accepts."""
    if fixed:
        return AlgoSpec("switching-fixed", gamma=gamma_share * (N - 1) / N, cost=cost)
    return AlgoSpec("switching-adaptive", cost=cost)


SWITCHING_MARKETS = dict(
    T=st_.integers(1, 60),
    N=st_.integers(2, 5),
    seed=st_.integers(0, 2**32 - 1),
    fixed=st_.booleans(),
    gamma_share=st_.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
)


class TestAssetPermutation:
    @settings(max_examples=60, deadline=None)
    @given(
        **SWITCHING_MARKETS,
        kind=st_.sampled_from([None, "per-trade", "parallel"]),
        rate=st_.floats(0.0, 0.49),
        data=st_.data(),
    )
    def test_permuted_columns_permute_weights(self, T, N, seed, fixed, gamma_share, kind, rate, data):
        perm = data.draw(st_.permutations(range(N)))
        X = random_matrix(np.random.default_rng(seed), T, N)
        Y = validate_relatives(X.values[:, perm], [X.asset_names[i] for i in perm])
        spec = switching_spec(N, fixed, gamma_share, None if kind is None else CostModel(kind, rate))
        a, b = run(spec, X), run(spec, Y)
        np.testing.assert_allclose(b.weights, a.weights[:, perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.log_wealth, a.log_wealth, rtol=1e-12, atol=1e-12)


class TestScalingInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        **SWITCHING_MARKETS,
        day_share=st_.floats(0.0, 1.0, exclude_max=True),
        log_k=st_.floats(-7.0, 7.0),
    )
    def test_rescaled_day_keeps_weights_and_scales_wealth(self, T, N, seed, fixed, gamma_share, day_share, log_k):
        # Cost-free: a day on which every asset gains the factor k moves no mass between assets.
        X = random_matrix(np.random.default_rng(seed), T, N)
        t, k = int(day_share * T), math.exp(log_k)
        scaled = X.values.copy()
        scaled[t] *= k
        spec = switching_spec(N, fixed, gamma_share)
        a, b = run(spec, X), run(spec, validate_relatives(scaled, X.asset_names))
        np.testing.assert_allclose(b.weights, a.weights, rtol=0, atol=1e-12)
        shift = np.where(np.arange(T + 1) > t, math.log(k), 0.0)
        np.testing.assert_allclose(b.log_wealth, a.log_wealth + shift, rtol=1e-12, atol=1e-12)

    def test_one_day_rescale(self):
        rng = np.random.default_rng(15)
        X = random_matrix(rng, 6, 2)
        scaled = X.values.copy()
        k = 3.7
        scaled[2] *= k
        Y = validate_relatives(scaled, X.asset_names)

        for init, step, weights_of in (
            (lambda: fixed_init(2, 1 / 3), fixed_step, fixed_weights),
            (lambda: adaptive_init(2, 6), adaptive_step, adaptive_weights),
        ):
            a, b = init(), init()
            for t in range(1, 7):
                step(a, X.values[t - 1])
                step(b, Y.values[t - 1])
                assert np.allclose(weights_of(a), weights_of(b), atol=1e-12)
            assert math.isclose(b.log_wealth, math.log(k) + a.log_wealth, abs_tol=1e-12)


def eager_adaptive(X, cost):
    """Reference: the adaptive recursion rewriting every (asset, start day) bucket daily.

    Returns the log-wealth after each day, the weights for each next day and
    the final bucket shares.
    """
    n = X.shape[1]
    buckets = np.zeros((n, 0))
    log_wealth, logs, weights = 0.0, [], []

    def pre_return_mass(b):
        leak = 0.5 / np.arange(b.shape[1], 0, -1, dtype=float)
        leaked = b @ leak
        return b * (1.0 - leak), switch_factor(cost) * (leaked.sum() - leaked) / (n - 1)

    for t, x in enumerate(X):
        if t == 0:
            buckets = (np.full(n, 1.0 / n) * x)[:, None]
        else:
            stay, new = pre_return_mass(buckets)
            buckets = np.column_stack((stay * x[:, None], new * x))
        total = buckets.sum()
        buckets = buckets / total
        log_wealth += math.log(total)
        logs.append(log_wealth)
        stay, new = pre_return_mass(buckets)
        mass = stay.sum(axis=1) + new
        weights.append(mass / mass.sum())
    return np.array(logs), np.array(weights), buckets


def stepped_adaptive(X, cost, horizon=None):
    """The same three outputs from the adaptive state machine, sized to ``horizon`` (default: the run's days)."""
    state = adaptive_init(X.shape[1], X.shape[0] if horizon is None else horizon, cost)
    logs, weights = [], []
    for x in X:
        adaptive_step(state, x)
        logs.append(state.log_wealth)
        weights.append(adaptive_weights(state))
    return np.array(logs), np.array(weights), state.bucket_view()


class TestAdaptiveAgainstEagerRecursion:
    """Buckets stored once at birth must reproduce the daily-rewrite recursion."""

    @pytest.mark.parametrize("cost", [None, CostModel.per_trade(0.01), CostModel.parallel(0.02)])
    @pytest.mark.parametrize("T,N", [(3000, 2), (1500, 3), (800, 5)])
    def test_random_market(self, T, N, cost):
        rng = np.random.default_rng(T + N)
        X = random_matrix(rng, T, N).values
        ref_logs, ref_weights, ref_buckets = eager_adaptive(X, cost)
        logs, weights, buckets = stepped_adaptive(X, cost)
        np.testing.assert_allclose(logs, ref_logs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-13)
        np.testing.assert_allclose(buckets, ref_buckets, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("cost", [None, CostModel.per_trade(0.49)])
    def test_extreme_market_folds_scales_and_stays_finite(self, cost):
        # Asset 0 falls 4x a day against a rising asset 1: their scales leave
        # [1e-150, 1e150] within a few hundred days and must be folded.
        X = np.tile([0.25, 1.5], (3000, 1))
        ref_logs, ref_weights, ref_buckets = eager_adaptive(X, cost)
        logs, weights, buckets = stepped_adaptive(X, cost)
        for out in (logs, weights, buckets):
            assert np.all(np.isfinite(out))
        np.testing.assert_allclose(logs, ref_logs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-13)
        np.testing.assert_allclose(buckets, ref_buckets, rtol=0, atol=1e-13)
        assert np.count_nonzero(buckets) == np.count_nonzero(ref_buckets)

    @settings(max_examples=60, deadline=None)
    @given(
        T=st_.integers(1, 300),
        N=st_.integers(2, 4),
        seed=st_.integers(0, 2**32 - 1),
        fixed=st_.booleans(),
        gamma_share=st_.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
        kind=st_.sampled_from([None, "per-trade", "parallel"]),
        rate=st_.floats(0.0, 0.49),
    )
    def test_run_equals_mixture_oracle(self, T, N, seed, fixed, gamma_share, kind, rate):
        # Both switching kinds against the exact mixture over all N^T regimes;
        # gamma ranges over (0, (N-1)/N], all that fixed_init accepts.
        X = random_matrix(np.random.default_rng(seed), T, N)
        cost = None if kind is None else CostModel(kind, rate)
        gamma = gamma_share * (N - 1) / N
        spec = AlgoSpec("switching-fixed", gamma=gamma, cost=cost) if fixed else AlgoSpec(
            "switching-adaptive", cost=cost
        )
        report = run(spec, X)
        oracle = mixture_oracle(X, FixedGammaPrior(gamma) if fixed else AdaptivePrior(), cost)
        assert math.isclose(report.log_wealth[-1], oracle, rel_tol=1e-12, abs_tol=1e-12)


def quadratic_adaptive(X, cost):
    """Reference: the O(t) adaptive day, every stored bucket against both age kernels daily.

    This is the day the state machine ran before its long ages moved to pending
    sums, in the same array operations, which the relaxed day still runs before
    day 64. Returns the log-wealth after each day, the weights for each next
    day and the final bucket shares, as ``stepped_adaptive`` does.
    """
    T, n = X.shape
    stay, leak = adaptive_prior_terms(max(T, 1) + 1)  # stay P(a) at age a, leak P(a-1)/(2a) at a
    stay, leak = stay[1:], leak[:-1]
    kernel = np.ascontiguousarray(np.stack((stay, leak))[:, ::-1])  # column j serves age T - j
    coef, scale, log_wealth = np.zeros((n, T)), np.ones(n), 0.0
    logs, weights = [], []
    new_bucket = mass = np.full(n, 1.0 / n)
    for t, row in enumerate(X):
        coef[:, t] = new_bucket / scale
        mass = mass * row
        total = float(mass.sum())
        scale *= row / total
        if scale.min() < 1e-150 or scale.max() > 1e150:
            out = (scale < 1e-150) | (scale > 1e150)
            coef[out, : t + 1] *= scale[out, None]
            scale[out] = 1.0
        log_wealth += math.log(total)
        logs.append(log_wealth)
        stayed, leaked = ((coef[:, : t + 1] @ kernel[:, T - t - 1 :].T) * scale[:, None]).T
        new_bucket = switch_factor(cost) * (leaked.sum() - leaked) / (n - 1)
        mass = stayed + new_bucket
        weights.append(mass / mass.sum())
    age_held = np.append(kernel[0, 1:], 1.0)  # P(T-1-k) for start day k
    return np.array(logs), np.array(weights), coef * age_held * scale[:, None]


def assert_close_to(got, ref):
    """(log-wealths, weights, buckets) within the relaxed day's tolerances of a reference."""
    logs, weights, buckets = got
    ref_logs, ref_weights, ref_buckets = ref
    # A day's log-wealth may cross 0, where no relative bound holds; an absolute 1e-13 on
    # the log is 1e-13 relative on the wealth itself.
    np.testing.assert_allclose(logs, ref_logs, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-13)
    np.testing.assert_allclose(buckets, ref_buckets, rtol=0, atol=1e-13)


COST_KINDS = dict(
    seed=st_.integers(0, 2**32 - 1),
    kind=st_.sampled_from([None, "per-trade", "parallel"]),
    rate=st_.floats(0.0, 0.49),
)


class TestRelaxedAgainstQuadraticDay:
    """Long ages read from FFT-built pending sums must reproduce the O(t) day, in a state sized
    to the run's horizon and in one whose horizon lies past the run."""

    @settings(max_examples=40, deadline=None)
    @given(T=st_.integers(1, 63), N=st_.integers(2, 6), **COST_KINDS)
    def test_runs_shorter_than_a_block_are_byte_identical(self, T, N, seed, kind, rate):
        X = random_matrix(np.random.default_rng(seed), T, N).values
        cost = None if kind is None else CostModel(kind, rate)
        ref = quadratic_adaptive(X, cost)
        for horizon in (T, T + 64):
            for got, want in zip(stepped_adaptive(X, cost, horizon), ref):
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(T=st_.integers(64, 300), N=st_.integers(2, 5), **COST_KINDS)
    def test_every_cost_kind_through_the_first_blocks(self, T, N, seed, kind, rate):
        # Days 64 and 128 complete the first blocks of levels 64 and 128, day 192 a second one;
        # with the horizon T, the last block of each level that starts by day T is cut at T,
        # and with the horizon 2T no block is cut.
        X = random_matrix(np.random.default_rng(seed), T, N).values
        cost = None if kind is None else CostModel(kind, rate)
        ref = quadratic_adaptive(X, cost)
        longer, sized = stepped_adaptive(X, cost, 2 * T), stepped_adaptive(X, cost, T)
        assert_close_to(longer, ref)
        assert_close_to(sized, ref)
        assert_close_to(sized, longer)

    @pytest.mark.parametrize("cost", [None, CostModel.per_trade(0.49), CostModel.parallel(0.02)])
    def test_fold_market(self, cost):
        # Asset 0 falls 4x a day against a rising asset 1: both scales are folded every
        # few hundred days, into the stored buckets and into the pending sums alike.
        X = np.tile([0.25, 1.5], (4000, 1))
        ref_logs, ref_weights, ref_buckets = quadratic_adaptive(X, cost)
        for horizon in (4000, 8000):
            logs, weights, buckets = stepped_adaptive(X, cost, horizon)
            for out in (logs, weights, buckets):
                assert np.all(np.isfinite(out))
            np.testing.assert_allclose(logs, ref_logs, rtol=1e-12, atol=0)
            np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-13)
            np.testing.assert_allclose(buckets, ref_buckets, rtol=0, atol=1e-13)
            assert np.count_nonzero(buckets) == np.count_nonzero(ref_buckets)

    def test_fft_loads_only_when_a_run_reaches_day_64(self):
        # A fresh interpreter: importing the CLI and a 63-day run leave numpy.fft unloaded.
        script = (
            "import sys, numpy as np, switchfolio.cli\n"
            "from switchfolio.switching import adaptive_init, adaptive_step\n"
            "state, loaded = adaptive_init(3, 64), ['numpy.fft' in sys.modules]\n"
            "for day in range(64):\n"
            "    adaptive_step(state, np.full(3, 1.01))\n"
            "    loaded.append('numpy.fft' in sys.modules)\n"
            "print(loaded.index(True))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
        assert done.stdout == "64\n"


class TestHorizon:
    """A state sized to its run's horizon must give the run a state with a longer horizon gives."""

    @pytest.mark.parametrize("T", [64, 65, 127, 128, 129, 4095, 4096, 4097, 8191, 8192, 8193])
    def test_around_the_levels(self, T):
        # Horizons just below, at and just past a power of two: the top level's last product
        # fills one day, all of its days, or none past the first. With the horizon 2T it fills all.
        X = random_matrix(np.random.default_rng(T), T, 3).values
        cost = CostModel.parallel(0.002)
        sized = stepped_adaptive(X, cost)
        assert_close_to(sized, stepped_adaptive(X, cost, 2 * T))
        assert_close_to(sized, quadratic_adaptive(X, cost))

    @pytest.mark.parametrize("T", [0, 1, 63, 64, 100, 1000])
    def test_holds_the_days_the_run_reads(self, T):
        # Days 0..T: the weights after the last day read pending[T].
        state = adaptive_init(3, T)
        for x in random_matrix(np.random.default_rng(T), T, 3).values:
            adaptive_step(state, x)
            assert state._coef.shape == (3, T + 1) and state._pending.shape == (T + 1, 3, 2)
        assert state.day == T and state._coef.shape == (3, T + 1) and state._pending.shape == (T + 1, 3, 2)
        if T:
            adaptive_weights(state)

    @pytest.mark.parametrize("T", [0, 3, 64])
    def test_step_past_the_horizon_refused(self, T):
        state = adaptive_init(2, T)
        for _ in range(T):
            adaptive_step(state, np.array([1.1, 0.9]))
        log_wealth, buckets = state.log_wealth, state.bucket_view()
        with pytest.raises(PortfolioError, match=f"holds {T} days; day {T + 1} is past its horizon"):
            adaptive_step(state, np.array([1.1, 0.9]))
        assert state.day == T and state.log_wealth == log_wealth
        assert state.bucket_view().tobytes() == buckets.tobytes()

    @pytest.mark.parametrize("horizon", [-1, 2.0, "3", np.int64(-1), None])
    def test_bad_horizon_refused(self, horizon):
        with pytest.raises(PortfolioError, match="horizon must be a whole number"):
            adaptive_init(2, horizon)

    def test_numpy_integer_horizon(self):
        state = adaptive_init(2, np.int64(3))
        assert state.horizon == 3 and type(state.horizon) is int

    def test_run_sizes_its_state_to_the_market(self, monkeypatch):
        import switchfolio.backtest as backtest

        sizes = []

        def sized_init(n, horizon, cost=None):
            sizes.append((n, horizon))
            return adaptive_init(n, horizon, cost)

        monkeypatch.setattr(backtest, "adaptive_init", sized_init)
        run(AlgoSpec("switching-adaptive"), random_matrix(np.random.default_rng(0), 70, 3))
        assert sizes == [(3, 70)]


@pytest.mark.parametrize("fixed", [True, False])
@pytest.mark.parametrize("T, N", [(2000, 3), (2000, 30), (5651, 3)])
def test_long_horizon_equals_mixture_oracle(T, N, fixed):
    # N(0, 0.02) log-relatives, per-trade cost: every one of the N^T regimes is in the sum.
    rng = np.random.default_rng(T + N)
    X = validate_relatives(np.exp(rng.normal(0.0, 0.02, size=(T, N))), [f"a{i}" for i in range(N)])
    cost = CostModel.per_trade(0.01)
    if fixed:
        spec, prior = AlgoSpec("switching-fixed", gamma=0.01, cost=cost), FixedGammaPrior(0.01)
    else:
        spec, prior = AlgoSpec("switching-adaptive", cost=cost), AdaptivePrior()
    assert abs(run(spec, X).log_wealth[-1] - mixture_oracle(X, prior, cost)) <= 1e-12
