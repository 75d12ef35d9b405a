import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from switchfolio.backtest import AlgoSpec, run
from switchfolio.core import DimensionMismatch, validate_relatives
from switchfolio.costs import CostModel, switch_factor
from switchfolio.regimes import AdaptivePrior, FixedGammaPrior, log_mixture_wealth
from switchfolio.switching import (
    FixedGammaState,
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
        assert np.allclose(st.asset_wealth, [0.5, 0.5])
        assert st.day == 0 and st.log_wealth == 0.0

    def test_four_assets(self):
        st = fixed_init(4, 0.1)
        assert np.allclose(st.asset_wealth, 0.25)

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
        assert np.allclose(st.asset_wealth, [1.0, 0.5], rtol=1e-15)
        assert math.isclose(st.log_wealth, math.log(1.5), abs_tol=1e-15)
        assert st.day == 1

    def test_no_switch_limit_is_buy_and_hold(self):
        st = fixed_init(2, 1e-9)
        x1, x2 = np.array([2.0, 0.5]), np.array([0.4, 3.0])
        fixed_step(st, x1)
        fixed_step(st, x2)
        hold = 0.5 * x1 * x2
        assert np.allclose(st.asset_wealth, hold, rtol=1e-8)

    def test_per_trade_cost_hits_switched_mass_only(self):
        # Mid-run state with even shares: switched-in mass (gamma/(N-1)) * 0.5
        # is scaled by (1-c)^2 = 0.9801, the stay mass is untouched.
        g = 1 / 3
        st = FixedGammaState(g, np.array([0.5, 0.5]), day=1)
        fixed_step(st, np.array([1.0, 1.0]), CostModel.per_trade(0.01))
        per_asset = (1 - g) * 0.5 + 0.9801 * g * 0.5
        assert np.allclose(st.asset_wealth, per_asset, rtol=1e-15)
        assert math.isclose(st.log_wealth, math.log((1 - g) + 0.9801 * g), abs_tol=1e-15)

    def test_first_day_purchase_never_charged(self):
        for cost in (CostModel.per_trade(0.05), CostModel.parallel(0.1)):
            st = fixed_init(2, 1 / 3)
            fixed_step(st, np.array([2.0, 1.0]), cost)
            assert math.isclose(st.log_wealth, math.log(1.5), abs_tol=1e-15)

    def test_dimension_mismatch(self):
        st = fixed_init(2, 1 / 3)
        with pytest.raises(DimensionMismatch):
            fixed_step(st, np.array([1.0, 2.0, 3.0]))


class TestFixedWeights:
    def test_uniform_is_fixed_point(self):
        for n, g in [(2, 1 / 3), (3, 0.2), (5, 0.7)]:
            st = fixed_init(n, g)
            assert np.allclose(fixed_weights(st).weights, 1.0 / n, atol=1e-15)

    def test_hand_evaluated_map(self):
        st = FixedGammaState(1 / 3, np.array([1.0, 0.0]), day=1)
        assert np.allclose(fixed_weights(st).weights, [2 / 3, 1 / 3], rtol=1e-15)

    def test_sums_to_one_on_random_shares(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            g = float(rng.uniform(1e-6, (n - 1) / n))
            shares = rng.random(n) + 1e-12
            st = FixedGammaState(g, shares / shares.sum(), day=3)
            w = fixed_weights(st).weights
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
            st = FixedGammaState(g, shares.copy(), day=2)
            mapped = fixed_weights(st).weights * x
            mapped /= mapped.sum()
            fixed_step(st, x)
            assert np.allclose(st.shares, mapped, atol=1e-12)


class TestAdaptiveInit:
    def test_first_step_seeds_buckets(self):
        st = adaptive_init(2)
        adaptive_step(st, np.array([2.0, 1.0]))
        assert np.allclose(st.bucket_wealth(), [[1.0], [0.5]], rtol=1e-15)

    def test_fresh_state_has_unit_wealth(self):
        st = adaptive_init(3)
        assert st.log_wealth == 0.0 and st.day == 0

    def test_too_few_assets(self):
        with pytest.raises(TooFewAssets):
            adaptive_init(1)


class TestAdaptiveStep:
    def test_single_bucket_stay_factor(self):
        # A bucket born on day 1, stepped at t=1, keeps (0+1/2)/(0+1) = 1/2.
        st = adaptive_init(2)
        adaptive_step(st, np.array([1.0, 1.0]))
        adaptive_step(st, np.array([1.0, 1.0]))
        B = st.bucket_wealth()
        assert math.isclose(B[0, 0], 0.25, rel_tol=1e-15)  # 0.5 * 1/2

    def test_hand_evaluated_second_day(self):
        st = adaptive_init(2)
        adaptive_step(st, np.array([2.0, 1.0]))
        adaptive_step(st, np.array([1.0, 1.0]))
        B = st.bucket_wealth()
        assert np.allclose(B, [[0.5, 0.25], [0.25, 0.5]], rtol=1e-14)
        assert math.isclose(st.log_wealth, math.log(1.5), abs_tol=1e-14)

    def test_parallel_cost_scales_new_buckets(self):
        st = adaptive_init(2)
        adaptive_step(st, np.array([2.0, 1.0]))
        adaptive_step(st, np.array([1.0, 1.0]), CostModel.parallel(0.05))
        B = st.bucket_wealth()
        assert np.allclose(B[:, 0], [0.5, 0.25], rtol=1e-14)  # stay buckets untouched
        assert np.allclose(B[:, 1], [0.9 * 0.25, 0.9 * 0.5], rtol=1e-14)

    def test_bucket_count_grows_by_n(self):
        st = adaptive_init(3)
        rng = np.random.default_rng(10)
        for t in range(1, 8):
            adaptive_step(st, np.exp(rng.uniform(-0.5, 0.5, 3)))
            B = st.bucket_view()
            assert B.shape == (3, t)
            assert np.all(B > 0)

    def test_dimension_mismatch(self):
        st = adaptive_init(2)
        with pytest.raises(DimensionMismatch):
            adaptive_step(st, np.array([1.0]))


class TestAdaptiveWeights:
    def test_uniform_after_symmetric_day(self):
        st = adaptive_init(2)
        adaptive_step(st, np.array([1.0, 1.0]))
        assert np.allclose(adaptive_weights(st).weights, 0.5, atol=1e-15)

    def test_hand_evaluated_masses(self):
        # Buckets (1.0, 0.5) at t=1: asset 1 keeps 0.5 and receives 0.25.
        st = adaptive_init(2)
        adaptive_step(st, np.array([2.0, 1.0]))
        assert np.allclose(adaptive_weights(st).weights, [0.5, 0.5], rtol=1e-14)

    def test_simplex_on_random_histories(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            st = adaptive_init(n)
            for _ in range(int(rng.integers(1, 9))):
                adaptive_step(st, np.exp(rng.uniform(-1, 1, n)))
            w = adaptive_weights(st).weights
            assert np.all(w >= 0) and math.isclose(w.sum(), 1.0, abs_tol=1e-12)

    def test_requires_a_trading_day(self):
        from switchfolio.core import PortfolioError

        st = adaptive_init(2)
        with pytest.raises(PortfolioError):
            adaptive_weights(st)


class TestFixedDayCache:
    """Whether or not weights are asked for, fixed-gamma steps must produce the same bits."""

    @staticmethod
    def _run(X, gamma, cost, weights_cost=False):
        state = fixed_init(X.shape[1], gamma)
        logs = []
        for x in X:
            if weights_cost is not False:
                fixed_weights(state, weights_cost)
            fixed_step(state, x, cost)
            logs.append(state.log_wealth)
        return np.array(logs), state.shares

    @settings(max_examples=40, deadline=None)
    @given(
        T=st_.integers(1, 400),
        N=st_.integers(2, 5),
        seed=st_.integers(0, 2**32 - 1),
        gamma_share=st_.floats(0.001, 1.0),
        kind=st_.sampled_from([None, "per-trade", "parallel"]),
        weights_kind=st_.sampled_from([None, "per-trade", "parallel"]),
        rate=st_.floats(0.0, 0.49),
    )
    def test_weights_calls_do_not_change_the_run(self, T, N, seed, gamma_share, kind, weights_kind, rate):
        # Weights under the run's own cost are read every day, and under another cost too.
        X = random_matrix(np.random.default_rng(seed), T, N).values
        gamma = gamma_share * (N - 1) / N
        cost, other = (None if k is None else CostModel(k, rate) for k in (kind, weights_kind))
        ref_logs, ref_shares = self._run(X, gamma, cost)
        for weights_cost in (cost, other):
            logs, shares = self._run(X, gamma, cost, weights_cost)
            assert logs.tobytes() == ref_logs.tobytes()
            assert shares.tobytes() == ref_shares.tobytes()


class TestDayCache:
    """Whether or not weights are asked for, the steps must produce the same bits."""

    @staticmethod
    def _run(X, cost, with_weights, weights_cost=None):
        state = adaptive_init(X.shape[1])
        logs = []
        for x in X:
            adaptive_step(state, x, cost)
            logs.append(state.log_wealth)
            if with_weights:
                adaptive_weights(state, weights_cost if weights_cost is not None else cost)
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

    def test_weights_under_another_cost_do_not_reach_the_step(self):
        X = random_matrix(np.random.default_rng(3), 300, 3).values
        cost = CostModel.parallel(0.02)
        logs, buckets = self._run(X, cost, with_weights=True, weights_cost=CostModel.per_trade(0.3))
        ref_logs, ref_buckets = self._run(X, cost, with_weights=False)
        assert logs.tobytes() == ref_logs.tobytes()
        assert buckets.tobytes() == ref_buckets.tobytes()

    def test_weights_read_twice_are_equal(self):
        st = adaptive_init(3)
        for x in random_matrix(np.random.default_rng(4), 50, 3).values:
            adaptive_step(st, x)
        first = adaptive_weights(st, CostModel.per_trade(0.01)).weights
        other = adaptive_weights(st).weights
        assert adaptive_weights(st, CostModel.per_trade(0.01)).weights.tobytes() == first.tobytes()
        assert not np.array_equal(first, other)


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
                fixed_step(st, X.day_row(t))
            oracle = log_mixture_wealth(X, FixedGammaPrior(gamma))
            assert abs(st.log_wealth - oracle) <= 1e-10

    def test_adaptive(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            N = int(rng.integers(2, 4))
            T = int(rng.integers(1, 9))
            X = random_matrix(rng, T, N)
            st = adaptive_init(N)
            for t in range(1, T + 1):
                adaptive_step(st, X.day_row(t))
            oracle = log_mixture_wealth(X, AdaptivePrior())
            assert abs(st.log_wealth - oracle) <= 1e-10


class TestCostMonotonicity:
    def test_wealth_nonincreasing_in_rate(self):
        rng = np.random.default_rng(14)
        X = random_matrix(rng, 12, 3)
        rates = [0.0, 0.01, 0.05, 0.1, 0.2, 0.4]
        for build in (CostModel.per_trade, CostModel.parallel):
            for init, step in (
                (lambda: fixed_init(3, 1 / 3), fixed_step),
                (lambda: adaptive_init(3), adaptive_step),
            ):
                finals = []
                for c in rates:
                    st = init()
                    for t in range(1, X.days + 1):
                        step(st, X.day_row(t), build(c) if c else None)
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
            (lambda: adaptive_init(2), adaptive_step, adaptive_weights),
        ):
            a, b = init(), init()
            for t in range(1, 7):
                step(a, X.day_row(t))
                step(b, Y.day_row(t))
                assert np.allclose(weights_of(a).weights, weights_of(b).weights, atol=1e-12)
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


def stepped_adaptive(X, cost):
    """The same three outputs from the adaptive state machine."""
    state = adaptive_init(X.shape[1])
    logs, weights = [], []
    for x in X:
        adaptive_step(state, x, cost)
        logs.append(state.log_wealth)
        weights.append(adaptive_weights(state, cost).weights)
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
        oracle = log_mixture_wealth(X, FixedGammaPrior(gamma) if fixed else AdaptivePrior(), cost)
        assert math.isclose(report.log_wealth[-1], oracle, rel_tol=1e-12, abs_tol=1e-12)


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
    assert abs(run(spec, X).log_wealth[-1] - log_mixture_wealth(X, prior, cost)) <= 1e-12
