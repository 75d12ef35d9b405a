import math

import numpy as np
import pytest

from switchfolio.core import DimensionMismatch, validate_relatives
from switchfolio.costs import CostModel
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
    gamma_hat,
    log_total_wealth,
    total_wealth,
)


def random_matrix(rng, T, N):
    vals = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(T, N)))
    return validate_relatives(vals, [f"a{i}" for i in range(N)])


class TestGammaHat:
    def test_values(self):
        assert gamma_hat(0) == 0.5
        assert gamma_hat(1) == 0.25
        assert gamma_hat(9) == 0.05

    def test_decreasing_and_bounded(self):
        vals = [gamma_hat(dt) for dt in range(200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 0.5 for v in vals)


class TestFixedInit:
    def test_uniform_split(self):
        st = fixed_init(2, 1 / 3)
        assert np.allclose(st.asset_wealth, [0.5, 0.5])
        assert st.day == 0 and total_wealth(st) == 1.0

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
        assert math.isclose(total_wealth(st), 1.5, rel_tol=1e-15)
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
        assert math.isclose(total_wealth(st), (1 - g) + 0.9801 * g, rel_tol=1e-15)

    def test_first_day_purchase_never_charged(self):
        for cost in (CostModel.per_trade(0.05), CostModel.parallel(0.1)):
            st = fixed_init(2, 1 / 3)
            fixed_step(st, np.array([2.0, 1.0]), cost)
            assert math.isclose(total_wealth(st), 1.5, rel_tol=1e-15)

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
        assert total_wealth(st) == 1.0 and st.day == 0

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
        assert math.isclose(total_wealth(st), 1.5, rel_tol=1e-14)

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


class TestMixtureEquivalence:
    """The recursions must equal the brute-force mixture over all regimes."""

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
            assert abs(log_total_wealth(st) - oracle) <= 1e-10

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
            assert abs(log_total_wealth(st) - oracle) <= 1e-10


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
                    finals.append(total_wealth(st))
                assert all(a >= b - 1e-15 for a, b in zip(finals, finals[1:]))


class TestScalingInvariance:
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
            assert math.isclose(total_wealth(b), k * total_wealth(a), rel_tol=1e-12)
