import numpy as np
import pytest

from switchfolio.core import (
    AllZero,
    DimensionMismatch,
    DuplicateAssetName,
    NegativeEntry,
    NonPositiveRelative,
    PortfolioError,
    PortfolioVector,
    RaggedRows,
    RegimeSpec,
    daily_return,
    normalize_to_simplex,
    validate_relatives,
)


class TestValidateRelatives:
    def test_well_formed(self):
        X = validate_relatives([[2.0, 0.5]], ["A", "B"])
        assert X.days == 1 and X.assets == 2
        assert X.asset_names == ("A", "B")

    def test_zero_relative_rejected(self):
        with pytest.raises(NonPositiveRelative) as exc:
            validate_relatives([[1.0, 0.0]], ["A", "B"])
        assert exc.value.day == 0 and exc.value.asset == 1

    def test_negative_relative_rejected(self):
        with pytest.raises(NonPositiveRelative):
            validate_relatives([[1.0], [-0.5]], ["A"])

    def test_empty_history_allowed(self):
        X = validate_relatives([], ["A"])
        assert X.days == 0 and X.assets == 1

    def test_ragged_rows(self):
        with pytest.raises(RaggedRows):
            validate_relatives([[1.0, 2.0], [1.0]], ["A", "B"])

    def test_duplicate_names(self):
        with pytest.raises(DuplicateAssetName):
            validate_relatives([[1.0, 2.0]], ["A", "A"])

    def test_values_read_only(self):
        X = validate_relatives([[2.0, 0.5]], ["A", "B"])
        with pytest.raises(ValueError):
            X.values[0, 0] = 3.0


class TestDailyReturn:
    def test_half_half_loss_day(self):
        w = PortfolioVector(np.array([0.5, 0.5]))
        assert daily_return(w, np.array([1.0, 0.5])) == 0.75

    def test_pure_strategy_passes_through(self):
        w = PortfolioVector(np.array([1.0, 0.0]))
        assert daily_return(w, np.array([1.375, 9.0])) == 1.375

    def test_half_half_gain_day(self):
        w = PortfolioVector(np.array([0.5, 0.5]))
        assert daily_return(w, np.array([1.0, 2.0])) == 1.5

    def test_dimension_mismatch(self):
        w = PortfolioVector(np.array([0.5, 0.5]))
        with pytest.raises(DimensionMismatch):
            daily_return(w, np.array([1.0, 2.0, 3.0]))

    def test_bounded_by_row_extremes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 6)
            w = normalize_to_simplex(rng.random(n) + 1e-9)
            x = np.exp(rng.uniform(-1.5, 1.5, n))
            r = daily_return(w, x)
            assert x.min() - 1e-12 <= r <= x.max() + 1e-12


class TestNormalize:
    def test_symmetry(self):
        assert np.allclose(normalize_to_simplex([2.0, 2.0]).weights, [0.5, 0.5])

    def test_already_normalized(self):
        assert np.array_equal(normalize_to_simplex([1.0, 0.0, 0.0]).weights, [1.0, 0.0, 0.0])

    def test_divide_by_sum(self):
        assert np.allclose(normalize_to_simplex([1.0, 3.0]).weights, [0.25, 0.75])

    def test_all_zero(self):
        with pytest.raises(AllZero):
            normalize_to_simplex([0.0, 0.0])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            normalize_to_simplex([1.0, -0.1])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.random(4) + 1e-9
            once = normalize_to_simplex(v).weights
            twice = normalize_to_simplex(once).weights
            assert np.allclose(once, twice, rtol=0, atol=1e-15)

    def test_scale_invariant(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.random(3) + 1e-9
            k = float(np.exp(rng.uniform(-5, 5)))
            assert np.allclose(
                normalize_to_simplex(v).weights,
                normalize_to_simplex(k * v).weights,
                atol=1e-15,
            )


class TestPortfolioVector:
    def test_rejects_off_simplex(self):
        with pytest.raises(PortfolioError):
            PortfolioVector(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            PortfolioVector(np.array([1.2, -0.2]))

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [1.0, np.nan], [np.nan, 0.5, 0.5]])
    def test_rejects_nan(self, weights):
        with pytest.raises(NegativeEntry, match="nan"):
            PortfolioVector(np.array(weights))

    def test_uniform(self):
        assert np.allclose(PortfolioVector.uniform(4).weights, 0.25)


class TestRegimeSpec:
    def test_lengths_must_agree(self):
        with pytest.raises(PortfolioError):
            RegimeSpec((1,), (0,))

    def test_adjacent_strategies_differ(self):
        with pytest.raises(PortfolioError):
            RegimeSpec((1,), (0, 0))

    def test_times_strictly_increasing(self):
        with pytest.raises(PortfolioError):
            RegimeSpec((2, 2), (0, 1, 0))

    @pytest.mark.parametrize(
        "times, strategies", [((2.7,), (0.9, 1.2)), ((2.0,), (0, 1)), ((2,), (0, 1.0)), ((2,), (0, "1"))]
    )
    def test_non_integer_entries_rejected(self, times, strategies):
        with pytest.raises(PortfolioError, match="must be integers"):
            RegimeSpec(times, strategies)

    def test_numpy_integers_accepted(self):
        q = RegimeSpec((np.int64(2),), tuple(np.array([0, 1], dtype=np.int32)))
        assert q == RegimeSpec((2,), (0, 1))
        assert all(type(v) is int for v in q.switch_times + q.strategies)

    def test_switch_count(self):
        assert RegimeSpec((1, 4), (0, 1, 0)).switches == 2
        assert RegimeSpec((), (1,)).switches == 0
