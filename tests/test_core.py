import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchfolio.backtest import AlgoSpec, run
from switchfolio.core import (
    SIMPLEX_TOL,
    DimensionMismatch,
    DuplicateAssetName,
    NegativeEntry,
    NonPositiveRelative,
    PortfolioError,
    PortfolioVector,
    RaggedRows,
    RegimeSpec,
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

    def test_array_taken_whole_as_a_copy(self):
        grid = np.array([[2.0, 0.5], [1.5, 0.75]])
        X = validate_relatives(grid, ["A", "B"])
        assert X.values.tobytes() == grid.tobytes()
        grid[0, 0] = 3.0  # the caller's array stays its own, and writable
        assert X.values[0, 0] == 2.0

    def test_array_with_other_width_named_as_ragged(self):
        with pytest.raises(RaggedRows, match=r"rows have lengths \[3\], expected 2 columns"):
            validate_relatives(np.ones((4, 3)), ["A", "B"])


def one_day_growth(w, x):
    """One day's growth factor w . x of a portfolio: the final wealth of a one-day CRP run."""
    X = validate_relatives([x], [f"a{i}" for i in range(len(x))])
    return run(AlgoSpec("crp", weights=tuple(w)), X).final_wealth


class TestDailyReturn:
    def test_half_half_loss_day(self):
        assert one_day_growth([0.5, 0.5], [1.0, 0.5]) == 0.75

    def test_pure_strategy_passes_through(self):
        assert one_day_growth([1.0, 0.0], [1.375, 9.0]) == 1.375

    def test_half_half_gain_day(self):
        assert one_day_growth([0.5, 0.5], [1.0, 2.0]) == 1.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            one_day_growth([0.5, 0.5], [1.0, 2.0, 3.0])

    def test_bounded_by_row_extremes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 6)
            w = rng.random(n) + 1e-9
            x = np.exp(rng.uniform(-1.5, 1.5, n))
            r = one_day_growth(w / w.sum(), x)
            assert x.min() - 1e-12 <= r <= x.max() + 1e-12


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

    @pytest.mark.parametrize(
        "weights, error, message",
        [
            ([1.2, -0.2], NegativeEntry, "negative or NaN portfolio weight: -0.2"),
            ([0.5, np.nan, -1.0], NegativeEntry, "negative or NaN portfolio weight: nan"),
            ([-0.0, 1.0], None, None),
            ([0.5, 0.6], PortfolioError, "portfolio weights sum to 1.1, not 1 within 1e-12"),
            ([np.inf, 0.0], PortfolioError, "portfolio weights sum to inf, not 1 within 1e-12"),
            ([-np.inf, 1.0], NegativeEntry, "negative or NaN portfolio weight: -inf"),
        ],
    )
    def test_messages(self, weights, error, message):
        if error is None:
            assert PortfolioVector(np.array(weights)).weights.tolist() == weights
            return
        with pytest.raises(error) as exc:
            PortfolioVector(np.array(weights))
        assert str(exc.value) == message

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])),
            min_size=1,
            max_size=6,
        ),
        normalize=st.booleans(),
    )
    def test_same_verdict_as_elementwise_check(self, weights, normalize):
        # Reference: the elementwise check, every element compared on its own.
        w = np.array(weights)
        if normalize and np.all(np.isfinite(w)) and w.sum() > 0:
            w = np.abs(w) / np.abs(w).sum()
        if not all(v >= 0 for v in w.tolist()):
            expected = f"negative or NaN portfolio weight: {next(v for v in w.tolist() if not v >= 0)!r}"
        elif abs(float(w.sum()) - 1.0) > SIMPLEX_TOL:
            expected = f"portfolio weights sum to {float(w.sum())!r}, not 1 within {SIMPLEX_TOL}"
        else:
            expected = None
        try:
            pv = PortfolioVector(w)
        except PortfolioError as exc:
            assert str(exc) == expected
        else:
            assert expected is None and not pv.weights.flags.writeable


class TestIdentityEquality:
    """Matrices and vectors compare and hash by identity; comparing the arrays they hold raised."""

    def test_matrix(self):
        X = validate_relatives([[2.0, 0.5], [1.5, 0.75]], ["A", "B"])
        Y = validate_relatives(X.values, X.asset_names)
        assert X == X and X != Y and not (X == Y)
        assert len({X, Y, X}) == 2

    def test_vector(self):
        w = PortfolioVector(np.array([0.25, 0.75]))
        v = PortfolioVector(np.array([0.25, 0.75]))
        assert w == w and w != v
        assert len({w, v, w}) == 2


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
