import copy
import math
import pickle
from dataclasses import FrozenInstanceError

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
    RaggedRows,
    RegimeSpec,
    simplex_refusal,
    validate_relatives,
)

WEIGHT = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))


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
    return math.exp(run(AlgoSpec("crp", weights=tuple(w)), X).log_wealth[-1])


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


class TestCrpWeightRefusal:
    """CRP weights off the simplex are refused when the spec is made, by the one simplex rule."""

    def test_rejects_off_simplex(self):
        with pytest.raises(PortfolioError):
            AlgoSpec("crp", weights=(0.5, 0.6))

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            AlgoSpec("crp", weights=(1.2, -0.2))

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [1.0, np.nan], [np.nan, 0.5, 0.5]])
    def test_rejects_nan(self, weights):
        with pytest.raises(NegativeEntry, match="nan"):
            AlgoSpec("crp", weights=tuple(weights))

    @pytest.mark.parametrize("weights", [(), ((0.5, 0.5),), 1.0])
    def test_rejects_empty_or_not_1d(self, weights):
        with pytest.raises(DimensionMismatch, match="^portfolio weights must be a non-empty 1-D vector$"):
            AlgoSpec("crp", weights=weights)

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
        refused = simplex_refusal(np.array(weights))
        if error is None:
            assert refused is None
            assert AlgoSpec("crp", weights=tuple(weights)).weights == tuple(weights)
            return
        assert refused[0] == 0 and type(refused[1]) is error and str(refused[1]) == message
        with pytest.raises(error) as exc:
            AlgoSpec("crp", weights=tuple(weights))
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
            AlgoSpec("crp", weights=tuple(w.tolist()))
        except PortfolioError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    @settings(max_examples=200, deadline=None)
    @given(
        track=st.integers(1, 5).flatmap(
            lambda n: st.lists(st.lists(WEIGHT, min_size=n, max_size=n), min_size=1, max_size=6)
        ),
        normalize=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_track_refused_at_the_first_row_a_spec_refuses(self, track, normalize):
        # The once-per-run check of a weight track and the CRP spec's check share one rule.
        w = np.array(track)
        for k, row in enumerate(w):
            if normalize[k] and np.all(np.isfinite(row)) and np.abs(row).sum() > 0:
                w[k] = np.abs(row) / np.abs(row).sum()
        first = None
        for k, row in enumerate(w):
            try:
                AlgoSpec("crp", weights=tuple(row.tolist()))
            except PortfolioError as exc:
                first = (k, type(exc), str(exc))
                break
        refused = simplex_refusal(w)
        if first is None:
            assert refused is None
        else:
            k, error = refused
            assert (k, type(error), str(error)) == first


class TestIdentityEquality:
    """Matrices compare and hash by identity; comparing the arrays they hold raised."""

    def test_matrix(self):
        X = validate_relatives([[2.0, 0.5], [1.5, 0.75]], ["A", "B"])
        Y = validate_relatives(X.values, X.asset_names)
        assert X == X and X != Y and not (X == Y)
        assert len({X, Y, X}) == 2


class TestPriceRelativeMatrixRecord:
    """A slotted class that behaves as the frozen dataclass it replaced."""

    def test_fields_cannot_be_set_or_deleted(self):
        X = validate_relatives([[2.0, 0.5]], ["A", "B"], ["d1"])
        for name in ("values", "asset_names", "dates", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(X, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(X, name)
        assert (X.values.tolist(), X.asset_names, X.dates) == ([[2.0, 0.5]], ("A", "B"), ("d1",))
        assert not hasattr(X, "__dict__")

    def test_repr_copy_and_pickle(self):
        X = validate_relatives([[2.0, 0.5]], ["A", "B"])
        assert repr(X) == "PriceRelativeMatrix(values=array([[2. , 0.5]]), asset_names=('A', 'B'), dates=None)"
        for twin in (copy.copy(X), copy.deepcopy(X), pickle.loads(pickle.dumps(X))):
            assert twin.values.tolist() == [[2.0, 0.5]] and not twin.values.flags.writeable
            assert (twin.asset_names, twin.dates) == (("A", "B"), None)


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


class TestRegimeSpecRecord:
    """A slotted record that behaves as the frozen dataclass it replaced."""

    def test_equality_hash_and_repr(self):
        q = RegimeSpec((1, 4), (0, 2, 1))
        twin = RegimeSpec([np.int64(1), 4], (0, 2, 1))
        assert q == twin and hash(q) == hash(twin) == hash(((1, 4), (0, 2, 1)))
        assert q != RegimeSpec((1, 3), (0, 2, 1)) and q != ((1, 4), (0, 2, 1))
        assert len({q, twin, RegimeSpec((), (0,))}) == 2
        assert repr(q) == "RegimeSpec(switch_times=(1, 4), strategies=(0, 2, 1))"
        assert repr(RegimeSpec((), (3,))) == "RegimeSpec(switch_times=(), strategies=(3,))"

    def test_copy_and_pickle_round_trip(self):
        q = RegimeSpec((2,), (1, 0))
        for twin in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert twin == q and type(twin) is RegimeSpec
            assert (twin.switch_times, twin.strategies) == ((2,), (1, 0))

    def test_fields_cannot_be_set_or_deleted(self):
        q = RegimeSpec((2,), (1, 0))
        for name in ("switch_times", "strategies", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(q, name, (3,))
            with pytest.raises(FrozenInstanceError):
                delattr(q, name)
        assert (q.switch_times, q.strategies) == ((2,), (1, 0))
        assert not hasattr(q, "__dict__")

    @pytest.mark.parametrize(
        "times, strategies, message",
        [
            ((2.5,), (0, 1), "switch times (2.5,) and strategies (0, 1) must be integers"),
            ((1,), (0,), "1 strategies for 1 switch times; need one more strategy"),
            ((3, 2), (0, 1, 0), "switch times not strictly increasing: (3, 2)"),
            ((0, 2), (0, 1, 0), "switch times must be >= 1: (0, 2)"),
            ((1,), (1, 1), "adjacent strategies equal in (1, 1): switches must change asset"),
            ((1,), (-1, 0), "negative strategy index in (-1, 0)"),
        ],
    )
    def test_messages(self, times, strategies, message):
        with pytest.raises(PortfolioError) as exc:
            RegimeSpec(times, strategies)
        assert type(exc.value) is PortfolioError and str(exc.value) == message
