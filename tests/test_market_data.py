import math

import numpy as np
import pytest

from switchfolio.core import NonPositiveRelative, PortfolioVector
from switchfolio.baselines import crp_run
from switchfolio.market_data import (
    EmptyFile,
    NonPositivePrice,
    ParseError,
    TooFewRows,
    load_csv,
    prices_to_relatives,
    synth_regime_pair,
    synth_volatility_pair,
    to_csv_text,
    write_csv,
)


class TestLoadCsv:
    def test_relatives_mode(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("A,B\n2.0,0.5\n")
        X = load_csv(str(p))
        assert X.days == 1 and X.assets == 2
        assert X.values.tolist() == [[2.0, 0.5]]

    def test_prices_mode(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("S\n100\n110\n99\n")
        X = load_csv(str(p), "prices")
        assert np.allclose(X.values[:, 0], [1.1, 0.9])

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("A,B\n1.0,abc\n")
        with pytest.raises(ParseError) as exc:
            load_csv(str(p))
        assert exc.value.line == 2 and exc.value.column == 2

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("A,B\n1.0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(str(p))
        assert exc.value.line == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(EmptyFile):
            load_csv(str(p))

    def test_header_only_is_empty_history(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("A,B\n")
        X = load_csv(str(p))
        assert X.days == 0 and X.assets == 2

    def test_date_column_preserved(self, tmp_path):
        p = tmp_path / "dated.csv"
        p.write_text("date,A,B\n1963-01-02,1.5,0.9\n1963-01-03,0.8,1.2\n")
        X = load_csv(str(p))
        assert X.dates == ("1963-01-02", "1963-01-03")
        assert X.asset_names == ("A", "B")

    def test_zero_relative(self, tmp_path):
        p = tmp_path / "z.csv"
        p.write_text("A\n0.0\n")
        with pytest.raises(NonPositiveRelative):
            load_csv(str(p))

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("A\nnan\n")
        with pytest.raises(ParseError):
            load_csv(str(p))


class TestPricesToRelatives:
    def test_constant_prices(self):
        X = prices_to_relatives([[5.0], [5.0], [5.0]], ["A"])
        assert np.allclose(X.values, 1.0)

    def test_simple_ratio(self):
        X = prices_to_relatives([[100.0], [110.0]], ["A"])
        assert math.isclose(X.values[0, 0], 1.1, rel_tol=1e-15)

    def test_single_row_rejected(self):
        with pytest.raises(TooFewRows):
            prices_to_relatives([[100.0]], ["A"])

    def test_non_positive_price(self):
        with pytest.raises(NonPositivePrice):
            prices_to_relatives([[100.0], [0.0]], ["A"])

    def test_row_count_drops_by_one(self):
        rng = np.random.default_rng(41)
        prices = np.exp(np.cumsum(rng.normal(0, 0.02, size=(13, 4)), axis=0))
        X = prices_to_relatives(prices, ["a", "b", "c", "d"])
        assert X.days == 12

    def test_dates_shift_to_realization_day(self):
        X = prices_to_relatives(
            [[1.0], [2.0], [1.0]], ["A"], dates=["d0", "d1", "d2"]
        )
        assert X.dates == ("d1", "d2")


class TestSynthVolatilityPair:
    def test_smallest_grid(self):
        X = synth_volatility_pair(1)
        assert X.values.tolist() == [[1.0, 0.5], [1.0, 2.0]]

    def test_even_split_compounds_nine_eighths(self):
        w = PortfolioVector(np.array([0.5, 0.5]))
        for n in (1, 3, 12):
            final = crp_run(w, synth_volatility_pair(n))[-1]
            assert math.isclose(final, (9 / 8) ** n, rel_tol=1e-12)

    def test_each_asset_alone_goes_nowhere(self):
        X = synth_volatility_pair(9)
        prod = np.prod(X.values, axis=0)
        assert prod[0] == 1.0 and prod[1] == 1.0

    def test_large_n_validates(self):
        X = synth_volatility_pair(10_000)
        assert X.days == 20_000


class TestSynthRegimePair:
    def test_smallest_grid(self):
        X = synth_regime_pair(1)
        assert X.values.tolist() == [[1.5, 0.25], [0.25, 1.5]]

    def test_even_split_decays_seven_eighths_daily(self):
        X = synth_regime_pair(5)
        w = PortfolioVector(np.array([0.5, 0.5]))
        factors = X.values @ w.weights
        assert np.allclose(factors, 7 / 8, rtol=1e-15)

    def test_prescient_switch_compounds(self):
        from switchfolio.core import RegimeSpec
        from switchfolio.regimes import regime_wealth

        for n in (1, 4, 10):
            X = synth_regime_pair(n)
            w = regime_wealth(RegimeSpec((n,), (0, 1)), X)
            assert math.isclose(w, 1.5 ** (2 * n), rel_tol=1e-12)

    def test_large_n_validates(self):
        X = synth_regime_pair(10_000)
        assert X.days == 20_000


class TestRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        vals = np.exp(rng.uniform(-1.5, 1.5, size=(17, 3)))
        from switchfolio.core import validate_relatives

        X = validate_relatives(vals, ["x", "y", "z"])
        p = tmp_path / "rt.csv"
        write_csv(X, str(p))
        Y = load_csv(str(p))
        assert np.array_equal(X.values, Y.values)
        assert X.asset_names == Y.asset_names

    def test_round_trip_with_dates(self, tmp_path):
        from switchfolio.core import validate_relatives

        X = validate_relatives([[1.5, 0.5]], ["a", "b"], dates=["1999-12-31"])
        p = tmp_path / "d.csv"
        write_csv(X, str(p))
        Y = load_csv(str(p))
        assert Y.dates == ("1999-12-31",)
        assert np.array_equal(X.values, Y.values)

    def test_seventeen_digit_text(self):
        from switchfolio.core import validate_relatives

        X = validate_relatives([[1 / 3]], ["a"])
        text = to_csv_text(X)
        assert "0.33333333333333331" in text
