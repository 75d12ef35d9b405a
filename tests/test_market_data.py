import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchfolio
from switchfolio.backtest import AlgoSpec, run
from switchfolio.core import NonPositiveRelative, PortfolioVector, validate_relatives
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

    def test_byte_order_mark_dropped(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start with a BOM, which must not reach the header.
        dated = tmp_path / "dated.csv"
        dated.write_text("\ufeffdate,A,B\n2020-01-02,1.5,0.9\n", encoding="utf-8")
        X = load_csv(str(dated))
        assert X.dates == ("2020-01-02",) and X.asset_names == ("A", "B")
        plain = tmp_path / "plain.csv"
        plain.write_text("\ufeffA,B\n1.5,0.9\n", encoding="utf-8")
        assert load_csv(str(plain)).asset_names == ("A", "B")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1.0,2.0\n\n1.0,abc\n", "line 4, column 2: not a number: 'abc'"),
            ('date,a,b\n"2001\n01",1.0,2.0\n2002,1.0,abc\n', "line 4, column 3: not a number: 'abc'"),
            ("a,b\n1.0,2.0\n\n1.0\n", "line 4, column 2: expected 2 cells, got 1"),
            ("\n\ndate\n1\n", "line 3, column 1: header has no asset columns"),
        ],
        ids=["after-blank-line", "after-multiline-cell", "ragged-after-blank-line", "late-header"],
    )
    def test_errors_name_the_file_line_a_row_starts_on(self, tmp_path, text, message):
        # Blank lines are skipped and a quoted cell may span lines; neither may shift the count.
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_csv(str(p))
        assert str(exc.value) == message


def _reference_cell_error(cell: str) -> str | None:
    """The per-cell verdict on one number cell: None if it parses to a finite float."""
    try:
        v = float(cell)
    except ValueError:
        return f"not a number: {cell!r}"
    return None if math.isfinite(v) else f"not finite: {cell!r}"


class TestBadCellDiagnostics:
    @settings(max_examples=80, deadline=None)
    @given(
        T=st.integers(1, 150),
        N=st.integers(1, 5),
        dated=st.booleans(),
        where=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
        bad=st.sampled_from(["abc", "1.0x", "inf", "-Infinity", "nan", "", "1e400", "0x10", "1,5"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_bad_cell_named_at_its_line_and_column(self, tmp_path_factory, T, N, dated, where, bad, seed):
        rng = np.random.default_rng(seed)
        t, j = int(where[0] * T), int(where[1] * N)
        rows = [[f"{v:.17g}" for v in row] for row in np.exp(rng.normal(0.0, 0.1, size=(T, N)))]
        rows[t][j] = bad
        header = [f"a{i}" for i in range(N)]
        if dated:
            header = ["date", *header]
            rows = [[f"d{k}", *row] for k, row in enumerate(rows)]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        path = tmp_path_factory.mktemp("bad") / "m.csv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_csv(str(path))
        column = j + (2 if dated else 1)
        assert (exc.value.line, exc.value.column) == (t + 2, column)
        assert str(exc.value) == f"line {t + 2}, column {column}: {_reference_cell_error(bad)}"


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
        with pytest.raises(NonPositivePrice) as exc:
            prices_to_relatives([[100.0], [0.0]], ["A"])
        assert str(exc.value) == "price row 1, column 0 is 0.0; prices must be > 0"

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
        half = AlgoSpec("crp", weights=(0.5, 0.5))
        for n in (1, 3, 12):
            final = run(half, synth_volatility_pair(n)).final_wealth
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
        from switchfolio.regimes import log_regime_wealth

        for n in (1, 4, 10):
            X = synth_regime_pair(n)
            lw = log_regime_wealth(RegimeSpec((n,), (0, 1)), X)
            assert math.isclose(lw, 2 * n * math.log(1.5), abs_tol=1e-12)

    def test_large_n_validates(self):
        X = synth_regime_pair(10_000)
        assert X.days == 20_000


_TEXT = "abcXYZ019-/.,;\"'é日"


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        T=st.integers(0, 60),
        N=st.integers(1, 6),
        dated=st.booleans(),
    )
    def test_write_then_load_is_identity(self, tmp_path_factory, data, T, N, dated):
        # Every double in [1e-300, 1e300] survives the 17-digit text bitwise, with or without dates.
        values = data.draw(
            st.lists(st.floats(1e-300, 1e300), min_size=T * N, max_size=T * N), label="values"
        )
        names = data.draw(
            st.lists(st.text(_TEXT, min_size=1, max_size=4), min_size=N, max_size=N, unique=True)
            .filter(lambda ns: ns[0].lower() != "date"),
            label="names",
        )
        dates = data.draw(st.lists(st.text(_TEXT, max_size=10), min_size=T, max_size=T), label="dates")
        X = validate_relatives(np.array(values).reshape(T, N), names, dates if dated else None)
        path = tmp_path_factory.mktemp("rt") / "rt.csv"
        write_csv(X, str(path))
        Y = load_csv(str(path))
        assert Y.values.tobytes() == X.values.tobytes() and Y.values.shape == X.values.shape
        assert Y.asset_names == X.asset_names
        assert Y.dates == X.dates

    def test_round_trip_with_dates(self, tmp_path):
        X = validate_relatives([[1.5, 0.5]], ["a", "b"], dates=["1999-12-31"])
        p = tmp_path / "d.csv"
        write_csv(X, str(p))
        Y = load_csv(str(p))
        assert Y.dates == ("1999-12-31",)
        assert np.array_equal(X.values, Y.values)

    def test_written_as_utf8_whatever_the_locale(self, tmp_path):
        # Under the C locale without UTF-8 mode, the default file encoding is ASCII.
        script = (
            "from switchfolio.core import validate_relatives\n"
            "from switchfolio.market_data import load_csv, write_csv\n"
            "X = validate_relatives([[1.5]], ['\\u00e9t\\u00e9'], dates=['2020-01-02'])\n"
            "write_csv(X, 'u.csv')\n"
            "assert load_csv('u.csv').asset_names == X.asset_names\n"
        )
        src = str(Path(switchfolio.__file__).resolve().parents[1])  # the package under test
        env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "u.csv").read_bytes() == "date,\u00e9t\u00e9\n2020-01-02,1.5\n".encode("utf-8")

    def test_seventeen_digit_text(self):
        X = validate_relatives([[1 / 3]], ["a"])
        text = to_csv_text(X)
        assert "0.33333333333333331" in text
