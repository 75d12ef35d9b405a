import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchfolio import backtest
from switchfolio.backtest import (
    AlgoSpec,
    BacktestReport,
    NonFiniteResult,
    compare,
    comparison_tsv,
    emit_plot_data,
    max_drawdown,
    report_tsv,
    run,
)
from switchfolio.core import PortfolioError, validate_relatives
from switchfolio.costs import CostModel
from switchfolio.market_data import synth_regime_pair, synth_volatility_pair
from switchfolio.regimes import AdaptivePrior, FixedGammaPrior, bound_check
from switchfolio.switching import adaptive_init, adaptive_step, fixed_init, fixed_step
from switchfolio.core import RegimeSpec

LOG2 = math.log(2.0)


def random_matrix(rng, T, N):
    vals = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=(T, N)))
    return validate_relatives(vals, [f"a{i}" for i in range(N)])


ONLINE_SPECS = [
    AlgoSpec("switching-fixed", gamma=1 / 3),
    AlgoSpec("switching-adaptive"),
    AlgoSpec("crp", weights=(0.5, 0.5)),
    AlgoSpec("eg", eta=0.05),
    AlgoSpec("universal", samples=200, seed=17),
]


class TestRun:
    def test_best_stock_flagged_hindsight(self):
        X = synth_volatility_pair(3)
        report = run(AlgoSpec("best-stock"), X)
        assert report.hindsight_only
        assert run(AlgoSpec("bcrp"), X).hindsight_only
        assert not run(AlgoSpec("switching-adaptive"), X).hindsight_only

    def test_crp_on_volatility_pair(self):
        report = run(AlgoSpec("crp", weights=(0.5, 0.5)), synth_volatility_pair(6))
        assert math.isclose(report.final_wealth, (9 / 8) ** 6, rel_tol=1e-12)
        assert math.isclose(report.final_wealth, 2.0273, rel_tol=1e-4)

    def test_switching_fixed_tracks_prescient_regime(self):
        # One-switch hindsight regime earns (3/2)^8; the algorithm must land
        # within its advertised concession of that.
        X = synth_regime_pair(4)
        report = run(AlgoSpec("switching-fixed", gamma=1 / 3), X)
        alg_log2 = math.log2(report.final_wealth)
        rep = bound_check(X, FixedGammaPrior(1 / 3), alg_log2, RegimeSpec((4,), (0, 1)))
        assert math.isclose(rep.regime_log_wealth, 8 * math.log2(1.5), rel_tol=1e-12)
        assert rep.slack >= 0

    def test_switching_adaptive_bound_on_regime_pair(self):
        X = synth_regime_pair(4)
        report = run(AlgoSpec("switching-adaptive"), X)
        rep = bound_check(
            X, AdaptivePrior(), math.log2(report.final_wealth), RegimeSpec((4,), (0, 1))
        )
        assert rep.slack >= 0

    def test_wealth_starts_at_one_and_stays_positive(self):
        rng = np.random.default_rng(71)
        X = random_matrix(rng, 9, 2)
        for spec in ONLINE_SPECS:
            report = run(spec, X)
            assert report.wealth[0] == 1.0
            assert np.all(report.wealth > 0)
            assert report.wealth.shape == (10,)
            assert report.weights.shape == (10, 2)

    def test_wealth_consistency_cost_free(self):
        rng = np.random.default_rng(72)
        X = random_matrix(rng, 8, 3)
        for spec in [
            AlgoSpec("switching-fixed", gamma=0.25),
            AlgoSpec("switching-adaptive"),
            AlgoSpec("eg", eta=0.05),
            AlgoSpec("crp", weights=(0.2, 0.5, 0.3)),
        ]:
            report = run(spec, X)
            rebuilt = 1.0
            for t in range(1, 9):
                rebuilt *= float(report.weights[t - 1] @ X.values[t - 1])
            assert abs(math.log(rebuilt) - math.log(report.final_wealth)) <= 1e-10

    def test_wealth_consistency_bucket_costs(self):
        # With bucket accounting the only wedge between compounded daily
        # returns and reported wealth is the per-day cost retention.
        rng = np.random.default_rng(73)
        X = random_matrix(rng, 7, 2)
        g, c = 1 / 3, 0.03
        spec = AlgoSpec("switching-fixed", gamma=g, cost=CostModel.per_trade(c))
        report = run(spec, X)
        retention = (1 - g) + g * (1 - c) ** 2  # constant for the fixed rule
        rebuilt = 1.0
        for t in range(1, 8):
            rebuilt *= float(report.weights[t - 1] @ X.values[t - 1])
            if t > 1:
                rebuilt *= retention
        # the retention applies at each junction (T-1 of them), order-independent
        assert abs(math.log(rebuilt) - math.log(report.final_wealth)) <= 1e-10

    def test_both_accountings_attached_when_costed(self):
        rng = np.random.default_rng(74)
        X = random_matrix(rng, 6, 2)
        spec = AlgoSpec("switching-adaptive", cost=CostModel.parallel(0.02))
        report = run(spec, X)
        assert report.wealth_bucket is not None and report.wealth_realized is not None
        assert np.array_equal(report.wealth, report.wealth_bucket)
        realized = run(
            AlgoSpec("switching-adaptive", cost=CostModel.parallel(0.02), cost_accounting="realized"),
            X,
        )
        assert np.array_equal(realized.wealth, realized.wealth_realized)

    def test_online_causality_prefix_consistency(self):
        rng = np.random.default_rng(75)
        X = random_matrix(rng, 9, 2)
        for spec in ONLINE_SPECS:
            full = run(spec, X)
            for t in (1, 4, 7):
                Xt = validate_relatives(X.values[:t], X.asset_names)
                part = run(spec, Xt)
                assert np.allclose(part.weights, full.weights[: t + 1], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        T=st.integers(1, 40),
        N=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
        fixed=st.booleans(),
        kind=st.sampled_from([None, "per-trade", "parallel"]),
        prefix_share=st.floats(0.0, 1.0),
    )
    def test_online_causality_property(self, T, N, seed, fixed, kind, prefix_share):
        # Each day's weights and wealth depend only on the days before it.
        X = random_matrix(np.random.default_rng(seed), T, N)
        cost = None if kind is None else CostModel(kind, 0.01)
        spec = AlgoSpec("switching-fixed", gamma=0.5 / N, cost=cost) if fixed else AlgoSpec(
            "switching-adaptive", cost=cost
        )
        t = int(prefix_share * T)
        full, part = run(spec, X), run(spec, validate_relatives(X.values[:t], X.asset_names))
        np.testing.assert_allclose(part.weights, full.weights[: t + 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(part.log_wealth, full.log_wealth[: t + 1], rtol=1e-12, atol=1e-12)

    def test_switching_log_wealth_is_the_state_accumulator(self):
        rng = np.random.default_rng(79)
        X = random_matrix(rng, 7, 3)
        for cost in (None, CostModel.per_trade(0.02)):
            for spec, state, step in (
                (AlgoSpec("switching-fixed", gamma=0.2, cost=cost), fixed_init(3, 0.2), fixed_step),
                (AlgoSpec("switching-adaptive", cost=cost), adaptive_init(3), adaptive_step),
            ):
                report = run(spec, X)
                expected = [0.0]
                for row in X.values:
                    expected.append(step(state, row, cost).log_wealth)
                assert report.log_wealth.tolist() == expected
                assert report.wealth.tolist() == [math.exp(v) for v in expected]
        assert run(AlgoSpec("best-stock"), X).log_wealth is None

    def test_largest_track_is_argmax_of_mass(self):
        rng = np.random.default_rng(76)
        X = random_matrix(rng, 8, 3)
        report = run(AlgoSpec("switching-adaptive"), X)
        assert report.largest[0] == 0  # uniform start ties to lowest index
        for k in range(1, 9):
            mass = report.weights[k - 1] * X.values[k - 1]
            assert report.largest[k] == int(np.argmax(mass))

    def test_invalid_specs_rejected(self):
        with pytest.raises(PortfolioError):
            AlgoSpec("switching-fixed")  # no gamma
        with pytest.raises(PortfolioError):
            AlgoSpec("momentum")
        with pytest.raises(PortfolioError):
            AlgoSpec("crp")  # no weights
        with pytest.raises(PortfolioError):
            AlgoSpec("eg")  # no eta
        with pytest.raises(PortfolioError):
            AlgoSpec("universal")  # no samples

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind="eg", eta=0.05, samples=5), "eg takes no parameter samples"),
            (dict(kind="eg", eta=0.05, gamma=0.2), "eg takes no parameter gamma"),
            (dict(kind="switching-adaptive", gamma=0.2), "switching-adaptive takes no parameter gamma"),
            (dict(kind="bcrp", weights=(0.5, 0.5)), "bcrp takes no parameter weights"),
            (dict(kind="crp", weights=(0.5, 0.5), eta=0.1), "crp takes no parameter eta"),
            (dict(kind="universal"), "universal needs samples"),
        ],
    )
    def test_parameters_follow_the_kind(self, fields, message):
        with pytest.raises(PortfolioError) as exc:
            AlgoSpec(**fields)
        assert str(exc.value) == message

    @pytest.mark.parametrize("eta", [-1.0, -1e-300, math.nan, math.inf])
    def test_negative_or_non_finite_eta_rejected(self, eta):
        with pytest.raises(PortfolioError) as exc:
            AlgoSpec("eg", eta=eta)
        assert str(exc.value) == f"eta must be a finite number >= 0, got {eta!r}"

    def test_parameters_text(self):
        assert AlgoSpec("bcrp").parameters == "-"
        assert AlgoSpec("eg", eta=0.05).parameters == "eta=0.05"
        assert AlgoSpec("crp", weights=(0.25, 0.75)).parameters == "w=0.25|0.75"
        assert AlgoSpec("universal", samples=300, seed=9).parameters == "samples=300 seed=9"
        assert AlgoSpec("switching-fixed", gamma=0.3, seed=4).label == "switching-fixed gamma=0.3"


class TestCompare:
    def test_rows_and_corner_dominance(self):
        rng = np.random.default_rng(77)
        X = random_matrix(rng, 15, 2)
        rows = compare(
            [AlgoSpec("best-stock"), AlgoSpec("bcrp"), AlgoSpec("switching-fixed", gamma=1 / 3)],
            X,
        )
        assert [r.name for r in rows] == ["best-stock", "bcrp", "switching-fixed"]
        assert rows[1].final_wealth >= rows[0].final_wealth - 1e-12

    def test_empty_spec_list_rejected(self):
        X = synth_volatility_pair(1)
        with pytest.raises(PortfolioError):
            compare([], X)

    def test_specs_after_a_non_finite_one_do_not_run(self, monkeypatch):
        X = synth_regime_pair(2000)  # eg's wealth overflows here
        ran = []
        real_run = backtest.run

        def recording_run(spec, X):
            ran.append(spec.kind)
            return real_run(spec, X)

        monkeypatch.setattr(backtest, "run", recording_run)
        specs = [AlgoSpec("best-stock"), AlgoSpec("eg", eta=0.05), AlgoSpec("crp", weights=(1, 0))]
        with np.errstate(all="ignore"), pytest.raises(NonFiniteResult, match="eg eta=0.05"):
            compare(specs, X)
        assert ran == ["best-stock", "eg"]

    def test_deterministic_with_seeded_universal(self):
        rng = np.random.default_rng(78)
        X = random_matrix(rng, 10, 2)
        specs = [AlgoSpec("universal", samples=300, seed=9), AlgoSpec("switching-adaptive")]
        a = comparison_tsv(compare(specs, X))
        b = comparison_tsv(compare(specs, X))
        assert a == b


class TestPlotData:
    def test_empty_history_report(self):
        X = validate_relatives([], ["a", "b"])
        report = run(AlgoSpec("switching-adaptive"), X)
        text = emit_plot_data(report)
        lines = text.strip().split("\n")
        assert lines[0] == "day,wealth,largest_asset,w_1,w_2"
        assert len(lines) == 2
        assert lines[1].startswith("0,1,")

    def test_row_count(self):
        X = synth_volatility_pair(4)
        report = run(AlgoSpec("switching-fixed", gamma=1 / 3), X)
        lines = emit_plot_data(report).strip().split("\n")
        assert len(lines) == X.days + 2  # header + day 0..T

    def test_parse_back_round_trip(self):
        rng = np.random.default_rng(80)
        X = random_matrix(rng, 7, 3)
        report = run(AlgoSpec("switching-adaptive"), X)
        parsed = list(csv.DictReader(io.StringIO(emit_plot_data(report))))
        assert len(parsed) == 8
        for k, row in enumerate(parsed):
            assert int(row["day"]) == k
            assert float(row["wealth"]) == report.wealth[k]
            for i in range(3):
                assert float(row[f"w_{i + 1}"]) == report.weights[k, i]

    def test_dates_appended_when_present(self):
        X = validate_relatives(
            [[1.5, 0.5], [0.5, 1.5]], ["a", "b"], dates=["d1", "d2"]
        )
        report = run(AlgoSpec("crp", weights=(0.5, 0.5)), X)
        lines = emit_plot_data(report).strip().split("\n")
        assert lines[0].endswith(",date")
        assert lines[1].endswith(",")  # day 0 precedes the first dated relative
        assert lines[2].endswith(",d1")


def ref_emit_plot_data(report: BacktestReport) -> str:
    """The per-row, per-cell emission the whole-grid one must reproduce byte for byte."""
    n = report.weights.shape[1]
    buf = io.StringIO()
    header = "day,wealth,largest_asset," + ",".join(f"w_{i + 1}" for i in range(n))
    with_dates = report.dates is not None
    if with_dates:
        header += ",date"
    buf.write(header + "\n")
    for k in range(report.days + 1):
        cells = [str(k), f"{report.wealth[k]:.17g}", str(int(report.largest[k]))]
        cells += [f"{v:.17g}" for v in report.weights[k]]
        if with_dates:
            cells.append("" if k == 0 else report.dates[k - 1])
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


class TestPlotDataAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), T=st.integers(0, 60), N=st.integers(1, 6), dated=st.booleans())
    def test_byte_identical(self, data, T, N, dated):
        number = st.floats(allow_nan=True, allow_infinity=True)
        wealth = np.array(data.draw(st.lists(number, min_size=T + 1, max_size=T + 1), label="wealth"))
        weights = np.array(data.draw(st.lists(number, min_size=(T + 1) * N, max_size=(T + 1) * N), label="weights"))
        largest = np.array(data.draw(st.lists(st.integers(0, N - 1), min_size=T + 1, max_size=T + 1)))
        dates = data.draw(st.lists(st.text(max_size=8), min_size=T, max_size=T), label="dates")
        report = BacktestReport(
            spec=AlgoSpec("switching-adaptive"),
            wealth=wealth,
            weights=weights.reshape(T + 1, N),
            largest=largest,
            dates=tuple(dates) if dated else None,
        )
        assert emit_plot_data(report) == ref_emit_plot_data(report)

    @pytest.mark.parametrize("kind", ["switching-adaptive", "best-stock", "universal"])
    def test_runs_byte_identical(self, kind):
        rng = np.random.default_rng(81)
        X = validate_relatives(np.exp(rng.normal(0.0, 0.05, size=(300, 4))), list("abcd"),
                               dates=[f"2001-{k}" for k in range(300)])
        spec = AlgoSpec(kind, samples=50 if kind == "universal" else None, cost=CostModel.parallel(0.01))
        report = run(spec, X)
        assert emit_plot_data(report) == ref_emit_plot_data(report)


class TestReportHelpers:
    def test_max_drawdown(self):
        assert max_drawdown(np.array([1.0, 2.0, 1.0, 3.0])) == 0.5
        assert max_drawdown(np.array([1.0, 1.1, 1.2])) == 0.0

    def test_report_tsv_fields(self):
        X = synth_volatility_pair(2)
        spec = AlgoSpec("switching-fixed", gamma=1 / 3, cost=CostModel.parallel(0.01))
        text = report_tsv(run(spec, X))
        assert "algorithm\tswitching-fixed" in text
        assert "cost_model\tparallel" in text
        assert "final_wealth_bucket" in text and "final_wealth_realized" in text
