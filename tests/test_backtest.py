import csv
import io
import math
import tracemalloc
from dataclasses import FrozenInstanceError

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
from switchfolio.core import NegativeEntry, PortfolioError, validate_relatives
from switchfolio.costs import CostModel
from switchfolio.market_data import synth_regime_pair, synth_volatility_pair
from switchfolio.regimes import BoundTable, bound_check
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
        final = math.exp(run(AlgoSpec("crp", weights=(0.5, 0.5)), synth_volatility_pair(6)).log_wealth[-1])
        assert math.isclose(final, (9 / 8) ** 6, rel_tol=1e-12)
        assert math.isclose(final, 2.0273, rel_tol=1e-4)

    def test_switching_fixed_tracks_prescient_regime(self):
        # One-switch hindsight regime earns (3/2)^8; the algorithm must land
        # within its advertised concession of that.
        X = synth_regime_pair(4)
        spec = AlgoSpec("switching-fixed", gamma=1 / 3)
        alg_log2 = run(spec, X).log_wealth[-1] / LOG2
        rep = bound_check(BoundTable(X, spec, alg_log2), RegimeSpec((4,), (0, 1)))
        assert math.isclose(rep.regime_log_wealth, 8 * math.log2(1.5), rel_tol=1e-12)
        assert rep.slack >= 0

    def test_switching_adaptive_bound_on_regime_pair(self):
        X = synth_regime_pair(4)
        spec = AlgoSpec("switching-adaptive")
        table = BoundTable(X, spec, run(spec, X).log_wealth[-1] / LOG2)
        rep = bound_check(table, RegimeSpec((4,), (0, 1)))
        assert rep.slack >= 0

    def test_wealth_starts_at_one_and_stays_positive(self):
        rng = np.random.default_rng(71)
        X = random_matrix(rng, 9, 2)
        for spec in ONLINE_SPECS:
            report = run(spec, X)
            wealth = np.exp(report.log_wealth)
            assert wealth[0] == 1.0
            assert np.all(wealth > 0)
            assert wealth.shape == (10,)
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
            assert abs(math.log(rebuilt) - report.log_wealth[-1]) <= 1e-10

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
        assert abs(math.log(rebuilt) - report.log_wealth[-1]) <= 1e-10

    def test_both_accountings_attached_when_costed(self):
        rng = np.random.default_rng(74)
        X = random_matrix(rng, 6, 2)
        spec = AlgoSpec("switching-adaptive", cost=CostModel.parallel(0.02))
        report = run(spec, X)
        assert report.log_wealth_bucket is not None and report.log_wealth_realized is not None
        assert np.array_equal(report.log_wealth, report.log_wealth_bucket)
        realized = run(
            AlgoSpec("switching-adaptive", cost=CostModel.parallel(0.02), cost_accounting="realized"),
            X,
        )
        assert np.array_equal(realized.log_wealth, realized.log_wealth_realized)

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
                (AlgoSpec("switching-fixed", gamma=0.2, cost=cost), fixed_init(3, 0.2, cost), fixed_step),
                (AlgoSpec("switching-adaptive", cost=cost), adaptive_init(3, X.days, cost), adaptive_step),
            ):
                report = run(spec, X)
                expected = [0.0]
                for row in X.values:
                    expected.append(step(state, row).log_wealth)
                assert report.log_wealth.tolist() == expected
                assert report.log_wealth_bucket is (None if cost is None else report.log_wealth)

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

    @pytest.mark.parametrize("gamma", [0.0, -0.1, -1e-300, 1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_gamma_outside_the_open_unit_interval_rejected(self, gamma):
        # Any N's fixed_init range, (0, (N-1)/N], lies inside (0, 1): the spec refuses the rest before a run.
        with pytest.raises(PortfolioError) as exc:
            AlgoSpec("switching-fixed", gamma=gamma)
        assert str(exc.value) == f"gamma must be in (0, 1), got {gamma!r}"

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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_universal_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(PortfolioError) as exc:
            AlgoSpec("universal", samples=10, seed=seed)
        assert str(exc.value) == f"seed must be a non-negative integer, got {seed!r}"

    @pytest.mark.parametrize("samples", [2.5, 5.0, "5", True, False, np.True_, np.float64(3)])
    def test_sample_count_must_be_an_integer(self, samples):
        with pytest.raises(PortfolioError) as exc:
            AlgoSpec("universal", samples=samples)
        assert str(exc.value) == f"sample count must be an integer, got {samples!r}"

    @pytest.mark.parametrize("samples", [0, -3, np.int64(0)])
    def test_sample_count_must_be_positive(self, samples):
        with pytest.raises(PortfolioError) as exc:
            AlgoSpec("universal", samples=samples)
        assert str(exc.value) == f"need at least one sample, got {samples}"

    def test_numpy_integer_samples_and_seed_accepted(self):
        spec = AlgoSpec("universal", samples=np.int32(20), seed=np.int64(4))
        assert spec == AlgoSpec("universal", samples=20, seed=4)
        assert spec.parameters == "samples=20 seed=4"


def _padded(draw, text: str) -> str:
    """text with drawn spaces around it, which the spec grammar strips."""
    return draw(st.sampled_from(["", " ", "  "])) + text + draw(st.sampled_from(["", " "]))


@st.composite
def spec_strings(draw):
    """(spec string, AlgoSpec keyword arguments, parameters text) of one kind with drawn valid parameters.

    The keyword arguments hold a seed only where the string gives one; the parameters text
    holds ``{seed}`` for universal's seed.
    """
    kind = draw(st.sampled_from(backtest.ALGO_KINDS))
    finite = st.floats(0.0, 1e6, allow_subnormal=True)
    fields, texts = {}, []
    if kind == "switching-fixed":
        fields["gamma"] = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True, allow_subnormal=True))
        texts.append(f"gamma={fields['gamma']:g}")
    elif kind == "eg":
        fields["eta"] = draw(finite)
        texts.append(f"eta={fields['eta']:g}")
    elif kind == "crp":
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
        fields["weights"] = tuple(v / math.fsum(raw) for v in raw)
        texts.append("w=" + "|".join(f"{v:g}" for v in fields["weights"]))
    chunks = [f"{_padded(draw, key)}={_padded(draw, repr(v) if key != 'weights' else '|'.join(map(repr, v)))}"
              for key, v in fields.items()]
    if kind == "universal":
        given = draw(st.sets(st.sampled_from(["samples", "seed"])))
        fields["samples"] = draw(st.integers(1, 10**9)) if "samples" in given else backtest.DEFAULT_SAMPLES
        if "seed" in given:
            fields["seed"] = draw(st.integers(0, 2**63))
        chunks += draw(st.permutations([f"{_padded(draw, key)}={_padded(draw, str(fields[key]))}" for key in given]))
        texts += [f"samples={fields['samples']}", "seed={seed}"]
    chunks += [""] * draw(st.integers(0, 1))  # an empty chunk is skipped
    text = _padded(draw, kind) + (":" + ",".join(chunks) if chunks or draw(st.booleans()) else "")
    return text, {"kind": kind, **fields}, " ".join(texts) or "-"


class TestParse:
    """``AlgoSpec.parse`` reads the spec strings of backtest and compare."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=spec_strings(), seed=st.integers(0, 2**63), cost=st.sampled_from([None, CostModel.parallel(0.02)]),
           accounting=st.sampled_from(["bucket", "realized"]))
    def test_a_valid_spec_string_reads_to_the_spec_built_directly(self, drawn, seed, cost, accounting):
        text, fields, parameters = drawn
        spec = AlgoSpec.parse(text, seed, cost, accounting)
        direct = AlgoSpec(**{"seed": seed, **fields}, cost=cost, cost_accounting=accounting)
        assert spec == direct
        assert spec.parameters == direct.parameters == parameters.format(seed=direct.seed)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("eg:eta", "malformed algorithm parameter 'eta' in 'eg:eta'"),
            ("crp:weights=0.5,0.5", "malformed algorithm parameter '0.5' in 'crp:weights=0.5,0.5'"),
            ("eg:eta=0.1,eta=0.2", "algorithm parameter eta given twice in 'eg:eta=0.1,eta=0.2'"),
            ("eg: eta=0.1 , eta =abc", "algorithm parameter eta given twice in 'eg: eta=0.1 , eta =abc'"),
            ("eg:rate=1,rate=2", "unknown algorithm parameter 'rate' in 'eg:rate=1,rate=2'"),
            ("universal:seed=1,seed=1", "algorithm parameter seed given twice in 'universal:seed=1,seed=1'"),
            ("eg:eta=0.05,rate=2", "unknown algorithm parameter 'rate' in 'eg:eta=0.05,rate=2'"),
            ("eg:rate=x,eta=abc", "unknown algorithm parameter 'rate' in 'eg:rate=x,eta=abc'"),
            ("momentum:rate=1", "unknown algorithm parameter 'rate' in 'momentum:rate=1'"),
            ("eg:eta=abc,rate=1", "algorithm parameter eta must be a number, got 'abc'"),
            ("switching-fixed:gamma=abc", "algorithm parameter gamma must be a number, got 'abc'"),
            ("eg:eta=", "algorithm parameter eta must be a number, got ''"),
            ("crp:weights=0.5|x", "algorithm parameter weights must be a number, got 'x'"),
            ("universal:samples=1e3", "algorithm parameter samples must be an integer, got '1e3'"),
            ("universal:seed=x", "algorithm parameter seed must be an integer, got 'x'"),
            ("momentum:eta=x", "algorithm parameter eta must be a number, got 'x'"),
            ("momentum", "unknown algorithm kind 'momentum'; choose from " + repr(backtest.ALGO_KINDS)),
            ("eg", "eg needs eta"),
            ("eg:seed=3", "eg needs eta"),
            ("eg:eta=0.05,gamma=0.2,samples=5", "eg takes no parameter gamma"),
            ("bcrp:weights=0.5|0.5", "bcrp takes no parameter weights"),
            ("switching-adaptive:samples=5", "switching-adaptive takes no parameter samples"),
            ("universal:samples=5,eta=0.1", "universal takes no parameter eta"),
            ("bcrp:seed=3", "bcrp takes no parameter seed"),
            ("eg:eta=0.05,seed=-1", "eg takes no parameter seed"),
            ("eg:eta=-1", "eta must be a finite number >= 0, got -1.0"),
            ("switching-fixed:gamma=nan", "gamma must be in (0, 1), got nan"),
            ("switching-fixed:gamma=0", "gamma must be in (0, 1), got 0.0"),
            ("crp:weights=-0.5|1.5", "negative or NaN portfolio weight: -0.5"),
            ("universal:samples=0", "need at least one sample, got 0"),
            ("universal:seed=-1", "seed must be a non-negative integer, got -1"),
        ],
    )
    def test_refusals(self, text, message):
        with pytest.raises(PortfolioError) as exc:
            AlgoSpec.parse(text)
        assert str(exc.value) == message

    def test_a_refused_seed_argument_reaches_only_universal(self):
        assert AlgoSpec.parse("bcrp", seed=-1).seed == -1
        with pytest.raises(PortfolioError, match="^seed must be a non-negative integer, got -1$"):
            AlgoSpec.parse("universal", seed=-1)
        with pytest.raises(PortfolioError, match="^cost_accounting must be bucket or realized, got 'x'$"):
            AlgoSpec.parse("bcrp", cost_accounting="x")


class TestWeightTrackCheck:
    """A run checks its weight track once, after its loop, and names the first day off the simplex."""

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ([0.75, 0.5, 0.0], PortfolioError, "portfolio weights sum to 1.25, not 1 within 1e-12"),
            ([1.5, -0.5, 0.0], NegativeEntry, "negative or NaN portfolio weight: -0.5"),
            ([np.nan, np.nan, np.nan], NegativeEntry, "negative or NaN portfolio weight: nan"),
        ],
    )
    @pytest.mark.parametrize(
        "spec, weights_of",
        [
            (AlgoSpec("switching-adaptive"), "adaptive_weights"),
            (AlgoSpec("switching-fixed", gamma=0.2), "fixed_weights"),
        ],
    )
    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_refusal_names_the_first_bad_day(self, monkeypatch, spec, weights_of, bad, error, message, k):
        real = getattr(backtest, weights_of)
        calls = []

        def bad_from_day_k(state):
            calls.append(state.day)
            return np.array(bad) if state.day >= k else real(state)

        monkeypatch.setattr(backtest, weights_of, bad_from_day_k)
        with pytest.raises(error) as exc:
            run(spec, random_matrix(np.random.default_rng(k), 9, 3))
        assert str(exc.value) == f"{spec.label}: weights after day {k}: {message}"
        assert calls == list(range(1, 10))  # the loop ran to the end before the one check


class TestPerDayCalls:
    """A run calls each per-day function once a day, in day order, under its name in
    ``switchfolio.backtest``, where the benchmark's trace wraps and counts it."""

    @pytest.mark.parametrize(
        "spec, names",
        [
            (AlgoSpec("eg", eta=0.05), ["eg_step"]),
            (AlgoSpec("switching-fixed", gamma=0.2, cost=CostModel.per_trade(0.01)), ["fixed_step", "fixed_weights"]),
            (AlgoSpec("switching-adaptive", cost=CostModel.parallel(0.02)), ["adaptive_step", "adaptive_weights"]),
        ],
    )
    def test_one_call_a_day(self, monkeypatch, spec, names):
        X = random_matrix(np.random.default_rng(31), 11, 3)
        calls = {name: [] for name in names}

        def counted(name, real):
            def wrapper(*args):
                result = real(*args)
                # A state's day after a step, or the day a weights call reads; EG's row, by content.
                first = args[0]
                calls[name].append(first.day if hasattr(first, "day") else args[1].tolist())
                return result

            return wrapper

        for name in names:
            monkeypatch.setattr(backtest, name, counted(name, getattr(backtest, name)))
        run(spec, X)
        expected = X.values.tolist() if spec.kind == "eg" else list(range(1, X.days + 1))
        assert calls == {name: expected for name in names}


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
        specs = [AlgoSpec("crp", weights=(0.5, 0.5)), AlgoSpec("eg", eta=0.05), AlgoSpec("crp", weights=(1, 0))]
        with np.errstate(all="ignore"), pytest.raises(NonFiniteResult, match="eg eta=0.05"):
            compare(specs, X)
        assert ran == ["crp", "eg"]

    def test_wealth_underflow_refused(self):
        X = synth_regime_pair(2000)  # the best single asset's wealth lies below the normal doubles here
        refusal = r"^best-stock: final_wealth e\^-1961\.658[0-9]+ lies outside the positive normal doubles$"
        with pytest.raises(NonFiniteResult, match=refusal):
            compare([AlgoSpec("best-stock")], X)
        with pytest.raises(NonFiniteResult, match=refusal):
            report_tsv(run(AlgoSpec("best-stock"), X))
        assert compare([AlgoSpec("bcrp")], X)[0].final_wealth > 0  # tiny, but representable

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
            assert float(row["wealth"]) == math.exp(report.log_wealth[k])
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

    @settings(max_examples=200, deadline=None)
    @given(dates=st.lists(st.text(max_size=6) | st.sampled_from(["2020,01", 'x"y', "a\rb", "a\nb", '"']),
                          min_size=1, max_size=5))
    def test_dates_read_back_by_csv_reader(self, dates):
        # A date holding a comma, quote, CR or LF once spilled into extra fields or broke its row.
        X = validate_relatives(np.ones((len(dates), 2)), ["a", "b"], dates=dates)
        report = run(AlgoSpec("crp", weights=(0.5, 0.5)), X)
        rows = list(csv.reader(io.StringIO(emit_plot_data(report), newline="")))
        assert [len(row) for row in rows] == [6] * (len(dates) + 2)
        assert [row[-1] for row in rows] == ["date", "", *dates]


def _csv_cell(text: str) -> str:
    """text as one cell of a line that csv.writer writes with its default minimal quoting."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", text])
    return buf.getvalue()[1:-2]  # past the first, empty cell and before the CR LF


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
        cells = [str(k), f"{math.exp(report.log_wealth[k]):.17g}", str(int(report.largest[k]))]
        cells += [f"{v:.17g}" for v in report.weights[k]]
        if with_dates:
            cells.append("" if k == 0 else _csv_cell(report.dates[k - 1]))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


class TestPlotDataAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), T=st.integers(0, 60), N=st.integers(1, 6), dated=st.booleans())
    def test_byte_identical(self, data, T, N, dated):
        number = st.floats(allow_nan=True, allow_infinity=True)
        # Every natural-log wealth whose e^ the plot can print, ends included.
        log_normal = st.floats(backtest.LOG_NORMAL_MIN, backtest.LOG_NORMAL_MAX)
        log_wealth = np.array(data.draw(st.lists(log_normal, min_size=T + 1, max_size=T + 1), label="log wealth"))
        weights = np.array(data.draw(st.lists(number, min_size=(T + 1) * N, max_size=(T + 1) * N), label="weights"))
        largest = np.array(data.draw(st.lists(st.integers(0, N - 1), min_size=T + 1, max_size=T + 1)))
        dates = data.draw(st.lists(st.text(max_size=8), min_size=T, max_size=T), label="dates")
        report = BacktestReport(
            spec=AlgoSpec("switching-adaptive"),
            log_wealth=log_wealth,
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
        assert max_drawdown(np.log([1.0, 2.0, 1.0, 3.0])) == 0.5
        never_falls = max_drawdown(np.log([1.0, 1.1, 1.2]))
        assert never_falls == 0.0 and math.copysign(1.0, never_falls) == 1.0  # 0, not -0
        assert max_drawdown(np.array([0.0, 1500.0, -1500.0, 0.0])) == 1.0  # e^-3000: finite in logs

    def test_linear_wealth_refuses_outside_the_positive_normal_doubles(self):
        lo, hi = backtest.LOG_NORMAL_MIN, backtest.LOG_NORMAL_MAX
        assert backtest.linear_wealth("w", np.array([lo, 0.0, hi])).tolist() == [math.exp(lo), 1.0, math.exp(hi)]
        assert float(backtest.linear_wealth("w", 1.0)) == math.exp(1.0)
        for log_wealth in (np.nextafter(hi, math.inf), np.nextafter(lo, -math.inf), math.inf, -math.inf, math.nan):
            with pytest.raises(NonFiniteResult, match=rf"^w e\^{log_wealth:.17g} lies outside"):
                backtest.linear_wealth("w", log_wealth)
        with pytest.raises(NonFiniteResult, match=r"^w after day 2 e\^nan lies outside the positive normal doubles$"):
            backtest.linear_wealth("w", np.array([0.0, 1.0, math.nan, math.inf]))

    def test_report_tsv_fields(self):
        X = synth_volatility_pair(2)
        spec = AlgoSpec("switching-fixed", gamma=1 / 3, cost=CostModel.parallel(0.01))
        text = report_tsv(run(spec, X))
        assert "algorithm\tswitching-fixed" in text
        assert "cost_model\tparallel" in text
        assert "final_wealth_bucket" in text and "final_wealth_realized" in text

    @pytest.mark.parametrize(
        "kind, params",
        [("crp", {"weights": (0.5, 0.5)}), ("bcrp", {}), ("best-stock", {}), ("eg", {"eta": 0.05}),
         ("universal", {"samples": 50})],
    )
    def test_only_switching_kinds_report_bucket_accounting(self, kind, params):
        # These kinds hold a weight schedule whose costs are realized; a bucket figure used to be
        # printed for them, a copy of the realized one under the flag's default label.
        X = synth_volatility_pair(3)
        texts = set()
        for accounting in ("bucket", "realized"):
            report = run(AlgoSpec(kind, **params, cost=CostModel.parallel(0.01), cost_accounting=accounting), X)
            assert report.log_wealth_bucket is None and report.log_wealth_realized is report.log_wealth
            texts.add(report_tsv(report))
        (text,) = texts
        assert "cost_accounting\trealized\n" in text and "final_wealth_bucket" not in text
        assert f"final_wealth_realized\t{math.exp(report.log_wealth[-1]):.12g}\n" in text


def _random_report(T: int, N: int, dated: bool, seed: int = 0) -> BacktestReport:
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(N), size=T + 1)
    return BacktestReport(
        spec=AlgoSpec("switching-adaptive"),
        log_wealth=np.cumsum(rng.normal(0.0, 0.01, size=T + 1)),
        weights=weights,
        largest=np.argmax(weights, axis=1),
        dates=tuple(f"2001-{k}" for k in range(T)) if dated else None,
    )


class TestBacktestReportRecord:
    """A slotted record that behaves as the frozen dataclass it replaced."""

    def test_fields_cannot_be_set_or_deleted(self):
        report = _random_report(4, 2, dated=True)
        for name in (*report.__slots__, "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(report, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(report, name)
        assert report.spec == AlgoSpec("switching-adaptive") and report.days == 4
        assert not hasattr(report, "__dict__")


class TestPlotDataChunks:
    """Rows are formatted a chunk at a time; the text must not show where the chunks meet."""

    @pytest.mark.parametrize("dated", [False, True])
    @pytest.mark.parametrize("T", [1022, 1023, 1024, 2047, 2048, 2500])
    def test_byte_identical_across_chunk_boundaries(self, T, dated):
        report = _random_report(T, 3, dated)
        assert emit_plot_data(report) == ref_emit_plot_data(report)

    @settings(max_examples=40, deadline=None)
    @given(T=st.integers(0, 40), N=st.integers(1, 4), dated=st.booleans(), chunk=st.integers(1, 8))
    def test_any_chunk_size(self, T, N, dated, chunk):
        report = _random_report(T, N, dated, seed=T)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backtest, "PLOT_CHUNK_ROWS", chunk)
            assert emit_plot_data(report) == ref_emit_plot_data(report)

    def test_peak_is_near_the_text_size(self):
        # The benchmark's shape: the Python floats and row strings of one chunk at a time, then
        # the chunk strings and the joined text.
        report = _random_report(10_000, 5, dated=False)
        tracemalloc.start()
        try:
            text = emit_plot_data(report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text), f"emit_plot_data peaked at {peak / len(text):.2f}x its text"
