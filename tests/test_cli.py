import math
import subprocess
import sys

import numpy as np
import pytest

from switchfolio import cli
from switchfolio.backtest import AlgoSpec, run
from switchfolio.cli import main
from switchfolio.core import validate_relatives
from switchfolio.costs import CostModel
from switchfolio.market_data import write_csv
from switchfolio.regimes import AdaptivePrior, FixedGammaPrior
from switchfolio.switching import adaptive_init, adaptive_step, fixed_init, fixed_step


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynthBacktestFlow:
    def test_smoke_path(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        code, _, _ = invoke(capsys, "synth", "--kind", "regime-pair", "--n", "4", "--out", str(data))
        assert code == 0
        code, out, _ = invoke(capsys, "backtest", "--data", str(data), "--algo", "switching-adaptive")
        assert code == 0
        assert out.startswith("algorithm\tswitching-adaptive")
        assert "final_wealth\t" in out

    def test_synth_to_stdout(self, capsys):
        code, out, _ = invoke(capsys, "synth", "--kind", "volatility-pair", "--n", "1")
        assert code == 0
        assert out == "steady,volatile\n1,0.5\n1,2\n"

    def test_plot_data_file(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "volatility-pair", "--n", "3", "--out", str(data))
        plot = tmp_path / "plot.csv"
        code, _, _ = invoke(
            capsys, "backtest", "--data", str(data), "--algo", "crp",
            "--weights", "0.5,0.5", "--plot-data", str(plot),
        )
        assert code == 0
        lines = plot.read_text().strip().split("\n")
        assert lines[0] == "day,wealth,largest_asset,w_1,w_2"
        assert len(lines) == 8


class TestUsageErrors:
    def test_missing_gamma_exits_one(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2", "--out", str(data))
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--data", str(data), "--algo", "switching-fixed"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "regime-pair", "--n", "2", "--frobnicate"])
        assert exc.value.code == 1

    def test_help_exits_zero(self, capsys):
        for sub in ("synth", "backtest", "compare", "oracle", "bounds"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0
            assert "--out" in capsys.readouterr().out


class TestDataErrors:
    def test_parse_error_exits_two_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B\n1.0,oops\n")
        code, _, err = invoke(capsys, "backtest", "--data", str(bad), "--algo", "switching-adaptive")
        assert code == 2
        assert "line 2" in err and "column 2" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = invoke(capsys, "backtest", "--data", "/nonexistent.csv", "--algo", "bcrp")
        assert code == 2

    def test_bad_cost_rate_exits_two(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2", "--out", str(data))
        code, _, err = invoke(
            capsys, "backtest", "--data", str(data), "--algo", "switching-adaptive",
            "--cost-model", "parallel", "--cost-rate", "0.6",
        )
        assert code == 2

    def test_malformed_weights_exits_two(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2", "--out", str(data))
        code, _, err = invoke(
            capsys, "backtest", "--data", str(data), "--algo", "crp", "--weights", "0.5,x"
        )
        assert code == 2
        assert err == "switchfolio: algorithm parameter weights must be a number, got 'x'\n"

    def test_negative_weight_printed_as_a_float(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2", "--out", str(data))
        code, out, err = invoke(capsys, "backtest", "--data", str(data), "--algo", "crp", "--weights=-0.5,1.5")
        assert (code, out) == (2, "")
        assert err == "switchfolio: negative or NaN portfolio weight: -0.5\n"

    def test_negative_price_printed_as_a_float(self, capsys, tmp_path):
        data = tmp_path / "p.csv"
        data.write_text("a,b\n1.0,2.0\n-1.0,2.0\n")
        code, out, err = invoke(capsys, "backtest", "--data", str(data), "--mode", "prices", "--algo", "bcrp")
        assert (code, out) == (2, "")
        assert err == "switchfolio: price row 1, column 0 is -1.0; prices must be > 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--seed", "-1", "--algo", "universal:samples=10"],
            ["compare", "--algo", "universal:samples=10,seed=-1"],
            ["backtest", "--algo", "universal", "--samples", "10", "--seed", "-1"],
        ],
    )
    def test_negative_seed_exits_two(self, capsys, tmp_path, argv):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2", "--out", str(data))
        code, out, err = invoke(capsys, argv[0], "--data", str(data), *argv[1:])
        assert code == 2
        assert out == ""
        assert err == "switchfolio: seed must be a non-negative integer, got -1\n"

    def test_wealth_overflow_exits_two(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2000", "--out", str(data))
        code, out, err = invoke(capsys, "backtest", "--data", str(data), "--algo", "switching-adaptive")
        assert code == 2
        assert out == ""
        assert err == "switchfolio: arithmetic failure (OverflowError: math range error)\n"

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["compare", "--algo", "best-stock", "--algo", "eg:eta=0.05"], "eg eta=0.05"),
            (["compare", "--algo", "universal:samples=50"], "universal samples=50 seed=0"),
            (["backtest", "--algo", "eg", "--eta", "0.05"], "eg eta=0.05"),
        ],
    )
    def test_non_finite_wealth_exits_two(self, capsys, tmp_path, argv, label):
        # 4000 days alternating 1.5x and 0.25x: the baselines' linear wealth overflows.
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2000", "--out", str(data))
        with np.errstate(all="ignore"):
            code, out, err = invoke(capsys, argv[0], "--data", str(data), *argv[1:])
        assert code == 2
        assert out == ""
        assert err == f"switchfolio: {label}: non-finite final_wealth, max_drawdown\n"

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["compare", "--algo", "universal:samples=100"], "universal samples=100 seed=0"),
            (["backtest", "--algo", "universal"], "universal samples=10000 seed=0"),
            (["compare", "--algo", "best-stock", "--algo", "eg:eta=0.05",
              "--algo", "universal:samples=100"], "eg eta=0.05"),
        ],
    )
    def test_non_finite_refusal_prints_no_numpy_warning(self, tmp_path, argv, label):
        # A fresh process with warnings shown: the refusal must be the whole of stderr.
        data = tmp_path / "m.csv"
        cli_argv = [sys.executable, "-W", "default", "-m", "switchfolio.cli"]
        subprocess.run(cli_argv + ["synth", "--kind", "regime-pair", "--n", "2000", "--out", str(data)],
                       check=True)
        done = subprocess.run(cli_argv + [argv[0], "--data", str(data), *argv[1:]],
                              capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"switchfolio: {label}: non-finite final_wealth, max_drawdown\n"

    @pytest.mark.parametrize("command", ["oracle", "bounds"])
    def test_too_many_regimes_refused_before_the_algorithm(self, capsys, tmp_path, monkeypatch, command):
        # Only bounds enumerates regimes; oracle sums the same 3^500 of them by its O(T^2 N) DP.
        data = tmp_path / "m.csv"
        write_csv(validate_relatives(np.full((500, 3), 1.01), ["a", "b", "c"]), str(data))
        if command == "oracle":
            code, out, err = invoke(capsys, command, "--data", str(data), "--prior", "adaptive")
            assert (code, err) == (0, "")
            fields = dict(line.split("\t") for line in out.strip().split("\n"))
            assert float(fields["relative_gap"]) <= 1e-12
            return

        def no_run(*_args):
            raise AssertionError("the algorithm ran before the regime guard")

        monkeypatch.setattr("switchfolio.backtest.run", no_run)
        code, out, err = invoke(capsys, command, "--data", str(data), "--prior", "adaptive")
        assert code == 2
        assert out == ""
        assert err == "switchfolio: 3^500 regimes for T=500, N=3 exceeds guard 10000000\n"


class TestSwitchingExactness:
    """oracle and bounds report the switching state's own wealth, unrounded by the CLI."""

    @pytest.fixture
    def market(self, tmp_path):
        rng = np.random.default_rng(81)
        X = validate_relatives(np.exp(rng.normal(0.0, 0.1, size=(6, 3))), ["a", "b", "c"])
        path = tmp_path / "m.csv"
        write_csv(X, str(path))
        return X, str(path)

    @staticmethod
    def hand_stepped(X, prior, cost):
        state = fixed_init(X.assets, 0.3333333333) if prior == "fixed" else adaptive_init(X.assets)
        step = fixed_step if prior == "fixed" else adaptive_step
        for row in X.values:
            step(state, row, cost)
        return state

    @pytest.mark.parametrize("prior", ["fixed", "adaptive"])
    @pytest.mark.parametrize("cost", [None, CostModel.per_trade(0.02)])
    def test_matches_hand_stepped_state(self, capsys, market, prior, cost):
        X, path = market
        flags = ["--prior", prior] + (["--gamma", "0.3333333333"] if prior == "fixed" else [])
        if cost is not None:
            flags += ["--cost-model", cost.kind, "--cost-rate", repr(cost.rate)]
        state = self.hand_stepped(X, prior, cost)
        code, out, _ = invoke(capsys, "oracle", "--data", path, *flags)
        assert code == 0
        fields = dict(line.split("\t") for line in out.strip().split("\n"))
        assert float(fields["algorithm_wealth"]) == math.exp(state.log_wealth)
        code, out, _ = invoke(capsys, "bounds", "--data", path, *flags)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3**6
        expected = f"{state.log_wealth / math.log(2.0):.12g}"
        assert {row.split("\t")[5] for row in rows} == {expected}


class TestOracle:
    def test_adaptive_gap_tiny(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "3", "--out", str(data))
        code, out, _ = invoke(capsys, "oracle", "--data", str(data), "--prior", "adaptive")
        assert code == 0
        fields = dict(line.split("\t") for line in out.strip().split("\n"))
        assert float(fields["relative_gap"]) <= 1e-10

    def test_fixed_gap_tiny_with_costs(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "volatility-pair", "--n", "3", "--out", str(data))
        code, out, _ = invoke(
            capsys, "oracle", "--data", str(data), "--prior", "fixed", "--gamma", "0.3333333333",
            "--cost-model", "per-trade", "--cost-rate", "0.02",
        )
        assert code == 0
        fields = dict(line.split("\t") for line in out.strip().split("\n"))
        assert float(fields["relative_gap"]) <= 1e-10


class TestBounds:
    def test_all_slacks_nonnegative(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "3", "--out", str(data))
        code, out, _ = invoke(capsys, "bounds", "--data", str(data), "--prior", "adaptive")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("switch_times\t")
        assert len(lines) == 1 + 2**6  # header + every regime for T=6, N=2
        for line in lines[1:]:
            assert float(line.split("\t")[-1]) >= 0


class TestStreamedBounds:
    """bounds writes its table in chunks; the bytes and the refusals stay those of one whole write."""

    @pytest.fixture
    def nine_day_market(self, tmp_path):
        # 3^9 = 19 683 rows: more than four chunks.
        rng = np.random.default_rng(91)
        X = validate_relatives(np.exp(rng.normal(0.0, 0.05, size=(9, 3))), ["a", "b", "c"])
        path = tmp_path / "m.csv"
        write_csv(X, str(path))
        return X, str(path)

    def test_stdout_and_file_equal_the_reference_rows(self, capsys, tmp_path, nine_day_market):
        from test_regimes import ref_bound_row, ref_enumerate

        X, path = nine_day_market
        cost = CostModel.per_trade(0.01)
        flags = ["--prior", "fixed", "--gamma", "0.2", "--cost-model", "per-trade", "--cost-rate", "0.01"]
        code, out, err = invoke(capsys, "bounds", "--data", path, *flags)
        assert (code, err) == (0, "")
        table = tmp_path / "bounds.tsv"
        assert invoke(capsys, "bounds", "--data", path, *flags, "--out", str(table)) == (0, "", "")
        assert table.read_bytes() == out.encode()
        alg = run(AlgoSpec("switching-fixed", gamma=0.2, cost=cost), X).log_wealth[-1] / math.log(2.0)
        lines = [
            "switch_times\tstrategies\tswitches\tregime_log2_wealth\tpenalty_bits\t"
            "algorithm_log2_wealth\tslack_bits"
        ]
        for times, strategies in ref_enumerate(9, 3):
            lw, penalty, slack = ref_bound_row(X, FixedGammaPrior(0.2), alg, times, strategies, cost, "switches-only")
            lines.append(
                f"{','.join(map(str, times)) or '-'}\t{','.join(map(str, strategies))}\t{len(times)}\t"
                f"{lw:.12g}\t{penalty:.12g}\t{alg:.12g}\t{slack:.12g}"
            )
        assert out == "\n".join(lines) + "\n"

    def test_rows_come_in_chunks(self, nine_day_market):
        X, _ = nine_day_market
        chunks = list(cli._bounds_chunks(X, AdaptivePrior(), 0.0, None, "switches-only"))
        rows = [chunk.count("\n") for chunk in chunks]
        assert rows == [cli.BOUNDS_CHUNK_ROWS] * 4 + [3**9 + 1 - 4 * cli.BOUNDS_CHUNK_ROWS]

    @pytest.mark.parametrize(
        "days, assets, flags, message",
        [
            (500, 3, ["--prior", "adaptive"], "3^500 regimes for T=500, N=3 exceeds guard 10000000"),
            (4, 1, ["--prior", "adaptive"], "need at least 2 assets to switch between, got 1"),
            (4, 2, ["--prior", "fixed", "--gamma", "0"], "prior gamma must be in (0,1), got 0.0"),
            (4, 2, ["--prior", "fixed", "--gamma", "0.9"], "gamma must be in (0, 0.5] for N=2, got 0.9"),
            (None, 2, ["--prior", "adaptive"], "line 3, column 2: not a number: 'x'"),
        ],
        ids=["too-large", "one-asset", "gamma-outside-prior", "gamma-too-large", "bad-market"],
    )
    def test_refused_run_leaves_no_file(self, capsys, tmp_path, days, assets, flags, message):
        data = tmp_path / "m.csv"
        if days is None:
            data.write_text("a,b\n1.0,1.0\n1.0,x\n")
        else:
            names = [f"s{i}" for i in range(assets)]
            write_csv(validate_relatives(np.full((days, assets), 1.01), names), str(data))
        table = tmp_path / "bounds.tsv"
        code, out, err = invoke(capsys, "bounds", "--data", str(data), *flags, "--out", str(table))
        assert (code, out, err) == (2, "", f"switchfolio: {message}\n")
        assert not table.exists()

    @pytest.mark.parametrize("assets", [2, 3])
    def test_adaptive_bounds_on_one_day(self, capsys, tmp_path, assets):
        data = tmp_path / "m.csv"
        names = [f"s{i}" for i in range(assets)]
        write_csv(validate_relatives([[1.5, 0.5, 0.9][:assets]], names), str(data))
        code, out, err = invoke(capsys, "bounds", "--data", str(data), "--prior", "adaptive")
        assert (code, err) == (0, "")
        rows = out.strip().split("\n")[1:]
        assert [row.split("\t")[:3] for row in rows] == [["-", str(a), "0"] for a in range(assets)]
        assert all(float(row.split("\t")[-1]) >= 0 for row in rows)


class TestCompareCommand:
    def test_rows_in_spec_order(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "4", "--out", str(data))
        code, out, _ = invoke(
            capsys, "compare", "--data", str(data),
            "--algo", "best-stock", "--algo", "bcrp",
            "--algo", "switching-fixed:gamma=0.3333333333",
            "--algo", "universal:samples=500",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert lines[1].startswith("best-stock\t")
        assert lines[3].startswith("switching-fixed\tgamma=0.333333")

    @pytest.mark.parametrize(
        "spec", ["switching-fixed:gamma=abc", "universal:samples=1e3", "crp:weights=0.5|x", "eg:eta="]
    )
    def test_malformed_number_exits_two(self, capsys, tmp_path, spec):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2", "--out", str(data))
        code, out, err = invoke(capsys, "compare", "--data", str(data), "--algo", spec)
        assert code == 2
        assert out == ""
        key = spec.split(":")[1].split("=")[0]
        assert err.startswith(f"switchfolio: algorithm parameter {key} must be")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("eg:eta=0.05,samples=5,gamma=0.2", "eg takes no parameter gamma"),
            ("switching-adaptive:gamma=0.3", "switching-adaptive takes no parameter gamma"),
            ("best-stock:weights=0.5|0.5", "best-stock takes no parameter weights"),
            ("eg:eta=-1", "eta must be a finite number >= 0, got -1.0"),
            ("eg:eta=nan", "eta must be a finite number >= 0, got nan"),
        ],
    )
    @pytest.mark.parametrize("rows", ["", "1.0,2.0\n"], ids=["no-day", "one-day"])
    def test_parameter_the_kind_refuses_exits_two(self, capsys, tmp_path, spec, message, rows):
        # The refusal does not depend on the market: one with no trading day gives it too.
        data = tmp_path / "m.csv"
        data.write_text("a,b\n" + rows)
        code, out, err = invoke(capsys, "compare", "--data", str(data), "--algo", spec)
        assert (code, out) == (2, "")
        assert err == f"switchfolio: {message}\n"


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, tmp_path):
        data = tmp_path / "m.csv"
        subprocess.run(
            [sys.executable, "-m", "switchfolio.cli", "synth", "--kind", "volatility-pair",
             "--n", "5", "--out", str(data)],
            check=True,
        )
        argv = [
            sys.executable, "-m", "switchfolio.cli", "compare", "--data", str(data),
            "--algo", "universal:samples=2000", "--algo", "switching-adaptive",
            "--seed", "42",
        ]
        a = subprocess.run(argv, capture_output=True)
        b = subprocess.run(argv, capture_output=True)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
