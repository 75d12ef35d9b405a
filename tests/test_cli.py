import csv
import gc
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import switchfolio
from switchfolio import cli
from switchfolio.backtest import ALGO_KINDS, AlgoSpec, run
from switchfolio.cli import main
from switchfolio.core import validate_relatives
from switchfolio.costs import CostModel
from switchfolio.market_data import write_csv
from switchfolio.regimes import AdaptivePrior, BoundTable, FixedGammaPrior
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
            capsys, "backtest", "--data", str(data), "--algo", "crp:weights=0.5|0.5", "--plot-data", str(plot),
        )
        assert code == 0
        lines = plot.read_text().strip().split("\n")
        assert lines[0] == "day,wealth,largest_asset,w_1,w_2"
        assert len(lines) == 8

    def test_plot_data_quotes_dates_as_csv_does(self, capsys, tmp_path):
        # The comma split the first date over two fields; the quote was written bare.
        data = tmp_path / "m.csv"
        data.write_text('date,a,b\n"2020,01",1.1,0.9\n"x""y",0.9,1.2\n')
        plot = tmp_path / "plot.csv"
        code, _, _ = invoke(
            capsys, "backtest", "--data", str(data), "--algo", "crp:weights=0.5|0.5", "--plot-data", str(plot),
        )
        assert code == 0
        with open(plot, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [6, 6, 6, 6]
        assert [row[-1] for row in rows] == ["date", "", "2020,01", 'x"y']

    def test_universal_samples_default_and_spec(self, capsys, tmp_path):
        # compare used to refuse universal without samples= where backtest ran 10 000 of them.
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "3", "--out", str(data))
        code, out, _ = invoke(capsys, "backtest", "--data", str(data), "--algo", "universal")
        assert code == 0 and "parameters\tsamples=10000 seed=0\n" in out
        code, out, _ = invoke(capsys, "compare", "--data", str(data), "--algo", "universal")
        assert code == 0 and out.split("\n")[1].startswith("universal\tsamples=10000 seed=0\t")
        code, out, _ = invoke(capsys, "backtest", "--data", str(data), "--algo", "universal:samples=7")
        assert code == 0 and "parameters\tsamples=7 seed=0\n" in out

    def test_bcrp_on_relatives_near_two_to_the_53(self, capsys, tmp_path):
        # A gradient step near 2^53 used to leave the simplex projection no qualifying index:
        # an IndexError traceback with exit 1.
        data = tmp_path / "m.csv"
        data.write_text("a,b\n1e-13,1e13\n")
        code, out, err = invoke(capsys, "backtest", "--data", str(data), "--algo", "bcrp")
        assert (code, err) == (0, "")
        assert "final_wealth\t1e+13\n" in out

    def test_bcrp_on_relatives_near_the_top_of_the_double_range(self, capsys, tmp_path):
        # The solve used to overflow on these rows and then refuse its own weights with
        # "portfolio weights sum to inf". The best CRP is found; its wealth, about e^1169,
        # is what cannot be printed.
        data = tmp_path / "m.csv"
        data.write_text("a,b,c,d\n1e+200,1.0,1e+200,1e-310\n1.0,1e-310,1.0,1.7e+308\n")
        code, out, err = invoke(capsys, "backtest", "--data", str(data), "--algo", "bcrp")
        assert (code, out, err) == (2, "", "switchfolio: bcrp: non-finite final_wealth, max_drawdown\n")


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["backtest", "compare"])
    def test_missing_algo_exits_one(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", "m.csv"])
        assert exc.value.code == 1

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "regime-pair", "--n", "2", "--frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [["synth", "--kind", "regime-pair", "--n", "2"],
                                      ["oracle", "--data", "m.csv", "--prior", "adaptive"],
                                      ["bounds", "--data", "m.csv", "--prior", "adaptive"]])
    def test_seed_only_where_something_samples(self, capsys, argv):
        # Only backtest and compare take --seed: their universal specs sample.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "3"])
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("usage: switchfolio ") and err.endswith(": error: unrecognized arguments: --seed 3\n")

    def test_help_exits_zero(self, capsys):
        for sub in ("synth", "backtest", "compare", "oracle", "bounds"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0
            assert "--out" in capsys.readouterr().out


def refused_figures(argv, label):
    """The figures refused on the 4000-day 1.5x/0.25x regime-pair market.

    The exact two-asset universal portfolio (no cost) ends at a finite wealth but overflows on an
    earlier day; EG and the sampled universal portfolio end non-finite too.
    """
    exact = label.startswith("universal") and "--cost-model" not in argv
    return "max_drawdown" if exact else "final_wealth, max_drawdown"


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

    def test_negative_weight_printed_as_a_float(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2", "--out", str(data))
        code, out, err = invoke(capsys, "backtest", "--data", str(data), "--algo", "crp:weights=-0.5|1.5")
        assert (code, out) == (2, "")
        assert err == "switchfolio: negative or NaN portfolio weight: -0.5\n"

    def test_off_simplex_weights_refused_before_the_data_loads(self, capsys):
        code, out, err = invoke(capsys, "backtest", "--data", "no-such-file.csv", "--algo", "crp:weights=0.5|0.6")
        assert (code, out) == (2, "")
        assert err == "switchfolio: portfolio weights sum to 1.1, not 1 within 1e-12\n"

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
            ["backtest", "--algo", "universal:samples=10", "--seed", "-1"],
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
            (["compare", "--algo", "crp:weights=0.5|0.5", "--algo", "eg:eta=0.05"], "eg eta=0.05"),
            (["compare", "--algo", "universal:samples=50"], "universal samples=50 seed=0"),
            (["backtest", "--algo", "eg:eta=0.05"], "eg eta=0.05"),
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
        assert err == f"switchfolio: {label}: non-finite {refused_figures(argv, label)}\n"

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["compare", "--algo", "crp:weights=0.5|0.5", "--algo", "best-stock"], "final_wealth"),
            (["backtest", "--algo", "best-stock"], "final_wealth"),
            (["backtest", "--algo", "best-stock", "--cost-model", "parallel", "--cost-rate", "0.01"],
             "final_wealth, final_wealth_realized"),
        ],
    )
    def test_wealth_underflow_exits_two(self, capsys, tmp_path, argv, refused):
        # 4000 days of the regime pair: the best asset falls 4x a day for 2000 days, so its
        # linear wealth underflows to 0, a value no run can reach.
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2000", "--out", str(data))
        code, out, err = invoke(capsys, argv[0], "--data", str(data), *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"switchfolio: best-stock: {refused} underflowed to 0\n"

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["compare", "--algo", "universal:samples=100"], "universal samples=100 seed=0"),
            (["backtest", "--algo", "universal"], "universal samples=10000 seed=0"),
            (["compare", "--algo", "crp:weights=0.5|0.5", "--algo", "eg:eta=0.05",
              "--algo", "universal:samples=100"], "eg eta=0.05"),
            (["compare", "--algo", "universal:samples=100", "--cost-model", "per-trade", "--cost-rate", "0.01"],
             "universal samples=100 seed=0"),
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
        assert done.stderr == f"switchfolio: {label}: non-finite {refused_figures(argv, label)}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["backtest", "--algo", "eg:eta=1e300"],
            ["compare", "--algo", "crp:weights=0.5|0.5", "--algo", "eg:eta=1e300"],
        ],
    )
    def test_eg_overflow_refused_without_numpy_warning(self, tmp_path, argv):
        # exp overflows on the first day, so the weights after it are NaN. A fresh process with
        # warnings shown: the refusal of the weight track must be the whole of stderr.
        data = tmp_path / "v.csv"
        cli_argv = [sys.executable, "-W", "default", "-m", "switchfolio.cli"]
        subprocess.run(cli_argv + ["synth", "--kind", "volatility-pair", "--n", "50", "--out", str(data)],
                       check=True)
        done = subprocess.run(cli_argv + [argv[0], "--data", str(data), *argv[1:]],
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "switchfolio: eg eta=1e+300: weights after day 1: negative or NaN portfolio weight: nan\n"
        )

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

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("eg:eta=0.05,gamma=0.3,samples=5", "eg takes no parameter gamma"),
            ("switching-adaptive:samples=5", "switching-adaptive takes no parameter samples"),
            ("crp:weights=0.5|0.5,gamma=0.3", "crp takes no parameter gamma"),
            ("bcrp:weights=0.5|0.5", "bcrp takes no parameter weights"),
            ("switching-fixed:gamma=0.3,eta=1", "switching-fixed takes no parameter eta"),
            ("universal:eta=0.05", "universal takes no parameter eta"),
        ],
    )
    def test_backtest_parameter_the_kind_refuses_exits_two(self, capsys, tmp_path, spec, message):
        # backtest refuses a parameter given for another kind as compare does; with its old
        # per-parameter flags it used to drop the flag and exit 0.
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "3", "--out", str(data))
        code, out, err = invoke(capsys, "backtest", "--data", str(data), "--algo", spec)
        assert (code, out) == (2, "")
        assert err == f"switchfolio: {message}\n"

    @pytest.mark.parametrize("command", ["oracle", "bounds"])
    def test_gamma_under_the_adaptive_prior_exits_two(self, capsys, tmp_path, command):
        # oracle and bounds refuse --gamma for the adaptive prior as backtest refuses it;
        # they used to drop the flag and exit 0.
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "3", "--out", str(data))
        code, out, err = invoke(capsys, command, "--data", str(data), "--prior", "adaptive", "--gamma", "0.3")
        assert (code, out, err) == (2, "", "switchfolio: switching-adaptive takes no parameter gamma\n")

    @pytest.mark.parametrize("command", ["oracle", "bounds"])
    def test_fixed_prior_without_gamma_exits_two(self, capsys, tmp_path, command):
        # The same refusal as backtest --algo switching-fixed; it used to be an argparse usage error.
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "3", "--out", str(data))
        code, out, err = invoke(capsys, command, "--data", str(data), "--prior", "fixed")
        assert (code, out, err) == (2, "", "switchfolio: switching-fixed needs gamma\n")

    COST_COMMANDS = {
        "backtest": ["--algo", "switching-adaptive"],
        "compare": ["--algo", "switching-adaptive", "--algo", "bcrp"],
        "oracle": ["--prior", "adaptive"],
        "bounds": ["--prior", "adaptive"],
    }

    @pytest.mark.parametrize("model", [[], ["--cost-model", "none"]], ids=["no-model", "model-none"])
    @pytest.mark.parametrize("command", list(COST_COMMANDS))
    def test_cost_rate_without_a_model_exits_two(self, capsys, tmp_path, command, model):
        # A rate with no cost model to charge it used to be dropped, and the run exited 0 without costs.
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "3", "--out", str(data))
        argv = [command, "--data", str(data), *self.COST_COMMANDS[command], *model, "--cost-rate", "0.2"]
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", "switchfolio: --cost-rate needs --cost-model per-trade or parallel\n")

    @pytest.mark.parametrize("model", ["per-trade", "parallel"])
    @pytest.mark.parametrize("command", list(COST_COMMANDS))
    def test_cost_model_without_a_rate_charges_rate_zero(self, capsys, tmp_path, command, model):
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "3", "--out", str(data))
        argv = [command, "--data", str(data), *self.COST_COMMANDS[command], "--cost-model", model]
        without_rate = invoke(capsys, *argv)
        assert without_rate[0] == 0 and without_rate == invoke(capsys, *argv, "--cost-rate", "0")


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
        if prior == "fixed":
            state, step = fixed_init(X.assets, 0.3333333333, cost), fixed_step
        else:
            state, step = adaptive_init(X.assets, X.days, cost), adaptive_step
        for row in X.values:
            step(state, row)
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

    # Switch-time blocks at T=9, N=3, in enumeration order: (first column, rows).
    BLOCKS = [
        (",".join(map(str, times)) or "-", 3 * 2**l)
        for l in range(9)
        for times in itertools.combinations(range(1, 9), l)
    ]

    @staticmethod
    def chunk_blocks(chunks):
        """(first column, rows) of each chunk, after checking that its rows share the first column."""
        header, first = chunks[0].split("\n", 1)
        assert header.startswith("switch_times\t")
        blocks = []
        for chunk in [first, *chunks[1:]]:
            labels = [row.split("\t", 1)[0] for row in chunk.splitlines()]
            assert chunk.endswith("\n") and set(labels) == {labels[0]}
            blocks.append((labels[0], len(labels)))
        return blocks

    def test_rows_come_in_whole_blocks(self, nine_day_market):
        X, _ = nine_day_market
        chunks = list(cli._bounds_chunks(BoundTable(X, AdaptivePrior(), 0.0)))
        assert self.chunk_blocks(chunks) == self.BLOCKS  # 256 chunks; the largest is 768 of 19 683 rows

    def test_a_wide_block_comes_in_pieces(self, nine_day_market, monkeypatch):
        X, _ = nine_day_market
        whole = "".join(cli._bounds_chunks(BoundTable(X, AdaptivePrior(), 0.0)))
        monkeypatch.setattr(cli, "BOUNDS_CHUNK_ROWS", 100)
        chunks = list(cli._bounds_chunks(BoundTable(X, AdaptivePrior(), 0.0)))
        pieces = [(label, min(100, rows - start)) for label, rows in self.BLOCKS for start in range(0, rows, 100)]
        assert self.chunk_blocks(chunks) == pieces
        assert "".join(chunks) == whole

    def test_each_block_is_scored_once(self, nine_day_market, monkeypatch):
        # bounds scores each switch-time block at once, and its per-regime bound_check calls
        # (the benchmark's trace counts them) read the scored block: no one-row block is scored.
        X, _ = nine_day_market
        scored, checks = [], []
        score, check = BoundTable._score, cli.bound_check

        def spy_score(table, times, strategies):
            scored.append((",".join(map(str, times)) or "-", len(strategies)))
            return score(table, times, strategies)

        def spy_check(table, regime):
            checks.append(regime)
            return check(table, regime)

        monkeypatch.setattr(BoundTable, "_score", spy_score)
        monkeypatch.setattr(cli, "bound_check", spy_check)
        for _ in cli._bounds_chunks(BoundTable(X, AdaptivePrior(), 0.0)):
            pass
        assert scored == self.BLOCKS and len(scored) == 2**8
        assert len(checks) == 3**9

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

    @pytest.mark.parametrize("flags", [["--prior", "adaptive"], ["--prior", "fixed", "--gamma", "0.2"]])
    def test_bounds_on_no_days_prints_the_header(self, capsys, tmp_path, flags):
        # A market of no days has no switch-time block, and the header came with the first one.
        data = tmp_path / "e.csv"
        data.write_text("a,b\n")
        header = "switch_times\tstrategies\tswitches\tregime_log2_wealth\tpenalty_bits\t" \
                 "algorithm_log2_wealth\tslack_bits\n"
        assert invoke(capsys, "bounds", "--data", str(data), *flags) == (0, header, "")
        table = tmp_path / "bounds.tsv"
        assert invoke(capsys, "bounds", "--data", str(data), *flags, "--out", str(table)) == (0, "", "")
        assert table.read_text() == header


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

    @pytest.mark.parametrize(
        "specs, kind",
        [
            (["eg:eta=0.05,seed=7", "bcrp:seed=3"], "eg"),
            (["universal:samples=10", "bcrp:seed=3"], "bcrp"),
            (["switching-fixed:gamma=0.3,seed=0"], "switching-fixed"),
            (["switching-adaptive:seed=1"], "switching-adaptive"),
            (["crp:weights=0.5|0.5,seed=2"], "crp"),
            (["best-stock:seed=2"], "best-stock"),
        ],
    )
    def test_own_seed_of_a_kind_that_does_not_sample_exits_two(self, capsys, tmp_path, specs, kind):
        # The seed used to be dropped silently, with exit 0.
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "3", "--out", str(data))
        argv = ["compare", "--data", str(data)]
        for spec in specs:
            argv += ["--algo", spec]
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"switchfolio: {kind} takes no parameter seed\n"

    def test_universal_takes_its_own_seed_and_every_kind_the_global_one(self, capsys, tmp_path):
        data = tmp_path / "m.csv"
        write_csv(validate_relatives(np.exp(np.random.default_rng(5).normal(0, 0.05, (6, 3))), "abc"), data)
        base = ["compare", "--data", str(data), "--algo", "eg:eta=0.05", "--algo", "bcrp"]
        own = invoke(capsys, *base, "--algo", "universal:samples=50,seed=4")
        global_ = invoke(capsys, *base, "--seed", "4", "--algo", "universal:samples=50")
        other = invoke(capsys, *base, "--algo", "universal:samples=50,seed=5")
        assert own[0] == global_[0] == other[0] == 0
        assert own == global_ and "samples=50 seed=4" in own[1]
        assert own[1].split("\n")[3] != other[1].split("\n")[3]


class TestOneSpecParser:
    """backtest and compare read --algo with the one spec parser: the same spec runs to the same
    figures and is refused with the same line in both."""

    SPECS = [
        "switching-fixed:gamma=0.3333333333",
        "switching-adaptive",
        "crp:weights=0.25|0.25|0.5",
        "bcrp",
        "eg:eta=0.05",
        "universal:samples=200,seed=4",
        "best-stock",
    ]

    @pytest.mark.parametrize("cost", [[], ["--cost-model", "per-trade", "--cost-rate", "0.01"]],
                             ids=["no-cost", "per-trade"])
    @pytest.mark.parametrize("spec", SPECS)
    def test_backtest_and_compare_print_the_same_figures(self, capsys, tmp_path, spec, cost):
        data = tmp_path / "m.csv"
        values = np.exp(np.random.default_rng(19).normal(0.0, 0.05, (12, 3)))
        write_csv(validate_relatives(values, ["a", "b", "c"]), str(data))
        code, out, _ = invoke(capsys, "backtest", "--data", str(data), "--algo", spec, *cost)
        assert code == 0
        report = dict(line.split("\t") for line in out.strip().split("\n"))
        code, out, _ = invoke(capsys, "compare", "--data", str(data), "--algo", spec, *cost)
        assert code == 0
        header, row = out.strip().split("\n")
        table = dict(zip(header.split("\t"), row.split("\t")))
        for field in ("parameters", "final_wealth", "max_drawdown", "hindsight_only"):
            assert report[field] == table[field]

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("switching-fixed:gamma=abc", "algorithm parameter gamma must be a number, got 'abc'"),
            ("universal:samples=1e3", "algorithm parameter samples must be an integer, got '1e3'"),
            ("crp:weights=0.5|x", "algorithm parameter weights must be a number, got 'x'"),
            ("eg:eta=", "algorithm parameter eta must be a number, got ''"),
            ("crp:weights=0.5,0.5", "malformed algorithm parameter '0.5' in 'crp:weights=0.5,0.5'"),
            ("switching-fixed", "switching-fixed needs gamma"),
            ("crp", "crp needs weights"),
            ("eg", "eg needs eta"),
            ("bcrp:eta=0.05", "bcrp takes no parameter eta"),
            ("eg:eta=0.05,rate=2", "unknown algorithm parameter 'rate' in 'eg:eta=0.05,rate=2'"),
            ("momentum", f"unknown algorithm kind 'momentum'; choose from {ALGO_KINDS}"),
        ],
        ids=["malformed-float", "malformed-int", "malformed-weight", "empty-value", "comma-weights", "missing-gamma", "missing-weights",
             "missing-eta", "foreign", "unknown-key", "unknown-kind"],
    )
    @pytest.mark.parametrize("market", ["m.csv", "missing.csv"])
    @pytest.mark.parametrize("command", ["backtest", "compare"])
    def test_refusal_is_the_same_in_both_commands(self, capsys, tmp_path, command, market, spec, message):
        # The spec is read before the data: a missing file is not reported ahead of it.
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2", "--out", str(tmp_path / "m.csv"))
        code, out, err = invoke(capsys, command, "--data", str(tmp_path / market), "--algo", spec)
        assert (code, out, err) == (2, "", f"switchfolio: {message}\n")

    @pytest.mark.parametrize("spec, key", [("eg:eta=0.1,eta=0.2", "eta"), ("universal:seed=1, seed=1", "seed")])
    @pytest.mark.parametrize("command", ["backtest", "compare"])
    def test_repeated_key_exits_two(self, capsys, tmp_path, command, spec, key):
        # The last value used to win silently, with exit 0.
        data = tmp_path / "m.csv"
        invoke(capsys, "synth", "--kind", "regime-pair", "--n", "2", "--out", str(data))
        code, out, err = invoke(capsys, command, "--data", str(data), "--algo", spec)
        assert (code, out, err) == (2, "", f"switchfolio: algorithm parameter {key} given twice in {spec!r}\n")


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


class TestFftLoadsLazily:
    """numpy.fft serves only the adaptive mixture's pending sums, from day 64 on: the benchmark's
    compare, oracle and bounds workloads never load it."""

    SCRIPT = "import sys, switchfolio.cli as cli; print(cli.main(sys.argv[1:]), 'numpy.fft' in sys.modules)"

    @pytest.mark.parametrize(
        "days, argv, loaded",
        [
            (200, ["compare", "--algo", "best-stock", "--algo", "crp:weights=0.5|0.5", "--algo", "eg:eta=0.05",
                   "--algo", "universal:samples=100", "--algo", "switching-fixed:gamma=0.3"], False),
            (6, ["oracle", "--prior", "adaptive", "--cost-model", "per-trade", "--cost-rate", "0.01"], False),
            (6, ["bounds", "--prior", "fixed", "--gamma", "0.3"], False),
            (64, ["backtest", "--algo", "switching-adaptive"], True),
        ],
    )
    def test_loaded_only_by_an_adaptive_run_of_64_days(self, tmp_path, days, argv, loaded):
        data, out = tmp_path / "m.csv", tmp_path / "out.txt"
        values = np.exp(np.random.default_rng(days).uniform(-0.03, 0.03, (days, 3 if days < 10 else 2)))
        write_csv(validate_relatives(values, [f"a{i}" for i in range(values.shape[1])]), str(data))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, argv[0], "--data", str(data), *argv[1:],
                               "--out", str(out)], capture_output=True, text=True, check=True)
        assert done.stdout == f"0 {loaded}\n"


def entry_env(**extra) -> dict:
    """The environment of a ``python -m switchfolio.cli`` child that imports the package under test."""
    return dict(os.environ, PYTHONPATH=str(Path(switchfolio.__file__).resolve().parents[1]), **extra)


class TestProcessEntry:
    """``console_main`` is the whole process (``python -m switchfolio.cli`` and the ``switchfolio``
    script); ``main`` is what in-process callers run, and must leave the process as it found it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--kind", "regime-pair", "--n", "3"],
            ["oracle", "--data", "missing.csv", "--prior", "adaptive"],
        ],
    )
    def test_main_leaves_the_collector_as_it_found_it(self, capsys, argv):
        before = gc.get_freeze_count(), gc.isenabled()
        invoke(capsys, *argv)
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    MARKET = 'date,a,b\n"2020,01",1.1,0.9\n"x""y",0.9,1.2\n03,1.05,0.97\n04,0.98,1.02\n05,1.01,0.99\n'

    @pytest.mark.parametrize(
        "argv",
        [
            ["backtest", "--data", "m.csv", "--algo", "switching-adaptive", "--cost-model", "parallel",
             "--cost-rate", "0.01", "--plot-data", "plot.csv"],
            ["compare", "--data", "m.csv", "--algo", "crp:weights=0.5|0.5", "--algo", "eg:eta=0.05",
             "--algo", "bcrp"],
            ["oracle", "--data", "m.csv", "--prior", "adaptive", "--cost-model", "per-trade", "--cost-rate", "0.01"],
            ["bounds", "--data", "m.csv", "--prior", "fixed", "--gamma", "0.1", "--out", "bounds.tsv"],
            ["backtest", "--data", "missing.csv", "--algo", "switching-adaptive"],
        ],
    )
    def test_process_writes_what_main_writes(self, capsys, tmp_path, monkeypatch, argv):
        runs = {}
        for where in ("process", "main"):
            work = tmp_path / where
            work.mkdir()
            (work / "m.csv").write_text(self.MARKET)
            if where == "process":
                done = subprocess.run([sys.executable, "-m", "switchfolio.cli", *argv], cwd=work,
                                      env=entry_env(), capture_output=True, text=True)
                result = done.returncode, done.stdout, done.stderr
            else:
                monkeypatch.chdir(work)
                result = invoke(capsys, *argv)
            files = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
            runs[where] = result, files
        assert runs["process"] == runs["main"]
        assert runs["main"][0][0] == (2 if "missing.csv" in argv else 0)

    @pytest.mark.parametrize("n", ["5", "50000"])
    def test_closed_stdout_exits_two_with_one_line(self, n):
        # Buffered stdout (no PYTHONUNBUFFERED) once failed only at the interpreter's shutdown
        # flush: "Exception ignored in: <_io.TextIOWrapper ...>", a BrokenPipeError and exit 120.
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = entry_env()
        env.pop("PYTHONUNBUFFERED", None)
        try:
            done = subprocess.run([sys.executable, "-m", "switchfolio.cli", "synth", "--kind", "regime-pair",
                                   "--n", n], stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, "switchfolio: [Errno 32] Broken pipe\n")

    NO_STDOUT = "import os, subprocess, sys; os.close(1); sys.exit(subprocess.call(sys.argv[1:]))"

    def test_no_stdout_at_all_with_out(self, tmp_path):
        # Started without fd 1, the interpreter sets sys.stdout to None; --out needs no stdout.
        done = subprocess.run([sys.executable, "-c", self.NO_STDOUT, sys.executable, "-m", "switchfolio.cli",
                               "synth", "--kind", "volatility-pair", "--n", "1", "--out", "m.csv"],
                              cwd=tmp_path, env=entry_env(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "m.csv").read_text() == "steady,volatile\n1,0.5\n1,2\n"

    def test_no_stdout_at_all_exits_two_with_one_line(self, tmp_path):
        # Writing to the missing stdout once raised AttributeError on None: a traceback and exit 1.
        done = subprocess.run([sys.executable, "-c", self.NO_STDOUT, sys.executable, "-m", "switchfolio.cli",
                               "synth", "--kind", "regime-pair", "--n", "5"],
                              cwd=tmp_path, env=entry_env(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (2, "switchfolio: no standard output to write to\n")
