"""The CLI's contract, driven through ``cli.main(argv)`` in process.

Every invocation exits 0, 1 or 2 and raises no other exception (a warning
counts as one). Exit 1 comes only from argparse, for a usage error. Exit 2
comes with exactly one stderr line, starting ``switchfolio: ``. On exit 0
stderr is empty, every number printed is finite, no linear wealth prints as
0, the ``oracle`` wealths are positive normal doubles and its gap is at most
1e-9, and every plot row parses to finite numbers.

The markets have at most 8 days and 1 to 3 assets. Their relatives lie
within e^±5, near e^695 or e^-695 every day, near e^±695 with the sign drawn
per cell (the edge of the double range: linear wealth leaves it within two
days), are drawn from {e^-30, 1, e^30}, or are drawn from the ends of the
double range themselves, subnormals included (``EDGES``). Every command,
algorithm kind, cost model and cost accounting runs on them, under
hypothesis and on a fixed seeded grid.
"""

import contextlib
import io
import itertools
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from switchfolio import cli
from switchfolio.core import validate_relatives
from switchfolio.costs import CostModel
from switchfolio.market_data import synth_regime_pair
from switchfolio.regimes import AdaptivePrior, FixedGammaPrior, mixture_oracle
from switchfolio.switching import adaptive_init, adaptive_step, fixed_init, fixed_step

MAX_DAYS = 8
SCALES = ("moderate", "rising", "falling", "mixed", "discrete", "edges")
DISCRETE = (math.exp(-30.0), 1.0, math.exp(30.0))
EDGES = (5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, 1.7e308)
COMMANDS = ("synth", "backtest", "compare", "oracle", "bounds")
KINDS = ("switching-fixed", "switching-adaptive", "crp", "bcrp", "eg", "universal", "best-stock")
COSTS = (None, ("per-trade", "0"), ("per-trade", "0.01"), ("parallel", "0.02"), ("parallel", "0.49"))
ACCOUNTINGS = ("bucket", "realized")
CONVENTIONS = ("switches-only", "all-segments")
GAMMAS = ("0.01", "0.3333333333", "0.9")
USAGE_ERRORS = (["--frobnicate"], ["--cost-model", "free"], ["--seed", "x"])


class ContractViolation(AssertionError):
    """An invocation broke the CLI contract."""


def relatives(rng: np.random.Generator, scale: str, days: int, assets: int) -> np.ndarray:
    """A days x assets grid of relatives of one scale, drawn from rng."""
    shape = (days, assets)
    if scale == "moderate":
        return np.exp(rng.uniform(-5.0, 5.0, shape))
    if scale in ("discrete", "edges"):
        return rng.choice(DISCRETE if scale == "discrete" else EDGES, shape)
    signs = rng.choice([-1.0, 1.0], shape) if scale == "mixed" else (1.0 if scale == "rising" else -1.0)
    return np.exp(signs * 695.0 + rng.uniform(-1.0, 1.0, shape))


def write_market(path: Path, values: np.ndarray, dated: bool) -> None:
    lines = [",".join(["date"] * dated + [f"a{i}" for i in range(values.shape[1])])]
    for t, row in enumerate(values):
        lines.append(",".join([f"2001-01-{t + 1:02d}"] * dated + [repr(float(v)) for v in row]))
    path.write_text("\n".join(lines) + "\n")


def spec_of(kind: str, assets: int, variant: int) -> str:
    """The --algo spec of one kind; variant picks among its parameter values."""
    if kind == "switching-fixed":
        return f"switching-fixed:gamma={GAMMAS[variant % 3]}"
    if kind == "crp":
        return "crp:weights=" + "|".join([repr(1.0 / assets)] * assets)
    if kind == "eg":
        return f"eg:eta={('0', '0.05', '5')[variant % 3]}"
    if kind == "universal":
        return ("universal:samples=1", "universal:samples=37,seed=4", "universal")[variant % 3]
    return kind


def argv_of(command: str, data: Path, assets: int, plot: Path, choice: dict) -> list[str]:
    """One invocation of command on the market in data; choice holds the drawn options."""
    if command == "synth":
        argv = ["synth", "--kind", choice["synth"], "--n", str(choice["n"])]
    else:
        cost = choice["cost"]
        argv = [command, "--data", str(data)]
        argv += [] if cost is None else ["--cost-model", cost[0], "--cost-rate", cost[1]]
    if command == "backtest":
        argv += ["--algo", spec_of(choice["kind"], assets, choice["variant"]),
                 "--cost-accounting", choice["accounting"], "--seed", "3", "--plot-data", str(plot)]
    elif command == "compare":
        for kind in choice["kinds"]:
            argv += ["--algo", spec_of(kind, assets, choice["variant"])]
        argv += ["--cost-accounting", choice["accounting"]]
    elif command in ("oracle", "bounds"):
        prior = ["fixed", "--gamma", GAMMAS[choice["variant"] % 3]] if choice["fixed"] else ["adaptive"]
        argv += ["--prior", *prior, "--convention", choice["convention"]]
    return argv + choice.get("usage_error", [])


def oracle_factor(choice: dict, days: int) -> float:
    """The oracle's wealth over the algorithm's. Under all-segments the oracle also charges each
    regime's initial purchase, one lump-move factor that the algorithm never pays, once a day is traded."""
    cost = choice.get("cost")
    if cost is None or choice.get("convention") != "all-segments" or days == 0:
        return 1.0
    rate = float(cost[1])
    return (1.0 - rate) ** 2 if cost[0] == "per-trade" else 1.0 - 2.0 * rate


def invoke(argv: list[str]) -> tuple[int, str, str, bool]:
    """(exit code, stdout, stderr, whether argparse exited) of cli.main(argv); a warning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code, from_argparse = cli.main(argv), False
        except SystemExit as exc:
            code, from_argparse = exc.code, True
    return code, out.getvalue(), err.getvalue(), from_argparse


def check(argv: list[str], plot: Path, factor: float = 1.0) -> None:
    """Run one invocation; raise ContractViolation where it breaks the contract.

    plot is the --plot-data file a backtest writes; factor is :func:`oracle_factor` for an oracle run.
    """
    plot.unlink(missing_ok=True)
    code, stdout, stderr, from_argparse = invoke(argv)
    where = f"{' '.join(argv)} (exit {code})"
    if from_argparse:
        if code == 1 and stderr.startswith("usage: switchfolio") and ": error: " in stderr:
            return
        raise ContractViolation(f"{where}: argparse exited with stderr {stderr!r}")
    if code == 2:
        if stderr.startswith("switchfolio: ") and stderr.find("\n") == len(stderr) - 1:
            return
        raise ContractViolation(f"{where}: stderr is not one 'switchfolio: ' line: {stderr!r}")
    if code != 0 or stderr:
        raise ContractViolation(f"{where}: main returned {code!r} with stderr {stderr!r}")
    for token in stdout.replace("\t", "\n").replace(",", "\n").split("\n"):
        try:
            finite = math.isfinite(float(token))
        except ValueError:
            continue
        if not finite:
            raise ContractViolation(f"{where}: prints {token!r}")
    report = dict(line.split("\t", 1) for line in stdout.splitlines()) if argv[0] in ("backtest", "oracle") else {}
    if argv[0] == "backtest":
        for key in ("final_wealth", "final_wealth_bucket", "final_wealth_realized"):
            if key in report and not float(report[key]) > 0:
                raise ContractViolation(f"{where}: {key} prints {report[key]!r}")
        header, *rows = plot.read_text().splitlines()
        columns = len(header.split(",")) - header.endswith(",date")  # a date cell is text
        if len(rows) != int(report["days"]) + 1:
            raise ContractViolation(f"{where}: {len(rows)} plot rows for {report['days']} days")
        for row in rows:
            try:
                finite = all(math.isfinite(float(cell)) for cell in row.split(",")[:columns])
            except ValueError:
                finite = False
            if not finite:
                raise ContractViolation(f"{where}: plot row {row!r}")
    elif argv[0] == "compare":
        for row in stdout.splitlines()[1:]:
            if not float(row.split("\t")[2]) > 0:
                raise ContractViolation(f"{where}: row {row!r}")
    elif argv[0] == "oracle":
        oracle, algorithm = float(report["oracle_wealth"]), float(report["algorithm_wealth"])
        gap = float(report["relative_gap"]) if factor == 1.0 else abs(oracle / (algorithm * factor) - 1.0)
        if not (min(oracle, algorithm) >= sys.float_info.min and gap <= 1e-9):
            raise ContractViolation(f"{where}: {stdout!r}")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def run_case(work: Path, command: str, values: np.ndarray, dated: bool, choice: dict) -> None:
    data, plot = work / "market.csv", work / "plot.csv"
    write_market(data, values, dated)
    check(argv_of(command, data, values.shape[1], plot, choice), plot, oracle_factor(choice, values.shape[0]))


# Under hypothesis.

def _cells(scale: str) -> st.SearchStrategy:
    if scale == "moderate":
        return st.floats(-5.0, 5.0).map(math.exp)
    if scale in ("discrete", "edges"):
        return st.sampled_from(DISCRETE if scale == "discrete" else EDGES)
    signs = st.sampled_from([-1.0, 1.0]) if scale == "mixed" else st.just(1.0 if scale == "rising" else -1.0)
    return st.tuples(signs, st.floats(-1.0, 1.0)).map(lambda p: math.exp(p[0] * 695.0 + p[1]))


@st.composite
def markets(draw):
    days, assets, scale = draw(st.integers(0, MAX_DAYS)), draw(st.integers(1, 3)), draw(st.sampled_from(SCALES))
    rows = draw(st.lists(st.lists(_cells(scale), min_size=assets, max_size=assets), min_size=days, max_size=days))
    return np.array(rows, dtype=float).reshape(days, assets), draw(st.booleans())


COSTED = {"cost": st.sampled_from(COSTS), "variant": st.integers(0, 2)}
CHOICES = {
    "synth": st.fixed_dictionaries({"synth": st.sampled_from(["volatility-pair", "regime-pair"]),
                                    "n": st.integers(0, MAX_DAYS // 2)}),
    "backtest": st.fixed_dictionaries({**COSTED, "kind": st.sampled_from(KINDS),
                                       "accounting": st.sampled_from(ACCOUNTINGS)}),
    "compare": st.fixed_dictionaries({**COSTED, "kinds": st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
                                      "accounting": st.sampled_from(ACCOUNTINGS)}),
    "oracle": st.fixed_dictionaries({**COSTED, "fixed": st.booleans(), "convention": st.sampled_from(CONVENTIONS)}),
}
CHOICES["bounds"] = CHOICES["oracle"]


HYPOTHESIS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])


def _hypothesis_case(work, command, data):
    values, dated = data.draw(markets(), label="market")
    choice = data.draw(CHOICES[command], label="options")
    choice["usage_error"] = data.draw(st.sampled_from(([],) * 9 + USAGE_ERRORS), label="usage error")
    run_case(work, command, values, dated, choice)


@pytest.mark.parametrize("command", COMMANDS)
@HYPOTHESIS
@given(data=st.data())
def test_contract_under_hypothesis(work, command, data):
    _hypothesis_case(work, command, data)


# On the seeded grid.

# Each cost model at each accounting, and a cost-free run.
GRID_COSTS = ((None, "bucket"), (COSTS[2], "bucket"), (COSTS[1], "realized"), (COSTS[3], "realized"),
              (COSTS[4], "bucket"))


def grid_choices(command: str) -> list[dict]:
    """Every kind, cost model, accounting, prior and convention of command, then three usage errors
    (the grid runs those on its first market only)."""
    if command == "synth":
        choices = [{"synth": synth, "n": n}
                   for synth, n in itertools.product(["volatility-pair", "regime-pair"], range(MAX_DAYS // 2 + 1))]
    elif command == "backtest":
        choices = [{"kind": kind, "variant": i + j, "cost": cost, "accounting": accounting}
                   for i, (cost, accounting) in enumerate(GRID_COSTS) for j, kind in enumerate(KINDS)]
    elif command == "compare":
        choices = [{"kinds": KINDS, "variant": i, "cost": cost, "accounting": accounting}
                   for i, (cost, accounting) in enumerate(GRID_COSTS)]
    else:
        choices = [{"fixed": fixed, "variant": i, "cost": cost, "convention": convention}
                   for i, (cost, _) in enumerate(GRID_COSTS)
                   for fixed, convention in itertools.product([False, True], CONVENTIONS)]
    return choices + [{**choices[0], "usage_error": error} for error in USAGE_ERRORS]


GRID = [("synth", "-")] + [(c, s) for c in COMMANDS[1:] for s in SCALES]


@pytest.mark.parametrize("command, scale", GRID)
def test_contract_on_the_grid(work, command, scale):
    markets = [(np.empty((0, 1)), False)] if command == "synth" else [
        (relatives(np.random.default_rng([SCALES.index(scale), days, assets]), scale, days, assets), days == 2)
        for days, assets in itertools.product((0, 2, MAX_DAYS), (1, 2, 3))
    ]
    choices = grid_choices(command)
    violations = []
    for i, (values, dated) in enumerate(markets):
        for choice in choices if i == 0 else [c for c in choices if "usage_error" not in c]:
            try:
                run_case(work, command, values, dated, choice)
            except ContractViolation as exc:
                violations.append(exc)
    if violations:
        raise ContractViolation(f"{len(violations)} violations; the first: {violations[0]}")


@pytest.mark.parametrize("prior", [["adaptive"], ["fixed", "--gamma", GAMMAS[0]]])
@pytest.mark.parametrize("market", ["sixty days near e^-695", "regime-pair --n 2000"])
def test_oracle_refuses_a_wealth_outside_the_normal_doubles(work, prior, market):
    # Linear wealth underflows on the first market and overflows on the second.
    if market == "regime-pair --n 2000":
        values = synth_regime_pair(2000).values
    else:
        values = relatives(np.random.default_rng(60), "falling", 60, 2)
    data = work / "refused.csv"
    write_market(data, values, False)
    code, stdout, stderr, _ = invoke(["oracle", "--data", str(data), "--prior", *prior])
    assert (code, stdout) == (2, "")
    assert re.fullmatch(r"switchfolio: oracle_wealth e\^-?[0-9.e+]+ lies outside the positive normal doubles\n",
                        stderr), stderr


@HYPOTHESIS
@given(days=st.integers(1, 4), assets=st.integers(2, 3), fixed=st.booleans(), cost=st.sampled_from(COSTS),
       cells=st.lists(st.sampled_from(EDGES), min_size=12, max_size=12))
def test_switching_states_equal_the_oracle_at_the_ends_of_the_range(days, assets, cells, fixed, cost):
    # The states a switching run steps (its linear wealth track may leave the double range here).
    X = validate_relatives(np.reshape(cells[: days * assets], (days, assets)), [f"a{i}" for i in range(assets)])
    model = None if cost is None else CostModel(cost[0], float(cost[1]))
    if fixed:
        state, step, prior = fixed_init(assets, 0.3, model), fixed_step, FixedGammaPrior(0.3)
    else:
        state, step, prior = adaptive_init(assets, days, model), adaptive_step, AdaptivePrior()
    for row in X.values:
        step(state, row)
    oracle = mixture_oracle(X, prior, model)
    assert abs(state.log_wealth - oracle) <= 1e-12 * max(1.0, abs(oracle))
