"""Capture a fixed corpus of switchfolio CLI invocations, or diff two captures.

A refactor that must not change behaviour runs the corpus against the source
tree before and after the change and diffs the two captures:

    python3 tools/golden_cli.py capture --src OLD_CHECKOUT/src --out before.json
    python3 tools/golden_cli.py capture --src src --out after.json
    python3 tools/golden_cli.py diff before.json after.json

Each invocation runs in a fresh ``python -m switchfolio.cli`` process inside a
scratch directory holding the corpus's own input markets (written by this
script from fixed seeds, independent of the code under test). A capture
records every invocation's exit code, stdout, stderr and output files.
``diff`` prints one line per invocation that differs in any of them and exits
1 if there is one; where an invocation differs only in its numbers (same exit
code, same text around them, same output files), the line gives the largest
relative move among them, and a last line the largest over all such
invocations. ``check`` reads one capture and exits 1 if any invocation
exited outside {0, 1, 2} or wrote a Python traceback to stderr:

    python3 tools/golden_cli.py check after.json

In stderr the source path is replaced by ``<src>`` and
source line numbers by ``<n>``, so a traceback or warning from two checkouts
compares equal when only the path or the line it points at moved.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

GAMMA = "0.3333333333"
COSTS = {"none": [], "per-trade": ["--cost-model", "per-trade", "--cost-rate", "0.01"],
         "parallel": ["--cost-model", "parallel", "--cost-rate", "0.02"]}
KINDS = {
    "switching-fixed": f"switching-fixed:gamma={GAMMA}",
    "switching-adaptive": "switching-adaptive",
    "crp": None,  # weights depend on the asset count
    "bcrp": "bcrp",
    "eg": "eg:eta=0.05",
    "universal": "universal:samples=500",
    "best-stock": "best-stock",
}


def _market(path: Path, seed: int, days: int, assets: int, sigma: float, dated=False, prices=False):
    """A log-normal market written as CSV with 17 significant digits."""
    rng = random.Random(seed)
    header = [f"s{i}" for i in range(assets)]
    rows = []
    level = [1.0] * assets
    for t in range(days + (1 if prices else 0)):
        if prices:
            row = list(level)
            level = [v * math.exp(rng.gauss(0.0, sigma)) for v in level]
        else:
            row = [math.exp(rng.gauss(0.0, sigma)) for _ in range(assets)]
        cells = [f"{v:.17g}" for v in row]
        rows.append(([f"2001-01-{t + 1:02d}"] if dated else []) + cells)
    lines = [",".join((["date"] if dated else []) + header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def write_markets(work: Path) -> None:
    _market(work / "dated3.csv", 1, 12, 3, 0.05, dated=True)
    _market(work / "plain2.csv", 2, 10, 2, 0.08)
    _market(work / "prices2.csv", 3, 9, 2, 0.05, prices=True)
    _market(work / "small2.csv", 4, 8, 2, 0.1)
    _market(work / "small3.csv", 5, 6, 3, 0.1)
    _market(work / "walk3.csv", 6, 500, 3, 0.02)
    _market(work / "drift3.csv", 15, 500, 3, 0.02)  # bcrp's projection once drifted off the simplex here
    _market(work / "one.csv", 7, 4, 1, 0.05)
    _market(work / "ten3.csv", 8, 10, 3, 0.03)  # oracle-certify's shape; has segments of 8+ days
    _market(work / "long2.csv", 16, 150, 2, 0.02)  # more than two universal tiles of days
    _market(work / "long3.csv", 18, 150, 3, 0.02)  # the same at N=3, where universal samples without a cost
    lines = (work / "long2.csv").read_text().splitlines()
    lines[119] = lines[119].split(",")[0] + ",0.99.5"  # line 120, column 2: past the whole-grid parse
    (work / "late-bad.csv").write_text("\n".join(lines) + "\n")
    # A spreadsheet "CSV UTF-8" export: a byte-order mark ahead of the date header.
    (work / "bom3.csv").write_text("\ufeff" + (work / "dated3.csv").read_text(), encoding="utf-8")
    _market(work / "day1.csv", 17, 1, 3, 0.05)  # one trading day: a single switch count, l = 0
    # One day whose bcrp gradient step nears 2^53: its simplex projection once found no index.
    (work / "near53.csv").write_text("a,b\n1e-13,1e13\n")
    (work / "bad.csv").write_text("a,b\n1.0,oops\n")
    # Bad cells on file line 4, after a blank line and after a date cell that spans two lines.
    (work / "blank-bad.csv").write_text("a,b\n1.0,2.0\n\n1.0,abc\n")
    (work / "multiline-bad.csv").write_text('date,a,b\n"2001\n01",1.0,2.0\n2002,1.0,abc\n')
    (work / "negative.csv").write_text("a,b\n1.0,-2\n")
    (work / "negative-price.csv").write_text("a,b\n1.0,2.0\n-1.0,2.0\n")
    (work / "empty2.csv").write_text("a,b\n")  # a header and no trading day
    (work / "quoted-dates2.csv").write_text('date,a,b\n"2020,01",1.1,0.9\n"x""y",0.9,1.2\n')  # a comma, a quote
    # Loader edge cases: old Mac line endings, cells in quotes, with padding and with digit
    # underscores (all read as numbers), and a whitespace-only line (a one-cell row).
    (work / "cr3.csv").write_bytes((work / "dated3.csv").read_bytes().replace(b"\n", b"\r"))
    (work / "quoted2.csv").write_text('"a","b"\n"1.5","0.75"\n"0.5","1.25"\n1.125,"0.875"\n')
    (work / "space-quote.csv").write_text('a,b\n1.5,0.75\n0.5, "1.25"\n')  # the quote is part of the cell
    (work / "padded2.csv").write_text(" date , a , b \n 2001-01-01 , 1.5 ,\t0.75\n2001-01-02,  0.5,1.25  \n")
    (work / "underscore2.csv").write_text("a,b\n1_0,0.1\n0.1,1_0\n1_000e-3,2\n")
    (work / "space-line.csv").write_text("a,b\n1.5,0.75\n  \n0.5,1.25\n")
    # Linear wealth passes e^1381 on day 2 and is back near 1 by day 4.
    (work / "midrun2.csv").write_text("a,b\n1e300,1e300\n1e300,1e300\n1e-300,1e-300\n1e-300,1e-300\n")
    # One day after which every wealth lies among the subnormal doubles.
    (work / "subnormal2.csv").write_text("a,b\n5e-324,1e-315\n")
    # Days at both ends of the double range, on which a gamma of 5e-324 switches in a share that
    # is no normal double: the held asset's product underflows at N=3 (collapse3), and at N=2 a
    # parallel cost of 0.02 is lost to rounding (mixed2, the contract test's seeded mixed market).
    (work / "collapse3.csv").write_text("a,b,c\n1e300,1e-300,1e-300\n1e-300,1e300,1e300\n")
    (work / "mixed2.csv").write_text(
        "a0,a1\n3.9469181174774516e+301,6.642704021042347e+301\n1.677724652455314e-302,2.4699614604521857e-302\n"
        "1.3715321508680103e+302,6.491758081717206e-303\n6.067880604890118e-303,5.213325947368008e+301\n"
        "1.2222739006917098e+302,1.0567828101736995e+302\n2.3037897464531553e-302,1.3245439853095778e-302\n"
        "1.3043914752646783e-302,6.837390924742071e-303\n9.503165527728831e-303,7.194731039649062e+301\n")


def corpus() -> list[tuple[str, list[str]]]:
    """(case name, CLI arguments); output files go to the case's own name."""
    cases = [
        ("synth-volatility", ["synth", "--kind", "volatility-pair", "--n", "5"]),
        ("synth-regime-file", ["synth", "--kind", "regime-pair", "--n", "4", "--out", "{out}.csv"]),
        ("synth-regime-2000", ["synth", "--kind", "regime-pair", "--n", "2000", "--out", "regime2000.csv"]),
    ]
    markets = {"dated3": ([], 3), "plain2": ([], 2), "prices2": (["--mode", "prices"], 2)}
    for market, (mode, n) in markets.items():
        for kind, spec in KINDS.items():
            if spec is None:
                spec = "crp:weights=" + "|".join([f"{1 / n:.17g}"] * n)
            for cost, cost_args in COSTS.items():
                for accounting in ("bucket", "realized"):
                    if cost == "none" and accounting == "realized":
                        continue
                    cases.append((
                        f"backtest-{market}-{kind}-{cost}-{accounting}",
                        ["backtest", "--data", f"{market}.csv", *mode, "--algo", spec,
                         *cost_args, "--cost-accounting", accounting, "--seed", "3",
                         "--out", "{out}.tsv", "--plot-data", "{out}.plot.csv"],
                    ))
    table = ["--algo", "best-stock", "--algo", "bcrp", "--algo", "crp:weights=0.5|0.5",
             "--algo", "eg:eta=0.05", "--algo", "universal:samples=1000",
             "--algo", f"switching-fixed:gamma={GAMMA}", "--algo", "switching-adaptive"]
    for cost, cost_args in COSTS.items():
        cases.append((f"compare-plain2-{cost}", ["compare", "--data", "plain2.csv", *table, *cost_args]))
    cases.append(("compare-prices2-realized", ["compare", "--data", "prices2.csv", "--mode", "prices",
                                               *table, *COSTS["parallel"], "--cost-accounting", "realized"]))
    for market in ("walk3", "drift3", "near53"):
        cases.append((f"bcrp-{market}", ["backtest", "--data", f"{market}.csv", "--algo", "bcrp"]))
    for cost in ("none", "per-trade"):  # 20000 samples: more than two universal tiles of samples
        cases.append((f"backtest-long2-universal20000-{cost}",
                      ["backtest", "--data", "long2.csv", "--algo", "universal:samples=20000",
                       *COSTS[cost], "--seed", "3", "--out", "{out}.tsv", "--plot-data", "{out}.plot.csv"]))
        cases.append((f"compare-long2-universal20000-{cost}",
                      ["compare", "--data", "long2.csv", "--algo", "universal:samples=20000",
                       "--algo", "best-stock", *COSTS[cost]]))
    # universal without samples= runs backtest.DEFAULT_SAMPLES of them, as in backtest.
    cases.append(("compare-universal-default-samples",
                  ["compare", "--data", "dated3.csv", "--algo", "universal", "--algo", "bcrp", "--seed", "3"]))
    cases.append(("compare-long3-universal20000-none",
                  ["compare", "--data", "long3.csv", "--algo", "universal:samples=20000", "--algo", "best-stock"]))
    for command in ("oracle", "bounds"):
        for market in ("small2", "small3"):
            for prior in ("fixed", "adaptive"):
                gamma = ["--gamma", GAMMA] if prior == "fixed" else []
                # The names keep their charge-rule part, so captures of older checkouts pair with them.
                for cost, cost_args in COSTS.items():
                    cases.append((f"{command}-{market}-{prior}-switches-only-{cost}",
                                  [command, "--data", f"{market}.csv", "--prior", prior, *gamma, *cost_args]))
    for command in ("oracle", "bounds"):
        for prior in ("fixed", "adaptive"):
            gamma = ["--gamma", GAMMA] if prior == "fixed" else []
            for cost in ("none", "per-trade"):
                cases.append((f"{command}-ten3-{prior}-{cost}",
                              [command, "--data", "ten3.csv", "--prior", prior, *gamma, *COSTS[cost]]))
    cases.append(("oracle-walk3-fixed-per-trade", ["oracle", "--data", "walk3.csv", "--prior", "fixed",
                                                   "--gamma", GAMMA, *COSTS["per-trade"]]))
    cases.append(("oracle-walk3-adaptive", ["oracle", "--data", "walk3.csv", "--prior", "adaptive"]))
    cases.append(("backtest-bom3-switching-adaptive",
                  ["backtest", "--data", "bom3.csv", "--algo", "switching-adaptive", "--plot-data", "{out}.plot.csv"]))
    cases.append(("bounds-file", ["bounds", "--data", "small2.csv", "--prior", "adaptive", "--out", "{out}.tsv"]))
    # 500 adaptive days: the relaxed products of levels 64, 128 and 256, the last of each cut at day 500.
    cases.append(("backtest-walk3-adaptive",
                  ["backtest", "--data", "walk3.csv", "--algo", "switching-adaptive", *COSTS["parallel"],
                   "--plot-data", "{out}.plot.csv"]))
    # 500 days of the fixed-gamma loop and of the exponentiated-gradient loop.
    cases.append(("backtest-walk3-switching-fixed-per-trade",
                  ["backtest", "--data", "walk3.csv", "--algo", f"switching-fixed:gamma={GAMMA}",
                   *COSTS["per-trade"], "--plot-data", "{out}.plot.csv"]))
    cases.append(("backtest-walk3-eg-parallel",
                  ["backtest", "--data", "walk3.csv", "--algo", "eg:eta=0.05", *COSTS["parallel"],
                   "--plot-data", "{out}.plot.csv"]))
    for market in ("cr3", "quoted2", "padded2", "underscore2"):
        cases.append((f"backtest-{market}-crp",
                      ["backtest", "--data", f"{market}.csv",
                       "--algo", "crp:weights=" + ("0.25|0.25|0.5" if market == "cr3" else "0.5|0.5"),
                       "--plot-data", "{out}.plot.csv"]))
    for command in ("oracle", "bounds"):
        for prior in ("fixed", "adaptive"):
            gamma = ["--gamma", GAMMA] if prior == "fixed" else []
            cases.append((f"{command}-day1-{prior}", [command, "--data", "day1.csv", "--prior", prior, *gamma]))
    # Dates that csv quoting must protect in the plot file, and a bounds table of no days: the header alone.
    cases.append(("backtest-quoted-dates2-crp", ["backtest", "--data", "quoted-dates2.csv",
                                                 "--algo", "crp:weights=0.5|0.5", "--plot-data", "{out}.plot.csv"]))
    cases.append(("bounds-empty2", ["bounds", "--data", "empty2.csv", "--prior", "adaptive"]))
    # A wealth outside the positive normal doubles is refused where it would print: at the end of
    # a run, on a day of the plot, and not at all when only a day in between leaves them.
    cases += [
        ("oracle-midrun2-adaptive", ["oracle", "--data", "midrun2.csv", "--prior", "adaptive"]),
        ("backtest-midrun2-crp", ["backtest", "--data", "midrun2.csv", "--algo", "crp:weights=0.5|0.5"]),
        ("backtest-midrun2-crp-plot", ["backtest", "--data", "midrun2.csv", "--algo", "crp:weights=0.5|0.5",
                                       "--out", "{out}.tsv", "--plot-data", "{out}.plot.csv"]),
        ("compare-midrun2", ["compare", "--data", "midrun2.csv", "--algo", "crp:weights=0.5|0.5",
                             "--algo", "switching-adaptive"]),
        ("backtest-subnormal2-adaptive-per-trade", ["backtest", "--data", "subnormal2.csv",
                                                    "--algo", "switching-adaptive", *COSTS["per-trade"]]),
        ("compare-subnormal2", ["compare", "--data", "subnormal2.csv", "--algo", "crp:weights=0.5|0.5",
                                "--algo", "switching-adaptive"]),
    ]
    # The smallest gamma switches in a share of 5e-324, no normal double: the run refuses it.
    for command in ("oracle", "bounds"):
        cases.append((f"{command}-small2-fixed-subnormal-gamma",
                       [command, "--data", "small2.csv", "--prior", "fixed", "--gamma", "5e-324"]))
    for sub in ("synth", "backtest", "compare", "oracle", "bounds"):
        cases.append((f"help-{sub}", [sub, "--help"]))
    errors = {
        "no-command": [],
        "unknown-flag": ["synth", "--kind", "regime-pair", "--n", "2", "--frobnicate"],
        "backtest-no-gamma": ["backtest", "--data", "plain2.csv", "--algo", "switching-fixed"],
        "backtest-no-weights": ["backtest", "--data", "plain2.csv", "--algo", "crp"],
        "backtest-no-eta": ["backtest", "--data", "plain2.csv", "--algo", "eg"],
        "oracle-no-gamma": ["oracle", "--data", "small2.csv", "--prior", "fixed"],
        "bounds-no-gamma": ["bounds", "--data", "small2.csv", "--prior", "fixed"],
        "oracle-gamma-outside-prior": ["oracle", "--data", "small2.csv", "--prior", "fixed", "--gamma", "1.5"],
        "bounds-gamma-outside-prior": ["bounds", "--data", "small2.csv", "--prior", "fixed", "--gamma", "0"],
        "oracle-gamma-too-large": ["oracle", "--data", "small2.csv", "--prior", "fixed", "--gamma", "0.9"],
        "bounds-gamma-too-large": ["bounds", "--data", "small2.csv", "--prior", "fixed", "--gamma", "0.9"],
        "oracle-one-asset": ["oracle", "--data", "one.csv", "--prior", "adaptive"],
        "bounds-one-asset": ["bounds", "--data", "one.csv", "--prior", "adaptive"],
        "bounds-too-large": ["bounds", "--data", "walk3.csv", "--prior", "fixed", "--gamma", "0.1"],
        # A refused run with --out: the capture's file list shows that nothing was written.
        "bounds-too-large-file": ["bounds", "--data", "walk3.csv", "--prior", "adaptive", "--out", "{out}.tsv"],
        "oracle-bad-rate": ["oracle", "--data", "small2.csv", "--prior", "adaptive",
                            "--cost-model", "per-trade", "--cost-rate", "0.6"],
        "backtest-bad-rate": ["backtest", "--data", "plain2.csv", "--algo", "switching-adaptive",
                              "--cost-model", "parallel", "--cost-rate", "0.6"],
        "missing-file": ["backtest", "--data", "missing.csv", "--algo", "bcrp"],
        "oracle-missing-file": ["oracle", "--data", "missing.csv", "--prior", "adaptive"],
        "parse-error": ["backtest", "--data", "bad.csv", "--algo", "switching-adaptive"],
        "late-parse-error": ["backtest", "--data", "late-bad.csv", "--algo", "switching-adaptive"],
        "parse-error-after-blank-line": ["backtest", "--data", "blank-bad.csv", "--algo", "bcrp"],
        "parse-error-after-multiline-cell": ["backtest", "--data", "multiline-bad.csv", "--algo", "bcrp"],
        "whitespace-only-line": ["backtest", "--data", "space-line.csv", "--algo", "bcrp"],
        "quote-after-space": ["backtest", "--data", "space-quote.csv", "--algo", "bcrp"],
        "negative-relative": ["bounds", "--data", "negative.csv", "--prior", "adaptive"],
        "malformed-weights": ["backtest", "--data", "plain2.csv", "--algo", "crp:weights=0.5|x"],
        "wrong-weight-count": ["backtest", "--data", "dated3.csv", "--algo", "crp:weights=0.5|0.5"],
        "malformed-gamma": ["compare", "--data", "plain2.csv", "--algo", "switching-fixed:gamma=abc"],
        "malformed-samples": ["compare", "--data", "plain2.csv", "--algo", "universal:samples=1e3"],
        "negative-seed": ["compare", "--data", "plain2.csv", "--seed", "-1", "--algo", "universal:samples=10"],
        "unknown-parameter": ["compare", "--data", "plain2.csv", "--algo", "eg:rate=2"],
        "irrelevant-parameter": ["compare", "--data", "plain2.csv", "--algo", "eg:eta=0.05,samples=5,gamma=0.2"],
        # backtest refuses the parameters of other kinds as compare does.
        "backtest-irrelevant-flags": ["backtest", "--data", "plain2.csv", "--algo", "eg:eta=0.05,gamma=0.3,samples=5"],
        "backtest-samples-for-adaptive": ["backtest", "--data", "plain2.csv", "--algo", "switching-adaptive:samples=5"],
        "backtest-malformed-number": ["backtest", "--data", "plain2.csv", "--algo", "switching-fixed:gamma=abc"],
        # A key given twice is refused, not overridden by its last value.
        "repeated-key": ["compare", "--data", "plain2.csv", "--algo", "eg:eta=0.1,eta=0.2"],
        "backtest-repeated-key": ["backtest", "--data", "plain2.csv", "--algo", "eg:eta=0.1,eta=0.2"],
        # Only universal samples: a seed of its own given to another kind is refused, not dropped.
        "seed-for-unseeded-kind": ["compare", "--data", "plain2.csv", "--algo", "eg:eta=0.05,seed=7",
                                   "--algo", "bcrp:seed=3"],
        "negative-eta-empty-market": ["compare", "--data", "empty2.csv", "--algo", "eg:eta=-1"],
        "negative-weight": ["backtest", "--data", "plain2.csv", "--algo", "crp:weights=-0.5|1.5"],
        "negative-price": ["backtest", "--data", "negative-price.csv", "--mode", "prices", "--algo", "bcrp"],
        "unknown-kind": ["compare", "--data", "plain2.csv", "--algo", "momentum"],
        "parameter-without-value": ["compare", "--data", "plain2.csv", "--algo", "eg:eta"],
        # The rest of the spec grammar's refusals, in AlgoSpec.parse's order of checks.
        "comma-separated-weights": ["backtest", "--data", "plain2.csv", "--algo", "crp:weights=0.5,0.5"],
        "empty-value": ["compare", "--data", "plain2.csv", "--algo", "eg:eta="],
        "malformed-spec-seed": ["compare", "--data", "plain2.csv", "--algo", "universal:seed=x"],
        "repeated-unknown-key": ["compare", "--data", "plain2.csv", "--algo", "eg:rate=1,rate=2"],
        "unknown-parameter-of-unknown-kind": ["compare", "--data", "plain2.csv", "--algo", "momentum:rate=1"],
        "malformed-value-of-unknown-kind": ["compare", "--data", "plain2.csv", "--algo", "momentum:eta=x"],
        "missing-parameter-before-foreign-seed": ["compare", "--data", "plain2.csv", "--algo", "eg:seed=3"],
        "infinite-eta": ["backtest", "--data", "plain2.csv", "--algo", "eg:eta=inf"],
        "nan-eta": ["backtest", "--data", "plain2.csv", "--algo", "eg:eta=nan"],
        "weights-off-simplex": ["backtest", "--data", "plain2.csv", "--algo", "crp:weights=0.5|0.6"],
        "zero-samples": ["compare", "--data", "plain2.csv", "--algo", "universal:samples=0"],
        "negative-samples": ["backtest", "--data", "plain2.csv", "--algo", "universal:samples=-3"],
        "negative-spec-seed": ["backtest", "--data", "plain2.csv", "--algo", "universal:samples=10,seed=-1"],
        # A spec is checked before the data is read, so its refusal wins over the missing file's.
        "missing-file-zero-samples": ["compare", "--data", "missing.csv", "--algo", "universal:samples=0"],
        # The cost flags are checked before the spec string is read.
        "malformed-spec-with-rate-without-model": ["compare", "--data", "plain2.csv", "--algo", "eg:eta=abc",
                                                   "--cost-rate", "0.2"],
        # A synthetic market too large to hold is refused before any output is written.
        "synth-huge-n": ["synth", "--kind", "regime-pair", "--n", "1000000000000", "--out", "{out}.csv"],
        "synth-huger-n": ["synth", "--kind", "regime-pair", "--n", "100000000000000000000", "--out", "{out}.csv"],
        "synth-volatility-huge-n": ["synth", "--kind", "volatility-pair", "--n", "1000000000000"],
        "synth-volatility-huger-n": ["synth", "--kind", "volatility-pair", "--n", "100000000000000000000"],
        "adaptive-overflow": ["backtest", "--data", "regime2000.csv", "--algo", "switching-adaptive"],
        "fixed-overflow": ["backtest", "--data", "regime2000.csv", "--algo", "switching-fixed:gamma=0.01"],
        # exp overflows on the first day: the weights are NaN, refused with no numpy warning.
        "fixed-subnormal-share": ["backtest", "--data", "collapse3.csv", "--algo", "switching-fixed:gamma=5e-324"],
        "oracle-fixed-subnormal-share": ["oracle", "--data", "mixed2.csv", "--prior", "fixed", "--gamma", "5e-324",
                                         *COSTS["parallel"]],
        "eg-overflow": ["backtest", "--data", "plain2.csv", "--algo", "eg:eta=1e300"],
        "compare-overflow": ["compare", "--data", "regime2000.csv", "--algo", "best-stock",
                             "--algo", "eg:eta=0.05", "--algo", "universal:samples=100"],
    }
    # A gamma outside (0, 1) is refused by the spec, in the same words in all three commands, before the data.
    for label, gamma in (("nan", "nan"), ("inf", "inf"), ("negative", "-0.1"), ("one", "1")):
        errors[f"backtest-gamma-{label}"] = ["backtest", "--data", "plain2.csv",
                                             "--algo", f"switching-fixed:gamma={gamma}"]
        for command in ("oracle", "bounds"):
            errors[f"{command}-gamma-{label}"] = [command, "--data", "small2.csv", "--prior", "fixed", "--gamma", gamma]
    errors["backtest-missing-file-nan-gamma"] = ["backtest", "--data", "missing.csv",
                                                 "--algo", "switching-fixed:gamma=nan"]
    errors["oracle-missing-file-nan-gamma"] = ["oracle", "--data", "missing.csv", "--prior", "fixed", "--gamma", "nan"]
    cases += [(f"error-{name}", args) for name, args in errors.items()]
    # A flag the run has no use for is refused, not dropped: gamma under the adaptive prior,
    # and a cost rate with no cost model to charge it.
    cases += [
        ("oracle-adaptive-with-gamma", ["oracle", "--data", "small2.csv", "--prior", "adaptive", "--gamma", "0.3"]),
        ("bounds-adaptive-with-gamma", ["bounds", "--data", "small2.csv", "--prior", "adaptive", "--gamma", "0.3"]),
        ("backtest-rate-without-model", ["backtest", "--data", "plain2.csv", "--algo", "switching-adaptive",
                                         "--cost-rate", "0.2"]),
        ("compare-rate-without-model", ["compare", "--data", "plain2.csv", "--algo", "switching-adaptive",
                                        "--algo", "bcrp", "--cost-model", "none", "--cost-rate", "0.2"]),
    ]
    return cases


def _normalized(stderr: str, src: Path, work: Path) -> str:
    text = stderr.replace(str(src), "<src>").replace(str(work), "<work>")
    text = re.sub(r'(File "<src>/[^"]+", line )\d+', r"\1<n>", text)
    return re.sub(r"(<src>/\S+\.py:)\d+:", r"\1<n>:", text)


def capture(src: Path, out: Path) -> None:
    src = src.resolve()
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(src)
    results = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        work = Path(tmp)
        write_markets(work)
        for name, args in corpus():
            args = [a.replace("{out}", name) for a in args]
            before = set(work.iterdir())
            proc = subprocess.run(
                [sys.executable, "-m", "switchfolio.cli", *args],
                cwd=work, env=env, capture_output=True, text=True,
            )
            files = {p.name: p.read_text() for p in sorted(set(work.iterdir()) - before)}
            results[name] = {
                "args": args,
                "exit": proc.returncode,
                "stdout": proc.stdout,
                "stderr": _normalized(proc.stderr, src, work),
                "files": files,
            }
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} invocations captured to {out}")


NUMBER = re.compile(r"[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _text_move(a: str, b: str) -> float | None:
    """Largest relative move between the numbers of two texts that differ in numbers only, else None."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return None
    move = 0.0
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        fx, fy = float(x), float(y)
        if fx != fy:  # -0 against 0 is no move
            move = max(move, abs(fx - fy) / max(abs(fx), abs(fy)))
    return move


def numeric_move(a: dict, b: dict) -> float | None:
    """Largest relative move between two results of one invocation that differ in numbers only
    (same exit code, same output file names), else None."""
    if a["exit"] != b["exit"] or a["files"].keys() != b["files"].keys():
        return None
    moves = [_text_move(a[f], b[f]) for f in ("stdout", "stderr")]
    moves += [_text_move(a["files"][name], b["files"][name]) for name in a["files"]]
    return None if None in moves else max(moves)


def diff(a_path: Path, b_path: Path) -> int:
    """Print each invocation that differs, with its largest relative move when only numbers moved."""
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    differing = 0
    largest = None
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{name}: only in {a_path if name in a else b_path}")
            differing += 1
            continue
        fields = [f for f in ("exit", "stdout", "stderr", "files") if a[name][f] != b[name][f]]
        if fields:
            move = numeric_move(a[name], b[name])
            note = "" if move is None else f"; numbers only, largest relative move {move:.3g}"
            print(f"{name}: {', '.join(fields)} differ (exit {a[name]['exit']} -> {b[name]['exit']}){note}")
            differing += 1
            if move is not None:
                largest = move if largest is None else max(largest, move)
    print(f"{differing} of {len(set(a) | set(b))} invocations differ")
    if largest is not None:
        print(f"largest relative move among those that differ in numbers only: {largest:.3g}")
    return 1 if differing else 0


def check(path: Path) -> int:
    """Print each invocation that exited outside {0, 1, 2} or wrote a traceback; 1 if there is one."""
    results = json.loads(path.read_text())
    failing = 0
    for name, result in sorted(results.items()):
        faults = ([f"exit {result['exit']}"] if result["exit"] not in (0, 1, 2) else []) + (
            ["Traceback on stderr"] if "Traceback" in result["stderr"] else [])
        if faults:
            print(f"{name}: {', '.join(faults)}")
            failing += 1
    print(f"{failing} of {len(results)} invocations exit outside 0, 1, 2 or write a traceback")
    return 1 if failing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_cap = sub.add_parser("capture", help="run the corpus against one source tree")
    p_cap.add_argument("--src", type=Path, required=True, help="directory holding the switchfolio package")
    p_cap.add_argument("--out", type=Path, required=True, help="capture file to write (JSON)")
    p_diff = sub.add_parser("diff", help="compare two captures")
    p_diff.add_argument("before", type=Path)
    p_diff.add_argument("after", type=Path)
    p_check = sub.add_parser("check", help="fail on a stray exit code or a traceback in one capture")
    p_check.add_argument("capture", type=Path)
    args = parser.parse_args(argv)
    if args.command == "capture":
        capture(args.src, args.out)
        return 0
    if args.command == "check":
        return check(args.capture)
    return diff(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
