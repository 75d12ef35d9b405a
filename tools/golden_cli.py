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
1 if there is one. In stderr the source path is replaced by ``<src>`` and
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
    "switching-fixed": ["--gamma", GAMMA],
    "switching-adaptive": [],
    "crp": None,  # weights depend on the asset count
    "bcrp": [],
    "eg": ["--eta", "0.05"],
    "universal": ["--samples", "500"],
    "best-stock": [],
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
    lines = (work / "long2.csv").read_text().splitlines()
    lines[119] = lines[119].split(",")[0] + ",0.99.5"  # line 120, column 2: past the whole-grid parse
    (work / "late-bad.csv").write_text("\n".join(lines) + "\n")
    # A spreadsheet "CSV UTF-8" export: a byte-order mark ahead of the date header.
    (work / "bom3.csv").write_text("\ufeff" + (work / "dated3.csv").read_text(), encoding="utf-8")
    _market(work / "day1.csv", 17, 1, 3, 0.05)  # one trading day: a single switch count, l = 0
    (work / "bad.csv").write_text("a,b\n1.0,oops\n")
    # Bad cells on file line 4, after a blank line and after a date cell that spans two lines.
    (work / "blank-bad.csv").write_text("a,b\n1.0,2.0\n\n1.0,abc\n")
    (work / "multiline-bad.csv").write_text('date,a,b\n"2001\n01",1.0,2.0\n2002,1.0,abc\n')
    (work / "negative.csv").write_text("a,b\n1.0,-2\n")
    (work / "negative-price.csv").write_text("a,b\n1.0,2.0\n-1.0,2.0\n")
    (work / "empty2.csv").write_text("a,b\n")  # a header and no trading day


def corpus() -> list[tuple[str, list[str]]]:
    """(case name, CLI arguments); output files go to the case's own name."""
    cases = [
        ("synth-volatility", ["synth", "--kind", "volatility-pair", "--n", "5"]),
        ("synth-regime-file", ["synth", "--kind", "regime-pair", "--n", "4", "--out", "{out}.csv"]),
        ("synth-regime-2000", ["synth", "--kind", "regime-pair", "--n", "2000", "--out", "regime2000.csv"]),
    ]
    markets = {"dated3": ([], 3), "plain2": ([], 2), "prices2": (["--mode", "prices"], 2)}
    for market, (mode, n) in markets.items():
        for kind, extra in KINDS.items():
            if extra is None:
                extra = ["--weights", ",".join([f"{1 / n:.17g}"] * n)]
            for cost, cost_args in COSTS.items():
                for accounting in ("bucket", "realized"):
                    if cost == "none" and accounting == "realized":
                        continue
                    cases.append((
                        f"backtest-{market}-{kind}-{cost}-{accounting}",
                        ["backtest", "--data", f"{market}.csv", *mode, "--algo", kind, *extra,
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
    for market in ("walk3", "drift3"):
        cases.append((f"bcrp-{market}", ["backtest", "--data", f"{market}.csv", "--algo", "bcrp"]))
    for cost in ("none", "per-trade"):  # 20000 samples: more than two universal tiles of samples
        cases.append((f"backtest-long2-universal20000-{cost}",
                      ["backtest", "--data", "long2.csv", "--algo", "universal", "--samples", "20000",
                       *COSTS[cost], "--seed", "3", "--out", "{out}.tsv", "--plot-data", "{out}.plot.csv"]))
        cases.append((f"compare-long2-universal20000-{cost}",
                      ["compare", "--data", "long2.csv", "--algo", "universal:samples=20000",
                       "--algo", "best-stock", *COSTS[cost]]))
    for command in ("oracle", "bounds"):
        for market in ("small2", "small3"):
            for prior in ("fixed", "adaptive"):
                gamma = ["--gamma", GAMMA] if prior == "fixed" else []
                for convention in ("switches-only", "all-segments"):
                    for cost, cost_args in COSTS.items():
                        cases.append((
                            f"{command}-{market}-{prior}-{convention}-{cost}",
                            [command, "--data", f"{market}.csv", "--prior", prior, *gamma,
                             "--convention", convention, *cost_args],
                        ))
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
    for command in ("oracle", "bounds"):
        for prior in ("fixed", "adaptive"):
            gamma = ["--gamma", GAMMA] if prior == "fixed" else []
            cases.append((f"{command}-day1-{prior}", [command, "--data", "day1.csv", "--prior", prior, *gamma]))
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
        "negative-relative": ["bounds", "--data", "negative.csv", "--prior", "adaptive"],
        "malformed-weights": ["backtest", "--data", "plain2.csv", "--algo", "crp", "--weights", "0.5,x"],
        "wrong-weight-count": ["backtest", "--data", "dated3.csv", "--algo", "crp", "--weights", "0.5,0.5"],
        "malformed-gamma": ["compare", "--data", "plain2.csv", "--algo", "switching-fixed:gamma=abc"],
        "malformed-samples": ["compare", "--data", "plain2.csv", "--algo", "universal:samples=1e3"],
        "negative-seed": ["compare", "--data", "plain2.csv", "--seed", "-1", "--algo", "universal:samples=10"],
        "unknown-parameter": ["compare", "--data", "plain2.csv", "--algo", "eg:rate=2"],
        "irrelevant-parameter": ["compare", "--data", "plain2.csv", "--algo", "eg:eta=0.05,samples=5,gamma=0.2"],
        "negative-eta-empty-market": ["compare", "--data", "empty2.csv", "--algo", "eg:eta=-1"],
        "negative-weight": ["backtest", "--data", "plain2.csv", "--algo", "crp", "--weights=-0.5,1.5"],
        "negative-price": ["backtest", "--data", "negative-price.csv", "--mode", "prices", "--algo", "bcrp"],
        "unknown-kind": ["compare", "--data", "plain2.csv", "--algo", "momentum"],
        "parameter-without-value": ["compare", "--data", "plain2.csv", "--algo", "eg:eta"],
        "adaptive-overflow": ["backtest", "--data", "regime2000.csv", "--algo", "switching-adaptive"],
        "fixed-overflow": ["backtest", "--data", "regime2000.csv", "--algo", "switching-fixed", "--gamma", "0.01"],
        "compare-overflow": ["compare", "--data", "regime2000.csv", "--algo", "best-stock",
                             "--algo", "eg:eta=0.05", "--algo", "universal:samples=100"],
    }
    cases += [(f"error-{name}", args) for name, args in errors.items()]
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


def diff(a_path: Path, b_path: Path) -> int:
    a = json.loads(a_path.read_text())
    b = json.loads(b_path.read_text())
    differing = 0
    for name in sorted(set(a) | set(b)):
        if name not in a or name not in b:
            print(f"{name}: only in {a_path if name in a else b_path}")
            differing += 1
            continue
        fields = [f for f in ("exit", "stdout", "stderr", "files") if a[name][f] != b[name][f]]
        if fields:
            print(f"{name}: {', '.join(fields)} differ (exit {a[name]['exit']} -> {b[name]['exit']})")
            differing += 1
    print(f"{differing} of {len(set(a) | set(b))} invocations differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_cap = sub.add_parser("capture", help="run the corpus against one source tree")
    p_cap.add_argument("--src", type=Path, required=True, help="directory holding the switchfolio package")
    p_cap.add_argument("--out", type=Path, required=True, help="capture file to write (JSON)")
    p_diff = sub.add_parser("diff", help="compare two captures")
    p_diff.add_argument("before", type=Path)
    p_diff.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    if args.command == "capture":
        capture(args.src, args.out)
        return 0
    return diff(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
