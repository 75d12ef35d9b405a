#!/usr/bin/env python3
"""Benchmark of the switchfolio CLI: cold-process workloads with checked outputs.

One measured run:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every metric of every workload, with the machine and commit it ran on:

    python3 bench/run.py --summary [--seed N] [--seconds S]

A run is a closed loop with one client. Each operation is one or more fresh
``python -m switchfolio.cli`` processes, started with the environment a user
gets (``REGIME_SWITCH_THREADS`` unset) and timed from the spawn of the first
to the exit of the last. Every output is checked. With ``--trace 0`` the run
reports the end-to-end metrics, its times scaled to the host's speed by a
reference task (``reference_s``). With ``--trace 1`` it alternates untraced
operations with traced ones (``trace_child.py`` wraps each layer's functions)
and reports the per-layer metrics, plus untimed probes: one on an extreme
market, and for ``reference-table`` one ``bcrp`` run. The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. See README.md for why each workload is shaped as it is.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import mmap
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_CHILD = BENCH / "trace_child.py"
SPAWNER = BENCH / "spawner.py"

CHILD_TIMEOUT_S = 120
MIN_OPS = 2  # per kind of operation in a run: the repeat check needs two
SETUP_REPEATS = 2  # import timings after each operation
REF_S = 0.1  # nominal duration of the reference task; scaled times are relative to it
LOG_LO, LOG_HI = math.log(0.97), math.log(1.03)  # NYSE-like +-3 % days
REL_TOL = 1e-9
SIMPLEX_TOL = 1e-9
GAP_TOL = 1e-12
NON_FINITE = re.compile(r"(?i)\b(?:nan|inf(?:inity)?)\b")
TRACEBACK = "Traceback (most recent call last)"

END_TO_END = {
    "setup_s": "s",
    "op_wall_s": "s",
    "op_cpu_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "switching.adaptive_step.s": "s",
    "switching.adaptive_step.calls": "count",
    "switching.adaptive_step.us_p50": "us",
    "switching.adaptive_step.us_p99": "us",
    "switching.adaptive_step.minor_faults": "count",
    "switching.adaptive_weights.s": "s",
    "switching.adaptive_weights.minor_faults": "count",
    "switching.bucket_cells": "count",
    "switching.live_buckets": "count",
    "switching.fixed_step.s": "s",
    "switching.fixed_weights.s": "s",
    "baselines.universal_tracks.s": "s",
    "baselines.universal_tracks.crp_days": "count",
    "baselines.eg_step.s": "s",
    "baselines.eg_step.calls": "count",
    "baselines.bcrp_solve.s": "s",
    "baselines.bcrp_solve.failed": "count",
    "baselines.best_stock.s": "s",
    "backtest.compare.s": "s",
    "backtest.compare.overlap": "ratio",
    "backtest.run.s": "s",
    "backtest.run.self_s": "s",
    "costs.realized_wealth_track.s": "s",
    "costs.realized_wealth_track.calls": "count",
    "backtest.emit_plot_data.s": "s",
    "backtest.emit_plot_data.bytes": "bytes",
    "backtest.report_tsv.s": "s",
    "regimes.mixture_oracle.s": "s",
    "regimes.regimes": "count",
    "regimes.bound_check.s": "s",
    "regimes.bound_check.calls": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "market_data.load_csv.s": "s",
    "market_data.load_csv.bytes": "bytes",
    "trace.overhead_share": "ratio",
    "failed_ops_share": "ratio",
    "probe_failed_share": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot measure: no program to run, or it cannot start."""


@dataclasses.dataclass
class Proc:
    """One finished CLI process and everything it wrote."""

    args: list[str]
    exit_code: int
    start: float
    end: float
    cpu_s: float
    maxrss_kib: int
    stdout: str
    stderr: str
    files: list[str]


@dataclasses.dataclass
class Op:
    procs: list[Proc]
    failures: list[str]
    wrong: bool  # a check found a wrong output, not only a refusal or a crash
    traces: list[dict]

    @property
    def wall_s(self) -> float:
        return self.procs[-1].end - self.procs[0].start

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def peak_rss_mib(self) -> float:
        return max(p.maxrss_kib for p in self.procs) / 1024.0

    @property
    def output_bytes(self) -> int:
        return sum(len(p.stdout.encode()) + sum(len(f.encode()) for f in p.files) for p in self.procs)


# A command is the CLI arguments plus the files it writes besides stdout.
Command = tuple[list[str], list[Path]]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    days: int
    assets: int
    probe_n: int  # synth --kind regime-pair --n for the extreme-market probe
    commands: Callable[[Path, Path], list[Command]]  # (market CSV, work dir)
    check: Callable[[np.ndarray, list[Proc]], list[str]]
    bcrp_probe: bool = False  # the traced run also runs bcrp once on the market
    threads: int = 1  # most threads an operation runs at once, given enough processors


# ---------------------------------------------------------------- workloads


def _backtest_adaptive_commands(market: Path, work: Path) -> list[Command]:
    plot = work / "plot.csv"
    args = ["backtest", "--data", str(market), "--algo", "switching-adaptive",
            "--cost-model", "parallel", "--cost-rate", "0.002", "--plot-data", str(plot)]
    return [(args, [plot])]


FIXED_GAMMA = 0.3333333333

# bcrp is not in the timed table: it raises at the very end of its solve on
# many markets (a weight sum drifts past the simplex tolerance), which fails
# the whole compare on some seeds and not on others. The traced run runs it
# on its own instead (bcrp_probe), where its time and its raise are reported.
REFERENCE_SPECS = [
    "best-stock",
    "crp:weights=0.5|0.5",
    "eg:eta=0.05",
    "universal:samples=100000",
    f"switching-fixed:gamma={FIXED_GAMMA}",
]
REFERENCE_NAMES = [spec.split(":")[0] for spec in REFERENCE_SPECS]


def _reference_table_commands(market: Path, work: Path) -> list[Command]:
    args = ["compare", "--data", str(market)]
    for spec in REFERENCE_SPECS:
        args += ["--algo", spec]
    return [(args, [])]


def _oracle_certify_commands(market: Path, work: Path) -> list[Command]:
    bounds = work / "bounds.tsv"
    oracle = ["oracle", "--data", str(market), "--prior", "adaptive",
              "--cost-model", "per-trade", "--cost-rate", "0.01"]
    bound = ["bounds", "--data", str(market), "--prior", "fixed",
             "--gamma", str(FIXED_GAMMA), "--out", str(bounds)]
    return [(oracle, []), (bound, [bounds])]


def _key_values(text: str) -> dict[str, str]:
    return dict(line.split("\t", 1) for line in text.splitlines() if "\t" in line)


def _positive(text: str | None) -> bool:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return False
    return math.isfinite(value) and value > 0


def _check_backtest_adaptive(values: np.ndarray, procs: list[Proc]) -> list[str]:
    days, assets = values.shape
    (proc,) = procs
    report = _key_values(proc.stdout)
    failures = []
    if report.get("days") != str(days):
        failures.append(f"report has days={report.get('days')!r}, expected {days}")
    for key in ("final_wealth", "final_wealth_bucket", "final_wealth_realized"):
        if not _positive(report.get(key)):
            failures.append(f"{key} is {report.get(key)!r}, not finite and positive")
    rows = proc.files[0].splitlines()[1:]
    if len(rows) != days + 1:
        return failures + [f"plot has {len(rows)} rows, expected {days + 1}"]
    try:
        grid = np.array([row.split(",")[: 3 + assets] for row in rows], dtype=float)
    except ValueError as exc:
        return failures + [f"plot does not parse: {exc}"]
    weights = grid[:, 3:]
    drift = np.abs(weights.sum(axis=1) - 1.0).max()
    if weights.min() < -SIMPLEX_TOL or drift > SIMPLEX_TOL:
        failures.append(f"plot weights leave the simplex: min {weights.min():.3g}, sum drift {drift:.3g}")
    last = f"{float(rows[-1].split(',')[1]):.12g}"
    if last != report.get("final_wealth"):
        failures.append(f"plot ends at wealth {last}, report says {report.get('final_wealth')}")
    return failures


def _max_drawdown(track: np.ndarray) -> float:
    return float((1.0 - track / np.maximum.accumulate(track)).max())


def _fixed_gamma_track(values: np.ndarray, gamma: float) -> np.ndarray:
    """Wealth of the fixed-gamma mixture from its share update, no costs."""
    days, assets = values.shape
    shares = np.full(assets, 1.0 / assets)
    log_wealth = np.zeros(days + 1)
    for t in range(days):
        if t:
            shares = (1.0 - gamma) * shares + gamma / (assets - 1) * (1.0 - shares)
        mass = shares * values[t]
        total = mass.sum()
        shares = mass / total
        log_wealth[t + 1] = log_wealth[t] + math.log(total)
    return np.exp(log_wealth)


def _reference_tracks(values: np.ndarray) -> dict[str, np.ndarray]:
    best = int(np.argmax(np.log(values).sum(axis=0)))
    return {
        "best-stock": np.concatenate(([1.0], np.cumprod(values[:, best]))),
        "crp": np.concatenate(([1.0], np.cumprod(values @ np.array([0.5, 0.5])))),
        "switching-fixed": _fixed_gamma_track(values, FIXED_GAMMA),
    }


def _check_reference_table(values: np.ndarray, procs: list[Proc]) -> list[str]:
    (proc,) = procs
    rows = [line.split("\t") for line in proc.stdout.splitlines()[1:]]
    names = [row[0] for row in rows]
    if names != REFERENCE_NAMES:
        return [f"table rows are {names}, expected {REFERENCE_NAMES}"]
    failures = []
    table = {}
    for row in rows:
        try:
            wealth, drawdown = float(row[2]), float(row[3])
        except (IndexError, ValueError):
            failures.append(f"{row[0]} row does not parse: {row}")
            continue
        table[row[0]] = wealth, drawdown
        if not (math.isfinite(wealth) and wealth > 0 and math.isfinite(drawdown)):
            failures.append(f"{row[0]} has final_wealth {row[2]}, max_drawdown {row[3]}")
    for name, track in _reference_tracks(values).items():
        if name not in table:
            continue
        wealth, drawdown = table[name]
        if not math.isclose(wealth, track[-1], rel_tol=REL_TOL):
            failures.append(f"{name} final_wealth {wealth!r}, numpy gives {track[-1]!r}")
        if not math.isclose(drawdown, _max_drawdown(track), rel_tol=REL_TOL, abs_tol=1e-12):
            failures.append(f"{name} max_drawdown {drawdown!r}, numpy gives {_max_drawdown(track)!r}")
    return failures


def _check_oracle_certify(values: np.ndarray, procs: list[Proc]) -> list[str]:
    days, assets = values.shape
    oracle, bounds = procs
    report = _key_values(oracle.stdout)
    failures = []
    for key in ("oracle_wealth", "algorithm_wealth"):
        if not _positive(report.get(key)):
            failures.append(f"{key} is {report.get(key)!r}, not finite and positive")
    try:
        gap = float(report.get("relative_gap"))
    except (TypeError, ValueError):
        gap = math.nan
    if not gap <= GAP_TOL:
        failures.append(f"relative_gap {report.get('relative_gap')!r} exceeds {GAP_TOL}")
    rows = bounds.files[0].splitlines()[1:]
    if len(rows) != assets**days:
        return failures + [f"bounds has {len(rows)} rows, expected N^T = {assets**days}"]
    try:
        slack = np.array([row.rsplit("\t", 1)[-1] for row in rows], dtype=float)
    except ValueError as exc:
        return failures + [f"bounds slack_bits does not parse: {exc}"]
    if not (slack >= 0).all():
        failures.append(f"{int((~(slack >= 0)).sum())} regimes have slack_bits < 0 (min {slack.min()!r})")
    return failures


WORKLOADS = {
    w.name: w
    for w in (
        Workload("backtest-adaptive", 10_000, 5, 2000,
                 _backtest_adaptive_commands, _check_backtest_adaptive),
        Workload("reference-table", 5651, 2, 2000,
                 _reference_table_commands, _check_reference_table, bcrp_probe=True,
                 threads=len(REFERENCE_SPECS)),  # compare runs one spec per processor
        Workload("oracle-certify", 10, 3, 5,
                 _oracle_certify_commands, _check_oracle_certify),
    )
}


# ------------------------------------------------------------------ markets


def make_market(seed: int, days: int, assets: int) -> np.ndarray:
    """Daily relatives whose logs are i.i.d. uniform in [ln 0.97, ln 1.03]."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(LOG_LO, LOG_HI, size=(days, assets)))


def write_market(values: np.ndarray, path: Path) -> None:
    lines = [",".join(f"a{i + 1}" for i in range(values.shape[1]))]
    lines += [",".join(f"{v:.17g}" for v in row) for row in values]
    path.write_text("\n".join(lines) + "\n")


def read_market(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ------------------------------------------------------------------ processes


class Spawner:
    """Runs child processes through ``spawner.py``, which stays small (see there why)."""

    def __init__(self):
        # The user's environment: compare picks its own thread count.
        self.env = {k: v for k, v in os.environ.items() if k != "REGIME_SWITCH_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.proc = subprocess.Popen([sys.executable, str(SPAWNER)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argvs: list[list[str]], work: Path) -> list[list]:
        """[exit code, start, end, cpu_s, maxrss_kib] per argv, run one after the other."""
        self.proc.stdin.write(json.dumps([argvs, self.env, str(work), CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the spawner process died")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            self.proc.terminate()  # the spawner kills the child it is waiting for
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_commands(spawner: Spawner, commands: list[Command], work: Path,
                 spans: list[Path] | None = None) -> list[Proc]:
    """Run the commands as one operation; traced through trace_child.py when spans are given."""
    argvs = []
    for i, (args, files) in enumerate(commands):
        for path in files:
            path.unlink(missing_ok=True)
        if spans is None:
            argvs.append([sys.executable, "-m", "switchfolio.cli", *args])
        else:
            argvs.append([sys.executable, str(TRACE_CHILD), str(spans[i]), *args])
    return [
        Proc(
            args=args,
            exit_code=code,
            start=start,
            end=end,
            cpu_s=cpu_s,
            maxrss_kib=maxrss_kib,
            stdout=(work / f"stdout{i}").read_text(),
            stderr=(work / f"stderr{i}").read_text(),
            files=[path.read_text() if path.exists() else "" for path in files],
        )
        for i, ((args, files), (code, start, end, cpu_s, maxrss_kib))
        in enumerate(zip(commands, spawner.run(argvs, work)))
    ]


def time_setup(spawner: Spawner, work: Path) -> float:
    ((code, start, end, _, _),) = spawner.run([[sys.executable, "-c", "import switchfolio.cli"]], work)
    if code != 0:
        raise BenchError(f"import switchfolio.cli failed: {(work / 'stderr0').read_text().strip()}")
    return end - start


# ------------------------------------------------------------------ checks


def judge(workload: Workload, values: np.ndarray, procs: list[Proc]) -> tuple[list[str], bool]:
    """Failure reasons of one operation, and whether any is a wrong output.

    A nonzero exit or a traceback fails the operation; its output is then
    not inspected. An operation that exits 0 fails on any non-finite number
    and on any failed workload check, and those count as wrong outputs.
    """
    failures = []
    for proc in procs:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        if TRACEBACK in proc.stderr:
            failures.append(f"{proc.args[0]}: traceback, exit {proc.exit_code}: {last}")
        elif proc.exit_code != 0:
            failures.append(f"{proc.args[0]}: exit {proc.exit_code}: {last}")
    if failures:
        return failures, False
    for proc in procs:
        for text in [proc.stdout, *proc.files]:
            match = NON_FINITE.search(text)
            if match:
                failures.append(f"{proc.args[0]}: non-finite number {match.group()!r} in output")
                break
    failures += workload.check(values, procs)
    return failures, bool(failures)


def output_digest(procs: list[Proc]) -> str:
    digest = hashlib.sha256()
    for proc in procs:
        for text in [proc.stdout, *proc.files]:
            digest.update(text.encode())
            digest.update(b"\0")
    return digest.hexdigest()


class Session:
    """Runs the operations of one workload on one market, checking each."""

    def __init__(self, workload: Workload, values: np.ndarray, market: Path, work: Path,
                 spawner: Spawner, label: str = "operation"):
        self.workload = workload
        self.label = label
        self.values = values
        self.commands = workload.commands(market, work)
        self.work = work
        self.spawner = spawner
        self.first_digest: str | None = None
        self.ops: list[Op] = []

    def op(self, traced: bool) -> Op:
        spans = [self.work / f"spans{i}.json" for i in range(len(self.commands))] if traced else None
        for path in spans or ():
            path.unlink(missing_ok=True)
        procs = run_commands(self.spawner, self.commands, self.work, spans)
        traces = [json.loads(path.read_text()) if path.exists() else {"spans": [], "live_buckets": 0}
                  for path in spans or ()]
        failures, wrong = judge(self.workload, self.values, procs)
        if not failures:
            digest = output_digest(procs)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                failures, wrong = ["output differs from the first repeat with this seed"], True
        for reason in failures:
            print(f"[{self.workload.name}] {self.label} {len(self.ops) + 1} failed: {reason}", file=sys.stderr)
        op = Op(procs, failures, wrong, traces)
        self.ops.append(op)
        return op


# ------------------------------------------------------------------ spans


def _self_times(spans: list, names: tuple[str, ...]) -> dict[str, float]:
    """Per name: span durations minus the part of each span its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    totals = defaultdict(float)
    for span_id, name, start, end, *_ in spans:
        if name not in names:
            continue
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return totals


def layer_metrics(op: Op) -> dict[str, float]:
    """Per-layer metrics of one traced operation, summed over its processes."""
    spans_of = defaultdict(list)  # name -> [(seconds, faults, work, raised)]
    self_s = defaultdict(float)
    live = 0
    for trace in op.traces:
        live += trace["live_buckets"]
        for _, name, start, end, _, _, faults, work, raised in trace["spans"]:
            spans_of[name].append((end - start, faults, work or 0, raised))
        for name, value in _self_times(trace["spans"], ("backtest.run", "cli.main")).items():
            self_s[name] += value

    def seconds(name):
        return sum(s[0] for s in spans_of[name])

    def faults(name):
        return sum(s[1] for s in spans_of[name])

    def work(*names):
        return sum(s[2] for name in names for s in spans_of[name])

    step_us = np.array([s[0] for s in spans_of["switching.adaptive_step"]]) * 1e6
    compare_s = seconds("backtest.compare")
    return {
        "switching.adaptive_step.s": seconds("switching.adaptive_step"),
        "switching.adaptive_step.calls": len(step_us),
        "switching.adaptive_step.us_p50": float(np.percentile(step_us, 50)) if step_us.size else 0.0,
        "switching.adaptive_step.us_p99": float(np.percentile(step_us, 99)) if step_us.size else 0.0,
        "switching.adaptive_step.minor_faults": faults("switching.adaptive_step"),
        "switching.adaptive_weights.s": seconds("switching.adaptive_weights"),
        "switching.adaptive_weights.minor_faults": faults("switching.adaptive_weights"),
        "switching.bucket_cells": work("switching.adaptive_step", "switching.adaptive_weights"),
        "switching.live_buckets": live,
        "switching.fixed_step.s": seconds("switching.fixed_step"),
        "switching.fixed_weights.s": seconds("switching.fixed_weights"),
        "baselines.universal_tracks.s": seconds("baselines.universal_tracks"),
        "baselines.universal_tracks.crp_days": work("baselines.universal_tracks"),
        "baselines.eg_step.s": seconds("baselines.eg_step"),
        "baselines.eg_step.calls": len(spans_of["baselines.eg_step"]),
        "baselines.bcrp_solve.s": seconds("baselines.bcrp_solve"),
        "baselines.bcrp_solve.failed": sum(s[3] for s in spans_of["baselines.bcrp_solve"]),
        "baselines.best_stock.s": seconds("baselines.best_stock"),
        "backtest.compare.s": compare_s,
        "backtest.compare.overlap": seconds("backtest.run") / compare_s if compare_s else 0.0,
        "backtest.run.s": seconds("backtest.run"),
        "backtest.run.self_s": self_s["backtest.run"],
        "costs.realized_wealth_track.s": seconds("costs.realized_wealth_track"),
        "costs.realized_wealth_track.calls": len(spans_of["costs.realized_wealth_track"]),
        "backtest.emit_plot_data.s": seconds("backtest.emit_plot_data"),
        "backtest.emit_plot_data.bytes": work("backtest.emit_plot_data"),
        "backtest.report_tsv.s": seconds("backtest.report_tsv"),
        "regimes.mixture_oracle.s": seconds("regimes.mixture_oracle"),
        "regimes.regimes": work("regimes.mixture_oracle"),
        "regimes.bound_check.s": seconds("regimes.bound_check"),
        "regimes.bound_check.calls": len(spans_of["regimes.bound_check"]),
        "cli.main.s": seconds("cli.main"),
        "cli.main.self_s": self_s["cli.main"],
        "cli.output_bytes": op.output_bytes,
        "market_data.load_csv.s": seconds("market_data.load_csv"),
        "market_data.load_csv.bytes": work("market_data.load_csv"),
    }


# ------------------------------------------------------------------ runs


def probe(workload: Workload, spawner: Spawner, work: Path) -> bool:
    """Run the workload's command once on a regime-pair market; True if it passes."""
    market = work / "probe.csv"
    synth = ["synth", "--kind", "regime-pair", "--n", str(workload.probe_n), "--out", str(market)]
    (made,) = run_commands(spawner, [(synth, [market])], work)
    if made.exit_code != 0:
        raise BenchError(f"synth failed: {made.stderr.strip()}")
    session = Session(workload, read_market(market), market, work, spawner, "probe")
    return not session.op(traced=False).failures


def bcrp_probe(market: Path, spawner: Spawner, work: Path) -> dict[str, float]:
    """Run bcrp once, traced, on the workload's market: its solve time and whether it raised."""
    spans = work / "bcrp_spans.json"
    spans.unlink(missing_ok=True)
    command = ["backtest", "--data", str(market), "--algo", "bcrp"]
    procs = run_commands(spawner, [(command, [])], work, [spans])
    trace = json.loads(spans.read_text()) if spans.exists() else {"spans": [], "live_buckets": 0}
    metrics = layer_metrics(Op(procs, [], False, [trace]))
    return {name: metrics[name] for name in ("baselines.bcrp_solve.s", "baselines.bcrp_solve.failed")}


def _reference_task() -> float:
    """Time one pass of a fixed task: a Python loop, small numpy operations, fresh pages."""
    start = time.perf_counter()
    total = 0
    for i in range(220_000):
        total += i * i
    cells = np.ones(20_000)
    for _ in range(600):
        cells = np.sqrt(cells * cells + 1e-9)
    pages = mmap.mmap(-1, 20 << 20)
    for offset in range(0, 20 << 20, mmap.PAGESIZE):
        pages[offset] = 1
    pages.close()
    return time.perf_counter() - start


def reference_s(copies: int) -> tuple[float, float]:
    """Run the reference task as ``copies`` processes at once: (one copy's time, wall time of all).

    The task is the benchmark's own code, so no change to the program moves
    it; only the speed the shared host gives at that moment does. One copy's
    time measures the speed of a processor; the wall time of as many copies
    as the operation runs threads measures how much of the box it gets.
    """
    start = time.perf_counter()
    pids = []
    try:
        for _ in range(copies - 1):
            pid = os.fork()
            if pid == 0:
                try:
                    _reference_task()
                finally:
                    os._exit(0)
            pids.append(pid)
        own = _reference_task()
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
    return own, time.perf_counter() - start


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """One run: the result object the benchmark prints as its last line."""
    if not (SRC / "switchfolio" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'switchfolio' / 'cli.py'} is missing")
    work.mkdir(parents=True, exist_ok=True)
    values = make_market(seed, workload.days, workload.assets)
    market = work / "market.csv"
    write_market(values, market)
    with Spawner() as spawner:
        time_setup(spawner, work)  # untimed: warms the file cache and writes any bytecode
        session = Session(workload, values, market, work, spawner)
        rounds: list[float] = []

        def more() -> bool:
            """Go on while another round of typical length still ends within the run."""
            if len(rounds) < MIN_OPS:
                return True
            return time.perf_counter() - started + statistics.median(rounds) <= seconds

        if not trace:
            setup = []
            copies = min(workload.threads, os.cpu_count() or 1)
            refs = [reference_s(copies)]
            started = time.perf_counter()
            while more():
                begun = time.perf_counter()
                session.op(traced=False)
                refs.append(reference_s(copies))
                setup += [time_setup(spawner, work) for _ in range(setup_repeats)]
                refs.append(reference_s(copies))
                rounds.append(time.perf_counter() - begun)
            ops = session.ops
            raw = {
                "setup_s": statistics.median(setup),
                "op_wall_s": statistics.median(op.wall_s for op in ops),
                "op_cpu_s": statistics.median(op.cpu_s for op in ops),
            }
            print(json.dumps({"raw": raw, "reference_s": refs}), file=sys.stderr)
            # Scaled to a host on which one copy of the reference task, and
            # as many copies at once as the operation runs threads, take
            # REF_S (README.md).
            one = REF_S / statistics.median(own for own, _ in refs)
            metrics = {
                "setup_s": raw["setup_s"] * one,
                "op_wall_s": raw["op_wall_s"] * REF_S / statistics.median(wall for _, wall in refs),
                "op_cpu_s": raw["op_cpu_s"] * one,
                "peak_rss_mib": statistics.median(op.peak_rss_mib for op in ops),
            }
            units = END_TO_END
        else:
            probe_passed = probe(workload, spawner, work)
            bcrp = bcrp_probe(market, spawner, work) if workload.bcrp_probe else {}
            started = time.perf_counter()
            plain, traced = [], []
            while more():
                begun = time.perf_counter()
                plain.append(session.op(traced=False))
                traced.append(session.op(traced=True))
                rounds.append(time.perf_counter() - begun)
            per_op = [layer_metrics(op) for op in traced]
            metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
            metrics.update(bcrp)
            plain_wall = statistics.median(op.wall_s for op in plain)
            traced_wall = statistics.median(op.wall_s for op in traced)
            metrics["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
            ops = session.ops
            metrics["failed_ops_share"] = sum(bool(op.failures) for op in ops) / len(ops)
            metrics["probe_failed_share"] = 0.0 if probe_passed else 1.0
            units = PER_LAYER
    return {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(bool(op.failures) for op in ops),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def summary(seed: int, seconds: float, work: Path) -> None:
    print(f"# nproc {len(os.sched_getaffinity(0))}; cpu {_cpu_model()}; "
          f"python {platform.python_version()}; numpy {np.__version__}")
    print(f"# commit {_git_commit()}; seed {seed}; {seconds:g} s per run")
    print("workload\tmetric\tvalue\tunit")
    bcrp_raised = None
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result = measure(workload, seed, seconds, trace, work / name)
            for metric, entry in result["metrics"].items():
                print(f"{name}\t{metric}\t{entry['value']!r}\t{entry['unit']}")
            mode = "traced" if trace else "untraced"
            print(f"{name}\t{mode}.correct\t{result['correct']}\t-")
            print(f"{name}\t{mode}.failed/attempted\t{result['failed']}/{result['attempted']}\t-")
            if name == "reference-table" and trace:
                bcrp_raised = result["metrics"]["baselines.bcrp_solve.failed"]["value"] > 0
    print(f"# bcrp raised at seed {seed}: {'yes' if bcrp_raised else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--summary", action="store_true", help="run every workload and print every metric")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.summary and args.workload is None:
        parser.error("--workload is required unless --summary is given")
    work = WORK / f"{os.getpid()}"
    try:
        if args.summary:
            summary(args.seed, args.seconds, work)
        else:
            result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
