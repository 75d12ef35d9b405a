"""Command-line front door.

Subcommands:

* ``synth``     generate one of the built-in synthetic two-asset markets as CSV
* ``backtest``  run one strategy over a CSV and print a TSV report
* ``compare``   run several strategies over the same CSV, one TSV row each
* ``oracle``    exact mixture wealth over all regimes vs. the recursive algorithm
* ``bounds``    per-regime competitiveness accounting as TSV

``backtest`` and ``compare`` name each strategy by one spec string,
``--algo KIND[:key=value,...]`` (``crp:weights=0.5|0.5``, ``eg:eta=0.05``),
read by one parser, ``backtest.AlgoSpec.parse``, before the data is loaded;
``oracle`` and ``bounds`` build the one switching spec of ``--prior`` and
``--gamma`` that they run and certify, before the data is loaded too.

Exit codes: 0 success, 1 usage error, 2 data/validation error (with
line/column diagnostics for CSV problems; a malformed, missing, repeated or
foreign parameter in a spec and an unknown kind are data errors too, as is
output that cannot be written, such as a closed stdout pipe or none at all,
and a wealth to be printed that is not a positive normal double). All randomness
flows from ``--seed``, which only ``backtest`` and ``compare`` take;
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Iterator

from . import backtest as bt
from .core import PortfolioError
from .costs import CostModel
from .market_data import (
    MODE_PRICES,
    MODE_RELATIVES,
    load_csv,
    synth_regime_pair,
    synth_volatility_pair,
    to_csv_text,
)
from .regimes import (
    LOG2,
    BoundTable,
    block_regimes,
    bound_check,
    mixture_oracle,
    require_enumerable,
)
# Unused here: bench/trace_child.py wraps the switching steps under these names.
from .switching import adaptive_step, fixed_step  # noqa: F401


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; this package reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cost_from_args(args) -> CostModel | None:
    """The cost model of --cost-model at --cost-rate (0 if not given); a rate without a model is refused."""
    if args.cost_model == "none":
        if args.cost_rate is not None:
            raise PortfolioError("--cost-rate needs --cost-model per-trade or parallel")
        return None
    rate = 0.0 if args.cost_rate is None else args.cost_rate
    return CostModel.per_trade(rate) if args.cost_model == "per-trade" else CostModel.parallel(rate)


def _add_data_flags(p: _Parser):
    p.add_argument("--data", required=True, help="input CSV of relatives or prices")
    p.add_argument(
        "--mode",
        choices=[MODE_RELATIVES, MODE_PRICES],
        default=MODE_RELATIVES,
        help="how to interpret the CSV rows (default: relatives)",
    )


def _add_cost_flags(p: _Parser):
    p.add_argument(
        "--cost-model",
        choices=["none", "per-trade", "parallel"],
        default="none",
        help="transaction cost model (default: none)",
    )
    p.add_argument("--cost-rate", type=float, help="commission rate c in [0, 0.5)")


def _add_spec_flags(p: _Parser, **algo):
    """--algo and the cost settings that every strategy spec of backtest and compare takes."""
    p.add_argument("--algo", required=True, **algo)
    _add_cost_flags(p)
    p.add_argument(
        "--cost-accounting",
        choices=[bt.ACCOUNTING_BUCKET, bt.ACCOUNTING_REALIZED],
        default=bt.ACCOUNTING_BUCKET,
    )


def _add_common(p: _Parser, seed: bool = False):
    if seed:  # backtest and compare: only their universal specs sample
        p.add_argument("--seed", type=int, default=0, help="seed for all sampling (default 0)")
    p.add_argument("--out", help="write output here instead of stdout")


# The --algo help of backtest and compare, with each kind's keys read from the table.
ALGO_HELP = (
    "strategy spec 'KIND[:key=value,...]', KIND one of "
    + ", ".join(kind + "".join(f":{key}=" for key in keys) for kind, keys in bt.KIND_PARAMETERS.items())
    + f"; weights values are separated by |; universal's samples default to {bt.DEFAULT_SAMPLES}"
    " (unused for two assets without a cost) and it alone takes its own seed= (default --seed)"
)


# Characters per write of a long text: a text file encodes a str longer than its 8192-character
# chunk into one bytes copy of the whole before writing it.
TEXT_SLICE = 8192


def _emit(text: str | Iterator[str], out_path: str | None):
    """Write text, or a stream of text chunks, to out_path or stdout.

    A str is written TEXT_SLICE characters at a time. Nothing is opened or
    written before the first chunk exists, so a refusal raised while making
    it leaves no file behind.
    """
    if isinstance(text, str):
        chunks = (text[i : i + TEXT_SLICE] for i in range(0, len(text), TEXT_SLICE))
    else:
        chunks = iter(text)
    first = next(chunks, "")
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(first)
            fh.writelines(chunks)
    elif sys.stdout is None:  # the process started with no fd 1
        raise OSError("no standard output to write to")
    else:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)


def _cmd_synth(args) -> int:
    X = synth_volatility_pair(args.n) if args.kind == "volatility-pair" else synth_regime_pair(args.n)
    _emit(to_csv_text(X), args.out)
    return 0


def _cmd_backtest(args) -> int:
    spec = bt.AlgoSpec.parse(args.algo, args.seed, _cost_from_args(args), args.cost_accounting)
    report = bt.run(spec, load_csv(args.data, args.mode))
    # Both texts are made before either is written: a refused plot leaves no report behind.
    text = bt.report_tsv(report)
    plot = bt.emit_plot_data(report) if args.plot_data else None
    _emit(text, args.out)
    if plot is not None:
        _emit(plot, args.plot_data)
    return 0


def _cmd_compare(args) -> int:
    cost = _cost_from_args(args)
    specs = [bt.AlgoSpec.parse(text, args.seed, cost, args.cost_accounting) for text in args.algo]
    rows = bt.compare(specs, load_csv(args.data, args.mode))
    _emit(bt.comparison_tsv(rows), args.out)
    return 0


def _switching_setup(args):
    """The switching spec of --prior and --gamma, with its cost model, and the market, for oracle and bounds.

    As in backtest, the cost flags are checked first, then the spec, then the data is read: a
    fixed prior without --gamma is refused as ``switching-fixed needs gamma``."""
    cost = _cost_from_args(args)
    kind = bt.KIND_SWITCHING_FIXED if args.prior == "fixed" else bt.KIND_SWITCHING_ADAPTIVE
    spec = bt.AlgoSpec(kind, gamma=args.gamma, cost=cost)
    return spec, load_csv(args.data, args.mode)


def _cmd_oracle(args) -> int:
    spec, X = _switching_setup(args)
    oracle = float(bt.linear_wealth("oracle_wealth", mixture_oracle(X, spec)))
    algorithm = float(bt.linear_wealth("algorithm_wealth", bt.run(spec, X).log_wealth[-1]))
    gap = abs(algorithm - oracle) / oracle
    text = (
        f"oracle_wealth\t{oracle:.17g}\n"
        f"algorithm_wealth\t{algorithm:.17g}\n"
        f"relative_gap\t{gap:.6e}\n"
    )
    _emit(text, args.out)
    return 0


BOUNDS_CHUNK_ROWS = 4096  # most rows per chunk: a wider switch-time block is written in pieces


def _bounds_chunks(table: BoundTable) -> Iterator[str]:
    """The bounds table as text chunks: the header with the first switch-time block
    (alone if there is none), then one chunk per block, a block of more than
    BOUNDS_CHUNK_ROWS rows in pieces of that many. The table is streamed, never held whole.

    Each block is scored at once (``BoundTable.scored_blocks``) and each chunk is
    made by one ``%`` over its switch count's row template, which holds every
    row's strategy label, the switch count, the penalty text and the
    algorithm's text, built once per switch count. ``bound_check`` is still
    called once per regime, a read of the scored block: the benchmark's trace
    counts those calls.
    """
    text = (
        "switch_times\tstrategies\tswitches\tregime_log2_wealth\tpenalty_bits\t"
        "algorithm_log2_wealth\tslack_bits\n"
    )
    alg = table.algorithm_log2_wealth
    rows_seen = None
    for times, rows, log2_wealth, penalty in table.scored_blocks():
        for regime in block_regimes(times, rows):
            bound_check(table, regime)
        if rows is not rows_seen:  # a new switch count
            rows_seen = rows
            tail = f"\t{len(times)}\t%.12g\t{penalty:.12g}\t{alg:.12g}\t%.12g\n"
            templates = [
                "".join(["%s\t" + ",".join(map(str, row)) + tail for row in rows[i : i + BOUNDS_CHUNK_ROWS]])
                for i in range(0, len(rows), BOUNDS_CHUNK_ROWS)
            ]
        slack = alg - log2_wealth + penalty  # BoundReport.slack's operations, elementwise
        head = ",".join(map(str, times)) or "-"
        for i, template in enumerate(templates):
            piece = slice(i * BOUNDS_CHUNK_ROWS, (i + 1) * BOUNDS_CHUNK_ROWS)
            wealth_cells = log2_wealth[piece].tolist()
            cells = [head] * (3 * len(wealth_cells))
            cells[1::3] = wealth_cells
            cells[2::3] = slack[piece].tolist()
            yield text + template % tuple(cells)
            text = ""
    if text:  # a market of no days has no block
        yield text


def _cmd_bounds(args) -> int:
    spec, X = _switching_setup(args)
    require_enumerable(X.days, X.assets)  # refuse before the algorithm runs
    alg_log2 = float(bt.run(spec, X).log_wealth[-1]) / LOG2
    _emit(_bounds_chunks(BoundTable(X, spec, alg_log2)), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="switchfolio", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", parents=[], help="generate a synthetic market CSV")
    p_synth.add_argument("--kind", choices=["volatility-pair", "regime-pair"], required=True)
    p_synth.add_argument("--n", type=int, required=True, help="half the number of trading days")
    _add_common(p_synth)

    p_bt = sub.add_parser("backtest", help="run one strategy and print a TSV report")
    _add_data_flags(p_bt)
    _add_spec_flags(p_bt, help=ALGO_HELP)
    p_bt.add_argument("--plot-data", help="also write the day-series CSV here")
    _add_common(p_bt, seed=True)

    p_cmp = sub.add_parser("compare", help="run several strategies, one TSV row each")
    _add_data_flags(p_cmp)
    _add_spec_flags(p_cmp, action="append", help="repeatable; " + ALGO_HELP)
    _add_common(p_cmp, seed=True)

    for name, help_text in (
        ("oracle", "exact mixture wealth over all regimes vs the algorithm"),
        ("bounds", "per-regime competitiveness accounting"),
    ):
        p_sw = sub.add_parser(name, help=help_text)
        _add_data_flags(p_sw)
        p_sw.add_argument("--prior", choices=["fixed", "adaptive"], required=True)
        p_sw.add_argument("--gamma", type=float, help="switching probability for --prior fixed")
        _add_cost_flags(p_sw)
        _add_common(p_sw)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "backtest":
            return _cmd_backtest(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_bounds(args)
    except (PortfolioError, OSError) as exc:
        print(f"switchfolio: {exc}", file=sys.stderr)
        return 2


def console_main():
    """Run ``main`` as a whole process: the entry of ``python -m switchfolio.cli`` and of
    the ``switchfolio`` script. It never returns; the process exits with main's code.

    Stdout is flushed here, not at interpreter shutdown, so a failed write (a reader
    that closed the pipe, a full disk) gets the data-error exit, 2, and one
    ``switchfolio:`` line, none more when main has already reported a failure; stdout
    then points at the null device, so the shutdown flush cannot fail again.

    ``gc.freeze()`` moves every object alive at exit out of the collector's reach, so
    the shutdown collection does not walk them; the memory goes back with the process.
    Atexit handlers and the interpreter's own stream flush still run. ``main`` itself
    leaves the collector as it found it, for its in-process callers.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse's usage error and --help
        code = exc.code
    try:
        if sys.stdout is not None:  # None when the process started with no fd 1
            sys.stdout.flush()
    except OSError as exc:  # a closed pipe, a full disk: main reports any earlier write's failure
        if not code:
            print(f"switchfolio: {exc}", file=sys.stderr)
            code = 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
