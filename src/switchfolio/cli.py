"""Command-line front door.

Subcommands:

* ``synth``     generate one of the built-in synthetic two-asset markets as CSV
* ``backtest``  run one strategy over a CSV and print a TSV report
* ``compare``   run several strategies over the same CSV, one TSV row each
* ``oracle``    exact mixture wealth over all regimes vs. the recursive algorithm
* ``bounds``    per-regime competitiveness accounting as TSV

Exit codes: 0 success, 1 usage error, 2 data/validation error (with
line/column diagnostics for CSV problems, and for malformed numbers in
algorithm parameters). All randomness flows from ``--seed``; identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
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
    CHARGE_ALL_SEGMENTS,
    CHARGE_SWITCHES_ONLY,
    LOG2,
    AdaptivePrior,
    FixedGammaPrior,
    bound_check,
    enumerate_regimes,
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
    if args.cost_model == "none":
        return None
    if args.cost_model == "per-trade":
        return CostModel.per_trade(args.cost_rate)
    return CostModel.parallel(args.cost_rate)


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
    p.add_argument("--cost-rate", type=float, default=0.0, help="commission rate c in [0, 0.5)")


def _add_common(p: _Parser):
    p.add_argument("--seed", type=int, default=0, help="seed for all sampling (default 0)")
    p.add_argument("--out", help="write output here instead of stdout")


def _parse_number(key: str, value: str, kind=float):
    """One numeric algorithm parameter; a malformed value is a data error naming it."""
    try:
        return kind(value)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise PortfolioError(f"algorithm parameter {key} must be {expected}, got {value!r}") from None


def _parse_algo_string(text: str, args) -> bt.AlgoSpec:
    """Parse 'kind' or 'kind:key=value,key=value' into an AlgoSpec."""
    kind, _, param_text = text.partition(":")
    kind = kind.strip()
    fields = {
        "cost": _cost_from_args(args),
        "cost_accounting": args.cost_accounting,
        "seed": args.seed,
    }
    for chunk in param_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, value = chunk.partition("=")
        if not eq:
            raise PortfolioError(f"malformed algorithm parameter {chunk!r} in {text!r}")
        key = key.strip()
        value = value.strip()
        if key in ("gamma", "eta"):
            fields[key] = _parse_number(key, value)
        elif key in ("samples", "seed"):
            fields[key] = _parse_number(key, value, int)
        elif key == "weights":
            fields["weights"] = tuple(_parse_number(key, v) for v in value.split("|"))
        else:
            raise PortfolioError(f"unknown algorithm parameter {key!r} in {text!r}")
    return bt.AlgoSpec(kind=kind, **fields)


def _emit(text: str | Iterator[str], out_path: str | None):
    """Write text, or a stream of text chunks, to out_path or stdout.

    Nothing is opened or written before the first chunk exists, so a refusal
    raised while making it leaves no file behind.
    """
    chunks = iter((text,) if isinstance(text, str) else text)
    first = next(chunks, "")
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(first)
            fh.writelines(chunks)
    else:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)


def _cmd_synth(args) -> int:
    X = synth_volatility_pair(args.n) if args.kind == "volatility-pair" else synth_regime_pair(args.n)
    _emit(to_csv_text(X), args.out)
    return 0


def _cmd_backtest(args, parser: _Parser) -> int:
    takes = bt.KIND_PARAMETERS[args.algo]  # the flags of other kinds are ignored
    for name in takes:
        if getattr(args, name) is None:
            parser.error(f"--algo {args.algo} requires --{name}")
    X = load_csv(args.data, args.mode)
    fields = {name: getattr(args, name) for name in takes}
    if "weights" in fields:
        fields["weights"] = tuple(_parse_number("weights", v) for v in args.weights.split(","))
    spec = bt.AlgoSpec(
        kind=args.algo,
        **fields,
        seed=args.seed,
        cost=_cost_from_args(args),
        cost_accounting=args.cost_accounting,
    )
    report = bt.run(spec, X)
    _emit(bt.report_tsv(report), args.out)
    if args.plot_data:
        with open(args.plot_data, "w", newline="") as fh:
            fh.write(bt.emit_plot_data(report))
    return 0


def _cmd_compare(args) -> int:
    X = load_csv(args.data, args.mode)
    specs = [_parse_algo_string(text, args) for text in args.algo]
    rows = bt.compare(specs, X)
    _emit(bt.comparison_tsv(rows), args.out)
    return 0


def _switching_setup(args, parser: _Parser):
    """Market, prior and matching switching spec (with its cost model) for oracle and bounds."""
    if args.prior == "fixed" and args.gamma is None:
        parser.error("--prior fixed requires --gamma")
    X = load_csv(args.data, args.mode)
    fixed = args.prior == "fixed"
    prior = FixedGammaPrior(args.gamma) if fixed else AdaptivePrior()
    spec = bt.AlgoSpec(
        kind=bt.KIND_SWITCHING_FIXED if fixed else bt.KIND_SWITCHING_ADAPTIVE,
        gamma=args.gamma if fixed else None,
        cost=_cost_from_args(args),
    )
    return X, prior, spec


def _cmd_oracle(args, parser: _Parser) -> int:
    X, prior, spec = _switching_setup(args, parser)
    oracle = mixture_oracle(X, prior, spec.cost, args.convention)
    algorithm = bt.run(spec, X).final_wealth
    gap = abs(algorithm - oracle) / oracle if oracle else 0.0
    text = (
        f"oracle_wealth\t{oracle:.17g}\n"
        f"algorithm_wealth\t{algorithm:.17g}\n"
        f"relative_gap\t{gap:.6e}\n"
    )
    _emit(text, args.out)
    return 0


BOUNDS_CHUNK_ROWS = 4096  # rows per write: the table is streamed, never held whole


def _bounds_chunks(X, prior, alg_log2: float, cost, convention: str) -> Iterator[str]:
    """The bounds table, header first, as text chunks of BOUNDS_CHUNK_ROWS rows.

    Regimes come in blocks that share one switch-time tuple (see
    ``enumerate_regimes``), so a block's label and switch count are made once
    per block; each switch count's penalty text and each strategy tuple's
    label once per run.
    """
    chunk = [
        "switch_times\tstrategies\tswitches\tregime_log2_wealth\tpenalty_bits\t"
        "algorithm_log2_wealth\tslack_bits\n"
    ]
    alg_text = f"{alg_log2:.12g}"
    strategy_labels: dict[tuple[int, ...], str] = {}
    penalty_texts: dict[int, str] = {}
    times = None
    for regime in enumerate_regimes(X.days, X.assets):
        rep = bound_check(X, prior, alg_log2, regime, cost, convention)
        if regime.switch_times is not times:
            times = regime.switch_times
            l = len(times)
            if l not in penalty_texts:
                penalty_texts[l] = f"{rep.penalty:.12g}"
            head = (",".join(map(str, times)) or "-") + "\t"
            middle = f"\t{l}\t"
            tail = f"\t{penalty_texts[l]}\t{alg_text}\t"
        strats = regime.strategies
        label = strategy_labels.get(strats)
        if label is None:
            label = strategy_labels[strats] = ",".join(map(str, strats))
        chunk.append(f"{head}{label}{middle}{rep.regime_log_wealth:.12g}{tail}{rep.slack:.12g}\n")
        if len(chunk) >= BOUNDS_CHUNK_ROWS:
            yield "".join(chunk)
            chunk = []
    yield "".join(chunk)


def _cmd_bounds(args, parser: _Parser) -> int:
    X, prior, spec = _switching_setup(args, parser)
    require_enumerable(X.days, X.assets)  # refuse before the algorithm runs
    alg_log2 = float(bt.run(spec, X).log_wealth[-1]) / LOG2
    _emit(_bounds_chunks(X, prior, alg_log2, spec.cost, args.convention), args.out)
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
    p_bt.add_argument("--algo", choices=list(bt.ALGO_KINDS), required=True)
    p_bt.add_argument("--gamma", type=float, help="switching probability for switching-fixed")
    p_bt.add_argument("--weights", help="comma-separated CRP weights, e.g. 0.5,0.5")
    p_bt.add_argument("--eta", type=float, help="learning rate for eg")
    p_bt.add_argument("--samples", type=int, default=10_000, help="sample count for universal")
    _add_cost_flags(p_bt)
    p_bt.add_argument(
        "--cost-accounting",
        choices=[bt.ACCOUNTING_BUCKET, bt.ACCOUNTING_REALIZED],
        default=bt.ACCOUNTING_BUCKET,
    )
    p_bt.add_argument("--plot-data", help="also write the day-series CSV here")
    _add_common(p_bt)

    p_cmp = sub.add_parser("compare", help="run several strategies, one TSV row each")
    _add_data_flags(p_cmp)
    p_cmp.add_argument(
        "--algo",
        action="append",
        required=True,
        help="repeatable; 'kind' or 'kind:gamma=0.33,...' (weights values separated by |)",
    )
    _add_cost_flags(p_cmp)
    p_cmp.add_argument(
        "--cost-accounting",
        choices=[bt.ACCOUNTING_BUCKET, bt.ACCOUNTING_REALIZED],
        default=bt.ACCOUNTING_BUCKET,
    )
    _add_common(p_cmp)

    for name, help_text in (
        ("oracle", "exact mixture wealth over all regimes vs the algorithm"),
        ("bounds", "per-regime competitiveness accounting"),
    ):
        p_sw = sub.add_parser(name, help=help_text)
        _add_data_flags(p_sw)
        p_sw.add_argument("--prior", choices=["fixed", "adaptive"], required=True)
        p_sw.add_argument("--gamma", type=float, help="switching probability for --prior fixed")
        _add_cost_flags(p_sw)
        p_sw.add_argument(
            "--convention",
            choices=[CHARGE_SWITCHES_ONLY, CHARGE_ALL_SEGMENTS],
            default=CHARGE_SWITCHES_ONLY,
        )
        _add_common(p_sw)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "backtest":
            return _cmd_backtest(args, parser)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "oracle":
            return _cmd_oracle(args, parser)
        return _cmd_bounds(args, parser)
    except (PortfolioError, OSError) as exc:
        print(f"switchfolio: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # e.g. OverflowError when linear wealth leaves the double range
        print(f"switchfolio: arithmetic failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
