"""Run one switchfolio CLI command with a timing span around every layer boundary.

Usage: python3 bench/trace_child.py SPANS_JSON CLI_ARG...

The wrappers replace each layer function under the name its caller binds it
to (``switchfolio.backtest.adaptive_step``, ``switchfolio.cli.load_csv``, ...),
so the program itself is unchanged. Each span records its name, start and
end (``time.perf_counter`` seconds), the span that was open when it began,
its thread, the minor page faults its thread took while it was open, a count
of work done where the layer has one, and whether it raised. Spans stay in
memory and are written to SPANS_JSON when the command ends, also when it
raises.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import sys
import threading
import time

import numpy as np

import switchfolio.backtest
import switchfolio.cli

_ids = itertools.count()
_local = threading.local()
_main_stack: list[int] = []
_spans: list[tuple] = []
_adaptive_states: dict[int, object] = {}


def _stack() -> list[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _main_stack if threading.current_thread() is threading.main_thread() else []
        _local.stack = stack
    return stack


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


def _wrap(name, fn, count_args=None, count_result=None):
    """``fn`` inside a span; the work count comes from its arguments or its result."""

    def wrapper(*args, **kwargs):
        stack = _stack()
        # A thread-pool worker starts with an empty stack: its spans belong to
        # whatever the main thread has open (compare, for the thread pool).
        parent = stack[-1] if stack else (_main_stack[-1] if _main_stack else None)
        span_id = next(_ids)
        work = count_args(*args, **kwargs) if count_args else None
        stack.append(span_id)
        faults = _minor_faults()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            faults = _minor_faults() - faults
            stack.pop()
            _spans.append((span_id, name, start, end, parent, threading.get_ident(), faults, work, 1))
            raise
        end = time.perf_counter()
        faults = _minor_faults() - faults
        stack.pop()
        if count_result:
            work = count_result(result)
        _spans.append((span_id, name, start, end, parent, threading.get_ident(), faults, work, 0))
        return result

    return wrapper


def _bucket_cells(state, *_args, **_kwargs) -> int:
    """Bucket entries the adaptive call touches: N per start day so far.

    Also keeps the state, for the live-bucket count at the end."""
    _adaptive_states[id(state)] = state
    return state.assets * state.day


def _crp_days(X, config) -> int:
    return config.samples * X.days


def _regime_count(X, *_args, **_kwargs) -> int:
    return X.assets**X.days


def _file_bytes(path, *_args, **_kwargs) -> int:
    return os.path.getsize(path)


def _text_bytes(text: str) -> int:
    return len(text.encode())


# (module, attribute, span name, count from arguments, count from result)
BOUNDARIES = [
    (switchfolio.cli, "load_csv", "market_data.load_csv", _file_bytes, None),
    (switchfolio.cli, "mixture_oracle", "regimes.mixture_oracle", _regime_count, None),
    (switchfolio.cli, "bound_check", "regimes.bound_check", None, None),
    (switchfolio.cli, "adaptive_step", "switching.adaptive_step", _bucket_cells, None),
    (switchfolio.cli, "fixed_step", "switching.fixed_step", None, None),
    (switchfolio.backtest, "run", "backtest.run", None, None),
    (switchfolio.backtest, "compare", "backtest.compare", None, None),
    (switchfolio.backtest, "report_tsv", "backtest.report_tsv", None, None),
    (switchfolio.backtest, "emit_plot_data", "backtest.emit_plot_data", None, _text_bytes),
    (switchfolio.backtest, "adaptive_step", "switching.adaptive_step", _bucket_cells, None),
    (switchfolio.backtest, "adaptive_weights", "switching.adaptive_weights", _bucket_cells, None),
    (switchfolio.backtest, "fixed_step", "switching.fixed_step", None, None),
    (switchfolio.backtest, "fixed_weights", "switching.fixed_weights", None, None),
    (switchfolio.backtest, "realized_wealth_track", "costs.realized_wealth_track", None, None),
    (switchfolio.backtest, "bcrp_solve", "baselines.bcrp_solve", None, None),
    (switchfolio.backtest, "eg_step", "baselines.eg_step", None, None),
    (switchfolio.backtest, "universal_tracks", "baselines.universal_tracks", _crp_days, None),
    (switchfolio.backtest, "best_stock", "baselines.best_stock", None, None),
]


def install() -> None:
    for module, attr, name, count_args, count_result in BOUNDARIES:
        setattr(module, attr, _wrap(name, getattr(module, attr), count_args, count_result))


def dump(path: str) -> None:
    live = sum(int(np.count_nonzero(s.bucket_view())) for s in _adaptive_states.values())
    with open(path, "w") as fh:
        json.dump({"spans": _spans, "live_buckets": live}, fh)


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    install()
    try:
        return _wrap("cli.main", switchfolio.cli.main)(cli_args)
    finally:
        dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
