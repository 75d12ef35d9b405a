"""Run any configured strategy over a relatives matrix and assemble reports.

The online protocol: the portfolio for day t may depend only on days 1..t-1;
the day's relatives are then revealed and wealth compounds. Hindsight
strategies (best stock, best CRP) break this deliberately and are flagged.

Report row conventions (day k = 0..T):

* ``log_wealth[k]``: the natural log of the total wealth after k trading days
  (log_wealth[0] = 0);
* ``weights[k]``: the portfolio chosen for day k+1 (so weights[0] is the
  initial allocation and weights[T] is what the strategy would hold next);
* ``largest[k]``: the asset holding the most wealth after day k settles,
  ties to the lowest index.

Two cost accountings for the switching kinds: ``bucket`` reports the
algorithm's internal bookkeeping (lump-move factors on switched mass; what the
competitiveness bounds cover), ``realized`` replays the implied weights
through netted-trade execution. With a cost model a switching report carries
both series; every other kind has only realized accounting and carries that.

Every track is a natural-log track, from the strategy's state to the report.
Linear wealth is formed in one place, :func:`linear_wealth`, and only for
output: the report's final wealths, the plot's wealth column, the oracle's.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .baselines import bcrp_solve, best_stock, eg_step, universal_tracks
from .core import (
    KIND_SWITCHING_ADAPTIVE,
    KIND_SWITCHING_FIXED,
    DimensionMismatch,
    PortfolioError,
    PriceRelativeMatrix,
    _Frozen,
    simplex_refusal,
)
from .costs import CostModel, realized_wealth_track
from .market_data import csv_cell
from .switching import (
    adaptive_init,
    adaptive_step,
    adaptive_weights,
    fixed_init,
    fixed_step,
    fixed_weights,
)

KIND_CRP = "crp"
KIND_BCRP = "bcrp"
KIND_EG = "eg"
KIND_UNIVERSAL = "universal"
KIND_BEST_STOCK = "best-stock"

# The parameters each kind takes. A kind needs each of its own and refuses the others;
# ``seed`` and the cost settings are accepted by every kind (only universal samples).
KIND_PARAMETERS = {
    KIND_SWITCHING_FIXED: ("gamma",),
    KIND_SWITCHING_ADAPTIVE: (),
    KIND_CRP: ("weights",),
    KIND_BCRP: (),
    KIND_EG: ("eta",),
    KIND_UNIVERSAL: ("samples",),
    KIND_BEST_STOCK: (),
}
ALGO_KINDS = tuple(KIND_PARAMETERS)
# The keys a kind's spec string may give and its label shows, in label order: universal's own seed too.
SPEC_KEYS = {kind: keys + ("seed",) * (kind == KIND_UNIVERSAL) for kind, keys in KIND_PARAMETERS.items()}
DEFAULT_SAMPLES = 10_000  # universal's samples when its spec string gives none

ACCOUNTING_BUCKET = "bucket"
ACCOUNTING_REALIZED = "realized"


def _read_number(key: str, text: str, kind=float):
    """One numeric spec parameter; a malformed value is a data error naming it."""
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise PortfolioError(f"algorithm parameter {key} must be {expected}, got {text!r}") from None


# Each parameter's spec-string reader, (key, text) -> value, and its report label, value -> text.
PARAMETERS = {
    "gamma": (_read_number, "gamma={:g}".format),
    "weights": (lambda key, text: tuple(_read_number(key, v) for v in text.split("|")),
                lambda w: "w=" + "|".join(f"{v:g}" for v in w)),
    "eta": (_read_number, "eta={:g}".format),
    "samples": (lambda key, text: _read_number(key, text, int), "samples={}".format),
    "seed": (lambda key, text: _read_number(key, text, int), "seed={}".format),
}


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is refused, though Python counts it as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class AlgoSpec(_Frozen):
    """One strategy configuration for a backtest run."""

    __slots__ = ("kind", "gamma", "weights", "eta", "samples", "seed", "cost", "cost_accounting")

    def __init__(self, kind: str, gamma: float | None = None, weights: tuple[float, ...] | None = None,
                 eta: float | None = None, samples: int | None = None, seed: int = 0,
                 cost: CostModel | None = None, cost_accounting: str = ACCOUNTING_BUCKET):
        if kind not in ALGO_KINDS:
            raise PortfolioError(f"unknown algorithm kind {kind!r}; choose from {ALGO_KINDS}")
        if cost_accounting not in (ACCOUNTING_BUCKET, ACCOUNTING_REALIZED):
            raise PortfolioError(f"cost_accounting must be bucket or realized, got {cost_accounting!r}")
        takes = KIND_PARAMETERS[kind]
        for name, value in (("gamma", gamma), ("weights", weights), ("eta", eta), ("samples", samples)):
            given = value is not None
            if name in takes and not given:
                raise PortfolioError(f"{kind} needs {name}")
            if given and name not in takes:
                raise PortfolioError(f"{kind} takes no parameter {name}")
        if gamma is not None and not 0.0 < gamma < 1.0:  # switching.fixed_init narrows it to (0, (N-1)/N]
            raise PortfolioError(f"gamma must be in (0, 1), got {gamma!r}")
        if eta is not None and not (math.isfinite(eta) and eta >= 0):
            raise PortfolioError(f"eta must be a finite number >= 0, got {eta!r}")
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.ndim != 1 or w.size == 0:  # an empty vector has no minimum for the simplex rule
                raise DimensionMismatch("portfolio weights must be a non-empty 1-D vector")
            refused = simplex_refusal(w)
            if refused is not None:
                raise refused[1]
        if samples is not None:  # universal: the samples and the seed that draws them
            if not _is_integer(samples):
                raise PortfolioError(f"sample count must be an integer, got {samples!r}")
            if samples < 1:
                raise PortfolioError(f"need at least one sample, got {samples}")
            if not _is_integer(seed) or seed < 0:
                raise PortfolioError(f"seed must be a non-negative integer, got {seed!r}")
        self._set(kind, gamma, weights, eta, samples, seed, cost, cost_accounting)

    @classmethod
    def parse(cls, text: str, seed: int = 0, cost: CostModel | None = None,
              cost_accounting: str = ACCOUNTING_BUCKET) -> AlgoSpec:
        """The spec of 'kind' or 'kind:key=value,key=value', as ``backtest`` and ``compare`` read it.

        Keys are read by ``PARAMETERS``; ``weights`` values are separated by ``|``.
        Universal's samples default to DEFAULT_SAMPLES and its seed to ``seed``; only
        universal takes a ``seed=`` of its own. A malformed chunk, a key given twice, a
        malformed value and an unknown key are refused, in the order the text gives them,
        before the kind and its parameters are checked.
        """
        kind, _, param_text = text.partition(":")
        kind = kind.strip()
        params = {}
        for chunk in param_text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, eq, value = chunk.partition("=")
            if not eq:
                raise PortfolioError(f"malformed algorithm parameter {chunk!r} in {text!r}")
            key = key.strip()
            if key in params:
                raise PortfolioError(f"algorithm parameter {key} given twice in {text!r}")
            if key not in PARAMETERS:
                raise PortfolioError(f"unknown algorithm parameter {key!r} in {text!r}")
            params[key] = PARAMETERS[key][0](key, value.strip())
        if kind == KIND_UNIVERSAL:
            params.setdefault("samples", DEFAULT_SAMPLES)
        spec = cls(kind, **{"seed": seed, **params}, cost=cost, cost_accounting=cost_accounting)
        if "seed" in params and "seed" not in SPEC_KEYS[kind]:
            raise PortfolioError(f"{kind} takes no parameter seed")
        return spec

    @property
    def label(self) -> str:
        return " ".join([self.kind] + [PARAMETERS[name][1](getattr(self, name)) for name in SPEC_KEYS[self.kind]])

    @property
    def parameters(self) -> str:
        """The label without the kind, as reports print it; ``-`` for a kind without parameters."""
        return self.label.partition(" ")[2] or "-"


class BacktestReport(_Frozen):
    """Day-indexed natural-log wealth, weights, and largest-asset track for one strategy.

    ``log_wealth`` is the track of the run's cost accounting. With a cost model,
    ``log_wealth_realized`` is the realized track and, for a switching run,
    ``log_wealth_bucket`` the switching state's own accumulator; each is None otherwise.
    """

    __slots__ = ("spec", "log_wealth", "weights", "largest", "hindsight_only", "log_wealth_bucket",
                 "log_wealth_realized", "dates")

    def __init__(self, spec: AlgoSpec, log_wealth: np.ndarray, weights: np.ndarray, largest: np.ndarray,
                 hindsight_only: bool = False, log_wealth_bucket: np.ndarray | None = None,
                 log_wealth_realized: np.ndarray | None = None, dates: tuple[str, ...] | None = None):
        self._set(spec, log_wealth, weights, largest, hindsight_only, log_wealth_bucket, log_wealth_realized, dates)

    @property
    def days(self) -> int:
        return self.log_wealth.size - 1


class NonFiniteResult(PortfolioError):
    """A wealth to be reported is not a positive normal double."""


LOG_NORMAL_MIN, LOG_NORMAL_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


def linear_wealth(name: str, log_wealth) -> np.ndarray:
    """e^log_wealth, elementwise, for a natural-log wealth or a day-indexed track of them.

    The one place linear wealth is formed. The first entry whose e^ lies
    outside the positive normal doubles, nan included, is refused, with its
    day when a track is given. Each entry goes through ``math.exp``: numpy's
    exp rounds about one result in twenty to the other neighbour.
    """
    logs = np.asarray(log_wealth, dtype=float)
    outside = ~((logs >= LOG_NORMAL_MIN) & (logs <= LOG_NORMAL_MAX))
    if outside.any():
        day = int(outside.argmax())
        where = f" after day {day}" if logs.ndim else ""
        raise NonFiniteResult(f"{name}{where} e^{logs.flat[day]:.17g} lies outside the positive normal doubles")
    return np.fromiter(map(math.exp, logs.ravel().tolist()), float, logs.size).reshape(logs.shape)


def max_drawdown(log_wealth: np.ndarray) -> float:
    """Largest peak-to-trough fraction lost along a natural-log wealth track,
    1 - e^min(log_wealth - its running maximum): finite for a finite track.

    Supporting practical metric for reports; no competitiveness guarantee
    speaks about it.
    """
    return 1.0 - math.exp(float((log_wealth - np.maximum.accumulate(log_wealth)).min()))


def _largest_track(weights: np.ndarray, X: PriceRelativeMatrix) -> np.ndarray:
    """argmax of post-day wealth mass; mass on day k is weights[k-1] * x^k."""
    largest = np.empty(X.days + 1, dtype=int)
    largest[0] = np.argmax(weights[0])
    largest[1:] = np.argmax(weights[:-1] * X.values, axis=1)
    return largest


def _check_track(spec: AlgoSpec, weights: np.ndarray) -> None:
    """Refuse a weight track, once per run, at its first row off the simplex."""
    refused = simplex_refusal(weights)
    if refused is not None:
        day, error = refused
        raise type(error)(f"{spec.label}: weights after day {day}: {error}")


def _switching_tracks(spec: AlgoSpec, X: PriceRelativeMatrix):
    n = X.assets
    if spec.kind == KIND_SWITCHING_FIXED:
        state, step, weights_of = fixed_init(n, spec.gamma, spec.cost), fixed_step, fixed_weights
    else:
        state, step, weights_of = adaptive_init(n, X.days, spec.cost), adaptive_step, adaptive_weights
    weights = np.empty((X.days + 1, n))
    log_wealth = np.zeros(X.days + 1)
    weights[0] = 1.0 / n  # the uncharged initial purchase is uniform
    for t, x in enumerate(X.values, 1):
        step(state, x)
        log_wealth[t] = state.log_wealth
        weights[t] = weights_of(state)
    _check_track(spec, weights)
    return log_wealth, weights


def _weight_driven_tracks(spec: AlgoSpec, X: PriceRelativeMatrix):
    """Strategies defined purely by a weight schedule; costs always realized."""
    T, n = X.days, X.assets
    weights = np.empty((T + 1, n))
    if spec.kind == KIND_CRP:
        if len(spec.weights) != n:
            raise DimensionMismatch(f"crp weights have {len(spec.weights)} entries for {n} assets")
        weights[:] = spec.weights
    elif spec.kind == KIND_BCRP:
        weights[:] = bcrp_solve(X)[0]
    elif spec.kind == KIND_BEST_STOCK:
        idx, _ = best_stock(X)
        weights[:] = 0.0
        weights[:, idx] = 1.0
    elif spec.kind == KIND_EG:
        weights[0] = 1.0 / n
        w = weights[0]
        for t, x in enumerate(X.values, 1):
            weights[t] = w = eg_step(w, x, spec.eta)
        _check_track(spec, weights)
    else:
        raise PortfolioError(f"not a weight-driven kind: {spec.kind}")
    return realized_wealth_track(weights[:T], X, spec.cost), weights


def run(spec: AlgoSpec, X: PriceRelativeMatrix) -> BacktestReport:
    """Backtest one strategy over a relatives matrix."""
    switching = spec.kind in (KIND_SWITCHING_FIXED, KIND_SWITCHING_ADAPTIVE)
    if switching:
        log_wealth, weights = _switching_tracks(spec, X)
    elif spec.kind == KIND_UNIVERSAL:
        # The sampled mixture's native accounting is per-CRP realized cost.
        log_wealth, weights = universal_tracks(X, spec)
    else:
        log_wealth, weights = _weight_driven_tracks(spec, X)
    log_bucket = log_realized = None
    if spec.cost is not None:
        log_realized = log_wealth
        if switching:  # its own wealth is the bucket accounting
            log_bucket = log_wealth
            log_realized = realized_wealth_track(weights[: X.days], X, spec.cost)
            if spec.cost_accounting == ACCOUNTING_REALIZED:
                log_wealth = log_realized
    return BacktestReport(
        spec=spec,
        log_wealth=log_wealth,
        weights=weights,
        largest=_largest_track(weights, X),
        hindsight_only=spec.kind in (KIND_BCRP, KIND_BEST_STOCK),
        log_wealth_bucket=log_bucket,
        log_wealth_realized=log_realized,
        dates=X.dates,
    )


class ComparisonRow(_Frozen):
    __slots__ = ("name", "parameters", "final_wealth", "max_drawdown", "hindsight_only")

    def __init__(self, name: str, parameters: str, final_wealth: float, max_drawdown: float, hindsight_only: bool):
        self._set(name, parameters, final_wealth, max_drawdown, hindsight_only)


def compare(specs: list[AlgoSpec], X: PriceRelativeMatrix) -> list[ComparisonRow]:
    """Backtest several strategies over the same matrix, one row per spec, in spec order.

    A spec whose final wealth is not a positive normal double raises NonFiniteResult;
    the specs after it do not run.
    """
    if not specs:
        raise PortfolioError("compare needs at least one algorithm spec")
    rows = []
    for spec in specs:
        report = run(spec, X)
        rows.append(
            ComparisonRow(
                name=spec.kind,
                parameters=spec.parameters,
                final_wealth=float(linear_wealth(f"{spec.label}: final_wealth", report.log_wealth[-1])),
                max_drawdown=max_drawdown(report.log_wealth),
                hindsight_only=report.hindsight_only,
            )
        )
    return rows


def comparison_tsv(rows: list[ComparisonRow]) -> str:
    out = ["name\tparameters\tfinal_wealth\tmax_drawdown\thindsight_only"]
    for r in rows:
        out.append(
            f"{r.name}\t{r.parameters}\t{r.final_wealth:.12g}\t{r.max_drawdown:.12g}\t"
            f"{'yes' if r.hindsight_only else 'no'}"
        )
    return "\n".join(out) + "\n"


def report_tsv(report: BacktestReport) -> str:
    """Key-value TSV summary of one backtest; a final wealth that is not a positive
    normal double raises NonFiniteResult."""
    tracks = {"final_wealth": report.log_wealth, "final_wealth_bucket": report.log_wealth_bucket,
              "final_wealth_realized": report.log_wealth_realized}
    finals = {name: float(linear_wealth(f"{report.spec.label}: {name}", track[-1]))
              for name, track in tracks.items() if track is not None}
    lines = [
        f"algorithm\t{report.spec.kind}",
        f"parameters\t{report.spec.parameters}",
        f"days\t{report.days}",
        f"final_wealth\t{finals.pop('final_wealth'):.12g}",
        f"max_drawdown\t{max_drawdown(report.log_wealth):.12g}",
        f"hindsight_only\t{'yes' if report.hindsight_only else 'no'}",
    ]
    if report.spec.cost is not None:
        lines.append(f"cost_model\t{report.spec.cost.kind}")
        lines.append(f"cost_rate\t{report.spec.cost.rate:.12g}")
        # Only a switching run keeps bucket accounting; every other kind's costs are realized.
        accounting = report.spec.cost_accounting if report.log_wealth_bucket is not None else ACCOUNTING_REALIZED
        lines.append(f"cost_accounting\t{accounting}")
        lines += [f"{name}\t{value:.12g}" for name, value in finals.items()]
    return "\n".join(lines) + "\n"


PLOT_CHUNK_ROWS = 1024  # rows formatted at a time: the Python floats of one chunk, not of the run


def emit_plot_data(report: BacktestReport) -> str:
    """Day series as CSV: day, wealth, largest asset, one weight column per asset.

    17-significant-digit decimals, one row per day 0..T; a wealth that is not
    a positive normal double raises NonFiniteResult. A trailing date
    column, quoted by ``market_data.csv_cell``, is appended only when the
    source data carried dates.

    Each chunk of PLOT_CHUNK_ROWS rows is made by one ``%`` over a chunk-wide
    row template, its cells filled a column at a time.
    """
    wealth = linear_wealth(f"{report.spec.label}: wealth", report.log_wealth)
    n = report.weights.shape[1]
    header = "day,wealth,largest_asset," + ",".join(f"w_{i + 1}" for i in range(n))
    # "%.17g" % v is f"{v:.17g}"; the largest asset is a whole number, so %d prints it.
    row_template = "%d,%.17g,%d" + ",%.17g" * n
    dates = None
    if report.dates is not None:
        header += ",date"
        row_template += ",%s"
        dates = ["", *map(csv_cell, report.dates)]  # day 0 predates the first dated relative
    row_template += "\n"
    width = n + 3 + (dates is not None)
    chunk_template = row_template * PLOT_CHUNK_ROWS
    chunks = [header + "\n"]
    rows = report.days + 1
    for lo in range(0, rows, PLOT_CHUNK_ROWS):
        hi = min(lo + PLOT_CHUNK_ROWS, rows)
        cells = [None] * ((hi - lo) * width)
        cells[0::width] = range(lo, hi)
        cells[1::width] = wealth[lo:hi].tolist()
        cells[2::width] = report.largest[lo:hi].tolist()
        for j, column in enumerate(report.weights[lo:hi].T.tolist(), 3):
            cells[j::width] = column
        if dates is not None:
            cells[width - 1 :: width] = dates[lo:hi]
        template = chunk_template if hi - lo == PLOT_CHUNK_ROWS else row_template * (hi - lo)
        chunks.append(template % tuple(cells))
    return "".join(chunks)
