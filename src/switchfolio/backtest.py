"""Run any configured strategy over a relatives matrix and assemble reports.

The online protocol: the portfolio for day t may depend only on days 1..t-1;
the day's relatives are then revealed and wealth compounds. Hindsight
strategies (best stock, best CRP) break this deliberately and are flagged.

Report row conventions (day k = 0..T):

* ``wealth[k]``: total wealth after k trading days (wealth[0] = 1);
* ``weights[k]``: the portfolio chosen for day k+1 (so weights[0] is the
  initial allocation and weights[T] is what the strategy would hold next);
* ``largest[k]``: the asset holding the most wealth after day k settles,
  ties to the lowest index.

Two cost accountings: ``bucket`` reports the algorithm's internal bookkeeping
(lump-move factors on switched mass; what the competitiveness bounds cover),
``realized`` replays the implied weights through netted-trade execution.
Both series are attached whenever a cost model is active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import (
    UniversalConfig,
    bcrp_solve,
    best_stock,
    eg_step,
    universal_tracks,
)
from .core import (
    DimensionMismatch,
    PortfolioError,
    PortfolioVector,
    PriceRelativeMatrix,
)
from .costs import CostModel, realized_wealth_track
from .switching import (
    adaptive_init,
    adaptive_step,
    adaptive_weights,
    fixed_init,
    fixed_step,
    fixed_weights,
)

KIND_SWITCHING_FIXED = "switching-fixed"
KIND_SWITCHING_ADAPTIVE = "switching-adaptive"
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

ACCOUNTING_BUCKET = "bucket"
ACCOUNTING_REALIZED = "realized"


@dataclass(frozen=True)
class AlgoSpec:
    """One strategy configuration for a backtest run."""

    kind: str
    gamma: float | None = None
    weights: tuple[float, ...] | None = None
    eta: float | None = None
    samples: int | None = None
    seed: int = 0
    cost: CostModel | None = None
    cost_accounting: str = ACCOUNTING_BUCKET

    def __post_init__(self):
        if self.kind not in ALGO_KINDS:
            raise PortfolioError(f"unknown algorithm kind {self.kind!r}; choose from {ALGO_KINDS}")
        if self.cost_accounting not in (ACCOUNTING_BUCKET, ACCOUNTING_REALIZED):
            raise PortfolioError(f"cost_accounting must be bucket or realized, got {self.cost_accounting!r}")
        takes = KIND_PARAMETERS[self.kind]
        for name in ("gamma", "weights", "eta", "samples"):
            given = getattr(self, name) is not None
            if name in takes and not given:
                raise PortfolioError(f"{self.kind} needs {name}")
            if given and name not in takes:
                raise PortfolioError(f"{self.kind} takes no parameter {name}")
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta >= 0):
            raise PortfolioError(f"eta must be a finite number >= 0, got {self.eta!r}")

    @property
    def label(self) -> str:
        parts = [self.kind]
        if self.gamma is not None:
            parts.append(f"gamma={self.gamma:g}")
        if self.weights is not None:
            parts.append("w=" + "|".join(f"{v:g}" for v in self.weights))
        if self.eta is not None:
            parts.append(f"eta={self.eta:g}")
        if self.samples is not None:
            parts.append(f"samples={self.samples}")
            parts.append(f"seed={self.seed}")
        return " ".join(parts)

    @property
    def parameters(self) -> str:
        """The label without the kind, as reports print it; ``-`` for a kind without parameters."""
        return self.label.partition(" ")[2] or "-"


@dataclass(frozen=True)
class BacktestReport:
    """Day-indexed wealth, weights, and largest-asset track for one strategy.

    ``log_wealth`` is the switching state's own natural-log wealth
    accumulator after each day, the exact log of the bucket-accounting
    wealth; it is None for the other kinds.
    """

    spec: AlgoSpec
    wealth: np.ndarray
    weights: np.ndarray
    largest: np.ndarray
    hindsight_only: bool = False
    wealth_bucket: np.ndarray | None = None
    wealth_realized: np.ndarray | None = None
    log_wealth: np.ndarray | None = None
    dates: tuple[str, ...] | None = None

    @property
    def final_wealth(self) -> float:
        return float(self.wealth[-1])

    @property
    def days(self) -> int:
        return self.wealth.size - 1


class NonFiniteResult(PortfolioError):
    """A wealth or drawdown to be reported is infinite or NaN."""


def _require_finite(spec: AlgoSpec, figures: dict[str, float]) -> None:
    bad = [name for name, value in figures.items() if not np.isfinite(value)]
    if bad:
        raise NonFiniteResult(f"{spec.label}: non-finite {', '.join(bad)}")


@np.errstate(invalid="ignore")  # inf / inf is nan, which the caller's finiteness check refuses
def max_drawdown(wealth: np.ndarray) -> float:
    """Largest peak-to-trough fraction lost along a wealth series.

    Supporting practical metric for reports; no competitiveness guarantee
    speaks about it.
    """
    peaks = np.maximum.accumulate(wealth)
    return float((1.0 - wealth / peaks).max())


def _largest_track(weights: np.ndarray, X: PriceRelativeMatrix) -> np.ndarray:
    """argmax of post-day wealth mass; mass on day k is weights[k-1] * x^k."""
    largest = np.empty(X.days + 1, dtype=int)
    largest[0] = np.argmax(weights[0])
    largest[1:] = np.argmax(weights[:-1] * X.values, axis=1)
    return largest


def _switching_tracks(spec: AlgoSpec, X: PriceRelativeMatrix):
    n = X.assets
    if spec.kind == KIND_SWITCHING_FIXED:
        state = fixed_init(n, spec.gamma)
        weights_of = fixed_weights
        step = fixed_step
    else:
        state = adaptive_init(n)
        weights_of = adaptive_weights
        step = adaptive_step
    weights = np.empty((X.days + 1, n))
    wealth = np.ones(X.days + 1)
    log_wealth = np.zeros(X.days + 1)
    weights[0] = 1.0 / n  # the uncharged initial purchase is uniform
    for t in range(1, X.days + 1):
        step(state, X.values[t - 1], spec.cost)
        log_wealth[t] = state.log_wealth
        wealth[t] = math.exp(state.log_wealth)  # OverflowError where it leaves double range
        weights[t] = weights_of(state, spec.cost).weights
    return wealth, weights, log_wealth


def _weight_driven_tracks(spec: AlgoSpec, X: PriceRelativeMatrix):
    """Strategies defined purely by a weight schedule; costs always realized."""
    n = X.assets
    T = X.days
    weights = np.empty((T + 1, n))
    if spec.kind == KIND_CRP:
        w = PortfolioVector(np.asarray(spec.weights, dtype=float))
        if w.assets != n:
            raise DimensionMismatch(f"crp weights have {w.assets} entries for {n} assets")
        weights[:] = w.weights
    elif spec.kind == KIND_BCRP:
        w, _ = bcrp_solve(X)
        weights[:] = w.weights
    elif spec.kind == KIND_BEST_STOCK:
        idx, _ = best_stock(X)
        weights[:] = 0.0
        weights[:, idx] = 1.0
    elif spec.kind == KIND_EG:
        w = PortfolioVector.uniform(n)
        weights[0] = w.weights
        for t in range(1, T + 1):
            w = eg_step(w, X.values[t - 1], spec.eta)
            weights[t] = w.weights
    else:
        raise PortfolioError(f"not a weight-driven kind: {spec.kind}")
    wealth = realized_wealth_track(weights[:T], X, spec.cost)
    return wealth, weights


def run(spec: AlgoSpec, X: PriceRelativeMatrix) -> BacktestReport:
    """Backtest one strategy over a relatives matrix."""
    wealth_bucket = None
    wealth_realized = None
    log_wealth = None
    if spec.kind in (KIND_SWITCHING_FIXED, KIND_SWITCHING_ADAPTIVE):
        wealth, weights, log_wealth = _switching_tracks(spec, X)
        if spec.cost is not None:
            wealth_bucket = wealth
            wealth_realized = realized_wealth_track(weights[: X.days], X, spec.cost)
            wealth = wealth_bucket if spec.cost_accounting == ACCOUNTING_BUCKET else wealth_realized
    elif spec.kind == KIND_UNIVERSAL:
        config = UniversalConfig(spec.samples, spec.seed, spec.cost)
        wealth, weights = universal_tracks(X, config)
        if spec.cost is not None:
            # The sampled mixture's native accounting is per-CRP realized cost.
            wealth_bucket = wealth
            wealth_realized = wealth
    else:
        wealth, weights = _weight_driven_tracks(spec, X)
        if spec.cost is not None:
            wealth_bucket = wealth
            wealth_realized = wealth
    return BacktestReport(
        spec=spec,
        wealth=wealth,
        weights=weights,
        largest=_largest_track(weights, X),
        hindsight_only=spec.kind in (KIND_BCRP, KIND_BEST_STOCK),
        wealth_bucket=wealth_bucket,
        wealth_realized=wealth_realized,
        log_wealth=log_wealth,
        dates=X.dates,
    )


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    parameters: str
    final_wealth: float
    max_drawdown: float
    hindsight_only: bool


def compare(specs: list[AlgoSpec], X: PriceRelativeMatrix) -> list[ComparisonRow]:
    """Backtest several strategies over the same matrix, one row per spec, in spec order.

    A spec with a non-finite wealth or drawdown raises NonFiniteResult; the specs after it
    do not run.
    """
    if not specs:
        raise PortfolioError("compare needs at least one algorithm spec")
    rows = []
    for spec in specs:
        report = run(spec, X)
        figures = {"final_wealth": report.final_wealth, "max_drawdown": max_drawdown(report.wealth)}
        _require_finite(spec, figures)
        rows.append(
            ComparisonRow(
                name=spec.kind,
                parameters=spec.parameters,
                hindsight_only=report.hindsight_only,
                **figures,
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
    """Key-value TSV summary of one backtest; a non-finite figure raises NonFiniteResult.

    A finite drawdown also implies a finite wealth series, hence finite plot data.
    """
    figures = {"final_wealth": report.final_wealth, "max_drawdown": max_drawdown(report.wealth)}
    if report.spec.cost is not None:
        figures["final_wealth_bucket"] = float(report.wealth_bucket[-1])
        figures["final_wealth_realized"] = float(report.wealth_realized[-1])
    _require_finite(report.spec, figures)
    lines = [
        f"algorithm\t{report.spec.kind}",
        f"parameters\t{report.spec.parameters}",
        f"days\t{report.days}",
        f"final_wealth\t{figures['final_wealth']:.12g}",
        f"max_drawdown\t{figures['max_drawdown']:.12g}",
        f"hindsight_only\t{'yes' if report.hindsight_only else 'no'}",
    ]
    if report.spec.cost is not None:
        lines.append(f"cost_model\t{report.spec.cost.kind}")
        lines.append(f"cost_rate\t{report.spec.cost.rate:.12g}")
        lines.append(f"cost_accounting\t{report.spec.cost_accounting}")
        lines.append(f"final_wealth_bucket\t{figures['final_wealth_bucket']:.12g}")
        lines.append(f"final_wealth_realized\t{figures['final_wealth_realized']:.12g}")
    return "\n".join(lines) + "\n"


def emit_plot_data(report: BacktestReport) -> str:
    """Day series as CSV: day, wealth, largest asset, one weight column per asset.

    17-significant-digit decimals, one row per day 0..T. A trailing date
    column is appended only when the source data carried dates.
    """
    n = report.weights.shape[1]
    header = "day,wealth,largest_asset," + ",".join(f"w_{i + 1}" for i in range(n))
    # "%.17g" % v is f"{v:.17g}"; day and largest asset are whole floats here, so %d prints them.
    template = "%d,%.17g,%d" + ",%.17g" * n
    days = np.arange(report.days + 1)
    grid = np.column_stack((days, report.wealth, report.largest, report.weights)).tolist()
    if report.dates is None:
        lines = [template % tuple(row) for row in grid]
    else:
        header += ",date"
        template += ",%s"
        # Day 0 predates the first dated relative.
        lines = [template % (*row, date) for row, date in zip(grid, ("", *report.dates))]
    return "\n".join([header, *lines]) + "\n"
