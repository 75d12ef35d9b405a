"""Online portfolio selection that tracks a switching market.

The central pair of algorithms evolves a mixture over every possible
switching schedule between pure single-asset strategies, with either a
constant switching probability or one that decays with holding time. Around
them: transaction cost models, an exact mixture oracle, bound
calculators, classic baselines (CRP, hindsight-best CRP, multiplicative
updates, universal portfolio, best stock), CSV ingestion, synthetic
markets, and a backtesting CLI (``switchfolio``).
"""

import os

# OpenBLAS's idle worker thread spins 2^28 cycles (about 0.1 s of a second core) before it sleeps;
# 2^22 (about 1.5 ms) still spans a kernel's gaps between matmuls. OpenBLAS reads it at load only.
_SPIN_DEFAULT = "OPENBLAS_THREAD_TIMEOUT" not in os.environ
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")
import numpy  # noqa: E402
if _SPIN_DEFAULT:
    del os.environ["OPENBLAS_THREAD_TIMEOUT"]

from .backtest import AlgoSpec, BacktestReport, compare, emit_plot_data, max_drawdown, run
from .baselines import NoData, bcrp_solve, best_stock, eg_step, universal_tracks
from .core import (
    DimensionMismatch,
    DuplicateAssetName,
    NegativeEntry,
    NonPositiveRelative,
    PortfolioError,
    PriceRelativeMatrix,
    RaggedRows,
    RegimeSpec,
    validate_relatives,
)
from .costs import (
    CostModel,
    NegativeAllocation,
    realized_wealth_track,
    switch_factor,
)
from .market_data import (
    EmptyFile,
    NonPositivePrice,
    ParseError,
    TooFewRows,
    load_csv,
    prices_to_relatives,
    synth_regime_pair,
    synth_volatility_pair,
    to_csv_text,
    write_csv,
)
from .regimes import (
    BoundReport,
    BoundTable,
    InstanceTooLarge,
    InvalidRegime,
    adaptive_penalty,
    adaptive_prior_terms,
    bound_check,
    fixed_gamma_penalty,
    mixture_oracle,
)
from .switching import (
    AdaptiveState,
    FixedGammaState,
    GammaOutOfRange,
    TooFewAssets,
    adaptive_init,
    adaptive_step,
    adaptive_weights,
    fixed_init,
    fixed_step,
    fixed_weights,
)

__version__ = "0.1.0"
