"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The NYSE reproduction criterion is conditional: it runs only when
SWITCHFOLIO_NYSE_CSV points at a relatives-mode CSV with the documented
column names (see README), and is skipped otherwise.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from switchfolio.backtest import AlgoSpec, compare, emit_plot_data, run
from switchfolio.baselines import UniversalConfig, _sampled_tracks, bcrp_solve
from switchfolio.core import RegimeSpec, validate_relatives
from switchfolio.costs import CostModel
from switchfolio.market_data import load_csv, synth_regime_pair, synth_volatility_pair
from switchfolio.regimes import (
    AdaptivePrior,
    FixedGammaPrior,
    adaptive_penalty,
    adaptive_prior_terms,
    fixed_gamma_penalty,
    mixture_oracle,
)
from switchfolio.switching import adaptive_init, adaptive_step, fixed_init, fixed_step

from reference import enumerate_regimes, log_prior, log_regime_wealth

LOG2 = math.log(2.0)
GAMMAS = (0.1, 1 / 3, 0.45)
COSTS = (None, CostModel.per_trade(0.02), CostModel.parallel(0.05))


def _passed(number, message):
    print(f"criterion {number}: PASS - {message}")


def _run_fixed_log2(X, gamma, cost):
    st = fixed_init(X.assets, gamma, cost)
    for t in range(1, X.days + 1):
        fixed_step(st, X.values[t - 1])
    return st.log_wealth / LOG2


def _run_adaptive_log2(X, cost):
    st = adaptive_init(X.assets, X.days, cost)
    for t in range(1, X.days + 1):
        adaptive_step(st, X.values[t - 1])
    return st.log_wealth / LOG2


@pytest.fixture(scope="module")
def instances():
    rng = np.random.default_rng(20260810)
    out = []
    for _ in range(50):
        N = int(rng.integers(2, 4))
        T = int(rng.integers(1, 9))
        vals = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(T, N)))
        out.append(validate_relatives(vals, [f"a{i}" for i in range(N)]))
    return out


def test_criterion_1_oracle_equivalence(instances):
    started = time.time()
    checks = 0
    for X in instances:
        for cost in COSTS:
            configs = [(AdaptivePrior(), _run_adaptive_log2(X, cost))]
            configs += [
                (FixedGammaPrior(g), _run_fixed_log2(X, g, cost)) for g in GAMMAS
            ]
            for prior, alg_log2 in configs:
                oracle_log2 = mixture_oracle(X, prior, cost, "switches-only") / LOG2
                allowed = 1e-10 * abs(oracle_log2) + 1e-12
                assert abs(alg_log2 - oracle_log2) <= allowed, (
                    X.days,
                    X.assets,
                    prior,
                    cost,
                    alg_log2,
                    oracle_log2,
                )
                checks += 1
    elapsed = time.time() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f} s"
    _passed(1, f"{checks} algorithm-vs-enumeration comparisons in {elapsed:.1f} s")


def test_criterion_2_prior_normalization():
    for N in (2, 3):
        for T in range(1, 9):
            regimes = list(enumerate_regimes(T, N))
            for gamma in GAMMAS:
                total = sum(math.exp(log_prior(q, T, N, FixedGammaPrior(gamma))) for q in regimes)
                assert abs(total - 1.0) <= 1e-12, (N, T, gamma, total)
            total = sum(math.exp(log_prior(q, T, N, AdaptivePrior())) for q in regimes)
            assert abs(total - 1.0) <= 1e-12, (N, T, total)
    _passed(2, "both priors sum to 1 +- 1e-12 for N in {2,3}, T in 1..8")


def test_criterion_3_stay_run_bound():
    started = time.time()
    n_max = 100_000
    neg = -np.log2(adaptive_prior_terms(n_max + 1)[0][1:])  # -log2 P(n), n = 1..n_max
    n = np.arange(1, n_max + 1)
    assert np.all(neg <= 0.5 * np.log2(n) + 1.0)
    g_log2 = 0.5 * np.log2(n) - neg  # log2 of sqrt(n) * product
    assert np.all(np.diff(g_log2) > 0), "normalized stay-run product must increase"
    assert np.all(g_log2 >= -1.0), "normalized stay-run product must stay >= 1/2"
    elapsed = time.time() - started
    assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"
    _passed(3, f"stay-run bound and monotonicity for n <= {n_max} in {elapsed:.2f} s")


def test_criterion_4_penalty_bounds(instances):
    violations = 0
    checks = 0
    for X in instances:
        T, N = X.days, X.assets
        # Max cost-free regime log2-wealth per switch count; a cost model
        # shifts every regime in an l-class by the same l * log2(factor).
        best_by_l = np.full(T, -np.inf)
        for q in enumerate_regimes(T, N):
            lw = log_regime_wealth(q, X) / LOG2
            if lw > best_by_l[len(q.switch_times)]:
                best_by_l[len(q.switch_times)] = lw
        for cost in COSTS:
            sf_log2 = math.log2(
                1.0 if cost is None else (1 - cost.rate) ** 2 if cost.kind == "per-trade" else 1 - 2 * cost.rate
            )
            alg = _run_adaptive_log2(X, cost)
            for l in range(T):
                bound = best_by_l[l] + l * sf_log2 - adaptive_penalty(T, N, l)
                checks += 1
                if alg < bound - 1e-9:
                    violations += 1
            for gamma in GAMMAS:
                alg = _run_fixed_log2(X, gamma, cost)
                for l in range(T):
                    bound = best_by_l[l] + l * sf_log2 - fixed_gamma_penalty(T, N, l, gamma)
                    checks += 1
                    if alg < bound - 1e-9:
                        violations += 1
    assert violations == 0, f"{violations} bound violations"
    _passed(4, f"zero violations across {checks} regime-class bounds")


def test_criterion_5_closed_form_regressions():
    half = AlgoSpec("crp", weights=(0.5, 0.5))
    for n in range(1, 21):
        vol = run(half, synth_volatility_pair(n)).final_wealth
        assert math.isclose(vol, (9 / 8) ** n, rel_tol=1e-12), n
        reg = run(half, synth_regime_pair(n)).final_wealth
        assert math.isclose(reg, (7 / 8) ** (2 * n), rel_tol=1e-12), n
        prescient = log_regime_wealth(RegimeSpec((n,), (0, 1)), synth_regime_pair(n))
        assert math.isclose(prescient, 2 * n * math.log(1.5), abs_tol=1e-12), n
    _passed(5, "(9/8)^n, (7/8)^(2n), (3/2)^(2n) closed forms for n <= 20")


def test_criterion_6_bcrp_vs_grid():
    rng = np.random.default_rng(606)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    W = np.stack([grid, 1.0 - grid], axis=1)
    worst = 0.0
    for _ in range(20):
        T = int(rng.integers(1, 51))
        vals = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(T, 2)))
        X = validate_relatives(vals, ["a", "b"])
        _, lw = bcrp_solve(X)
        grid_best = float(np.log(W @ X.values.T).sum(axis=1).max())
        gap = abs(lw - grid_best) / LOG2
        worst = max(worst, gap)
        assert gap <= 1e-6, (T, gap)
    _passed(6, f"20 instances, worst log2 gap to 1e-4 grid search {worst:.2e}")


def test_criterion_7_universal_vs_quadrature():
    rng = np.random.default_rng(707)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    W = np.stack([grid, 1.0 - grid], axis=1)
    worst = 0.0
    for _ in range(6):
        T = int(rng.integers(1, 11))
        vals = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(T, 2)))
        X = validate_relatives(vals, ["a", "b"])
        exact = float(np.trapezoid(np.prod(W @ X.values.T, axis=1), grid))
        mc = _sampled_tracks(X, UniversalConfig(samples=100_000, rng_seed=2026))[0][-1]
        rel = abs(mc - exact) / exact
        worst = max(worst, rel)
        assert rel <= 0.01, (T, rel)
    _passed(7, f"sampled universal within 1% of quadrature (worst {worst:.2%})")


# Expected final wealths for the classic NYSE pairs (22 years from 1963-01).
# Columns: best stock, hindsight-best CRP, fixed switching at gamma=1/3,
# and the universal portfolio (tolerance +-15%: the reference's sampling is unspecified;
# ours is exact for a pair).
_NYSE_PAIRS = {
    ("iroquois", "kin_ark"): (8.92, 73.70, 52.55, 39.97),
    ("comm_metals", "kin_ark"): (52.02, 144.00, 89.67, 80.54),
    ("comm_metals", "mei_corp"): (52.02, 102.96, 92.73, 74.08),
    ("ibm", "coca_cola"): (13.36, 15.07, 14.96, 14.24),
}


def test_criterion_8_nyse_reproduction():
    path = os.environ.get("SWITCHFOLIO_NYSE_CSV")
    if not path:
        pytest.skip("SWITCHFOLIO_NYSE_CSV not set; criteria 1-7 constitute acceptance")
    X = load_csv(path)
    names = {n: i for i, n in enumerate(X.asset_names)}
    for (a, b), (best_ref, bcrp_ref, switch_ref, universal_ref) in _NYSE_PAIRS.items():
        assert a in names and b in names, f"CSV must contain columns {a!r} and {b!r}"
        pair = validate_relatives(X.values[:, [names[a], names[b]]], [a, b])
        rows = compare(
            [
                AlgoSpec("best-stock"),
                AlgoSpec("bcrp"),
                AlgoSpec("switching-fixed", gamma=1 / 3),
                AlgoSpec("universal", samples=100_000, seed=0),
            ],
            pair,
        )
        for row, ref, tol in zip(rows, (best_ref, bcrp_ref, switch_ref, universal_ref), (0.02, 0.02, 0.02, 0.15)):
            assert abs(row.final_wealth - ref) / ref <= tol, (a, b, row.name, row.final_wealth, ref)
    _passed(8, "deterministic NYSE pair columns within 2%, universal within 15%")


def test_criterion_9_adaptive_performance():
    rng = np.random.default_rng(909)
    vals = np.exp(rng.uniform(np.log(0.97), np.log(1.03), size=(5651, 3)))
    X = validate_relatives(vals, ["a", "b", "c"])
    started = time.time()
    report = run(AlgoSpec("switching-adaptive"), X)
    text = emit_plot_data(report)
    elapsed = time.time() - started
    assert len(text.splitlines()) == 5653
    assert elapsed < 5.0, f"22-year adaptive run took {elapsed:.2f} s"
    _passed(9, f"T=5651, N=3 adaptive run plus report emission in {elapsed:.2f} s")


def test_criterion_10_cli_determinism(tmp_path):
    data = tmp_path / "m.csv"
    subprocess.run(
        [sys.executable, "-m", "switchfolio.cli", "synth", "--kind", "regime-pair",
         "--n", "5", "--out", str(data)],
        check=True,
    )
    argv = [
        sys.executable, "-m", "switchfolio.cli", "compare", "--data", str(data),
        "--algo", "universal:samples=5000", "--algo", "switching-adaptive",
        "--algo", "switching-fixed:gamma=0.3333333333", "--seed", "7",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    _passed(10, "identical invocations produce byte-identical output")
