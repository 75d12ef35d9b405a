import copy
import itertools
import math
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchfolio.backtest import AlgoSpec, ComparisonRow
from switchfolio.core import PortfolioError, RegimeSpec, validate_relatives
from switchfolio.costs import CostModel, switch_factor
from switchfolio.regimes import (
    BoundReport,
    BoundTable,
    InstanceTooLarge,
    InvalidRegime,
    _logsumexp,
    adaptive_penalty,
    adaptive_prior_terms,
    block_regimes,
    bound_check,
    fixed_gamma_penalty,
    mixture_oracle,
)
from switchfolio.switching import adaptive_init, adaptive_step, fixed_init, fixed_step

from reference import enumerate_regimes, log_prior, log_regime_wealth

LOG2 = math.log(2.0)


def switching(gamma=None, cost=None):
    """The switching spec of the fixed-gamma prior at gamma, or of the adaptive prior when gamma is None."""
    return AlgoSpec("switching-adaptive", cost=cost) if gamma is None else AlgoSpec("switching-fixed", gamma, cost=cost)


def random_matrix(rng, T, N):
    vals = np.exp(rng.uniform(np.log(0.25), np.log(4.0), size=(T, N)))
    return validate_relatives(vals, [f"a{i}" for i in range(N)])


# Log-domain values are checked with an absolute tolerance equal to the relative one a
# linear value would get: |log a - log b| is |a - b| / b to first order.
class TestPriorFixed:
    def test_no_switch_value(self):
        q = RegimeSpec((), (0,))
        assert math.isclose(log_prior(q, 3, 2, switching(1 / 3)), math.log(2 / 9), abs_tol=1e-14)

    def test_one_switch_value(self):
        q = RegimeSpec((1,), (0, 1))
        assert math.isclose(log_prior(q, 3, 2, switching(1 / 3)), math.log(1 / 9), abs_tol=1e-14)
        q2 = RegimeSpec((2,), (1, 0))
        assert math.isclose(log_prior(q2, 3, 2, switching(1 / 3)), math.log(1 / 9), abs_tol=1e-14)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("T", range(1, 9))
    def test_normalizes(self, N, T):
        prior = switching(1 / 3)
        total = sum(math.exp(log_prior(q, T, N, prior)) for q in enumerate_regimes(T, N))
        assert abs(total - 1.0) <= 1e-12

    def test_switch_time_out_of_range(self):
        with pytest.raises(InvalidRegime):
            log_prior(RegimeSpec((3,), (0, 1)), 3, 2, switching(0.5))


class TestPriorAdaptive:
    def test_stay_regime(self):
        lp = log_prior(RegimeSpec((), (0,)), 2, 2, switching())
        assert math.isclose(lp, math.log(0.25), abs_tol=1e-14)

    def test_switch_regime(self):
        lp = log_prior(RegimeSpec((1,), (0, 1)), 2, 2, switching())
        assert math.isclose(lp, math.log(0.25), abs_tol=1e-14)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("T", range(1, 9))
    def test_normalizes(self, N, T):
        total = sum(math.exp(log_prior(q, T, N, switching())) for q in enumerate_regimes(T, N))
        assert abs(total - 1.0) <= 1e-12


class TestRegimeWealth:
    X = validate_relatives([[2.0, 0.5], [0.5, 2.0]], ["a", "b"])

    def test_stay_product(self):
        assert math.isclose(log_regime_wealth(RegimeSpec((), (0,)), self.X), 0.0, abs_tol=1e-14)

    def test_switch_product(self):
        assert math.isclose(log_regime_wealth(RegimeSpec((1,), (0, 1)), self.X), math.log(4.0), abs_tol=1e-14)

    def test_switches_only_cost_convention(self):
        lw = log_regime_wealth(RegimeSpec((1,), (0, 1)), self.X, CostModel.per_trade(0.01))
        assert math.isclose(lw, math.log(4.0 * 0.9801), abs_tol=1e-13)


class TestEnumerateRegimes:
    def test_small_counts(self):
        assert len(list(enumerate_regimes(1, 2))) == 2
        assert len(list(enumerate_regimes(2, 2))) == 4
        assert len(list(enumerate_regimes(6, 2))) == 64  # 2 * 2^5

    @pytest.mark.parametrize("T,N", [(1, 2), (3, 2), (4, 3), (6, 2)])
    def test_count_formula_and_uniqueness(self, T, N):
        regimes = list(enumerate_regimes(T, N))
        assert len(regimes) == N**T
        assert len(set(regimes)) == len(regimes)

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            next(enumerate_regimes(30, 2))


class TestMixtureOracle:
    def test_empty_history(self):
        X = validate_relatives([], ["a", "b"])
        assert mixture_oracle(X, switching()) == 0.0
        assert mixture_oracle(X, switching(0.3)) == 0.0

    def test_single_day_uniform_pick(self):
        X = validate_relatives([[2.0, 0.5]], ["a", "b"])
        assert math.isclose(mixture_oracle(X, switching()), math.log(1.25), abs_tol=1e-14)
        assert math.isclose(mixture_oracle(X, switching(0.3)), math.log(1.25), abs_tol=1e-14)

    def test_matches_recursions(self):
        rng = np.random.default_rng(21)
        X = random_matrix(rng, 7, 2)
        st = fixed_init(2, 0.3)
        for t in range(1, 8):
            fixed_step(st, X.values[t - 1])
        assert abs(st.log_wealth - mixture_oracle(X, switching(0.3))) < 1e-10
        st = adaptive_init(2, 7)
        for t in range(1, 8):
            adaptive_step(st, X.values[t - 1])
        assert abs(st.log_wealth - mixture_oracle(X, switching())) < 1e-10

    def test_logsumexp_matches_pairwise_logaddexp(self):
        rng = np.random.default_rng(23)
        a = rng.normal(0.0, 300.0, size=(4, 50))
        a[1, :10] = -np.inf
        a[2] = -np.inf  # every term -inf: the sum is -inf, with no warning
        with np.errstate(divide="raise", invalid="raise"):
            rows = _logsumexp(a, axis=1)
            total = _logsumexp(a)
        expected = np.logaddexp.reduce(a, axis=1)
        assert rows[2] == -np.inf
        finite = np.isfinite(expected)
        assert np.allclose(rows[finite], expected[finite], rtol=1e-14, atol=0.0)
        assert math.isclose(float(total), float(np.logaddexp.reduce(a, axis=None)), rel_tol=1e-14)

    def test_sum_order_invariance(self):
        rng = np.random.default_rng(22)
        X = random_matrix(rng, 6, 3)
        terms = [
            log_prior(q, 6, 3, switching()) + log_regime_wealth(q, X)
            for q in enumerate_regimes(6, 3)
        ]
        reference = mixture_oracle(X, switching())
        for _ in range(3):
            rng.shuffle(terms)
            acc = -math.inf
            for t in terms:
                acc = np.logaddexp(acc, t)
            assert abs(float(acc) - reference) <= 1e-12


class TestAdaptiveTerms:
    def test_small_values(self):
        stay, switch = adaptive_prior_terms(5)
        assert stay.tolist() == [1.0, 0.5, 0.375, 0.3125, 0.2734375]  # P(4) = 35/128, exact in binary
        assert switch.tolist() == [0.5, 0.125, 0.0625, 0.0390625, 0.02734375]  # P(k) (1/2)/(k+1)
        assert -math.log2(stay[4]) <= 0.5 * math.log2(4) + 1
        assert [term.size for term in adaptive_prior_terms(0)] == [0, 0]

    def test_against_exact_products_through_age_2000(self):
        # One rounding per factor and per product: measured 3.29e-15 at ages 1001-2000.
        stay, switch = adaptive_prior_terms(2001)
        exact = Fraction(1)
        for k in range(2001):
            if k:
                exact *= Fraction(2 * k - 1, 2 * k)
            assert abs(Fraction(stay[k]) - exact) <= Fraction(4e-15) * exact, k
            exact_switch = exact / (2 * (k + 1))
            assert abs(Fraction(switch[k]) - exact_switch) <= Fraction(4e-15 + 2.0**-53) * exact_switch, k

    def test_stay_run_bound_and_monotone_normalization(self):
        # -log2 P(n) <= log2(n)/2 + 1, i.e. sqrt(n)*P(n) >= 1/2 and increasing.
        neg = -np.log2(adaptive_prior_terms(10_001)[0][1:])
        n = np.arange(1, 10_001)
        assert np.all(neg <= 0.5 * np.log2(n) + 1.0)
        g_log2 = 0.5 * np.log2(n) - neg
        assert np.all(np.diff(g_log2) > 0)
        assert np.all(g_log2 >= -1.0)  # g >= 1/2


class TestPenalties:
    def test_adaptive_penalty_hand_values(self):
        assert math.isclose(adaptive_penalty(4, 2, 1), 10.0, rel_tol=1e-14)
        assert math.isclose(adaptive_penalty(4, 2, 0), 4.0, rel_tol=1e-14)
        assert math.isclose(adaptive_penalty(16, 2, 2), 20.0, rel_tol=1e-14)

    def test_fixed_penalty_hand_value(self):
        expected = 2.0 + math.log2(3.0) + 2.0 * math.log2(1.5)
        assert math.isclose(fixed_gamma_penalty(3, 2, 1, 1 / 3), expected, rel_tol=1e-14)

    def test_fixed_penalty_small_gamma_limit(self):
        p = fixed_gamma_penalty(10, 2, 0, 1e-12)
        assert math.isclose(p, math.log2(2), abs_tol=1e-9)

    @pytest.mark.parametrize("gamma, log2_gamma", [(5e-324, -1074.0), (1e-310, math.log2(1e-310))])
    def test_fixed_penalty_subnormal_gamma(self, gamma, log2_gamma):
        # 1/gamma is inf for these gammas; the penalty is still finite, and exact at l = 0.
        assert fixed_gamma_penalty(10, 2, 0, gamma) == 1.0
        assert fixed_gamma_penalty(10, 2, 1, gamma) == 2.0 - log2_gamma

    def test_adaptive_penalty_dominates_exact_prior(self):
        for N in (2, 3):
            for T in range(1, 9):
                for q in enumerate_regimes(T, N):
                    assert -log_prior(q, T, N, switching()) / LOG2 <= adaptive_penalty(
                        T, N, len(q.switch_times)
                    ) + 1e-12

    def test_adaptive_penalty_needs_a_trading_day(self):
        assert adaptive_penalty(1, 3, 0) == math.log2(12)
        with pytest.raises(PortfolioError, match="T >= 1, got T=0"):
            adaptive_penalty(0, 3, 0)

    def test_fixed_penalty_exceeds_exact_prior(self):
        for N in (2, 3):
            for T in range(1, 9):
                for gamma in (0.1, 1 / 3, 0.45):
                    for q in enumerate_regimes(T, N):
                        assert -log_prior(q, T, N, switching(gamma)) / LOG2 < fixed_gamma_penalty(
                            T, N, len(q.switch_times), gamma
                        )


class TestSwitchingSpecOnly:
    """The oracle and the bounds certify a switching spec; any other kind is refused before X is read."""

    X = validate_relatives([[2.0, 0.5], [0.5, 2.0]], ["a", "b"])

    @pytest.mark.parametrize(
        "spec",
        [AlgoSpec("crp", weights=(0.5, 0.5)), AlgoSpec("bcrp"),
         AlgoSpec("eg", eta=0.05, cost=CostModel.parallel(0.01))],
    )
    @pytest.mark.parametrize("certify", [mixture_oracle, lambda X, spec: BoundTable(X, spec, 0.0)],
                             ids=["mixture_oracle", "BoundTable"])
    def test_a_spec_of_another_kind_is_refused(self, spec, certify):
        with pytest.raises(PortfolioError) as exc:
            certify(self.X, spec)
        assert str(exc.value) == f"the switching mixture needs a switching spec, got kind {spec.kind!r}"
        with pytest.raises(PortfolioError, match="needs a switching spec"):  # before the market's own checks
            certify(validate_relatives([[2.0]], ["a"]), spec)

    def test_prior_and_cost_come_from_the_spec(self):
        cost = CostModel.per_trade(0.1)
        charged = mixture_oracle(self.X, switching(0.3, cost))
        assert charged < mixture_oracle(self.X, switching(0.3))
        assert charged != mixture_oracle(self.X, switching(0.2, cost))
        table = BoundTable(self.X, switching(0.3, cost), 0.0)
        assert bound_check(table, RegimeSpec((1,), (0, 1))).regime_log_wealth == math.log2(4.0 * 0.9**2)


class TestBoundCheck:
    def run_adaptive_log2(self, X):
        st = adaptive_init(X.assets, X.days)
        for t in range(1, X.days + 1):
            adaptive_step(st, X.values[t - 1])
        return st.log_wealth / LOG2

    def test_slack_nonnegative_across_regimes(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            X = random_matrix(rng, 6, 2)
            table = BoundTable(X, switching(), self.run_adaptive_log2(X))
            for q in enumerate_regimes(6, 2):
                rep = bound_check(table, q)
                assert rep.slack >= 0

    def test_fixed_prior_slack(self):
        rng = np.random.default_rng(24)
        X = random_matrix(rng, 6, 2)
        st = fixed_init(2, 1 / 3)
        for t in range(1, 7):
            fixed_step(st, X.values[t - 1])
        table = BoundTable(X, switching(1 / 3), st.log_wealth / LOG2)
        for q in enumerate_regimes(6, 2):
            rep = bound_check(table, q)
            assert rep.slack >= 0

    def test_degenerate_two_day_instance(self):
        X = validate_relatives([[2.0, 0.5], [0.5, 2.0]], ["a", "b"])
        table = BoundTable(X, switching(), self.run_adaptive_log2(X))
        rep = bound_check(table, RegimeSpec((), (0,)))
        assert rep.slack >= 0 and math.isfinite(rep.slack)

    def test_report_fields(self):
        rep = BoundReport(regime_log_wealth=3.0, penalty=5.0, algorithm_log_wealth=1.0)
        assert rep.slack == 3.0


class TestRecords:
    """The switching specs, the bound report and the small records of backtest and costs
    are immutable values, as frozen dataclasses were."""

    RECORDS = [
        (AlgoSpec("eg", eta=0.05, cost=CostModel.parallel(0.01)), AlgoSpec("eg", eta=0.05),
         ("eg", None, None, 0.05, None, 0, CostModel("parallel", 0.01), "bucket"),
         "AlgoSpec(kind='eg', gamma=None, weights=None, eta=0.05, samples=None, seed=0, "
         "cost=CostModel(kind='parallel', rate=0.01), cost_accounting='bucket')"),
        (AlgoSpec("crp", weights=(0.5, 0.5)), AlgoSpec("crp", weights=(0.25, 0.75)),
         ("crp", None, (0.5, 0.5), None, None, 0, None, "bucket"),
         "AlgoSpec(kind='crp', gamma=None, weights=(0.5, 0.5), eta=None, samples=None, seed=0, "
         "cost=None, cost_accounting='bucket')"),
        (CostModel.per_trade(0.01), CostModel.parallel(0.01), ("per-trade", 0.01),
         "CostModel(kind='per-trade', rate=0.01)"),
        (ComparisonRow("bcrp", "-", 1.25, 0.5, True), ComparisonRow("bcrp", "-", 1.25, 0.5, False),
         ("bcrp", "-", 1.25, 0.5, True),
         "ComparisonRow(name='bcrp', parameters='-', final_wealth=1.25, max_drawdown=0.5, hindsight_only=True)"),
        (BoundReport(1.5, 2.0, -0.5), BoundReport(1.5, 2.0, -0.25), (1.5, 2.0, -0.5),
         "BoundReport(regime_log_wealth=1.5, penalty=2.0, algorithm_log_wealth=-0.5)"),
        (switching(0.25), switching(0.5), ("switching-fixed", 0.25, None, None, None, 0, None, "bucket"),
         "AlgoSpec(kind='switching-fixed', gamma=0.25, weights=None, eta=None, samples=None, seed=0, "
         "cost=None, cost_accounting='bucket')"),
        (switching(), switching(0.25), ("switching-adaptive", None, None, None, None, 0, None, "bucket"),
         "AlgoSpec(kind='switching-adaptive', gamma=None, weights=None, eta=None, samples=None, seed=0, "
         "cost=None, cost_accounting='bucket')"),
    ]

    @pytest.mark.parametrize("record, other, fields, text", RECORDS)
    def test_equality_hash_and_repr(self, record, other, fields, text):
        twin = type(record)(*fields)
        assert record == twin and hash(record) == hash(twin) == hash(fields)
        assert record != other and record != fields
        assert repr(record) == text
        assert len({record, twin, other}) == 2
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))

    @pytest.mark.parametrize("record, other, fields, text", RECORDS)
    def test_fields_cannot_be_set_or_deleted(self, record, other, fields, text):
        for name in (*record.__slots__, "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, 1.0)
            with pytest.raises(FrozenInstanceError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in record.__slots__) == fields
        assert not hasattr(record, "__dict__")


# Regime-by-regime references: the enumeration, the brute-force mixture over
# all N^T regimes and the bound body. Enumeration and bounds rows must give
# their bits; the segment DP sums the mixture in another order, so it must
# match within a tolerance.
def ref_enumerate(T, N):
    others = [[j for j in range(N) if j != i] for i in range(N)]
    for l in range(T):
        for times in itertools.combinations(range(1, T), l):
            for first in range(N):
                for hops in itertools.product(range(N - 1), repeat=l):
                    strategies = [first]
                    for hop in hops:
                        strategies.append(others[strategies[-1]][hop])
                    yield times, tuple(strategies)


def ref_segments(times, strategies, T):
    return [(a, s + 1, e) for a, s, e in zip(strategies, (0,) + times, times + (T,))]


def ref_mixture_oracle(X, spec):
    T, N = X.days, X.assets
    cumlog = np.zeros((T + 1, N))
    np.cumsum(np.log(X.values), axis=0, out=cumlog[1:])
    log_sf = math.log(switch_factor(spec.cost))
    acc = -math.inf
    for times, strategies in ref_enumerate(T, N):
        segments = ref_segments(times, strategies, T)
        lw = len(times) * log_sf
        for asset, start, end in segments:
            lw += cumlog[end, asset] - cumlog[start - 1, asset]
        acc = np.logaddexp(acc, log_prior(RegimeSpec(times, strategies), T, N, spec) + lw)
    return float(acc)


def ref_bound_row(X, spec, alg, times, strategies):
    logs = np.log(X.values)
    total = 0.0
    for asset, start, end in ref_segments(times, strategies, X.days):
        total += float(logs[start - 1 : end, asset].sum())
    lw = (total + len(times) * math.log(switch_factor(spec.cost))) / LOG2
    if spec.gamma is not None:
        penalty = fixed_gamma_penalty(X.days, X.assets, len(times), spec.gamma)
    else:
        penalty = adaptive_penalty(X.days, X.assets, len(times))
    return lw, penalty, alg - lw + penalty


def assert_matches_references(X, spec, alg=1.5):
    dp = mixture_oracle(X, spec)
    ref = ref_mixture_oracle(X, spec)
    assert abs(dp - ref) <= 1e-13 * max(1.0, abs(ref))  # the DP sums in another order
    table = BoundTable(X, spec, alg)
    rows = []
    for regime in enumerate_regimes(X.days, X.assets):
        rep = bound_check(table, regime)
        assert log_regime_wealth(regime, X, spec.cost) / LOG2 == rep.regime_log_wealth
        rows.append(
            (regime.switch_times, regime.strategies, rep.regime_log_wealth, rep.penalty, rep.slack)
        )
    expected = [
        (times, strategies, *ref_bound_row(X, spec, alg, times, strategies))
        for times, strategies in ref_enumerate(X.days, X.assets)
    ]
    assert rows == expected  # exact float equality, row by row


class TestRegimeBlocks:
    """Regimes come in blocks that share one switch-time tuple; the code against the references."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("T", range(1, 8))
    def test_order_equals_reference(self, T, N):
        expected = list(ref_enumerate(T, N))
        assert [(q.switch_times, q.strategies) for q in enumerate_regimes(T, N)] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        T=st.integers(1, 8),
        N=st.integers(2, 3),
        seed=st.integers(0, 2**32 - 1),
        fixed=st.booleans(),
        gamma=st.floats(0.001, 0.5),
        kind=st.sampled_from([None, "per-trade", "parallel"]),
        rate=st.floats(0.0, 0.49),
    )
    def test_bitwise_equal_to_references(self, T, N, seed, fixed, gamma, kind, rate):
        X = random_matrix(np.random.default_rng(seed), T, N)
        cost = None if kind is None else CostModel(kind, rate)
        assert_matches_references(X, switching(gamma if fixed else None, cost))

    @pytest.mark.parametrize(
        "T, N, spec",
        [
            (9, 3, switching(cost=CostModel.per_trade(0.01))),
            (10, 2, switching(0.1)),
            (10, 2, switching(cost=CostModel.parallel(0.3))),
        ],
    )
    def test_long_segments_bitwise_equal_to_references(self, T, N, spec):
        # Segments of 8 or more days take numpy's pairwise summation path.
        X = random_matrix(np.random.default_rng(T * 10 + N), T, N)
        assert_matches_references(X, spec, alg=-3.25)

    def test_segment_sums_follow_the_matrix(self):
        # log_regime_wealth against the reference row, matrix after matrix.
        rng = np.random.default_rng(27)
        for X in [random_matrix(rng, 4, 2) for _ in range(3)] * 2:
            for times, strategies in ref_enumerate(4, 2):
                lw = log_regime_wealth(RegimeSpec(times, strategies), X) / LOG2
                assert lw == ref_bound_row(X, switching(0.1), 0.0, times, strategies)[0]


class TestSwitchTimeBlocks:
    """A bound table keeps one checked switch-time block; each field against the per-regime reference."""

    @settings(max_examples=80, deadline=None)
    @given(
        T=st.integers(1, 6),
        N=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        fixed=st.booleans(),
        gamma=st.floats(0.001, 0.5),
        settings_=st.lists(
            st.tuples(st.sampled_from([None, "per-trade", "parallel"]), st.floats(0.0, 0.49), st.floats(-20.0, 20.0)),
            min_size=1,
            max_size=3,
        ),
        order=st.sampled_from(["enumerated", "rebuilt", "shuffled"]),
        data=st.data(),
    )
    def test_every_field_equals_a_per_regime_recomputation(self, T, N, seed, fixed, gamma, settings_, order, data):
        # Blocks are kept across regimes, tables and orders: shared switch-time tuples
        # (enumerated), equal but distinct ones (rebuilt), blocks left and re-entered (shuffled),
        # and 1-3 interleaved tables, each with its own cost model and algorithm wealth.
        X = random_matrix(np.random.default_rng(seed), T, N)
        regimes_ = list(enumerate_regimes(T, N))
        if order == "rebuilt":
            regimes_ = [RegimeSpec(q.switch_times, q.strategies) for q in regimes_]
        elif order == "shuffled":
            regimes_ = data.draw(st.permutations(regimes_))
        tables = []
        for kind, rate, alg in settings_:
            spec = switching(gamma if fixed else None, None if kind is None else CostModel(kind, rate))
            tables.append((BoundTable(X, spec, alg), spec, alg))
        for regime in regimes_:
            for table, spec, alg in tables:
                rep = bound_check(table, regime)
                lw, penalty, slack = ref_bound_row(X, spec, alg, regime.switch_times, regime.strategies)
                fields = (rep.regime_log_wealth, rep.penalty, rep.algorithm_log_wealth, rep.slack)
                assert fields == (lw, penalty, alg, slack)
                assert log_regime_wealth(regime, X, spec.cost) / LOG2 == lw

    # A refusal keeps its type, message and order (T, switch time, then strategy), and
    # leaves the table's block as it was: each test ends by scoring the valid regime's block
    # again, where a regime sharing its switch-time tuple but holding asset 2 must be refused.
    X = validate_relatives([[1.5, 0.5], [0.8, 1.25], [1.1, 0.9], [0.7, 1.6], [1.2, 0.95]], ["a", "b"])

    def setup_method(self):
        self.table = BoundTable(self.X, switching(cost=CostModel.per_trade(0.01)), 0.5)

    @staticmethod
    def sharing_times(valid, strategies):
        regime = RegimeSpec(valid.switch_times, strategies)
        object.__setattr__(regime, "switch_times", valid.switch_times)  # the same tuple object
        return regime

    def refuse(self, regime, error, message):
        with pytest.raises(PortfolioError) as exc:
            bound_check(self.table, regime)
        assert type(exc.value) is error and str(exc.value) == message

    def assert_block_still_guarded(self, valid, expected):
        out_of_range = self.sharing_times(valid, valid.strategies[:-1] + (2,))
        self.refuse(out_of_range, InvalidRegime, f"strategy index out of range for N=2: {out_of_range.strategies}")
        assert bound_check(self.table, valid) == expected

    @pytest.mark.parametrize("times, strategies", [((), (1,)), ((2,), (0, 1)), ((1, 3, 4), (1, 0, 1, 0))])
    def test_out_of_range_strategy_in_a_scored_block(self, times, strategies):
        valid = RegimeSpec(times, strategies)
        expected = bound_check(self.table, valid)
        self.refuse(self.sharing_times(valid, (2,) + strategies[1:]), InvalidRegime,
                    f"strategy index out of range for N=2: {(2,) + strategies[1:]}")
        self.assert_block_still_guarded(valid, expected)

    def test_switch_time_past_the_horizon(self):
        valid = RegimeSpec((2,), (0, 1))
        expected = bound_check(self.table, valid)
        self.refuse(RegimeSpec((2, 5), (0, 1, 0)), InvalidRegime, "switch time 5 outside 1..4")
        # the switch time comes first, then the strategy
        self.refuse(RegimeSpec((5,), (0, 2)), InvalidRegime, "switch time 5 outside 1..4")
        self.assert_block_still_guarded(valid, expected)
        with pytest.raises(InvalidRegime, match=r"^regimes need at least one trading day, got T=0$"):
            # and the horizon before them both
            empty = validate_relatives(np.empty((0, 2)), ["a", "b"])
            bound_check(BoundTable(empty, switching(), 0.0), RegimeSpec((3,), (0, 2)))


class TestScoredBlocks:
    """bounds' path: each block scored at once, then read regime by regime by bound_check."""

    @pytest.mark.parametrize(
        "T, N, spec",
        [
            (9, 3, switching(cost=CostModel.per_trade(0.01))),
            (6, 4, switching(0.2, CostModel.parallel(0.3))),
            (10, 2, switching(0.05)),
            (1, 3, switching()),
        ],
    )
    def test_reads_equal_the_references(self, T, N, spec):
        X = random_matrix(np.random.default_rng(T * 10 + N), T, N)
        table = BoundTable(X, spec, -2.5)
        rows = []
        for times, strategies, log2_wealth, penalty in table.scored_blocks():
            assert log2_wealth.shape == (len(strategies),)
            for regime, lw in zip(block_regimes(times, strategies), log2_wealth.tolist(), strict=True):
                rep = bound_check(table, regime)
                assert (rep.regime_log_wealth, rep.penalty) == (lw, penalty)
                rows.append((times, regime.strategies, lw, penalty, rep.slack))
        expected = [
            (times, strategies, *ref_bound_row(X, spec, -2.5, times, strategies))
            for times, strategies in ref_enumerate(T, N)
        ]
        assert rows == expected  # exact float equality, row by row

    def test_other_regimes_inside_a_block_leave_it(self, monkeypatch):
        # Inside a scored block, a lone check, a repeat, a regime out of place and a refusal are each
        # scored (or refused) as a one-row block; the block's next regime is still a read.
        X = random_matrix(np.random.default_rng(5), 5, 3)
        table = BoundTable(X, switching(cost=CostModel.per_trade(0.01)), 0.5)
        one_row = []
        score = BoundTable._score

        def spy(table_, times, strategies):
            if len(strategies) == 1:
                one_row.append((times, tuple(strategies[0])))
            return score(table_, times, strategies)

        monkeypatch.setattr(BoundTable, "_score", spy)
        blocks = table.scored_blocks()
        times, rows, log2_wealth, _ = next(itertools.islice(blocks, 6, None))  # the block of (1, 3)
        regimes = list(block_regimes(times, rows))
        reads = [bound_check(table, regimes[0]).regime_log_wealth]
        lone = RegimeSpec((3,), (2, 0))
        assert bound_check(table, lone) == bound_check(table, RegimeSpec((3,), (2, 0)))
        repeat = bound_check(table, regimes[0])
        skipped = bound_check(table, regimes[2])
        with pytest.raises(InvalidRegime, match=r"^strategy index out of range for N=3: \(0, 1, 3\)$"):
            bound_check(table, RegimeSpec(times, (0, 1, 3)))
        reads += [bound_check(table, q).regime_log_wealth for q in regimes[1:]]
        assert reads == log2_wealth.tolist()
        assert (repeat.regime_log_wealth, skipped.regime_log_wealth) == (reads[0], reads[2])
        lone_rows = [((3,), (2, 0))] * 2
        assert one_row == lone_rows + [(times, regimes[0].strategies), (times, regimes[2].strategies)]
