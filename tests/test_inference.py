import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    enumerate_disagreement_probability,
    enumerate_pattern_prob_binomial,
    enumerate_pattern_prob_unanimous,
    record_loop_logliks,
    verdict_law,
)
from multidetect import inference
from multidetect.errors import EmptyInputError, NoDiscriminationError
from multidetect.inference import (
    DECISION_BINOMIAL,
    DECISION_INCONCLUSIVE,
    DECISION_UNANIMOUS,
    MAX_DETECTORS,
    SCORE_SLICE,
    ErrorModel,
    PatternTable,
    decide,
    required_trials,
)
from multidetect.scenarios import Binomial, Unanimous
from multidetect.state import OutcomeProbabilities

P_HALF = OutcomeProbabilities(0.5)
NO_ERR = ErrorModel.ideal(2)
table = PatternTable.from_outcomes


class TestLoglikUnanimous:
    def test_closed_form_without_misreads(self):
        probs = OutcomeProbabilities(0.36)
        data = [(0, 0)] * 30 + [(1, 1)] * 70
        expected = 30 * math.log(0.36) + 70 * math.log(0.64)
        assert decide(table(data), probs, NO_ERR).loglik_unanimous == pytest.approx(expected, rel=1e-12)

    def test_mixed_trial_forbidden_without_misreads(self):
        assert decide(table([(0, 0), (0, 1)]), P_HALF, NO_ERR).loglik_unanimous == -math.inf

    def test_mixed_trial_with_misreads(self):
        err = ErrorModel([0.01, 0.01])
        # sum over the shared bit: 0.5*(0.99*0.01) + 0.5*(0.01*0.99) = 0.0099
        got = decide(table([(0, 1)]), P_HALF, err).loglik_unanimous
        assert got == pytest.approx(math.log(0.0099), rel=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            probs = OutcomeProbabilities(float(rng.uniform(0.05, 0.95)))
            err = ErrorModel(rng.uniform(0.0, 0.4, size=3))
            pattern = tuple(rng.integers(0, 2, size=3))
            oracle = math.log(enumerate_pattern_prob_unanimous(pattern, probs, err.eps))
            assert decide(table([pattern]), probs, err).loglik_unanimous == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-11, 1e-10])
    def test_many_small_factors_do_not_underflow(self, eps):
        # 64 detectors, 32 reading 1: both latent branches are eps^32 (1 - eps)^32,
        # about e^-810.51 and e^-736.83, below the smallest normal double
        row = np.array([[1] * 32 + [0] * 32], dtype=np.int8)
        expected = 32 * (math.log(eps) + math.log1p(-eps))
        verdict = decide(table(row), P_HALF, ErrorModel([eps] * 64))
        assert verdict.loglik_unanimous == pytest.approx(expected, rel=1e-12)


class TestLoglikBinomial:
    def test_pattern_products(self):
        probs = OutcomeProbabilities(0.36)
        assert decide(table([(0, 1)]), probs, NO_ERR).loglik_binomial == pytest.approx(
            math.log(0.36 * 0.64), rel=1e-12
        )
        assert decide(table([(0, 0)]), probs, NO_ERR).loglik_binomial == pytest.approx(
            2 * math.log(0.36), rel=1e-12
        )

    def test_misread_absorption_identity(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            probs = OutcomeProbabilities(float(rng.uniform(0.05, 0.95)))
            eps = float(rng.uniform(0.0, 0.45))
            err = ErrorModel([eps, eps])
            for pattern in product((0, 1), repeat=2):
                oracle = enumerate_pattern_prob_binomial(pattern, probs, err.eps)
                p_eff = probs.p0 * (1 - eps) + probs.p1 * eps
                absorbed = math.prod(p_eff if o == 0 else 1 - p_eff for o in pattern)
                assert absorbed == pytest.approx(oracle, rel=1e-12)
                assert decide(table([pattern]), probs, err).loglik_binomial == pytest.approx(
                    math.log(oracle), rel=1e-12
                )


@st.composite
def scored_trials(draw):
    """Outcome arrays from a shared latent bit with per-detector flips, and the laws' inputs.

    A flip rate of 0 gives unanimous data, 0.5 independent coin flips, and
    0.01 rare disagreements, which are impossible under the unanimous law
    when every eps is 0.
    """
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 300))
    p0 = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    eps = draw(st.lists(st.just(0.0) | st.floats(0.0, 0.49), min_size=n, max_size=n))
    flip = draw(st.sampled_from([0.0, 0.01, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    latent = rng.random((m, 1)) >= p0
    outcomes = (latent ^ (rng.random((m, n)) < flip)).astype(np.int8)
    return outcomes, OutcomeProbabilities(p0), ErrorModel(eps)


def assert_loglik_matches(got, expected):
    if math.isinf(expected):
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=1e-10)


class TestPatternCounts:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(scored_trials())
    def test_arrays_match_record_loop_oracle(self, case):
        outcomes, probs, err = case
        oracle_u, oracle_b = record_loop_logliks(outcomes.tolist(), probs, err.eps)
        verdict = decide(table(outcomes), probs, err)
        assert_loglik_matches(verdict.loglik_unanimous, oracle_u)
        assert_loglik_matches(verdict.loglik_binomial, oracle_b)
        assert decide(table(outcomes.tolist()), probs, err) == verdict

    def test_row_permutation_bit_identical(self):
        rng = np.random.default_rng(57)
        probs = OutcomeProbabilities(0.3)
        err = ErrorModel(rng.uniform(0.0, 0.2, size=6))
        outcomes = (rng.random((500, 6)) >= 0.3).astype(np.int8)
        shuffled = outcomes[rng.permutation(len(outcomes))]
        got, expected = (decide(table(rows), probs, err) for rows in (shuffled, outcomes))
        assert got.loglik_unanimous == expected.loglik_unanimous
        assert got.loglik_binomial == expected.loglik_binomial

    def test_counts_and_merge_match_repeated_rows(self):
        rng = np.random.default_rng(59)
        rows = (rng.random((40, 5)) >= 0.5).astype(np.int8)
        counts = rng.integers(1, 6, size=40)
        whole = table(np.repeat(rows, counts, axis=0))
        assert whole.n_trials == counts.sum()
        assert np.all(np.diff(whole.codes.astype(float)) > 0)
        assert table(rows, counts) == whole
        assert table(whole.patterns(), whole.counts) == whole
        parts = [table(np.repeat(rows[:15], counts[:15], axis=0)), table(rows[15:], counts[15:])]
        assert PatternTable.merge(parts) == whole

    @pytest.mark.parametrize("k", [SCORE_SLICE, 2 * SCORE_SLICE + 1])
    def test_decide_unpacks_each_slice_once(self, monkeypatch, k):
        # both laws are scored from one unpacking of each slice, in one call that checks the detector count
        calls = []

        def counting(name, f):
            def counted(*args, **kwargs):
                calls.append(name)
                return f(*args, **kwargs)
            return counted

        monkeypatch.setattr(PatternTable, "patterns", counting("patterns", PatternTable.patterns))
        monkeypatch.setattr(inference, "_pattern_logliks", counting("scores", inference._pattern_logliks))
        rng = np.random.default_rng(62)
        whole = PatternTable(np.arange(k, dtype=np.uint64), rng.integers(1, 4, size=k), 16)
        decide(whole, OutcomeProbabilities(0.3), ErrorModel(rng.uniform(0.0, 0.2, size=16)))
        assert calls.count("patterns") == -(-k // SCORE_SLICE)
        assert calls.count("scores") == 1

    def test_scoring_memory_bounded_and_values_unchanged(self):
        # 1e5 distinct patterns of 64 detectors: each whole-table (K, N) temporary takes 51 MB
        rng = np.random.default_rng(61)
        codes = np.unique(rng.integers(0, 2**64 - 1, size=100_100, dtype=np.uint64, endpoint=True))
        whole = PatternTable(codes, rng.integers(1, 4, size=len(codes)), MAX_DETECTORS)
        probs = OutcomeProbabilities(0.3)
        eps = rng.uniform(0.0, 0.2, size=MAX_DETECTORS)
        tracemalloc.start()
        try:
            verdict = decide(whole, probs, ErrorModel(eps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(codes) >= 100_000
        assert peak < 16e6

        patterns = whole.patterns()
        branches = [
            np.log(p_sigma) + np.where(patterns != sigma, np.log(eps), np.log1p(-eps)).sum(axis=1)
            for sigma, p_sigma in ((0, probs.p0), (1, probs.p1))
        ]
        assert verdict.loglik_unanimous == float((whole.counts * np.logaddexp(*branches)).sum())
        effective = np.array([probs.p0 * (1.0 - e) + probs.p1 * e for e in eps])
        per_pattern = np.where(patterns == 0, np.log(effective), np.log(1.0 - effective)).sum(axis=1)
        assert verdict.loglik_binomial == float((whole.counts * per_pattern).sum())

    def test_max_detectors_accepted(self):
        rng = np.random.default_rng(58)
        probs = OutcomeProbabilities(0.4)
        err = ErrorModel(rng.uniform(0.0, 0.2, size=MAX_DETECTORS))
        outcomes = (rng.random((200, MAX_DETECTORS)) >= 0.4).astype(np.int8)
        oracle_u, oracle_b = record_loop_logliks(outcomes.tolist(), probs, err.eps)
        verdict = decide(table(outcomes), probs, err)
        assert verdict.loglik_unanimous == pytest.approx(oracle_u, rel=1e-10)
        assert verdict.loglik_binomial == pytest.approx(oracle_b, rel=1e-10)

    def test_too_many_detectors_rejected(self):
        n = MAX_DETECTORS + 1
        with pytest.raises(ValueError, match="packing"):
            decide(table(np.zeros((3, n), dtype=np.int8)), P_HALF, ErrorModel.ideal(n))

    def test_detector_count_must_match_error_model(self):
        with pytest.raises(ValueError, match="error model"):
            decide(table([(0, 0, 0)]), P_HALF, NO_ERR)

    def test_outcome_other_than_bit_rejected(self):
        with pytest.raises(ValueError):
            decide(table([(0, 2)]), P_HALF, NO_ERR)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            decide(table([]), P_HALF, NO_ERR)
        with pytest.raises(EmptyInputError):
            decide(table(np.zeros((0, 2), dtype=np.int8)), P_HALF, NO_ERR)

    def test_ragged_records(self):
        with pytest.raises(ValueError):
            decide(table([(0, 0), (0,)]), P_HALF, NO_ERR)

    def test_one_dimensional_outcomes_rejected(self):
        with pytest.raises(ValueError, match=r"^expected an \(M, N\) array of outcomes, got shape \(2,\)$"):
            table(np.array([0, 1], dtype=np.int8))

    def test_forbidden_pattern_emits_no_warning(self):
        data = np.array([(0, 0)] * 5 + [(0, 1)] * 3, dtype=np.int8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = decide(table(data), P_HALF, NO_ERR)
            both_forbidden = decide(table(data), OutcomeProbabilities(1.0), NO_ERR)
        assert verdict.loglik_unanimous == -math.inf
        assert both_forbidden.loglik_binomial == -math.inf


class TestDecide:
    def test_unanimous_data_decides_unanimous(self):
        data = [(0, 0)] * 40 + [(1, 1)] * 60
        verdict = decide(table(data), P_HALF, NO_ERR)
        assert verdict.decision == DECISION_UNANIMOUS
        assert verdict.log_odds == pytest.approx(100 * math.log(2), rel=1e-12)
        assert verdict.confidence > 0.999

    def test_forbidden_pattern_decides_binomial_with_certainty(self):
        data = [(0, 0)] * 10 + [(0, 1)]
        verdict = decide(table(data), P_HALF, NO_ERR)
        assert verdict.decision == DECISION_BINOMIAL
        assert verdict.loglik_unanimous == -math.inf
        assert verdict.confidence == 1.0

    def test_split_data_decides_binomial(self):
        rng = np.random.default_rng(54)
        data, _ = Binomial().draw(P_HALF, 2, rng, 100)
        data = data.tolist()
        verdict = decide(table(data), P_HALF, ErrorModel([0.01, 0.01]))
        assert verdict.decision == DECISION_BINOMIAL
        assert math.isfinite(verdict.log_odds)

    def test_small_sample_near_basis_state_is_inconclusive(self):
        probs = OutcomeProbabilities(0.99)
        m = required_trials(probs, 0.001, NO_ERR) - 1
        data = [(0, 0)] * m
        verdict = decide(table(data), probs, NO_ERR)
        assert verdict.decision == DECISION_INCONCLUSIVE

    def test_impossible_under_both_is_inconclusive(self):
        probs = OutcomeProbabilities(1.0)
        verdict = decide(table([(1, 1)]), probs, NO_ERR)
        assert verdict.decision == DECISION_INCONCLUSIVE
        assert verdict.confidence == 0.5

    def test_prior_shifts_odds(self):
        data = [(0, 0)] * 3
        with_prior = decide(table(data), P_HALF, NO_ERR, prior_log_odds=1.5)
        without = decide(table(data), P_HALF, NO_ERR)
        assert with_prior.log_odds == pytest.approx(without.log_odds + 1.5, rel=1e-12)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            decide(table([(0, 0)]), P_HALF, NO_ERR, log_odds_threshold=0.0)

    def test_scenario1_never_loses_to_binomial_without_misreads(self):
        rng = np.random.default_rng(55)
        for p0 in (0.2, 0.5, 0.8):
            probs = OutcomeProbabilities(p0)
            data = Unanimous().draw(probs, 2, rng, 50)[0].tolist()
            verdict = decide(table(data), probs, NO_ERR)
            assert verdict.loglik_unanimous > verdict.loglik_binomial  # strict for 0 < p0 < 1


class TestRequiredTrials:
    def test_symmetric_state_reference(self):
        assert required_trials(P_HALF, math.exp(-1), NO_ERR) == 2

    def test_alpha_one_floor(self):
        assert required_trials(P_HALF, 1.0, NO_ERR) == 1

    def test_near_basis_state_value(self):
        probs = OutcomeProbabilities(0.99)
        # independent oracle: walk the zero-disagreement probability down
        q = 2 * 0.99 * 0.01
        m, survival = 0, 1.0
        while survival > 0.001:
            survival *= 1 - q
            m += 1
        assert required_trials(probs, 0.001, NO_ERR) == m
        assert m == math.ceil(math.log(0.001) / math.log(1 - q))

    def test_asymptotic_scaling(self):
        # M ~ ln(1/alpha)/(2 p0 p1) once the state is nearly a basis state
        for target in (0.01, 0.005, 0.001):
            p0 = (1 + math.sqrt(1 - 4 * target)) / 2  # p0*p1 = target
            probs = OutcomeProbabilities(p0)
            for alpha in (0.01, 0.001):
                m = required_trials(probs, alpha, NO_ERR)
                ratio = m * 2 * probs.p0 * probs.p1 / math.log(1 / alpha)
                assert ratio == pytest.approx(1.0, abs=0.05)

    def test_monotone_in_overlap_and_alpha(self):
        values = [
            required_trials(OutcomeProbabilities(p0), 0.01, NO_ERR) for p0 in (0.5, 0.7, 0.9, 0.99)
        ]
        assert values == sorted(values)
        alphas = [required_trials(P_HALF, a, NO_ERR) for a in (0.2, 0.1, 0.01, 0.001)]
        assert alphas == sorted(alphas)

    def test_misreads_increase_requirement_toward_half(self):
        # misreads push the effective split toward 1/2, which *lowers* M for
        # skewed states: the adjusted disagreement rate grows
        probs = OutcomeProbabilities(0.99)
        base = required_trials(probs, 0.01, NO_ERR)
        noisy = required_trials(probs, 0.01, ErrorModel([0.1, 0.1]))
        assert noisy < base

    def test_no_discrimination(self):
        with pytest.raises(NoDiscriminationError):
            required_trials(OutcomeProbabilities(1.0), 0.01, NO_ERR)

    def test_uncountable_trials_are_no_discrimination(self):
        # q ~ 1e-323: ln(alpha) / ln(1 - q) overflows a float
        with pytest.raises(NoDiscriminationError, match="too small"):
            required_trials(OutcomeProbabilities(5e-324), 0.01, NO_ERR)

    @pytest.mark.parametrize("eps", [(0.0, 0.0, 0.0), (0.01, 0.05, 0.2)])
    def test_three_detectors_match_pattern_enumeration(self, eps):
        probs = OutcomeProbabilities(0.9)
        p_eff = [probs.p0 * (1 - e) + probs.p1 * e for e in eps]
        q = enumerate_disagreement_probability(p_eff)
        for alpha in (0.05, 0.01, 0.001):
            # independent oracle: walk the all-agree probability down
            m, survival = 0, 1.0
            while survival > alpha:
                survival *= 1 - q
                m += 1
            assert required_trials(probs, alpha, ErrorModel(eps)) == m

    def test_more_detectors_need_fewer_trials(self):
        probs = OutcomeProbabilities(0.99)
        values = [required_trials(probs, 0.01, ErrorModel.ideal(n)) for n in (2, 3, 8)]
        assert values == sorted(values, reverse=True)
        assert values[0] > values[-1]

    @pytest.mark.parametrize(
        "n, alpha, expected",
        [(55, 0.01, 1), (56, 0.01, 1), (64, 0.01, 1), (55, 1e-30, 2), (64, 1e-30, 2),
         (56, 1e-300, 19), (64, 1e-300, 16)],
    )
    def test_near_certain_disagreement(self, n, alpha, expected):
        # q = 1 - 2^(1-n) rounds to 1, so ln(1 - q) must come from the agreeing
        # terms: M = ceil(ln alpha / ((1 - n) ln 2))
        assert math.ceil(math.log(alpha) / ((1 - n) * math.log(2))) == expected
        assert required_trials(P_HALF, alpha, ErrorModel.ideal(n)) == expected

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            required_trials(P_HALF, 0.0, NO_ERR)
        with pytest.raises(ValueError):
            required_trials(P_HALF, 1.5, NO_ERR)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 8]),
        p0=st.sampled_from([0.0, 5e-324, 1e-300, 1e-16, 0.3, 0.5, 1 - 1e-16, 1.0]),
        eps=st.lists(st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 0.25, 0.49999999, 0.5 - 2**-53]), min_size=8),
        agreeing=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_edge_states_give_no_nan_and_a_positive_disagreement(self, n, p0, eps, agreeing, seed):
        # decide writes log_odds 0.0 when both laws give -inf, so no verdict field is NaN; with p0 * p1 > 0 and
        # every eps in [0, 0.5) each effective p lies strictly inside (0, 1), so the disagreement sum is positive
        # and required_trials gives a count or says that it is too small to count trials
        rng = np.random.default_rng(seed)
        outcomes = rng.integers(0, 2, size=(20, n))
        if agreeing:
            outcomes[:] = outcomes[:, :1]
        probs, err = OutcomeProbabilities(p0), ErrorModel(eps[:n])
        verdict = decide(table(outcomes), probs, err)
        assert not any(map(math.isnan, [verdict.loglik_unanimous, verdict.loglik_binomial, verdict.log_odds]))
        assert not math.isnan(verdict.confidence)
        for alpha in (0.05, 0.01, 0.001):
            try:
                assert required_trials(probs, alpha, err) >= 1
            except NoDiscriminationError as exc:
                assert str(exc).startswith("p0*p1 = 0") or str(exc).endswith("too small to count trials")


class TestVerdictAtRequiredTrials:
    """decide's verdict law at required_trials' M, exact over every pattern table of two detectors."""

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    @pytest.mark.parametrize("p0", [0.5, 0.9])
    def test_wrong_verdict_at_most_alpha(self, p0, eps, alpha):
        # the count promises a verdict it may not deliver (inconclusive), but never a wrong one beyond alpha
        probs = OutcomeProbabilities(p0)
        m = required_trials(probs, alpha, ErrorModel([eps, eps]))
        for truth, wrong in ((DECISION_UNANIMOUS, DECISION_BINOMIAL), (DECISION_BINOMIAL, DECISION_UNANIMOUS)):
            law = verdict_law(probs, (eps, eps), m, truth)
            assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
            assert law[wrong] <= alpha

    def test_closed_forms(self):
        # p0 = 0.5: 7 binomial trials all agree with probability 0.5**7, and 7 ln 2 > ln 100 decides unanimous;
        # any disagreement rules the unanimous law out
        assert required_trials(P_HALF, 0.01, NO_ERR) == 7
        law = verdict_law(P_HALF, (0.0, 0.0), 7, DECISION_BINOMIAL)
        assert law[DECISION_UNANIMOUS] == pytest.approx(0.5**7, rel=1e-12)
        assert law[DECISION_INCONCLUSIVE] == 0.0
        # p0 = 0.9: 24 unanimous trials with no 1 score 24 ln(1/0.9) < ln 100, and one 1 lifts them past it
        probs = OutcomeProbabilities(0.9)
        assert required_trials(probs, 0.01, NO_ERR) == 24
        law = verdict_law(probs, (0.0, 0.0), 24, DECISION_UNANIMOUS)
        assert law[DECISION_INCONCLUSIVE] == pytest.approx(0.9**24, rel=1e-12)
        assert law[DECISION_BINOMIAL] == 0.0


def exact_log(x: Decimal) -> float:
    return float(x.ln()) if x > 0 else -math.inf


class TestTwoDetectorReduction:
    """The N-detector formulas at N = 2 equal the two-detector closed forms."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        p0=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        eps=st.floats(0.0, 0.5, exclude_max=True),
        alpha=st.sampled_from([0.05, 0.01, 0.001]) | st.floats(1e-12, 1.0, exclude_max=True),
    )
    def test_n2_reduction(self, p0, eps, alpha):
        probs = OutcomeProbabilities(p0)
        err = ErrorModel([eps, eps])
        p0_eff = probs.p0 * (1.0 - eps) + probs.p1 * eps
        p1_eff = 1.0 - p0_eff

        quotient = math.log(alpha) / math.log1p(-2.0 * p0_eff * p1_eff)
        if math.isinf(quotient):
            with pytest.raises(NoDiscriminationError):
                required_trials(probs, alpha, err)
        # one ulp in q may move the ceiling of a quotient this close to an integer
        elif abs(quotient - round(quotient)) > 1e-9:
            assert required_trials(probs, alpha, err) == math.ceil(quotient)

        with localcontext() as ctx:
            ctx.prec = 60
            d0, d1, de = Decimal(probs.p0), Decimal(probs.p1), Decimal(eps)
            keep = 1 - de
            unanimous = {
                (0, 0): d0 * keep**2 + d1 * de**2,
                (0, 1): (d0 + d1) * de * keep,
                (1, 0): (d0 + d1) * de * keep,
                (1, 1): d0 * de**2 + d1 * keep**2,
            }
            unanimous = {pattern: exact_log(p) for pattern, p in unanimous.items()}
        for pattern in unanimous:
            zeros = pattern.count(0)
            binomial = zeros * math.log(p0_eff) + (2 - zeros) * math.log(p1_eff)
            verdict = decide(table([pattern]), probs, err)
            assert_close(verdict.loglik_unanimous, unanimous[pattern])
            assert_close(verdict.loglik_binomial, binomial)


def assert_close(got, expected):
    if math.isinf(expected):
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=1e-12)


class TestCalibration:
    def test_decisions_track_generating_scenario(self):
        rng = np.random.default_rng(56)
        reps = 300
        for p0 in (0.5, 0.9):
            probs = OutcomeProbabilities(p0)
            m = required_trials(probs, 0.01, NO_ERR)
            wrong_unanimous = wrong_binomial = 0
            for _ in range(reps):
                data_u = Unanimous().draw(probs, 2, rng, m)[0].tolist()
                if decide(table(data_u), probs, NO_ERR).decision == DECISION_BINOMIAL:
                    wrong_unanimous += 1
                data_b = Binomial().draw(probs, 2, rng, m)[0].tolist()
                if decide(table(data_b), probs, NO_ERR).decision == DECISION_UNANIMOUS:
                    wrong_binomial += 1
            assert wrong_unanimous / reps <= 0.02
            assert wrong_binomial / reps <= 0.02


class TestErrorModel:
    def test_rejects_anticorrelated_detectors(self):
        with pytest.raises(ValueError):
            ErrorModel([0.5, 0.1])
        with pytest.raises(ValueError):
            ErrorModel([-0.01, 0.1])
