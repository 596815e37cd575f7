import math
from itertools import product

import numpy as np
import pytest

from oracles import chisq_gof_pvalue, enumerate_count_probability, exact_binom_pmf
from multidetect.errors import InvalidPmfError, OutOfRangeError
from multidetect.scenarios import (
    Binomial,
    Custom,
    Unanimous,
    binomial_pmf,
)
from multidetect.state import OutcomeProbabilities

P_HALF = OutcomeProbabilities(0.5)
P_036 = OutcomeProbabilities(0.36)


class TestBinomialPmf:
    def test_two_detector_split(self):
        # oracle: 2 of the 4 equally likely patterns have one zero
        patterns = list(product((0, 1), repeat=2))
        oracle = sum(0.25 for p in patterns if p.count(0) == 1)
        assert binomial_pmf(2, 1, P_HALF) == oracle == 0.5

    def test_certain_outcome(self):
        assert binomial_pmf(5, 5, OutcomeProbabilities(1.0)) == 1.0

    def test_three_detector_asymmetric(self):
        oracle = enumerate_count_probability(3, 2, 0.36)
        assert oracle == pytest.approx(0.248832, abs=1e-15)
        assert binomial_pmf(3, 2, P_036) == pytest.approx(oracle, rel=1e-14)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            binomial_pmf(3, 4, P_HALF)
        with pytest.raises(OutOfRangeError):
            binomial_pmf(3, -1, P_HALF)
        with pytest.raises(OutOfRangeError, match="^need at least one detector$"):
            binomial_pmf(0, 0, P_HALF)

    @pytest.mark.parametrize("n", [1, 10, 59, 60, 61, 100, 500, 1000])
    def test_normalization(self, n):
        rng = np.random.default_rng(42)
        for p0 in rng.uniform(0.001, 0.999, size=20):
            probs = OutcomeProbabilities(float(p0))
            total = sum(binomial_pmf(n, k, probs) for k in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [10, 60, 61, 1000])
    def test_mean_identity(self, n):
        rng = np.random.default_rng(43)
        for p0 in rng.uniform(0.001, 0.999, size=5):
            probs = OutcomeProbabilities(float(p0))
            mean = sum(k * binomial_pmf(n, k, probs) for k in range(n + 1))
            assert mean == pytest.approx(n * probs.p0, abs=1e-9)

    def test_matches_exact_integer_arithmetic_below_cutoff(self):
        for n in (7, 33, 60):
            for k in (0, 1, n // 2, n):
                assert binomial_pmf(n, k, P_036) == pytest.approx(
                    exact_binom_pmf(n, k, 0.36), rel=1e-13
                )


def zero_counts(bits):
    return (bits == 0).sum(axis=1)


class TestUnanimous:
    def test_certain_zero(self):
        rng = np.random.default_rng(0)
        bits, latent = Unanimous().draw(OutcomeProbabilities(1.0), 4, rng, 10)
        assert bits.shape == (10, 4)
        assert np.all(bits == 0)
        assert np.all(latent == 0)

    def test_certain_one(self):
        rng = np.random.default_rng(0)
        bits, latent = Unanimous().draw(OutcomeProbabilities(0.0), 4, rng, 10)
        assert np.all(bits == 1)
        assert np.all(latent == 1)

    def test_every_trial_internally_constant(self):
        rng = np.random.default_rng(1)
        bits, latent = Unanimous().draw(P_036, 5, rng, 200)
        assert np.all(bits == latent[:, None])

    def test_collective_bit_frequency(self):
        rng = np.random.default_rng(2)
        trials = 10**5
        _, latent = Unanimous().draw(P_HALF, 2, rng, trials)
        zeros = int(np.sum(latent == 0))
        band = 4 * math.sqrt(0.25 / trials)
        assert abs(zeros / trials - 0.5) < band


class TestBinomialTrials:
    def test_certain_zero(self):
        rng = np.random.default_rng(0)
        bits, latent = Binomial().draw(OutcomeProbabilities(1.0), 7, rng, 10)
        assert bits.shape == (10, 7)
        assert np.all(bits == 0)
        assert latent is None

    def test_two_detector_disagreement_rate(self):
        # oracle: of the 4 equally likely patterns, 2 disagree -> 0.5 = 2*p0*p1
        rng = np.random.default_rng(3)
        trials = 10**5
        bits, _ = Binomial().draw(P_HALF, 2, rng, trials)
        disagree = int(np.sum(bits[:, 0] != bits[:, 1]))
        band = 4 * math.sqrt(0.25 / trials)
        assert abs(disagree / trials - 0.5) < band

    def test_large_n_count_mean(self):
        rng = np.random.default_rng(4)
        trials = 10**4
        bits, _ = Binomial().draw(P_036, 100, rng, trials)
        total = int(zero_counts(bits).sum())
        # binomial moments: mean 36, sd of the sample mean = sqrt(p0*p1/trials)*100
        band = 4 * math.sqrt(0.36 * 0.64 / trials) * 100
        assert abs(total / trials - 36.0) < band

    def test_count_distribution_matches_pmf(self):
        rng = np.random.default_rng(5)
        n, trials = 10, 10**5
        bits, _ = Binomial().draw(P_036, n, rng, trials)
        counts = np.bincount(zero_counts(bits), minlength=n + 1)
        expected = [binomial_pmf(n, k, P_036) for k in range(n + 1)]
        assert chisq_gof_pvalue(counts, expected) > 0.001


class TestCustomTrials:
    def test_point_mass_all_zero(self):
        rng = np.random.default_rng(6)
        scenario = Custom([0, 0, 0, 0, 1])
        probs = OutcomeProbabilities(1.0)
        bits, latent = scenario.draw(probs, 4, rng, 20)
        assert np.all(bits == 0)
        assert latent is None

    def test_binomial_pmf_reproduces_binomial_statistics(self):
        n = 6
        pmf = [binomial_pmf(n, k, P_036) for k in range(n + 1)]
        pmf = [p / sum(pmf) for p in pmf]
        scenario = Custom(pmf)
        rng = np.random.default_rng(7)
        trials = 10**4
        bits, _ = scenario.draw(P_036, n, rng, trials)
        counts = np.bincount(zero_counts(bits), minlength=n + 1)
        expected = [binomial_pmf(n, k, P_036) for k in range(n + 1)]
        assert chisq_gof_pvalue(counts, expected) > 0.001

    def test_two_point_pmf_recovers_unanimity(self):
        # mass p1 on zero-count 0 and p0 on zero-count N has mean p0*N
        probs = P_036
        scenario = Custom([probs.p1, 0, 0, 0, probs.p0])
        rng = np.random.default_rng(8)
        bits, _ = scenario.draw(probs, 4, rng, 200)
        assert np.all(bits == bits[:, :1])

    def test_detector_assignment_uniform_over_subsets(self):
        # with the count pinned at 1, each of the N slots is 0 equally often
        scenario = Custom([0, 1, 0, 0, 0])
        probs = OutcomeProbabilities(0.25)
        rng = np.random.default_rng(9)
        trials = 8000
        bits, _ = scenario.draw(probs, 4, rng, trials)
        assert np.all(zero_counts(bits) == 1)
        slot_counts = np.bincount(np.argmin(bits, axis=1), minlength=4)
        assert chisq_gof_pvalue(slot_counts, [0.25] * 4) > 0.001

    def test_invalid_pmfs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidPmfError):  # wrong length
            Custom([1.0]).draw(P_HALF, 3, rng, 1)
        with pytest.raises(InvalidPmfError):  # negative entry
            Custom([0.6, 0.5, -0.1, 0, 0]).draw(P_HALF, 4, rng, 1)
        with pytest.raises(InvalidPmfError):  # sum != 1
            Custom([0.3, 0.3, 0.3, 0.0, 0.0]).draw(P_HALF, 4, rng, 1)
        with pytest.raises(InvalidPmfError):  # mean violates p0*N
            Custom([1.0, 0, 0, 0, 0]).draw(P_HALF, 4, rng, 1)

