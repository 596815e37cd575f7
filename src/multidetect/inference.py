"""Likelihood-based decision between the unanimous and binomial outcome laws.

Both hypotheses are scored on the observed per-trial outcome patterns
through a misread layer: detector a flips its latched bit with probability
eps_a.  Under the unanimous law a trial pattern has probability

    P(pattern) = sum_sigma p_sigma * prod_a l(o_a | sigma),

with one latent bit shared by all detectors, while under the binomial law
the detectors are independent,

    P(pattern) = prod_a sum_sigma p_sigma * l(o_a | sigma),

where l(o|s) = eps_a if o != s else 1 - eps_a.  The log odds of the two
hypotheses decide the verdict; misreads absorb into an effective flip
probability per detector on the binomial side, which is used throughout.

Both log likelihoods depend on the data only through how many trials show
each of the 2^N outcome patterns: a ``PatternTable`` packs each trial's
pattern into one integer code (so N <= ``MAX_DETECTORS``) and counts the
codes, and every distinct pattern is scored once, weighted by its count.

``required_trials`` inverts the zero-disagreement probability: it returns
the smallest M at which the binomial law would produce at least one trial
in which the N detectors do not all agree with probability 1 - alpha, the
operational form of "enough trials to tell the laws apart".
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyInputError, NoDiscriminationError
from .state import OutcomeProbabilities, outcome_bits

#: Decisive Bayes-factor default: |log odds| below ln(100) is inconclusive.
DEFAULT_LOG_ODDS_THRESHOLD = math.log(100.0)

#: Each trial's outcome pattern is packed into one uint64, a bit per detector.
MAX_DETECTORS = 64

#: Distinct patterns scored at a time, which bounds scoring's (k, N) temporaries.
SCORE_SLICE = 4096

DECISION_UNANIMOUS = "unanimous"
DECISION_BINOMIAL = "binomial"
DECISION_INCONCLUSIVE = "inconclusive"


class ErrorModel:
    """Per-detector misread probabilities, each strictly below 1/2."""

    __slots__ = ("eps",)

    def __init__(self, eps):
        eps = tuple(float(e) for e in eps)
        for e in eps:
            if not 0.0 <= e < 0.5:
                raise ValueError(f"misread probability {e} outside [0, 0.5)")
        self.eps = eps

    @classmethod
    def ideal(cls, n_detectors: int) -> "ErrorModel":
        return cls((0.0,) * n_detectors)


class ScenarioVerdict(NamedTuple):
    """Both log likelihoods, their odds, and the thresholded decision."""

    loglik_unanimous: float
    loglik_binomial: float
    log_odds: float
    decision: str
    confidence: float


class PatternTable:
    """How many trials show each distinct outcome pattern of N detectors.

    ``codes`` are sorted and distinct, bit a of a code being detector a's
    outcome; ``counts`` (int64) are their numbers of trials.
    """

    __slots__ = ("codes", "counts", "n_detectors")

    def __init__(self, codes: np.ndarray, counts: np.ndarray, n_detectors: int):
        self.codes, self.counts, self.n_detectors = codes, counts, n_detectors

    @classmethod
    def from_outcomes(cls, outcomes: Sequence | np.ndarray, counts=None) -> "PatternTable":
        """The table of an (M, N) array-like of 0/1 outcomes; row i stands for counts[i] trials, or one."""
        outcomes = np.asarray(outcomes)
        if len(outcomes) == 0:
            raise EmptyInputError("no trials to score")
        if outcomes.ndim != 2:
            raise ValueError(f"expected an (M, N) array of outcomes, got shape {outcomes.shape}")
        n = outcomes.shape[1]
        if n > MAX_DETECTORS:
            raise ValueError(f"{n} detectors exceed the packing limit of {MAX_DETECTORS}")
        codes = outcome_bits(outcomes).astype(np.uint64) @ (np.uint64(1) << np.arange(n, dtype=np.uint64))
        return cls._tally(codes, counts, n)

    @classmethod
    def merge(cls, tables: Sequence["PatternTable"]) -> "PatternTable":
        """One table holding the trials of all ``tables``, which share their detector count."""
        codes = np.concatenate([t.codes for t in tables])
        return cls._tally(codes, np.concatenate([t.counts for t in tables]), tables[0].n_detectors)

    @classmethod
    def _tally(cls, codes: np.ndarray, counts, n: int) -> "PatternTable":
        if counts is None:  # one trial per code: counting needs no inverse, which costs twice as much
            return cls(*np.unique(codes, return_counts=True), n)
        distinct, inverse = np.unique(codes, return_inverse=True)
        totals = np.zeros(len(distinct), dtype=np.int64)
        np.add.at(totals, inverse, counts)
        return cls(distinct, totals, n)

    @property
    def n_trials(self) -> int:
        return int(self.counts.sum())

    def patterns(self, rows: slice = slice(None)) -> np.ndarray:
        """The distinct patterns, or the ``rows`` slice of them, as a (K, N) array of 0/1 outcomes, in code order."""
        return (self.codes[rows, None] >> np.arange(self.n_detectors, dtype=np.uint64)) & np.uint64(1)

    def __eq__(self, other) -> bool:
        same = isinstance(other, PatternTable) and self.n_detectors == other.n_detectors
        return same and np.array_equal(self.codes, other.codes) and np.array_equal(self.counts, other.counts)


def _log(x: np.ndarray) -> np.ndarray:
    """Natural log with log(0) = -inf and no divide-by-zero warning."""
    return np.log(x, out=np.full(np.shape(x), -np.inf), where=x > 0.0)


def _effective(probs: OutcomeProbabilities, err: ErrorModel) -> np.ndarray:
    """Each detector's probability p~_a = p0 (1 - eps_a) + p1 eps_a of reading 0 under the binomial law."""
    eps = np.asarray(err.eps)
    return probs.p0 * (1.0 - eps) + probs.p1 * eps


def _pattern_logliks(table: PatternTable, probs: OutcomeProbabilities, err: ErrorModel):
    """Each distinct pattern's log probability under the unanimous law and under the binomial law, in code order.

    The patterns are unpacked ``SCORE_SLICE`` at a time, which bounds the
    (k, N) temporaries, and each slice is scored under both laws.  A pattern
    impossible under a law scores -inf rather than raising.
    """
    if table.n_detectors != len(err.eps):
        raise ValueError(f"trials have {table.n_detectors} detectors but the error model has {len(err.eps)}")
    eps = np.asarray(err.eps)
    log_miss, log_hit = _log(eps), np.log1p(-eps)
    log_branches = _log(probs.p0), _log(probs.p1)
    effective = _effective(probs, err)
    log_zero, log_one = _log(effective), _log(1.0 - effective)
    k = len(table.codes)
    unanimous, binomial = np.empty(k), np.empty(k)
    for start in range(0, k, SCORE_SLICE):
        rows = slice(start, start + SCORE_SLICE)
        patterns = table.patterns(rows)
        # sum logs per latent branch: a product of many small misreads would underflow
        branches = [
            log_p + np.where(patterns != sigma, log_miss, log_hit).sum(axis=1)
            for sigma, log_p in enumerate(log_branches)
        ]
        unanimous[rows] = np.logaddexp(*branches)
        binomial[rows] = np.where(patterns == 0, log_zero, log_one).sum(axis=1)
    return unanimous, binomial


def loglik_unanimous(table: PatternTable, probs: OutcomeProbabilities, err: ErrorModel) -> float:
    """Log likelihood of the trials under the one-shared-bit law.

    Each distinct outcome pattern is scored once and weighted by the number
    of trials that show it.  A pattern impossible under the law yields -inf
    rather than raising.
    """
    return float((table.counts * _pattern_logliks(table, probs, err)[0]).sum())


def loglik_binomial(table: PatternTable, probs: OutcomeProbabilities, err: ErrorModel) -> float:
    """Log likelihood of the trials under the independent-detectors law."""
    return float((table.counts * _pattern_logliks(table, probs, err)[1]).sum())


def decide(
    table: PatternTable,
    probs: OutcomeProbabilities,
    err: ErrorModel,
    log_odds_threshold: float = DEFAULT_LOG_ODDS_THRESHOLD,
    prior_log_odds: float = 0.0,
) -> ScenarioVerdict:
    """Score both laws on the trials' pattern table and return the thresholded verdict.

    log_odds = loglik_unanimous - loglik_binomial (+ prior, zero by
    default); |log_odds| below the threshold is inconclusive.  Confidence
    is the posterior mass of the winning law under equal priors.
    """
    if log_odds_threshold <= 0.0:
        raise ValueError("log_odds_threshold must be positive")
    ll_u, ll_b = (float((table.counts * values).sum()) for values in _pattern_logliks(table, probs, err))
    if ll_u == -math.inf and ll_b == -math.inf:
        # impossible under both laws (degenerate state with forbidden data)
        return ScenarioVerdict(ll_u, ll_b, 0.0, DECISION_INCONCLUSIVE, 0.5)
    log_odds = ll_u - ll_b + prior_log_odds
    if log_odds >= log_odds_threshold:
        decision = DECISION_UNANIMOUS
    elif log_odds <= -log_odds_threshold:
        decision = DECISION_BINOMIAL
    else:
        decision = DECISION_INCONCLUSIVE
    confidence = 1.0 / (1.0 + math.exp(-abs(log_odds))) if math.isfinite(log_odds) else 1.0
    return ScenarioVerdict(ll_u, ll_b, log_odds, decision, confidence)


def required_trials(probs: OutcomeProbabilities, alpha: float, err: ErrorModel) -> int:
    """Smallest M at which all-agreeing data rules out the binomial law at level alpha.

    Solves (1 - q)^M <= alpha for the per-trial probability q that not all
    N detectors agree under the binomial law with misreads absorbed,
    q = 1 - prod p~_a - prod (1 - p~_a)  (q = 2 p~0 p~1 for two equal
    detectors).  Scales as 1/(2 p0 p1) for N = 2: states closer to a basis
    state need proportionally more trials.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if probs.p0 * probs.p1 == 0.0:
        raise NoDiscriminationError(
            "p0*p1 = 0: both laws predict identical (unanimous) data"
        )
    # add detectors one at a time: the newcomer breaks unanimity with
    # probability all0 * (1 - p) + all1 * p; a sum of non-negative terms
    # keeps q accurate when it is tiny
    effective = _effective(probs, err).tolist()
    all0, all1 = effective[0], 1.0 - effective[0]
    disagree = 0.0
    for p in effective[1:]:
        disagree += all0 * (1.0 - p) + all1 * p
        all0, all1 = all0 * p, all1 * (1.0 - p)
    if alpha == 1.0:
        return 1
    # once the summed disagreement rounds to 1, 1 - q is all0 + all1 exactly
    log_agree = math.log1p(-disagree) if disagree < 1.0 else math.log(all0 + all1)
    trials = math.log(alpha) / log_agree
    if math.isinf(trials):
        raise NoDiscriminationError(f"disagreement probability {disagree:.3g} is too small to count trials")
    return max(1, math.ceil(trials))
