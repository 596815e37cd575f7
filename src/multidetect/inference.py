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

``required_trials`` inverts the zero-disagreement probability: it returns
the smallest M at which the binomial law would produce at least one trial
in which the N detectors do not all agree with probability 1 - alpha, the
operational form of "enough trials to tell the laws apart".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .counting import count_log_pmf
from .errors import NoDiscriminationError
from .experiment import ExperimentSummary, TrialRecord
from .scenarios import TrialOutcome
from .state import OutcomeProbabilities

#: Decisive Bayes-factor default: |log odds| below ln(100) is inconclusive.
DEFAULT_LOG_ODDS_THRESHOLD = math.log(100.0)

DECISION_UNANIMOUS = "unanimous"
DECISION_BINOMIAL = "binomial"
DECISION_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ErrorModel:
    """Per-detector misread probabilities, each strictly below 1/2."""

    eps: tuple[float, ...]

    def __init__(self, eps):
        eps = tuple(float(e) for e in eps)
        for e in eps:
            if not 0.0 <= e < 0.5:
                raise ValueError(f"misread probability {e} outside [0, 0.5)")
        object.__setattr__(self, "eps", eps)

    @classmethod
    def ideal(cls, n_detectors: int) -> "ErrorModel":
        return cls((0.0,) * n_detectors)

    @property
    def uniform_eps(self) -> float | None:
        """The common misread value, or None if detectors differ."""
        if all(e == self.eps[0] for e in self.eps):
            return self.eps[0]
        return None


@dataclass(frozen=True)
class ScenarioVerdict:
    """Both log likelihoods, their odds, and the thresholded decision."""

    loglik_unanimous: float
    loglik_binomial: float
    log_odds: float
    decision: str
    confidence: float


Patterns = Union[ExperimentSummary, Sequence]


def _iter_patterns(data: Iterable) -> Iterable[tuple[int, ...]]:
    for item in data:
        if isinstance(item, (TrialRecord, TrialOutcome)):
            yield item.outcomes
        else:
            yield tuple(item)


def _flip_prob(probs: OutcomeProbabilities, eps: float) -> float:
    """Effective probability of reading 0 on one detector under the binomial law."""
    return probs.p0 * (1.0 - eps) + probs.p1 * eps


def _pattern_loglik_unanimous(pattern, probs, eps) -> float:
    total = 0.0
    for sigma, p_sigma in ((0, probs.p0), (1, probs.p1)):
        term = p_sigma
        for o, e in zip(pattern, eps):
            term *= e if o != sigma else 1.0 - e
        total += term
    return math.log(total) if total > 0.0 else -math.inf


def _summary_class_logprob_unanimous(n: int, n_zero: int, probs, eps: float) -> float:
    # probability of the whole N0-class: C(N, n_zero) * per-pattern probability
    per_pattern = probs.p0 * eps ** (n - n_zero) * (1 - eps) ** n_zero + probs.p1 * (
        eps**n_zero * (1 - eps) ** (n - n_zero)
    )
    if per_pattern <= 0.0:
        return -math.inf
    return (
        math.lgamma(n + 1)
        - math.lgamma(n_zero + 1)
        - math.lgamma(n - n_zero + 1)
        + math.log(per_pattern)
    )


def _require_uniform_eps(err: ErrorModel) -> float:
    eps = err.uniform_eps
    if eps is None:
        raise ValueError(
            "summary-based likelihoods need a common misread probability; "
            "pass per-trial records for heterogeneous detectors"
        )
    return eps


def loglik_unanimous(data: Patterns, probs: OutcomeProbabilities, err: ErrorModel) -> float:
    """Log likelihood of the data under the one-shared-bit law.

    Accepts per-trial records (patterns scored individually) or an
    ExperimentSummary (scored per zero-count class, which adds a
    hypothesis-independent multiplicity term).  A pattern impossible under
    the law yields -inf rather than raising.
    """
    if isinstance(data, ExperimentSummary):
        eps = _require_uniform_eps(err)
        n = data.n_detectors
        return sum(
            count * _summary_class_logprob_unanimous(n, n_zero, probs, eps)
            for n_zero, count in enumerate(data.histogram_n0)
            if count > 0
        )
    total = 0.0
    for pattern in _iter_patterns(data):
        term = _pattern_loglik_unanimous(pattern, probs, err.eps)
        if term == -math.inf:
            return -math.inf
        total += term
    return total


def loglik_binomial(data: Patterns, probs: OutcomeProbabilities, err: ErrorModel) -> float:
    """Log likelihood of the data under the independent-detectors law."""
    if isinstance(data, ExperimentSummary):
        eps = _require_uniform_eps(err)
        p_eff = _flip_prob(probs, eps)
        n = data.n_detectors
        return sum(
            count * count_log_pmf(n, n_zero, p_eff)
            for n_zero, count in enumerate(data.histogram_n0)
            if count > 0
        )
    effective = [_flip_prob(probs, e) for e in err.eps]
    total = 0.0
    for pattern in _iter_patterns(data):
        for o, p_eff in zip(pattern, effective):
            p = p_eff if o == 0 else 1.0 - p_eff
            if p <= 0.0:
                return -math.inf
            total += math.log(p)
    return total


def decide(
    data: Patterns,
    probs: OutcomeProbabilities,
    err: ErrorModel,
    log_odds_threshold: float = DEFAULT_LOG_ODDS_THRESHOLD,
    prior_log_odds: float = 0.0,
) -> ScenarioVerdict:
    """Score both laws and return the thresholded verdict.

    log_odds = loglik_unanimous - loglik_binomial (+ prior, zero by
    default); |log_odds| below the threshold is inconclusive.  Confidence
    is the posterior mass of the winning law under equal priors.
    """
    if log_odds_threshold <= 0.0:
        raise ValueError("log_odds_threshold must be positive")
    ll_u = loglik_unanimous(data, probs, err)
    ll_b = loglik_binomial(data, probs, err)
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


def required_trials(
    probs: OutcomeProbabilities, alpha: float, err: ErrorModel | None = None
) -> int:
    """Smallest M at which all-agreeing data rules out the binomial law at level alpha.

    Solves (1 - q)^M <= alpha for the per-trial probability q that not all
    N detectors agree under the binomial law with misreads absorbed,
    q = 1 - prod p~_a - prod (1 - p~_a)  (q = 2 p~0 p~1 for two equal
    detectors).  Scales as 1/(2 p0 p1) for N = 2: states closer to a basis
    state need proportionally more trials.  ``err`` defaults to two ideal
    detectors.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if probs.p0 * probs.p1 == 0.0:
        raise NoDiscriminationError(
            "p0*p1 = 0: both laws predict identical (unanimous) data"
        )
    if err is None:
        err = ErrorModel.ideal(2)
    # add detectors one at a time: the newcomer breaks unanimity with
    # probability all0 * (1 - p) + all1 * p; a sum of non-negative terms
    # keeps q accurate when it is tiny
    effective = [_flip_prob(probs, e) for e in err.eps]
    all0, all1 = effective[0], 1.0 - effective[0]
    disagree = 0.0
    for p in effective[1:]:
        disagree += all0 * (1.0 - p) + all1 * p
        all0, all1 = all0 * p, all1 * (1.0 - p)
    if disagree <= 0.0:
        raise NoDiscriminationError("misread-adjusted disagreement probability is zero")
    if alpha == 1.0:
        return 1
    return max(1, math.ceil(math.log(alpha) / math.log1p(-disagree)))
