"""Outcome patterns under the competing readout laws, a block of trials at a time.

Each scenario's ``draw`` fills a (trials, N) array of latched bits for N
detectors watching one prepared two-level system:

* unanimous: one collective bit per trial, copied onto every detector;
* binomial: one independent bit per detector, so the number of detectors
  reading 0 follows the binomial counting law;
* custom: the count of detectors reading 0 is drawn from a user-supplied
  pmf constrained to the same mean, and the identities of the detectors
  reading 0 are uniform over subsets.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidPmfError, OutOfRangeError
from .state import OutcomeProbabilities, count_pmf

#: |sum(pmf) - 1| above this is rejected outright.
PMF_SUM_TOLERANCE = 1e-12
#: |mean(pmf) - p0*N| above this violates the mean constraint.
PMF_MEAN_TOLERANCE = 1e-9


class Unanimous:
    """All detectors latch the same collective bit each trial."""

    kind = "unanimous"

    def draw(
        self, probs: OutcomeProbabilities, n_detectors: int, rng: np.random.Generator, size: int
    ):
        """Bits (size, N) and the latent bit per trial: one uniform per trial."""
        latent = (rng.random(size) >= probs.p0).astype(np.int8)
        return np.repeat(latent[:, None], n_detectors, axis=1), latent


class Binomial:
    """Each detector latches its own independent bit each trial."""

    kind = "binomial"

    def draw(
        self, probs: OutcomeProbabilities, n_detectors: int, rng: np.random.Generator, size: int
    ):
        """Bits (size, N), 0 with probability p0 each; no latent bit."""
        return (rng.random((size, n_detectors)) >= probs.p0).astype(np.int8), None


class Custom:
    """Zero-count pmf over {0..N} with the standard mean, free otherwise.

    Generation only; the inference engine does not score this law.
    """

    __slots__ = ("pmf",)
    kind = "custom"

    def __init__(self, pmf):
        self.pmf = tuple(float(p) for p in pmf)

    def validate(self, probs: OutcomeProbabilities, n_detectors: int) -> None:
        """Raise InvalidPmfError unless the pmf is admissible for (probs, N)."""
        if len(self.pmf) != n_detectors + 1:
            raise InvalidPmfError(
                f"pmf has {len(self.pmf)} entries, need {n_detectors + 1} for N={n_detectors}"
            )
        if any(p < 0.0 for p in self.pmf):
            raise InvalidPmfError("pmf entries must be non-negative")
        total = sum(self.pmf)
        if abs(total - 1.0) > PMF_SUM_TOLERANCE:
            raise InvalidPmfError(f"pmf sums to {total!r}, not 1")
        mean = sum(k * p for k, p in enumerate(self.pmf))
        target = probs.p0 * n_detectors
        if abs(mean - target) > PMF_MEAN_TOLERANCE:
            raise InvalidPmfError(
                f"pmf mean {mean!r} violates the mean constraint p0*N = {target!r}"
            )

    def draw(
        self, probs: OutcomeProbabilities, n_detectors: int, rng: np.random.Generator, size: int
    ):
        """Bits (size, N): the zero-count from the pmf, its slots uniform; no latent bit.

        The pmf fixes only how many detectors read 0; which ones do is uniform
        over the C(N, N0) subsets, the maximum-entropy completion: the N0
        detectors with the smallest of N uniform keys read 0.  Draws one
        uniform per trial for the count, then N keys per trial.
        """
        self.validate(probs, n_detectors)
        pmf = np.asarray(self.pmf)
        cdf = np.cumsum(pmf / pmf.sum())
        n_zero = np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), n_detectors)
        ranks = rng.random((size, n_detectors)).argsort(axis=1).argsort(axis=1)
        return (ranks >= n_zero[:, None]).astype(np.int8), None


ScenarioKind = Unanimous | Binomial | Custom


def binomial_pmf(n_detectors: int, n_zero: int, probs: OutcomeProbabilities) -> float:
    """Probability that exactly n_zero of n_detectors read 0 under the binomial law."""
    if n_detectors < 1:
        raise OutOfRangeError("need at least one detector")
    return count_pmf(n_detectors, n_zero, probs.p0)

