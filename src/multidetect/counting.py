"""The counting and Gaussian laws shared by the scenarios and the detector models."""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRangeError

#: Largest n evaluated with exact integer coefficients; above this, log-space.
EXACT_LIMIT = 60


def count_pmf(n: int, k: int, p: float) -> float:
    """Probability of k successes in n independent attempts at success rate p.

    Exact integer binomial coefficients up to n = EXACT_LIMIT; log-space
    evaluation beyond that to avoid overflow.
    """
    if not 0 <= k <= n:
        raise OutOfRangeError(f"count {k} outside 0..{n}")
    if p == 0.0:
        return 1.0 if k == 0 else 0.0
    if p == 1.0:
        return 1.0 if k == n else 0.0
    if n <= EXACT_LIMIT:
        return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    return math.exp(
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def gaussian_tail(z: float) -> float:
    """Standard normal upper tail P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def gaussian_density(x, mean: float, std: float):
    """Normal(mean, std^2) density at x, a scalar or an array."""
    # z * z, not z ** 2: numpy squares a scalar with pow(), which can miss the product by a bit
    z = (np.asarray(x, dtype=float) - mean) / std
    return np.exp(-0.5 * (z * z)) / (std * math.sqrt(2.0 * math.pi))
