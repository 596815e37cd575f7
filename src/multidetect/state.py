"""Prepared two-level state, its outcome probabilities and the shared laws.

All downstream generators consume only the squared moduli of the two
amplitudes; relative and global phases are carried but never affect any
prediction made here.  The counting and Gaussian laws and the readout
helpers below are shared by the scenarios and the detector models.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings

import numpy as np

from .errors import NormalizationWarning, OutOfRangeError, ZeroStateError

#: Renormalization above this deviation from unit norm is recorded on the state.
NORM_TOLERANCE = 1e-9
#: Deviations above this additionally emit a NormalizationWarning.
NORM_WARN_THRESHOLD = 1e-6
#: Largest n evaluated with exact integer coefficients; above this, log-space.
EXACT_LIMIT = 60


class Amplitudes:
    """Normalized amplitude pair (c0, c1) of the prepared superposition.

    The constructor rescales any nonzero input vector onto the unit sphere;
    ``renormalized`` records whether the input norm was off by more than
    ``NORM_TOLERANCE``.  Inputs off by more than ``NORM_WARN_THRESHOLD``
    also raise a :class:`NormalizationWarning`.  Components too large or
    too small to square are divided by the largest of them first; a
    component that is not finite is a ValueError.
    """

    __slots__ = ("c0", "c1", "renormalized")

    def __init__(self, c0: complex, c1: complex):
        for name, c in (("c0", c0), ("c1", c1)):
            if not cmath.isfinite(c):
                raise ValueError(f"{name} must be finite, got {c}")
        self.c0, self.c1, self.renormalized = c0, c1, False
        scale = 1.0
        try:
            squared = abs(c0) ** 2 + abs(c1) ** 2
        except OverflowError:
            squared = math.inf
        if squared == math.inf or squared < sys.float_info.min:
            # a square overflowed, or underflowed to a zero or subnormal sum that lost its digits
            scale = max(map(abs, (c0.real, c0.imag, c1.real, c1.imag)))
            if scale == 0.0:
                raise ZeroStateError("both amplitudes are zero")
            c0, c1 = c0 / scale, c1 / scale
            squared = abs(c0) ** 2 + abs(c1) ** 2
        norm = math.sqrt(squared)
        deviation = abs(scale * norm - 1.0)
        if deviation > NORM_WARN_THRESHOLD:
            warnings.warn(
                f"input norm {scale * norm:.6g} deviates from 1 by {deviation:.3g}; renormalizing",
                NormalizationWarning,
                stacklevel=2,  # the caller of Amplitudes(...)
            )
        if deviation > NORM_TOLERANCE:
            self.c0, self.c1, self.renormalized = c0 / norm, c1 / norm, True


class OutcomeProbabilities:
    """Binary outcome probabilities with p1 stored as 1 - p0 exactly."""

    __slots__ = ("p0", "p1")

    def __init__(self, p0: float):
        if not 0.0 <= p0 <= 1.0:
            raise ValueError(f"p0 must lie in [0, 1], got {p0}")
        self.p0, self.p1 = p0, 1.0 - p0


def make_amplitudes(re0: float, im0: float, re1: float, im1: float) -> Amplitudes:
    """Build a normalized state from four real components."""
    return Amplitudes(complex(re0, im0), complex(re1, im1))


def born_probabilities(state: Amplitudes) -> OutcomeProbabilities:
    """Outcome probabilities (|c0|^2, 1 - |c0|^2) of the prepared state."""
    p0 = abs(state.c0) ** 2
    return OutcomeProbabilities(p0=min(1.0, max(0.0, p0)))


def outcome_bits(sigma) -> np.ndarray:
    """Latched outcome(s) as an integer array; ValueError unless each is 0 or 1."""
    bits = np.asarray(sigma)
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("sigma must be 0 or 1")
    return bits


def threshold(x, level: float, rising: bool = True):
    """Read x as 1 above ``level`` (below it when not ``rising``), else 0; ties read 0."""
    x = np.asarray(x, dtype=float)
    return (x > level if rising else x < level).astype(int)


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


def gaussian_draw(sigma, means, spreads, rng: np.random.Generator, size=None):
    """means[s] + spreads[s] * z for outcome(s) s = ``sigma``, one standard normal z each, in order.

    These are Generator.normal's bits.  Shaped as ``size``, to which ``sigma`` must broadcast
    (else ValueError), or else as ``sigma``: a float for a scalar.
    """
    zero = np.asarray(sigma) == 0 if size is None else np.broadcast_to(sigma, size) == 0
    draws = np.where(zero, *means) + np.where(zero, *spreads) * rng.standard_normal(zero.shape)
    return float(draws) if size is None and not zero.ndim else np.asarray(draws)
