"""Quantum point contact readout via full counting statistics.

A biased point contact transmits electrons with probability T that depends
on the latched value of the measured observable.  Over an observation
window tau there are N = 2 e V tau / h transmission attempts (the 2 is
spin degeneracy), so the transmitted count is binomial and, for large N,
the time-averaged current is Gaussian:

    mean current   I_sigma = 2 G_Q V T_sigma          (G_Q = e^2/h)
    shot noise     S_sigma = 2 G_Q e V R_sigma T_sigma   (R = 1 - T)
    current spread sqrt(S_sigma / tau)

The two current distributions are discriminable when the squared mean
separation dominates the summed noise, quantified here by

    D = (I_0 - I_1)^2 tau / (S_0 + S_1),

with the readout threshold at the midpoint of the two means.  The
shot-noise limit (thermal smearing negligible against eV) is assumed
throughout; there is no electron temperature anywhere in this model.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from . import counting
from .constants import SI
from .errors import GaussianRegimeWarning, NoContrastError, TooFewAttemptsError
from .state import OutcomeProbabilities, outcome_bits, threshold

#: D at or above which readout is flagged reliable (misread ~ 6e-3 at 25).
RELIABLE_DISCRIMINABILITY = 25.0
#: Minimum attempt count for the Gaussian current density to hold (warn below).
GAUSSIAN_REGIME_FLOOR = 100
#: Largest attempt count the binomial sampler takes (numpy's int64 trial count).
MAX_ATTEMPTS = 2**63 - 1


class QpcParams:
    """One point contact: bias, observation window, and the two transmissions.

    Both orientations are legal: t_given_1 may exceed or undercut t_given_0.
    Transmissions must be strictly inside (0, 1) so the shot noise is finite
    and nonzero.  An attempt count 2eV*tau/h that rounds above MAX_ATTEMPTS
    is refused, as are current spreads that extreme finite inputs make 0 or
    infinite, and a discriminability D they make infinite.  Construction
    warns when the attempt count falls below GAUSSIAN_REGIME_FLOOR; the exact
    binomial sampler stays valid there, only the closed-form Gaussian density
    degrades.
    """

    __slots__ = ("bias_voltage", "observation_time", "t_given_0", "t_given_1")

    def __init__(self, bias_voltage: float, observation_time: float, t_given_0: float, t_given_1: float):
        self.bias_voltage, self.observation_time = bias_voltage, observation_time
        self.t_given_0, self.t_given_1 = t_given_0, t_given_1
        for name in self.__slots__:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if bias_voltage <= 0:
            raise ValueError("bias_voltage must be strictly positive")
        if observation_time <= 0:
            raise ValueError("observation_time must be strictly positive")
        for name, t in (("t_given_0", t_given_0), ("t_given_1", t_given_1)):
            if not 0.0 < t < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {t}")
        raw = raw_attempts(self)
        n_rounded = math.floor(raw + 0.5) if math.isfinite(raw) else math.inf
        if n_rounded > MAX_ATTEMPTS:
            raise ValueError(f"attempt count 2eV*tau/h = {raw:.3g} rounds above {MAX_ATTEMPTS}")
        spreads = [current_stats(self, sigma).std_current for sigma in (0, 1)]
        if not all(0.0 < s < math.inf for s in spreads):
            raise ValueError(
                f"bias_voltage and observation_time give current spreads {spreads[0]:.3g} and "
                f"{spreads[1]:.3g} A; both must be finite and positive"
            )
        d = discriminability(self)
        if not math.isfinite(d):
            raise ValueError(f"bias_voltage and observation_time give D = {d:.3g}; it must be finite")
        if n_rounded < GAUSSIAN_REGIME_FLOOR:
            warnings.warn(
                f"attempt count {n_rounded} < {GAUSSIAN_REGIME_FLOOR}: "
                "Gaussian current density is inaccurate; prefer exact-binomial sampling",
                GaussianRegimeWarning,
                stacklevel=2,  # the caller of QpcParams(...)
            )

    def transmission(self, sigma: int) -> float:
        if sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")
        return self.t_given_0 if sigma == 0 else self.t_given_1


class CurrentStats(NamedTuple):
    """Mean current, shot noise, and the resulting current spread."""

    mean_current: float
    noise: float
    std_current: float


def raw_attempts(params: QpcParams) -> float:
    """Unrounded attempt count 2 e V tau / h (spin-degenerate channel)."""
    return 2.0 * SI.electron_charge * params.bias_voltage * params.observation_time / SI.planck


def attempts(params: QpcParams) -> int:
    """Attempt count rounded half-up to an integer; must be at least 1."""
    n = int(math.floor(raw_attempts(params) + 0.5))
    if n < 1:
        raise TooFewAttemptsError(
            f"2eV*tau/h = {raw_attempts(params):.3g} rounds below one attempt"
        )
    return n


def count_pmf(params: QpcParams, sigma: int, n: int) -> float:
    """Probability of n transmitted electrons given the latched outcome."""
    return counting.count_pmf(attempts(params), n, params.transmission(sigma))


def current_stats(params: QpcParams, sigma: int) -> CurrentStats:
    """Mean current, shot noise, and spread for the latched outcome."""
    t = params.transmission(sigma)
    r = 1.0 - t
    g2v = 2.0 * SI.conductance_quantum * params.bias_voltage
    mean = g2v * t
    noise = g2v * SI.electron_charge * r * t
    return CurrentStats(
        mean_current=mean,
        noise=noise,
        std_current=math.sqrt(noise / params.observation_time),
    )


def current_density(params: QpcParams, sigma: int, current):
    """Gaussian density of the time-averaged current given the outcome.

    Valid in the many-attempt regime; the peak value is sqrt(tau/(2 pi S)).
    Accepts a scalar or an array of currents.
    """
    stats = current_stats(params, sigma)
    return counting.gaussian_density(current, stats.mean_current, stats.std_current)


def sample_current(
    params: QpcParams,
    sigma,
    rng: np.random.Generator,
    mode: str = "exact",
    size=None,
):
    """Sample time-averaged current(s) given the latched outcome(s).

    ``sigma`` is 0, 1 or an array of them; the draws have the shape of
    ``size`` when given, else the shape of ``sigma`` (a float for a scalar).
    mode "exact" draws the transmitted count from the binomial law and
    converts to current e*n/tau; mode "gaussian" draws directly from the
    closed-form density.
    """
    sigma = outcome_bits(sigma)
    if mode == "exact":
        t = np.where(sigma == 0, params.t_given_0, params.t_given_1)
        n = rng.binomial(attempts(params), t, size=size)
        return SI.electron_charge * n / params.observation_time
    if mode == "gaussian":
        s0, s1 = current_stats(params, 0), current_stats(params, 1)
        mean = np.where(sigma == 0, s0.mean_current, s1.mean_current)
        std = np.where(sigma == 0, s0.std_current, s1.std_current)
        return rng.normal(mean, std, size=size)
    raise ValueError(f"unknown sampling mode {mode!r}")


def joint_current_density(
    paramsA: QpcParams,
    paramsB: QpcParams,
    probs: OutcomeProbabilities,
    iA,
    iB,
):
    """Two-detector current density: p0 * PiA(iA|0) PiB(iB|0) + p1 * (same at 1).

    Has peaks at (I_A|0, I_B|0) and (I_A|1, I_B|1); the mass near the two
    mixed points is negligible whenever both detectors are discriminating.
    """
    return probs.p0 * current_density(paramsA, 0, iA) * current_density(paramsB, 0, iB) + (
        probs.p1 * current_density(paramsA, 1, iA) * current_density(paramsB, 1, iB)
    )


def discriminability(params: QpcParams) -> float:
    """D = (I_0 - I_1)^2 tau / (S_0 + S_1); readout is reliable for large D."""
    s0 = current_stats(params, 0)
    s1 = current_stats(params, 1)
    delta = s0.mean_current - s1.mean_current
    return delta * delta * params.observation_time / (s0.noise + s1.noise)


def is_reliable(params: QpcParams) -> bool:
    return discriminability(params) >= RELIABLE_DISCRIMINABILITY


def current_readout(current, params: QpcParams):
    """Threshold a current at the midpoint of the two means; ties resolve to 0.

    Oriented by the sign of the transmission contrast, so either detector
    orientation reads out correctly.  Accepts a float or an array.
    """
    t0, t1 = params.t_given_0, params.t_given_1
    if t0 == t1:
        raise NoContrastError("t_given_0 == t_given_1: current carries no outcome signal")
    i0 = current_stats(params, 0).mean_current
    i1 = current_stats(params, 1).mean_current
    mid = 0.5 * (i0 + i1)
    return threshold(current, mid, rising=t1 > t0)


def misread_probability(params: QpcParams) -> float:
    """Conservative misread estimate: Gaussian tail beyond sqrt(D)/2.

    Uses the summed-variance current scale sqrt((S_0+S_1)/tau), which upper
    bounds either single-outcome spread, so the estimate is never smaller
    than the true per-outcome tail of the midpoint readout.
    """
    return counting.gaussian_tail(0.5 * math.sqrt(discriminability(params)))
