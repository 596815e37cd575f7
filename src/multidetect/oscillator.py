"""Thermal harmonic-oscillator pointer model.

Each detector is a damped oscillator pointer coupled linearly to the
measured two-valued observable.  Long after relaxation the pointer sits in
a thermal state whose position distribution is, in the high-temperature
regime, a classical Gaussian:

    outcome 0:  x ~ Normal(0,  dx^2)
    outcome 1:  x ~ Normal(X,  dx^2)

with the displaced equilibrium X = lambda / (m omega^2) and the thermal
spread dx^2 = 1 / (beta m omega^2).  Readout thresholds the pointer at
X/2, which is the maximum-likelihood boundary for equal-variance
Gaussians, and is meaningful only when X exceeds dx.

Two joint position laws for a detector pair are exposed:

* ``joint_density_qm`` — the relaxed mixture with one shared latent
  outcome, mixture weights (p0, p1);
* ``joint_density_counterfactual`` — the law detectors would follow if
  each latched independently, weights (p0^2, p1^2) on the agreeing peaks
  and p0*p1 on each of the two disagreeing cross peaks.  The quadratic
  weights are what a linear evolution of the density matrix cannot
  produce, so the quadrant masses of the two laws are the experimental
  signature separating them.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .constants import SI, PhysicalConstants
from .errors import NotDistinguishableError, QuantumRegimeWarning, RelaxationWarning
from .state import OutcomeProbabilities, gaussian_density, gaussian_draw, gaussian_tail, outcome_bits, threshold

#: X/dx at or above which readout is flagged reliable (misread ~ 6e-3 at 5).
RELIABLE_RATIO = 5.0
#: gamma*tau at or above which the relaxed-mixture law is trusted (<1% residual).
RELAXATION_FLOOR = 5.0


class OscillatorParams:
    """Physical configuration of one oscillator pointer.

    Parameters
    ----------
    mass, omega : float
        Oscillator mass and angular frequency.
    beta : float
        Inverse temperature 1/(k_B T), in inverse energy units.
    coupling_lambda : float
        Linear coupling force; zero means the pointer never displaces.
    relaxation_rate, measurement_time : float
        Environment relaxation rate gamma and observation window tau.
        The relaxed-mixture law needs gamma*tau >= RELAXATION_FLOOR.
    constants : PhysicalConstants
        Unit system; only hbar enters (the classical-regime check).

    Construction fails when the derived X, dx or X/dx is not finite, or dx
    is 0, as extreme finite inputs can make them.  It warns (never fails)
    when beta*hbar*omega >= 1, where the classical Gaussian spread no
    longer dominates quantum fluctuations, and when gamma*tau <
    RELAXATION_FLOOR.
    """

    __slots__ = ("mass", "omega", "beta", "coupling_lambda", "relaxation_rate", "measurement_time", "constants")

    def __init__(self, mass, omega, beta, coupling_lambda, relaxation_rate, measurement_time, constants=SI):
        self.mass, self.omega, self.beta, self.coupling_lambda = mass, omega, beta, coupling_lambda
        self.relaxation_rate, self.measurement_time, self.constants = relaxation_rate, measurement_time, constants
        for name in ("mass", "omega", "beta", "coupling_lambda", "relaxation_rate", "measurement_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("mass", "omega", "beta", "relaxation_rate", "measurement_time"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if coupling_lambda < 0:
            raise ValueError("coupling_lambda must be non-negative")
        try:
            x, dx = displacement(self), thermal_std(self)
        except ZeroDivisionError:  # mass*omega^2 or beta*mass*omega^2 underflows to 0
            x = dx = math.inf
        if not (math.isfinite(x) and 0.0 < dx < math.inf and math.isfinite(x / dx)):
            raise ValueError(
                f"mass, omega, beta and coupling_lambda give X = {x:.3g} and dx = {dx:.3g}; "
                "X, dx and X/dx must be finite and dx positive"
            )
        b_hw = self.beta * self.constants.hbar * self.omega
        if b_hw >= 1.0:
            warnings.warn(
                f"beta*hbar*omega = {b_hw:.3g} >= 1: thermal spread does not dominate "
                "quantum fluctuations; classical pointer statistics are unreliable",
                QuantumRegimeWarning,
                stacklevel=2,  # the caller of OscillatorParams(...)
            )
        g_t = self.relaxation_rate * self.measurement_time
        if g_t < RELAXATION_FLOOR:
            warnings.warn(
                f"gamma*tau = {g_t:.3g} < {RELAXATION_FLOOR}: pointer may not have relaxed "
                "to its displaced equilibrium within the measurement window",
                RelaxationWarning,
                stacklevel=2,  # the caller of OscillatorParams(...)
            )


def displacement(params: OscillatorParams) -> float:
    """Equilibrium position X = lambda/(m omega^2) for outcome 1."""
    return params.coupling_lambda / (params.mass * (params.omega * params.omega))


def thermal_std(params: OscillatorParams) -> float:
    """Thermal position spread dx = sqrt(1/(beta m omega^2))."""
    return math.sqrt(1.0 / (params.beta * params.mass * (params.omega * params.omega)))


def distinguishability_ratio(params: OscillatorParams) -> float:
    """X/dx; outcomes are macroscopically distinguishable when this is large."""
    return displacement(params) / thermal_std(params)


def is_reliable(params: OscillatorParams) -> bool:
    """Whether readout misreads are negligible: X/dx at least RELIABLE_RATIO."""
    return distinguishability_ratio(params) >= RELIABLE_RATIO


def sample_pointer(
    params: OscillatorParams,
    sigma,
    rng: np.random.Generator,
    size=None,
):
    """Relaxed pointer position(s) Normal(sigma*X, dx^2) for outcome(s) ``sigma``, shaped as state.gaussian_draw's."""
    dx = thermal_std(params)
    return gaussian_draw(outcome_bits(sigma), (0.0, displacement(params)), (dx, dx), rng, size)


def _conditional(params: OscillatorParams, sigma: int, x):
    return gaussian_density(x, sigma * displacement(params), thermal_std(params))


def joint_density_qm(
    paramsA: OscillatorParams,
    paramsB: OscillatorParams,
    probs: OutcomeProbabilities,
    xA,
    xB,
):
    """Joint relaxed position density with one shared latent outcome.

    p0 * gA(xA|0) gB(xB|0) + p1 * gA(xA|1) gB(xB|1); accepts scalars or
    broadcastable arrays.
    """
    return probs.p0 * _conditional(paramsA, 0, xA) * _conditional(paramsB, 0, xB) + (
        probs.p1 * _conditional(paramsA, 1, xA) * _conditional(paramsB, 1, xB)
    )


def joint_density_counterfactual(
    paramsA: OscillatorParams,
    paramsB: OscillatorParams,
    probs: OutcomeProbabilities,
    xA,
    xB,
):
    """Joint density if each detector latched its own independent outcome.

    Weights p0^2 and p1^2 on the agreeing peaks plus p0*p1 on each cross
    peak; total disagreeing mass 2 p0 p1.
    """
    gA0, gA1 = _conditional(paramsA, 0, xA), _conditional(paramsA, 1, xA)
    gB0, gB1 = _conditional(paramsB, 0, xB), _conditional(paramsB, 1, xB)
    p0, p1 = probs.p0, probs.p1
    return p0**2 * gA0 * gB0 + p1**2 * gA1 * gB1 + p0 * p1 * (gA0 * gB1 + gA1 * gB0)


def readout(x, params: OscillatorParams):
    """Threshold a pointer reading at X/2; ties resolve to 0.

    Raises NotDistinguishableError when X/dx < 1, where the two outcome
    distributions overlap too much for any threshold to mean anything.
    Accepts a float or an array of positions.
    """
    if distinguishability_ratio(params) < 1.0:
        raise NotDistinguishableError(
            f"X/dx = {distinguishability_ratio(params):.3g} < 1; readout is meaningless"
        )
    return threshold(x, 0.5 * displacement(params))


def misread_probability(params: OscillatorParams) -> float:
    """Closed-form P(readout != sigma): Gaussian tail beyond X/(2 dx)."""
    return gaussian_tail(0.5 * distinguishability_ratio(params))

