"""Physical constants with SI defaults and a natural-units preset."""

from __future__ import annotations

import math


class PhysicalConstants:
    """Bundle of the constants entering the detector models.

    The defaults are the exact SI values of e and h; ``NATURAL`` sets
    e = 1 and h = 2*pi, so hbar = 1.  ``hbar`` is derived from ``planck``.
    """

    __slots__ = ("electron_charge", "planck")

    def __init__(
        self,
        electron_charge: float = 1.602176634e-19,  # C
        planck: float = 6.62607015e-34,       # J s
    ):
        self.electron_charge, self.planck = electron_charge, planck
        for name in self.__slots__:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def hbar(self) -> float:
        """Reduced Planck constant h/(2 pi)."""
        return self.planck / (2 * math.pi)

    @property
    def conductance_quantum(self) -> float:
        """e^2/h, conductance per spin-resolved channel."""
        return self.electron_charge**2 / self.planck


SI = PhysicalConstants()
NATURAL = PhysicalConstants(electron_charge=1.0, planck=2.0 * math.pi)
