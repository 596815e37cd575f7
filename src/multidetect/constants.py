"""Physical constants with SI (CODATA) defaults and a natural-units preset."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """Bundle of the constants entering the detector models.

    ``si()`` gives 2018 CODATA values; ``natural()`` sets hbar = e = 1
    (and planck = 2*pi for consistency with hbar).
    """

    hbar: float = 1.054571817e-34        # J s
    electron_charge: float = 1.602176634e-19  # C
    planck: float = 6.62607015e-34       # J s

    def __post_init__(self):
        for name in ("hbar", "electron_charge", "planck"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def si(cls) -> "PhysicalConstants":
        return cls()

    @classmethod
    def natural(cls) -> "PhysicalConstants":
        return cls(hbar=1.0, electron_charge=1.0, planck=2.0 * math.pi)

    @property
    def conductance_quantum(self) -> float:
        """e^2/h, conductance per spin-resolved channel."""
        return self.electron_charge**2 / self.planck


SI = PhysicalConstants.si()
NATURAL = PhysicalConstants.natural()
