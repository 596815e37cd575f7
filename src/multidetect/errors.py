"""Exception and warning types shared across the package."""


class MultidetectError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MultidetectError):
    """Invalid or inconsistent configuration; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(field, message)  # both args, so that it pickles, as across a forked worker's pipe

    def __str__(self) -> str:
        return f"{self.field}: {self.args[1]}"


class ModelError(MultidetectError):
    """Base class for runtime detector-model errors."""


class ZeroStateError(MultidetectError):
    """Both amplitudes are zero; no ray is defined."""


class OutOfRangeError(MultidetectError):
    """A count argument lies outside its admissible range."""


class InvalidPmfError(MultidetectError):
    """A custom outcome-count pmf violates its constraints."""


class NotDistinguishableError(ModelError):
    """Pointer displacement does not exceed thermal spread; readout is meaningless."""


class TooFewAttemptsError(ModelError):
    """Transport window too short: fewer than one transmission attempt."""


class NoContrastError(ModelError):
    """Both system outcomes give the same transmission; current carries no signal."""


class NoDiscriminationError(MultidetectError):
    """The two outcome laws coincide (p0*p1 = 0); no trial count can separate them."""


class EmptyInputError(MultidetectError):
    """An operation requiring at least one trial received none."""


class NormalizationWarning(UserWarning):
    """State vector deviated from unit norm by more than the reporting threshold."""


class QuantumRegimeWarning(UserWarning):
    """Thermal fluctuations do not dominate quantum ones; classical pointer statistics degrade."""


class RelaxationWarning(UserWarning):
    """Measurement time is not long against the relaxation time; equilibrium mixture is approximate."""


class GaussianRegimeWarning(UserWarning):
    """Too few transmission attempts for the Gaussian current density to be accurate."""
