"""Simultaneous multi-detector measurement: simulation and scenario inference.

Simulates repeated measurements of a prepared two-level system watched by
several detectors at once, under two competing outcome laws (all detectors
unanimous per trial, or each detector latching independently), through two
physical detector models (thermal oscillator pointers and biased quantum
point contacts).  A likelihood engine decides from trial data which law
the data supports and how many trials such a decision needs.

The names below are re-exported lazily: ``multidetect.X`` imports X's home
module on first use, so a command imports only the modules it runs.
"""

__version__ = "0.2.0"

# the names re-exported from each submodule
_EXPORTS = {
    "constants": ("NATURAL", "SI", "PhysicalConstants"),
    "experiment": (
        "DetectorDiagnostic", "ExperimentConfig", "ExperimentSummary", "IdealModel",
        "OscillatorModel", "QpcModel", "TrialBlock", "run_experiment",
    ),
    "inference": (
        "ErrorModel", "PatternTable", "ScenarioVerdict", "decide",
        "loglik_binomial", "loglik_unanimous", "required_trials",
    ),
    "oscillator": ("OscillatorParams",),
    "qpc": ("CurrentStats", "QpcParams"),
    "scenarios": ("Binomial", "Custom", "Unanimous", "binomial_pmf"),
    "state": ("Amplitudes", "OutcomeProbabilities", "born_probabilities", "make_amplitudes"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
