"""Simultaneous multi-detector measurement: simulation and scenario inference.

Simulates repeated measurements of a prepared two-level system watched by
several detectors at once, under two competing outcome laws (all detectors
unanimous per trial, or each detector latching independently), through two
physical detector models (thermal oscillator pointers and biased quantum
point contacts).  A likelihood engine decides from trial data which law
the data supports and how many trials such a decision needs.
"""

from .constants import NATURAL, SI, PhysicalConstants
from .experiment import (
    DetectorDiagnostic,
    ExperimentConfig,
    ExperimentSummary,
    IdealModel,
    OscillatorModel,
    QpcModel,
    TrialBlock,
    run_experiment,
)
from .inference import (
    ErrorModel,
    PatternTable,
    ScenarioVerdict,
    decide,
    loglik_binomial,
    loglik_unanimous,
    required_trials,
)
from .oscillator import OscillatorParams
from .qpc import CurrentStats, QpcParams
from .scenarios import (
    Binomial,
    Custom,
    Unanimous,
    binomial_pmf,
)
from .state import (
    Amplitudes,
    OutcomeProbabilities,
    born_probabilities,
    make_amplitudes,
)

__version__ = "0.2.0"

__all__ = [
    "Amplitudes",
    "Binomial",
    "Custom",
    "CurrentStats",
    "DetectorDiagnostic",
    "ErrorModel",
    "ExperimentConfig",
    "ExperimentSummary",
    "IdealModel",
    "NATURAL",
    "OscillatorModel",
    "OscillatorParams",
    "OutcomeProbabilities",
    "PatternTable",
    "PhysicalConstants",
    "QpcModel",
    "QpcParams",
    "SI",
    "ScenarioVerdict",
    "TrialBlock",
    "Unanimous",
    "binomial_pmf",
    "born_probabilities",
    "decide",
    "loglik_binomial",
    "loglik_unanimous",
    "make_amplitudes",
    "required_trials",
    "run_experiment",
]
