"""Monte Carlo trial engine combining an outcome law with a detector layer.

One experiment repeats the same prepared measurement over many trials,
run in blocks of ``BLOCK_SIZE`` trials.  Each block draws from its own
Philox stream keyed by (seed, block index), in this order:

1. the scenario's (B, N) array of latched bits;
2. detector by detector, the B raw readings (pointer positions or
   currents) for that detector's column of bits; each column is then
   thresholded back to outcomes.  The ideal model reads the bits
   losslessly and draws nothing.

Unanimous trials feed one shared latent bit to every detector sampler;
binomial and custom trials feed each detector its own bit, which is exactly
the distinction between the one-latent mixture law and the
independent-detector law at the physical level.  Each block's outcomes
are tallied into a ``PatternTable``; the tables are merged once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import oscillator as osc
from . import qpc as qpcmod
from .inference import MAX_DETECTORS, PatternTable
from .rng import BLOCK_SIZE, SEED_LIMIT, block_rng
from .scenarios import Custom, ScenarioKind
from .state import Amplitudes, born_probabilities


class DetectorDiagnostic(NamedTuple):
    """How well one detector separates the two outcomes, and its misread estimate."""

    metric: str
    value: float
    reliable: bool
    misread: float


class DetectorModel:
    """Turns latched bits into readings and outcomes, one detector per column.

    Physical models supply ``_column`` (sample and threshold one detector's
    readings) and ``_diagnostic``; records.csv holds readings * ``reading_scale``.
    """

    __slots__ = ("detectors",)
    reading_scale = 1.0

    def __init__(self, detectors=()):
        self.detectors = tuple(detectors)

    def detect(self, bits: np.ndarray, rng: np.random.Generator):
        """Readings and their thresholded outcomes for a (B, N) block of bits."""
        readings = np.empty(bits.shape)
        outcomes = np.empty_like(bits)
        for a, params in enumerate(self.detectors):
            readings[:, a], outcomes[:, a] = self._column(params, bits[:, a], rng)
        return readings, outcomes

    def diagnostics(self) -> tuple[DetectorDiagnostic, ...]:
        return tuple(self._diagnostic(params) for params in self.detectors)


class IdealModel(DetectorModel):
    """No physical layer; outcomes are read off losslessly."""

    __slots__ = ()
    model = "ideal"

    def detect(self, bits: np.ndarray, rng: np.random.Generator):
        """Readings and outcomes for a (B, N) block of bits: the bits themselves."""
        return bits.astype(float), bits


class OscillatorModel(DetectorModel):
    """One thermal oscillator pointer per detector."""

    __slots__ = ()
    model = "oscillator"

    def _column(self, params, bits, rng):
        positions = osc.sample_pointer(params, bits, rng)
        return positions, osc.readout(positions, params)

    def _diagnostic(self, params) -> DetectorDiagnostic:
        return DetectorDiagnostic(
            "position_ratio",
            osc.distinguishability_ratio(params),
            osc.is_reliable(params),
            osc.misread_probability(params),
        )


class QpcModel(DetectorModel):
    """One biased point contact per detector; sampling mode exact or gaussian."""

    __slots__ = ("sampling",)
    model = "qpc"
    # currents are reported in nA
    reading_scale = 1e9

    def __init__(self, detectors, sampling: str = "exact"):
        super().__init__(detectors)
        if sampling not in ("exact", "gaussian"):
            raise ValueError(f"unknown sampling mode {sampling!r}")
        self.sampling = sampling

    def _column(self, params, bits, rng):
        currents = qpcmod.sample_current(params, bits, rng, mode=self.sampling)
        return currents, qpcmod.current_readout(currents, params)

    def _diagnostic(self, params) -> DetectorDiagnostic:
        return DetectorDiagnostic(
            "current_discriminability",
            qpcmod.discriminability(params),
            qpcmod.is_reliable(params),
            qpcmod.misread_probability(params),
        )


class ExperimentConfig:
    """Everything needed to reproduce one experiment bit-for-bit."""

    __slots__ = ("state", "scenario", "detector_model", "n_trials", "n_detectors", "seed")

    def __init__(
        self,
        state: Amplitudes,
        scenario: ScenarioKind,
        detector_model: DetectorModel,
        n_trials: int,
        n_detectors: int = 2,
        seed: int = 0,
    ):
        if n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if not 2 <= n_detectors <= MAX_DETECTORS:
            raise ValueError(f"n_detectors = {n_detectors} outside [2, {MAX_DETECTORS}] (the packing limit)")
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        if not isinstance(detector_model, IdealModel):
            n = len(detector_model.detectors)
            if n != n_detectors:
                raise ValueError(f"detector_model has {n} parameter sets but n_detectors = {n_detectors}")
        if isinstance(scenario, Custom):
            scenario.validate(born_probabilities(state), n_detectors)
        self.state, self.scenario, self.detector_model = state, scenario, detector_model
        self.n_trials, self.n_detectors, self.seed = n_trials, n_detectors, seed


@dataclass(frozen=True)
class ExperimentSummary:
    """Agreement statistics over a full run, read off its pattern table; M0 + M1 + m = M."""

    n_trials: int
    n_detectors: int
    m0_unanimous_zero: int
    m1_unanimous_one: int
    disagreements: int
    histogram_n0: tuple[int, ...]
    agreement_fraction: float
    patterns: PatternTable


class TrialBlock(NamedTuple):
    """Trials start .. start + B - 1 of one experiment, as arrays.

    ``latent`` is the (B,) shared bit for unanimous trials, else None;
    ``readings`` (float) and ``outcomes`` (0/1) are (B, N).
    """

    start: int
    latent: Optional[np.ndarray]
    readings: np.ndarray
    outcomes: np.ndarray


def _summary(table: PatternTable) -> ExperimentSummary:
    n = table.n_detectors
    # detectors reading 1 per pattern, one detector at a time to keep memory at O(K)
    ones = sum((table.codes >> np.uint64(a)) & np.uint64(1) for a in range(n))
    hist = np.zeros(n + 1, dtype=np.int64)
    np.add.at(hist, n - ones.astype(np.intp), table.counts)
    m0, m1, total = int(hist[n]), int(hist[0]), table.n_trials
    return ExperimentSummary(
        n_trials=total,
        n_detectors=n,
        m0_unanimous_zero=m0,
        m1_unanimous_one=m1,
        disagreements=total - m0 - m1,
        histogram_n0=tuple(hist.tolist()),
        agreement_fraction=(m0 + m1) / total,
        patterns=table,
    )


def run_experiment(
    config: ExperimentConfig, on_block: Callable[[TrialBlock], None] | None = None
) -> ExperimentSummary:
    """Run all trials block by block and tally their outcome-pattern table.

    ``on_block`` is called with each TrialBlock in trial order, for callers
    that need the trials themselves (to write them out), a block at a time.
    Output is a pure function of the config.
    """
    probs = born_probabilities(config.state)
    tables = []
    for block_index, start in enumerate(range(0, config.n_trials, BLOCK_SIZE)):
        rng = block_rng(config.seed, block_index)
        size = min(BLOCK_SIZE, config.n_trials - start)
        bits, latent = config.scenario.draw(probs, config.n_detectors, rng, size)
        block = TrialBlock(start, latent, *config.detector_model.detect(bits, rng))
        tables.append(PatternTable.from_outcomes(block.outcomes))
        if on_block is not None:
            on_block(block)
    return _summary(PatternTable.merge(tables))
