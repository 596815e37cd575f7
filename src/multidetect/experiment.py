"""Monte Carlo trial engine combining an outcome law with a detector layer.

One experiment repeats the same prepared measurement over many trials,
run in blocks of ``BLOCK_SIZE`` trials; trial ``i`` belongs to block
``i // BLOCK_SIZE``.  Each block draws from its own Philox stream keyed by
(seed, block index), so its draws depend on nothing but that key and output
is byte-for-byte the same however the blocks are scheduled.  A block draws,
in this order:

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
``_fan_out`` runs the parts of a piece of work (runs of blocks, a file's
rows) over the usable cores: the first here, each other in a forked child.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings
from typing import Callable, NamedTuple, Optional

import numpy as np

from .inference import MAX_DETECTORS, PatternTable
from .scenarios import Custom, ScenarioKind
from .state import Amplitudes, born_probabilities

#: Trials per block; part of the stream contract, so changing it changes output.
BLOCK_SIZE = 4096
#: Seeds must lie in [0, SEED_LIMIT): they fill one 64-bit word of the Philox key.
SEED_LIMIT = 2**64
#: Trial counts stop at the int64 maximum: the pattern counts and the records' trial indices are int64.
MAX_TRIALS = 2**63 - 1


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Independent generator for one block, keyed by (seed, block index)."""
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    Both import the model's physics module when called, so building a model
    imports nothing, and they call through its attributes, which a tracer may rebind.
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
        from . import oscillator as osc

        positions = osc.sample_pointer(params, bits, rng)
        return positions, osc.readout(positions, params)

    def _diagnostic(self, params) -> DetectorDiagnostic:
        from . import oscillator as osc

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
        from . import qpc as qpcmod

        currents = qpcmod.sample_current(params, bits, rng, mode=self.sampling)
        return currents, qpcmod.current_readout(currents, params)

    def _diagnostic(self, params) -> DetectorDiagnostic:
        from . import qpc as qpcmod

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
        if not 1 <= n_trials <= MAX_TRIALS:
            raise ValueError(f"n_trials must lie in [1, 2**63 - 1], got {n_trials}")
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


class ExperimentSummary:
    """Agreement statistics over a full run, read off its pattern table; M0 + M1 + m = M.

    Summaries compare equal when their tables do.
    """

    __slots__ = (
        "patterns", "n_trials", "n_detectors", "m0_unanimous_zero", "m1_unanimous_one",
        "disagreements", "histogram_n0", "agreement_fraction",
    )

    def __init__(self, patterns: PatternTable):
        n, total = patterns.n_detectors, patterns.n_trials
        hist = np.zeros(n + 1, dtype=np.int64)
        np.add.at(hist, n - np.bitwise_count(patterns.codes).astype(np.intp), patterns.counts)
        m0, m1 = int(hist[n]), int(hist[0])
        self.patterns, self.n_trials, self.n_detectors = patterns, total, n
        self.m0_unanimous_zero, self.m1_unanimous_one, self.disagreements = m0, m1, total - m0 - m1
        self.histogram_n0 = tuple(hist.tolist())
        self.agreement_fraction = (m0 + m1) / total

    def __eq__(self, other) -> bool:
        return isinstance(other, ExperimentSummary) and self.patterns == other.patterns


class TrialBlock(NamedTuple):
    """Trials start .. start + B - 1 of one experiment, as arrays.

    ``latent`` is the (B,) shared bit for unanimous trials, else None;
    ``readings`` (float) and ``outcomes`` (0/1) are (B, N).
    """

    start: int
    latent: Optional[np.ndarray]
    readings: np.ndarray
    outcomes: np.ndarray


def block_count(n_trials: int) -> int:
    """Blocks of at most BLOCK_SIZE trials that ``n_trials`` trials make."""
    return -(-n_trials // BLOCK_SIZE)


def _workers(parts: int) -> int:
    """Workers for at most ``parts`` parts of work: no more than the usable cores; one on a platform other than Linux."""
    # multiprocessing's documentation calls fork unsafe on macOS, whose system libraries may start threads
    cores = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    return max(1, min(parts, cores))


def _fork() -> int:
    """``os.fork()``, without the warning Python 3.12+ gives when this process has other threads.

    The other threads are numpy's BLAS pool, idle while this thread forks;
    a child runs only its part's work and ends in ``os._exit``.  The
    filter keeps that ``DeprecationWarning`` out of shown and recorded
    warnings: pytest's summary, ``-W always``, a caller's
    ``catch_warnings(record=True)``.  It does not keep the fork from
    raising: under ``simplefilter("error")`` a bare fork did not raise on
    Python 3.12.1 and 3.13.0, which drop the warning then.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"This process .*is multi-threaded", DeprecationWarning)
        return os.fork()


def _fan_out(work: Callable[[int], object], parts: int) -> list:
    """``[work(0), ..., work(parts - 1)]``, each part after the first run in a forked child.

    fork, not multiprocessing: a child starts at once from this process's
    state, and importing multiprocessing would cost more than a small part.
    A child sends back what ``work`` returns, or the exception it raises,
    pickled through a pipe, and ends in ``os._exit``.  This process runs
    part 0 and every part it could not fork, then raises the first child
    exception in part order, or RuntimeError for a child that ended without
    sending its outcome.  It reaps every child before it returns or raises.
    """
    # part -> its child's pid, until reaped; part -> the read end of its child's pipe, until read
    pids, pipes = {}, {}
    try:
        for part in range(1, parts):
            read, write = os.pipe()
            try:
                pid = _fork()
            except OSError:  # no process to be had: the part runs here
                os.close(read)
                os.close(write)
                continue
            if pid == 0:
                _child(work, part, write, [read, *pipes.values()])
            os.close(write)
            pids[part] = pid
            pipes[part] = read
        results = [work(part) if part not in pipes else None for part in range(parts)]
        for part in list(pipes):
            with open(pipes.pop(part), "rb") as pipe:
                data = pipe.read()
            try:
                ok, results[part] = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):  # none or part of a result: the child died, as killed
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(part), 0)[1])
                ended = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                # not an OSError, which the commands report as a fault of their files
                raise RuntimeError(f"the worker of part {part} of {parts} ended without a result: {ended}") from None
            if not ok:
                raise results[part]
        return results
    finally:
        for read in pipes.values():  # a child still writing gets a broken pipe and ends
            os.close(read)
        for pid in pids.values():
            os.waitpid(pid, 0)


def _child(work, part: int, write: int, inherited: list[int]) -> None:
    """In a forked child: run ``work(part)``, send its outcome through ``write``, and end the process."""
    try:
        for fd in inherited:  # a sibling's pipe held open here would never reach its end
            os.close(fd)
        try:
            outcome = True, work(part)
        except BaseException as exc:  # the parent raises it
            outcome = False, exc
        try:
            data = pickle.dumps(outcome)
        except Exception:  # an exception or result that does not pickle
            data = pickle.dumps((False, RuntimeError(f"part {part}: {outcome[1]!r} does not pickle")))
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)  # never return into the caller's frames, which belong to the parent


def run_blocks(
    config: ExperimentConfig, blocks: range, on_block: Callable[[TrialBlock], None] | None = None
) -> PatternTable:
    """Run the blocks with indices ``blocks`` and tally their outcome-pattern table.

    ``on_block`` is called with each TrialBlock in trial order, for callers
    that need the trials themselves (to write them out), a block at a time.
    """
    probs = born_probabilities(config.state)
    tables = []
    for block_index in blocks:
        rng = block_rng(config.seed, block_index)
        start = block_index * BLOCK_SIZE
        size = min(BLOCK_SIZE, config.n_trials - start)
        bits, latent = config.scenario.draw(probs, config.n_detectors, rng, size)
        block = TrialBlock(start, latent, *config.detector_model.detect(bits, rng))
        tables.append(PatternTable.from_outcomes(block.outcomes))
        if on_block is not None:
            on_block(block)
    return PatternTable.merge(tables)


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run all trials block by block and summarize their outcome-pattern table; a pure function of the config."""
    return ExperimentSummary(run_blocks(config, range(block_count(config.n_trials))))
