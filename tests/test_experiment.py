import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chisq_gof_pvalue, reference_blocks
import multidetect
from multidetect import experiment
from multidetect.config import resolve, resolve_grid
from multidetect.constants import NATURAL
from multidetect.experiment import (
    ExperimentConfig,
    ExperimentSummary,
    IdealModel,
    OscillatorModel,
    QpcModel,
    block_count,
    run_blocks,
    run_experiment,
)
from multidetect.inference import MAX_DETECTORS, PatternTable
from multidetect.oscillator import OscillatorParams, misread_probability as osc_misread
from multidetect.qpc import QpcParams, discriminability, misread_probability as qpc_misread
from multidetect.experiment import BLOCK_SIZE, block_rng
from multidetect.scenarios import Binomial, Custom, Unanimous, binomial_pmf
from multidetect.state import OutcomeProbabilities, make_amplitudes


def ideal_config(scenario, p0=0.5, n_detectors=2, n_trials=100, seed=0):
    return ExperimentConfig(
        state=make_amplitudes(math.sqrt(p0), 0, math.sqrt(1 - p0), 0),
        scenario=scenario,
        detector_model=IdealModel(),
        n_trials=n_trials,
        n_detectors=n_detectors,
        seed=seed,
    )


def summary_and_blocks(config):
    """The summary and every TrialBlock of one run, in trial order."""
    blocks = []
    [table] = run_blocks([config], range(block_count(config.n_trials)), blocks.append)
    return ExperimentSummary(table), blocks


def stacked(blocks, field):
    return np.concatenate([getattr(b, field) for b in blocks])


def oscillator_pair(ratio=10.0):
    # dx = 2 in natural units at beta = 0.25; coupling = ratio * dx
    params = OscillatorParams(
        mass=1.0, omega=1.0, beta=0.25, coupling_lambda=2.0 * ratio,
        relaxation_rate=1.0, measurement_time=10.0, constants=NATURAL,
    )
    return OscillatorModel([params, params])


def qpc_pair(n_attempts=302.0, sampling="exact"):
    from multidetect.constants import SI

    bias = 50e-6
    tau = n_attempts * SI.planck / (2 * SI.electron_charge * bias)
    pa = QpcParams(bias_voltage=bias, observation_time=tau, t_given_0=0.4, t_given_1=0.6)
    pb = QpcParams(bias_voltage=bias, observation_time=tau, t_given_0=0.6, t_given_1=0.4)
    return QpcModel([pa, pb], sampling=sampling)


class TestStreams:
    def test_distinct_block_keys_distinct_streams(self):
        keys = ((1, 0), (1, 1), (2, 0), (2, 1))
        draws = {key: block_rng(*key).random(4).tolist() for key in keys}
        assert len({tuple(d) for d in draws.values()}) == 4
        assert block_rng(1, 1).random(4).tolist() == draws[(1, 1)]

    def test_distinct_trials_distinct_streams(self):
        # trial 0 and trial B open blocks 0 and 1; a key that ignored the
        # block index would give them the same readings
        config = ExperimentConfig(
            state=make_amplitudes(0.6, 0, 0.8, 0),
            scenario=Unanimous(),
            detector_model=oscillator_pair(),
            n_trials=BLOCK_SIZE + 1,
            seed=29,
        )
        _, blocks = summary_and_blocks(config)
        readings = [tuple(r) for r in stacked(blocks, "readings").tolist()]
        assert readings[0] != readings[BLOCK_SIZE]
        assert len(set(readings)) == len(readings)


class TestRunExperiment:
    def test_unanimous_certain_state(self):
        summary, blocks = summary_and_blocks(ideal_config(Unanimous(), p0=1.0, n_trials=100))
        assert summary.m0_unanimous_zero == 100
        assert summary.disagreements == 0
        assert stacked(blocks, "outcomes").tolist() == [[0, 0]] * 100
        assert stacked(blocks, "latent").tolist() == [0] * 100

    def test_unanimous_ideal_never_disagrees(self):
        summary = run_experiment(ideal_config(Unanimous(), p0=0.36, n_trials=2000, seed=5))
        assert summary.disagreements == 0

    def test_binomial_disagreement_rate(self):
        config = ideal_config(Binomial(), p0=0.5, n_trials=10**5, seed=42)
        summary = run_experiment(config)
        rate = summary.disagreements / summary.n_trials
        assert abs(rate - 0.5) < 4 * math.sqrt(0.25 / config.n_trials)

    def test_binomial_latent_absent(self):
        _, blocks = summary_and_blocks(ideal_config(Binomial(), n_trials=10))
        assert blocks and all(b.latent is None for b in blocks)

    def test_conservation(self):
        for seed in range(5):
            s = run_experiment(ideal_config(Binomial(), p0=0.36, n_trials=500, seed=seed))
            assert s.m0_unanimous_zero + s.m1_unanimous_one + s.disagreements == s.n_trials
            assert sum(s.histogram_n0) == s.n_trials

    def test_custom_scenario_runs(self):
        probs = OutcomeProbabilities(0.36)
        scenario = Custom([probs.p1, 0, probs.p0])
        summary = run_experiment(ideal_config(scenario, p0=0.36, n_trials=300, seed=1))
        assert summary.disagreements == 0  # two-point pmf reproduces unanimity

    def test_determinism_bit_identical(self):
        config = ideal_config(Binomial(), p0=0.36, n_trials=500, seed=7)
        summary_a, blocks_a = summary_and_blocks(config)
        summary_b, blocks_b = summary_and_blocks(config)
        for field in ("readings", "outcomes"):
            assert stacked(blocks_a, field).tobytes() == stacked(blocks_b, field).tobytes()
        assert summary_a == summary_b

    def test_streaming_matches_in_memory(self):
        config = ideal_config(Binomial(), p0=0.36, n_trials=200, seed=3)
        streamed, blocks = summary_and_blocks(config)
        assert run_experiment(config) == streamed
        zeros = (stacked(blocks, "outcomes") == 0).sum(axis=1)
        assert tuple(np.bincount(zeros, minlength=3).tolist()) == streamed.histogram_n0

    def test_oscillator_layer_thresholds_readings(self):
        model = oscillator_pair()
        config = ExperimentConfig(
            state=make_amplitudes(0.6, 0, 0.8, 0),
            scenario=Unanimous(),
            detector_model=model,
            n_trials=200,
            seed=11,
        )
        summary, blocks = summary_and_blocks(config)
        threshold = 10.0  # X/2 = 20/2
        readings, outcomes = stacked(blocks, "readings"), stacked(blocks, "outcomes")
        assert outcomes.tolist() == (readings > threshold).astype(int).tolist()
        assert summary.n_trials == 200

    def test_oscillator_unanimous_disagreement_bound(self):
        model = oscillator_pair(ratio=5.0)
        eps = sum(osc_misread(p) for p in model.detectors)
        config = ExperimentConfig(
            state=make_amplitudes(math.sqrt(0.5), 0, math.sqrt(0.5), 0),
            scenario=Unanimous(),
            detector_model=model,
            n_trials=10**4,
            seed=13,
        )
        summary = run_experiment(config)
        assert summary.disagreements <= eps * config.n_trials + 4 * math.sqrt(config.n_trials)

    def test_qpc_unanimous_disagreement_bound(self):
        model = qpc_pair()
        assert all(discriminability(p) >= 25.0 for p in model.detectors)
        eps = sum(qpc_misread(p) for p in model.detectors)
        config = ExperimentConfig(
            state=make_amplitudes(math.sqrt(0.5), 0, math.sqrt(0.5), 0),
            scenario=Unanimous(),
            detector_model=model,
            n_trials=10**4,
            seed=17,
        )
        summary = run_experiment(config)
        assert summary.disagreements / config.n_trials <= eps

    def test_qpc_gaussian_sampling_mode(self):
        config = ExperimentConfig(
            state=make_amplitudes(0.6, 0, 0.8, 0),
            scenario=Unanimous(),
            detector_model=qpc_pair(sampling="gaussian"),
            n_trials=500,
            seed=19,
        )
        summary = run_experiment(config)
        assert summary.disagreements / summary.n_trials < 0.01

    def test_packing_limit(self):
        assert ideal_config(Binomial(), n_detectors=MAX_DETECTORS).n_detectors == MAX_DETECTORS
        with pytest.raises(ValueError, match="packing limit"):
            ideal_config(Binomial(), n_detectors=MAX_DETECTORS + 1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ideal_config(Binomial(), n_trials=0)
        with pytest.raises(ValueError):
            ideal_config(Binomial(), n_detectors=1)
        with pytest.raises(ValueError):
            ExperimentConfig(
                state=make_amplitudes(1, 0, 0, 0),
                scenario=Binomial(),
                detector_model=oscillator_pair(),
                n_trials=10,
                n_detectors=3,
            )
        with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*64\), got 18446744073709551616$"):
            ideal_config(Binomial(), seed=2**64)
        assert ideal_config(Binomial(), n_trials=2**63 - 1).n_trials == 2**63 - 1
        with pytest.raises(ValueError, match=r"^n_trials must lie in \[1, 2\*\*63 - 1\], got 9223372036854775808$"):
            ideal_config(Binomial(), n_trials=2**63)
        with pytest.raises(ValueError, match="^unknown sampling mode 'bogus'$"):
            qpc_pair(sampling="bogus")


def detector_model(kind, n):
    if kind == "ideal":
        return IdealModel()
    if kind == "oscillator":
        return OscillatorModel(oscillator_pair(ratio=3.0).detectors[:1] * n)
    sampling = kind.split("-")[1]
    return QpcModel(qpc_pair(sampling=sampling).detectors[:1] * n, sampling=sampling)


def scenario_for(law, p0, n, weight):
    if law == "unanimous":
        return Unanimous()
    if law == "binomial":
        return Binomial()
    # binomial pmf mixed with the two-point unanimous pmf: both have mean p0*N
    probs = OutcomeProbabilities(p0)
    pmf = [weight * binomial_pmf(n, k, probs) for k in range(n + 1)]
    pmf[0] += (1 - weight) * probs.p1
    pmf[n] += (1 - weight) * probs.p0
    return Custom(pmf)


@st.composite
def experiments(draw):
    n = draw(st.integers(2, 8))
    p0 = draw(st.floats(0.0, 1.0))
    law = draw(st.sampled_from(["unanimous", "binomial", "custom"]))
    weight = draw(st.floats(0.0, 1.0))
    return ExperimentConfig(
        state=make_amplitudes(math.sqrt(p0), 0, math.sqrt(1 - p0), 0),
        scenario=scenario_for(law, p0, n, weight),
        detector_model=detector_model(
            draw(st.sampled_from(["ideal", "oscillator", "qpc-exact", "qpc-gaussian"])), n
        ),
        n_trials=draw(
            st.sampled_from([1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE, 3 * BLOCK_SIZE + 1])
            | st.integers(1, 3 * BLOCK_SIZE + 1)
        ),
        n_detectors=n,
        seed=draw(st.integers(0, 2**64 - 1)),
    )


# distinct detectors, so that columns drawn in another order read differently
OSC_POINTERS = [oscillator_pair(ratio).detectors[0] for ratio in (3.0, 5.0, 10.0)]
QPC_CONTACTS = [*qpc_pair(150.0).detectors, *qpc_pair(302.0).detectors, *qpc_pair(604.0).detectors]


@st.composite
def reference_configs(draw, model, law):
    """A config of ``model`` and ``law`` with one trial, or with trials that end at a block edge or one off it."""
    n = draw(st.integers(2, 8 if model == "ideal" else 4))
    p0 = draw(st.floats(0.0, 1.0))
    if model == "ideal":
        detectors = IdealModel()
    elif model == "oscillator":
        detectors = OscillatorModel([draw(st.sampled_from(OSC_POINTERS)) for _ in range(n)])
    else:
        sampling = model.split("-")[1]
        detectors = QpcModel([draw(st.sampled_from(QPC_CONTACTS)) for _ in range(n)], sampling=sampling)
    return ExperimentConfig(
        state=make_amplitudes(math.sqrt(p0), 0, math.sqrt(1 - p0), 0),
        scenario=scenario_for(law, p0, n, draw(st.floats(0.0, 1.0))),
        detector_model=detectors,
        n_trials=draw(st.sampled_from([1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 1])),
        n_detectors=n,
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def array_bytes(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


@st.composite
def pattern_tables(draw):
    """A table of N = 2..64 detectors with 1..1000 trials per code; one code has bit N - 1 set."""
    n = draw(st.integers(2, MAX_DETECTORS))
    mask = (1 << n) - 1
    raw = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    extra = draw(st.sets(st.sampled_from([0, mask])))
    codes = sorted({c & mask for c in raw} | {(raw[0] & mask) | 1 << (n - 1)} | extra)
    counts = draw(st.lists(st.integers(1, 1000), min_size=len(codes), max_size=len(codes)))
    return PatternTable(np.array(codes, dtype=np.uint64), np.array(counts, dtype=np.int64), n)


class TestBlockEngine:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(experiments())
    def test_summary_and_records_agree(self, config):
        m, n = config.n_trials, config.n_detectors
        summary, blocks = summary_and_blocks(config)
        assert sum(summary.histogram_n0) == m
        assert summary.m0_unanimous_zero + summary.m1_unanimous_one + summary.disagreements == m
        assert [b.start for b in blocks] == list(range(0, m, BLOCK_SIZE))
        # recount with a plain loop over the blocks' rows
        hist = [0] * (n + 1)
        for block in blocks:
            size = min(BLOCK_SIZE, m - block.start)
            assert block.readings.shape == block.outcomes.shape == (size, n)
            for row in block.outcomes.tolist():
                hist[sum(1 for o in row if o == 0)] += 1
            if isinstance(config.scenario, Unanimous):
                assert block.latent.shape == (size,)
                assert set(block.latent.tolist()) <= {0, 1}
            else:
                assert block.latent is None
        assert summary.histogram_n0 == tuple(hist)
        assert summary.patterns == PatternTable.from_outcomes(stacked(blocks, "outcomes"))
        assert run_experiment(config) == summary

    @pytest.mark.parametrize("law", ["unanimous", "binomial", "custom"])
    @pytest.mark.parametrize("model", ["ideal", "oscillator", "qpc-exact", "qpc-gaussian"])
    @settings(max_examples=8, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_blocks_match_the_stream_reference(self, model, law, data):
        config = data.draw(reference_configs(model, law))
        _, blocks = summary_and_blocks(config)
        expected = reference_blocks(config)
        assert len(blocks) == len(expected)
        for block, reference in zip(blocks, expected):
            got = block.latent, block.readings, block.outcomes
            assert list(map(array_bytes, got)) == list(map(array_bytes, reference))


GRID_MODELS = {
    "ideal": {"model": "ideal"},
    "oscillator": {"model": "oscillator", "unit_system": "natural", "detectors": [
        {"mass": 1.0, "omega": 1.0, "beta": 0.25, "coupling_lambda": lam, "relaxation_rate": 1.0, "measurement_time": 10.0}
        for lam in (6.0, 8.0, 10.0)
    ]},
    **{
        f"qpc-{sampling}": {"model": "qpc", "sampling": sampling, "detectors": [
            {"bias_voltage_uV": 50.0, "observation_time_ns": tau, "t0": 0.4, "t1": 0.6} for tau in (12.5, 25.0, 50.0)
        ]}
        for sampling in ("exact", "gaussian")
    },
}


@st.composite
def grids(draw):
    """A raw config of any model and law, one of its fields and 1-4 values, as ``sweep`` resolves them."""
    model = draw(st.sampled_from(sorted(GRID_MODELS)))
    law = draw(st.sampled_from(["unanimous", "binomial", "custom"]))
    n = 3 if model != "ideal" else draw(st.integers(2, 4))
    raw = {
        "state": {"p0": 0.5},
        # the custom pmf keeps the mean p0 * N only at p0 = 0.5 and for its N
        "scenario": {"kind": law, "pmf": [0.5] + [0.0] * (n - 1) + [0.5]} if law == "custom" else {"kind": law},
        "detector_model": GRID_MODELS[model],
        "n_detectors": n,
        "error_model": {"eps": [0.01] * n},
        "n_trials": draw(st.sampled_from([1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 7])),
        "seed": draw(st.integers(0, 3)),
    }
    fields = {
        "error_model.eps[0]": st.floats(0.0, 0.4),
        "seed": st.integers(0, 3),
        "n_trials": st.sampled_from([1, BLOCK_SIZE - 1, BLOCK_SIZE, 2 * BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 7]),
    }
    if law != "custom":
        fields["state.p0"] = st.floats(0.0, 1.0)
    if model == "oscillator":
        fields["detector_model.detectors[0].beta"] = st.floats(0.2, 0.3)
    elif model != "ideal":
        fields["detector_model.detectors[1].t0"] = st.floats(0.3, 0.45)
    elif law != "custom":
        fields["n_detectors"] = st.integers(2, 4)
    field = draw(st.sampled_from(sorted(fields)))
    if field == "n_detectors":
        del raw["error_model"]  # its eps list would fix N
    values = draw(st.lists(fields[field], min_size=1, max_size=4))
    return raw, field, [float(value) for value in values]


class TestGrid:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(grids())
    def test_grid_tables_match_each_point_run_alone(self, grid):
        _, points = resolve_grid(*grid)
        configs = [point.experiment for point in points]
        assert run_blocks(configs) == [run_experiment(config).patterns for config in configs]

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_configs_of_any_models_share_a_seed_exactly(self, data):
        # draws that part at a different method, size or order, with the seed shared as in a sweep of one field
        configs = [
            data.draw(reference_configs(data.draw(st.sampled_from(["ideal", "oscillator", "qpc-exact", "qpc-gaussian"])),
                                        data.draw(st.sampled_from(["unanimous", "binomial", "custom"]))))
            for _ in range(data.draw(st.integers(2, 4)))
        ]
        for config in configs:
            config.seed = 5
        blocks = []
        tables = run_blocks(configs, on_block=blocks.append)
        assert tables == [run_experiment(config).patterns for config in configs]
        assert len(blocks) == sum(block_count(config.n_trials) for config in configs)

    def sweep_osc_configs(self):
        # the benchmark's sweep-osc operation: nine points of state.p0, M = 1e4 each, oscillator N = 2, unanimous
        raw = {"state": {"p0": 0.5}, "scenario": {"kind": "unanimous"}, "detector_model": {
            "model": "oscillator", "unit_system": "natural", "detectors": GRID_MODELS["oscillator"]["detectors"][:1] * 2,
        }, "n_trials": 10**4, "seed": 1}
        _, points = resolve_grid(raw, "state.p0", np.linspace(0.1, 0.9, 9).tolist())
        return [point.experiment for point in points]

    @staticmethod
    def watch(monkeypatch):
        """The block_rng calls and the _Stream objects of the runs that follow."""
        calls, streams = [], []

        def counted(*key):
            calls.append(key)
            return block_rng(*key)

        class Watched(experiment._Stream):
            __slots__ = ()

            def __init__(self, *key):
                super().__init__(*key)
                streams.append(self)

        monkeypatch.setattr(experiment, "block_rng", counted)
        monkeypatch.setattr(experiment, "_Stream", Watched)
        return calls, streams

    def test_a_sweep_draws_each_block_once(self, monkeypatch):
        configs = self.sweep_osc_configs()
        assert sum(block_count(config.n_trials) for config in configs) == 27  # one stream per point and block
        calls, streams = self.watch(monkeypatch)
        run_blocks(configs)
        assert calls == [(1, 0), (1, 1), (1, 2)]
        # a block's scenario uniforms and both pointer columns, kept read-only for the points after the first
        assert [len(stream.draws) for stream in streams] == [3, 3, 3]
        assert not any(array.flags.writeable for stream in streams for *_, array in stream.draws)

    @pytest.mark.parametrize("model", sorted(GRID_MODELS))
    def test_a_single_run_keeps_no_draw(self, monkeypatch, model):
        raw = {"state": {"p0": 0.5}, "scenario": {"kind": "binomial"}, "detector_model": GRID_MODELS[model],
               "n_detectors": 3, "n_trials": 2 * BLOCK_SIZE + 1, "seed": 2}
        config = resolve(raw).experiment
        calls, streams = self.watch(monkeypatch)
        run_experiment(config)
        assert calls == [(2, 0), (2, 1), (2, 2)]
        assert len(streams) == 3 and not any(stream.draws for stream in streams)


class TestSummarize:
    def test_histogram_matches_counting_law(self):
        config = ideal_config(Binomial(), p0=0.36, n_detectors=10, n_trials=10**5, seed=23)
        summary = run_experiment(config)
        probs = OutcomeProbabilities(0.36)
        expected = [binomial_pmf(10, k, probs) for k in range(11)]
        assert chisq_gof_pvalue(summary.histogram_n0, expected) > 0.001

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(pattern_tables())
    def test_summary_matches_a_recount(self, table):
        summary = ExperimentSummary(table)
        n = table.n_detectors
        hist = [0] * (n + 1)
        for code, count in zip(table.codes.tolist(), table.counts.tolist()):
            hist[n - int(code).bit_count()] += count
        m = sum(hist)
        assert summary.histogram_n0 == tuple(hist)
        assert all(type(h) is int for h in summary.histogram_n0)
        assert (summary.n_trials, summary.n_detectors) == (m, n)
        assert (summary.m0_unanimous_zero, summary.m1_unanimous_one) == (hist[n], hist[0])
        assert summary.disagreements == m - hist[n] - hist[0]
        assert summary.agreement_fraction == (hist[n] + hist[0]) / m
        assert summary.patterns is table

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(pattern_tables())
    def test_summaries_compare_by_table(self, table):
        outcomes = np.repeat(table.patterns(), table.counts, axis=0)
        summary = ExperimentSummary(PatternTable.from_outcomes(outcomes))
        assert summary == ExperimentSummary(PatternTable.from_outcomes(outcomes[::-1]))
        assert summary == ExperimentSummary(table)
        counts = table.counts.copy()
        counts[-1] += 1
        assert summary != ExperimentSummary(PatternTable(table.codes, counts, table.n_detectors))
        if not np.array_equal(table.counts, table.counts[::-1]):  # same trials, other patterns
            assert summary != ExperimentSummary(PatternTable(table.codes, table.counts[::-1], table.n_detectors))
        assert summary != table
        with pytest.raises(TypeError):
            hash(summary)


class TestLibraryObjects:
    def test_no_class_is_a_dataclass(self):
        classes = [
            obj
            for info in pkgutil.iter_modules(multidetect.__path__)
            for module in [importlib.import_module(f"multidetect.{info.name}")]
            for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
        assert ExperimentSummary in classes and PatternTable in classes
        assert [cls for cls in classes if dataclasses.is_dataclass(cls)] == []
        # a tuple result of run_experiment reads as (summary, records) to the benchmark's tracing
        assert not issubclass(ExperimentSummary, tuple)


class TestModelMisreads:
    def test_ideal_is_lossless(self):
        assert IdealModel().diagnostics() == ()

    def test_physical_models_report_tails(self):
        osc_model = oscillator_pair()
        misreads = tuple(d.misread for d in osc_model.diagnostics())
        assert misreads == tuple(osc_misread(p) for p in osc_model.detectors)
        qpc_model = qpc_pair()
        misreads = tuple(d.misread for d in qpc_model.diagnostics())
        assert misreads == tuple(qpc_misread(p) for p in qpc_model.detectors)


NATURAL_POINTER = {
    "mass": 1.0, "omega": 1.0, "beta": 0.25, "coupling_lambda": 6.0,
    "relaxation_rate": 1.0, "measurement_time": 10.0,
}
# X/dx = lambda sqrt(beta) / (sqrt(m) omega) ~ 4 at 1 K; beta hbar omega ~ 8e-9
SI_POINTER = {
    "mass": 1e-15, "omega": 1e3, "beta": 1.0 / (1.380649e-23 * 1.0), "coupling_lambda": 4.7e-16,
    "relaxation_rate": 1e3, "measurement_time": 1e-2,
}
QPC_DETECTORS = [
    {"bias_voltage_uV": 50.0, "observation_time_ns": 12.5, "t0": 0.4, "t1": 0.6},
    {"bias_voltage_uV": 50.0, "observation_time_ns": 25.0, "t0": 0.6, "t1": 0.4},
    # barely any contrast: the misread estimate lands above the derived-eps cap
    {"bias_voltage_uV": 50.0, "observation_time_ns": 12.5, "t0": 0.5, "t1": 0.5 + 1e-10},
]
MODEL_CASES = {
    "ideal": ({"model": "ideal"}, 3, 1.0),
    "oscillator-natural": (
        {"model": "oscillator", "unit_system": "natural",
         "detectors": [NATURAL_POINTER, dict(NATURAL_POINTER, coupling_lambda=8.0)]},
        2,
        1.0,
    ),
    "oscillator-si": ({"model": "oscillator", "unit_system": "si", "detectors": [SI_POINTER] * 3}, 3, 1.0),
    "qpc-exact": ({"model": "qpc", "sampling": "exact", "detectors": QPC_DETECTORS}, 3, 1e9),
    "qpc-gaussian": ({"model": "qpc", "sampling": "gaussian", "detectors": QPC_DETECTORS}, 3, 1e9),
}


class TestDetectorModelInterface:
    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    def test_model_answers_its_own_questions(self, case):
        raw_model, n, scale = MODEL_CASES[case]
        raw = {"state": {"p0": 0.5}, "scenario": {"kind": "binomial"},
               "detector_model": raw_model, "n_detectors": n, "n_trials": 10}
        resolved = resolve(raw)
        model = resolved.experiment.detector_model
        diagnostics = model.diagnostics()
        assert len(diagnostics) == len(model.detectors)
        assert model.reading_scale == scale

        rng = block_rng(3, 0)
        bits = (rng.random((257, n)) >= 0.5).astype(np.int64)
        readings, outcomes = model.detect(bits, rng)
        assert readings.shape == outcomes.shape == (257, n)
        assert readings.dtype == np.float64
        assert set(np.unique(outcomes).tolist()) <= {0, 1}

        expected = [min(d.misread, 0.5 - 1e-9) for d in diagnostics] or [0.0] * n
        assert resolved.error_model.eps == tuple(expected)
        if case.startswith("qpc"):
            assert resolved.error_model.eps[2] == 0.5 - 1e-9
