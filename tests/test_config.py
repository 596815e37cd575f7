import copy
import math
import pickle
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multidetect.config import canonical_json, resolve
from multidetect.constants import NATURAL
from multidetect.errors import ConfigError
from multidetect.experiment import OscillatorModel, QpcModel
from test_cli import custom_law_config, ideal_config, low_attempt_qpc_config, oscillator_config, qpc_config
from test_output_contract import CASES


def base_config(**overrides):
    raw = {
        "state": {"p0": 0.36},
        "scenario": {"kind": "binomial"},
        "detector_model": {"model": "ideal"},
        "n_trials": 10,
        "seed": 1,
    }
    raw.update(overrides)
    return raw


def test_state_four_array_normalized_in_echo():
    resolved = resolve(base_config(state=[0.6, 0.0, 0.0, 0.8]))
    assert resolved.echo["state"] == [0.6, 0.0, 0.0, 0.8]
    probs = resolved.experiment.state
    assert abs(probs.c0) ** 2 == pytest.approx(0.36, abs=1e-15)


def test_state_shorthand_becomes_amplitudes():
    resolved = resolve(base_config())
    assert resolved.echo["state"] == [0.6, 0.0, 0.8, 0.0]


def test_state_validation():
    with pytest.raises(ConfigError, match="state"):
        resolve(base_config(state=[0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ConfigError, match="state.p0"):
        resolve(base_config(state={"p0": 1.5}))
    with pytest.raises(ConfigError, match="state"):
        resolve(base_config(state=[1.0, 0.0]))


def test_qpc_units_converted_to_si():
    raw = base_config(
        detector_model={
            "model": "qpc",
            "detectors": [
                {"bias_voltage_uV": 50.0, "observation_time_ns": 12.5, "t0": 0.4, "t1": 0.6},
                {"bias_voltage_uV": 50.0, "observation_time_ns": 12.5, "t0": 0.6, "t1": 0.4},
            ],
        }
    )
    resolved = resolve(raw)
    model = resolved.experiment.detector_model
    assert isinstance(model, QpcModel)
    assert model.detectors[0].bias_voltage == pytest.approx(50e-6, rel=1e-15)
    assert model.detectors[0].observation_time == pytest.approx(12.5e-9, rel=1e-15)
    # echo carries the given unit-suffixed values verbatim
    assert resolved.echo["detector_model"]["detectors"][0]["observation_time_ns"] == 12.5
    assert resolved.echo["detector_model"]["detectors"][0]["bias_voltage_uV"] == 50.0


def test_oscillator_natural_units():
    raw = base_config(
        detector_model={
            "model": "oscillator",
            "unit_system": "natural",
            "detectors": [
                {"mass": 1.0, "omega": 1.0, "beta": 0.25, "coupling_lambda": 20.0,
                 "relaxation_rate": 1.0, "measurement_time": 10.0},
            ] * 2,
        }
    )
    resolved = resolve(raw)
    model = resolved.experiment.detector_model
    assert isinstance(model, OscillatorModel)
    assert model.detectors[0].constants == NATURAL


def test_unknown_detector_field_named():
    raw = base_config(
        detector_model={
            "model": "qpc",
            "detectors": [
                {"bias_voltage_uV": 50.0, "observation_time_ns": 12.5, "t0": 0.4,
                 "t1": 0.6, "temperature_mK": 20.0},
                {"bias_voltage_uV": 50.0, "observation_time_ns": 12.5, "t0": 0.6, "t1": 0.4},
            ],
        }
    )
    with pytest.raises(ConfigError, match=r"detector_model.detectors\[0\]"):
        resolve(raw)


def test_echo_holds_only_known_keys():
    raw = base_config(scenario={"kind": "custom", "pmf": [0.64, 0.0, 0.36]})
    echo = resolve(raw).echo
    assert resolve(echo).echo == echo


def test_detector_count_capped_by_pattern_packing():
    assert resolve(base_config(n_detectors=64)).experiment.n_detectors == 64
    with pytest.raises(ConfigError) as excinfo:
        resolve(base_config(n_detectors=65))
    assert excinfo.value.field == "n_detectors"


def test_custom_pmf_mean_violation_named():
    raw = base_config(scenario={"kind": "custom", "pmf": [1.0, 0.0, 0.0]})
    with pytest.raises(ConfigError, match="scenario.pmf"):
        resolve(raw)


def test_error_model_length_checked():
    with pytest.raises(ConfigError, match="error_model.eps"):
        resolve(base_config(error_model={"eps": [0.01]}))


def test_error_model_override_used():
    resolved = resolve(base_config(error_model={"eps": [0.01, 0.02]}))
    assert resolved.error_model.eps == (0.01, 0.02)


def test_inference_defaults_and_bounds():
    resolved = resolve(base_config())
    assert resolved.log_odds_threshold == pytest.approx(math.log(100.0))
    assert resolved.alpha == 0.01
    with pytest.raises(ConfigError, match="inference.alpha"):
        resolve(base_config(inference={"alpha": 0.0}))


@pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 5, 1.5, True])
def test_seed_outside_key_range_named(seed):
    with pytest.raises(ConfigError, match="seed") as exc:
        resolve(base_config(seed=seed))
    assert exc.value.field == "seed"


def test_seed_key_range_edges_accepted():
    for seed in (0, 2**64 - 1):
        assert resolve(base_config(seed=seed)).experiment.seed == seed


def test_canonical_json_is_key_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2]}, compact=True)
    b = canonical_json({"a": [1, 2], "b": 1}, compact=True)
    assert a == b


@st.composite
def valid_configs(draw):
    """A valid raw config: one the CLI and output-contract tests build, with a drawn seed and optional sections."""
    builders = [*CASES.values(), ideal_config(), qpc_config(), oscillator_config(), custom_law_config(),
                low_attempt_qpc_config()]
    raw = copy.deepcopy(draw(st.sampled_from(builders)))
    raw["seed"] = draw(st.integers(0, 2**64 - 1))
    if raw["scenario"]["kind"] != "custom" and draw(st.booleans()):  # a custom pmf fits one p0 only
        raw["state"] = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(any))
    if draw(st.booleans()):
        n = raw.get("n_detectors", len(raw["detector_model"].get("detectors", ())) or 2)
        raw["error_model"] = {"eps": draw(st.lists(st.floats(0.0, 0.4), min_size=n, max_size=n))}
    if draw(st.booleans()):
        raw["inference"] = {
            "log_odds_threshold": draw(st.floats(0.1, 10.0)),
            "prior_log_odds": draw(st.floats(-5.0, 5.0)),
            "alpha": draw(st.floats(1e-3, 1.0)),
        }
    return raw


def overwrite_leaves(node):
    """Replace every number and string in the nested dicts and lists of ``node`` by None."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            overwrite_leaves(value)
        else:
            node[key] = None


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(valid_configs())
def test_resolve_neither_changes_nor_keeps_raw(raw):
    # the sweep edits one field of its raw config in place between resolves
    before = copy.deepcopy(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # regime and normalization warnings
        resolved = resolve(raw)
    assert raw == before
    echo, experiment = copy.deepcopy(resolved.echo), pickle.dumps(resolved.experiment)
    overwrite_leaves(raw)
    assert resolved.echo == echo
    assert pickle.dumps(resolved.experiment) == experiment
