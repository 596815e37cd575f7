import contextlib
import importlib
import io
import json
import math
import os
import pickle
import re
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import fresh_env
import multidetect
from multidetect import errors, records
from multidetect.cli import main
from multidetect.constants import SI
from multidetect.errors import GaussianRegimeWarning, NormalizationWarning
from multidetect.experiment import BLOCK_SIZE
from multidetect.records import CONFIG_COMMENT, _records_header

DOCS = Path(__file__).resolve().parent.parent / "docs"


def ideal_config(p0=0.5, scenario="binomial", n_trials=1000, seed=42, **overrides):
    raw = {
        "state": {"p0": p0},
        "scenario": {"kind": scenario},
        "detector_model": {"model": "ideal"},
        "n_detectors": 2,
        "n_trials": n_trials,
        "seed": seed,
    }
    raw.update(overrides)
    return raw


def qpc_detector(t0, t1, n_attempts, bias_uV=50.0):
    tau_s = n_attempts * SI.planck / (2 * SI.electron_charge * bias_uV * 1e-6)
    return {
        "bias_voltage_uV": bias_uV,
        "observation_time_ns": tau_s * 1e9,
        "t0": t0,
        "t1": t1,
    }


def qpc_config(n_trials=200, seed=7, n_attempts=302.0, t_pair=((0.4, 0.6), (0.6, 0.4))):
    return {
        "state": {"p0": 0.5},
        "scenario": {"kind": "unanimous"},
        "detector_model": {
            "model": "qpc",
            "detectors": [qpc_detector(t0, t1, n_attempts) for t0, t1 in t_pair],
        },
        "n_trials": n_trials,
        "seed": seed,
    }


def oscillator_config(coupling=20.0, n_trials=200, seed=9):
    detector = {
        "mass": 1.0,
        "omega": 1.0,
        "beta": 0.25,
        "coupling_lambda": coupling,
        "relaxation_rate": 1.0,
        "measurement_time": 10.0,
    }
    return {
        "state": {"p0": 0.5},
        "scenario": {"kind": "unanimous"},
        "detector_model": {
            "model": "oscillator",
            "unit_system": "natural",
            "detectors": [detector, dict(detector)],
        },
        "n_trials": n_trials,
        "seed": seed,
    }


def custom_law_config():
    # mean of the pmf fits p0 = 0.3 only, so a sweep of state.p0 fails after its first point
    raw = ideal_config(p0=0.3, scenario="custom", n_trials=500)
    raw["scenario"]["pmf"] = [0.6, 0.2, 0.2]
    return raw


def low_attempt_qpc_config():
    raw = qpc_config(n_trials=50)
    raw["detector_model"]["detectors"] = [qpc_detector(0.4, 0.6, 12), qpc_detector(0.6, 0.4, 24)]
    return raw


DROP = object()
QPC_DETECTOR = qpc_detector(0.4, 0.6, 302)
QPC_MODEL = {"model": "qpc", "detectors": [QPC_DETECTOR, QPC_DETECTOR]}
NO_T1 = {k: v for k, v in QPC_DETECTOR.items() if k != "t1"}


def huge_qpc_detector(scale):
    return {**QPC_DETECTOR, "bias_voltage_uV": scale, "observation_time_ns": scale}


def second_detector(model, **fields):
    """The detector model of ``model``, its second detector a copy of the first with ``fields`` changed."""
    detectors = model["detector_model"]["detectors"]
    return {**model["detector_model"], "detectors": [detectors[0], {**detectors[0], **fields}]}


# one bad config per error branch of the config reader, as the top-level
# fields that replace (or, as DROP, remove) those of ideal_config() or as
# the file's text, with the start of its message; at every level of the
# config a non-object comes first, then an unknown field, then a missing one
BAD_CONFIGS = {
    "top-not-object": ("[1, 2]", "config: expected an object"),
    "duplicated-key": (
        json.dumps(ideal_config(n_trials=10))[:-1] + ', "n_trials": 1000}',
        "config: invalid JSON in ",
    ),
    # deeper than the JSON decoder's recursion limit
    "nested-too-deep": ("[" * 200000 + "]" * 200000, "config: invalid JSON in "),
    "top-missing": ({"n_trials": DROP}, "n_trials: missing required field"),
    # required top-level fields are checked before any field is parsed
    "top-missing-before-bad-state": (
        {"scenario": DROP, "state": {"p0": 2.0}}, "scenario: missing required field",
    ),
    "state-empty": ({"state": {}}, "state.p0: missing required field"),
    # past the int64 pattern counts and trial indices
    "n-trials-past-int64": ({"n_trials": 2**63}, "n_trials: must be <= 9223372036854775807, got 9223372036854775808"),
    "scenario-not-object": ({"scenario": "binomial"}, "scenario: expected an object"),
    "scenario-no-kind": ({"scenario": {"pmf": [0.25, 0.5, 0.25]}}, "scenario.kind: missing required field"),
    "scenario-kind": ({"scenario": {"kind": "split"}}, "scenario.kind: unknown scenario kind"),
    "pmf-not-list": ({"scenario": {"kind": "custom", "pmf": 0.5}}, "scenario.pmf: custom scenario needs"),
    "pmf-empty": ({"scenario": {"kind": "custom", "pmf": []}}, "scenario.pmf: custom scenario needs"),
    "model-not-object": ({"detector_model": "ideal"}, "detector_model: expected an object"),
    "model-missing": ({"detector_model": {"detectors": []}}, "detector_model.model: missing required field"),
    "model-unknown": ({"detector_model": {"model": "squid"}}, "detector_model.model: unknown model"),
    "model-field-unknown": (
        {"detector_model": {**QPC_MODEL, "samplng": "exact"}}, "detector_model.samplng: unknown field",
    ),
    "model-option": (
        {"detector_model": {**QPC_MODEL, "sampling": "fast"}},
        'detector_model.sampling: must be "exact" or "gaussian"',
    ),
    "detectors-not-list": (
        {"detector_model": {**QPC_MODEL, "detectors": QPC_DETECTOR}},
        "detector_model.detectors: need a non-empty list",
    ),
    "detectors-empty": (
        {"detector_model": {**QPC_MODEL, "detectors": []}}, "detector_model.detectors: need a non-empty list",
    ),
    "detector-not-object": (
        {"detector_model": {**QPC_MODEL, "detectors": [0.5, 0.5]}},
        "detector_model.detectors[0]: expected an object",
    ),
    "detector-unknown-before-missing": (
        {"detector_model": {**QPC_MODEL, "detectors": [{**NO_T1, "temperature_mK": 20.0}, QPC_DETECTOR]}},
        "detector_model.detectors[0].temperature_mK: unknown field",
    ),
    "detector-missing": (
        {"detector_model": {**QPC_MODEL, "detectors": [NO_T1, QPC_DETECTOR]}},
        "detector_model.detectors[0].t1: missing required field",
    ),
    # an attempt count 2eV*tau/h that overflows to inf, and one past numpy's int64 trial count
    "detector-attempts-inf": (
        {"detector_model": {**QPC_MODEL, "detectors": [QPC_DETECTOR, huge_qpc_detector(1e300)]}},
        "detector_model.detectors[1]: attempt count 2eV*tau/h = inf rounds above 9223372036854775807",
    ),
    "detector-attempts-huge": (
        {"detector_model": {**QPC_MODEL, "detectors": [huge_qpc_detector(1e150), QPC_DETECTOR]}},
        "detector_model.detectors[0]: attempt count 2eV*tau/h = 4.84e+299 rounds above 9223372036854775807",
    ),
    # finite fields whose derived scales overflow to inf or underflow to 0
    "detector-omega-huge": (
        {"detector_model": second_detector(oscillator_config(), omega=1e200)},
        "detector_model.detectors[1]: mass, omega, beta and coupling_lambda give X = 0 and dx = 0; "
        "X, dx and X/dx must be finite and dx positive",
    ),
    "detector-omega-tiny": (
        {"detector_model": second_detector(oscillator_config(), omega=1e-200)},
        "detector_model.detectors[1]: mass, omega, beta and coupling_lambda give X = inf and dx = inf",
    ),
    "detector-mass-subnormal": (
        {"detector_model": second_detector(oscillator_config(), mass=1e-320)},
        "detector_model.detectors[1]: mass, omega, beta and coupling_lambda give X = inf and dx = inf",
    ),
    "detector-shot-noise-underflow": (
        {"detector_model": {
            **second_detector(qpc_config(), bias_voltage_uV=1e-300, observation_time_ns=1e300),
            "sampling": "gaussian",
        }},
        "detector_model.detectors[1]: bias_voltage and observation_time give current spreads 0 and 0 A; "
        "both must be finite and positive",
    ),
    "detector-discriminability-inf": (
        {"detector_model": second_detector(qpc_config(), bias_voltage_uV=6.5e165, observation_time_ns=1e-148)},
        "detector_model.detectors[1]: bias_voltage and observation_time give D = inf; it must be finite",
    ),
    "error-model-not-object": ({"error_model": [0.1, 0.1]}, "error_model: expected an object"),
    # a section given as null is a fault, not a section left at its default
    "error-model-null": ({"error_model": None}, "error_model: expected an object"),
    "error-model-empty": ({"error_model": {}}, "error_model.eps: missing required field"),
    "eps-not-list": ({"error_model": {"eps": 0.1}}, "error_model.eps: expected a list"),
    "eps-half": ({"error_model": {"eps": [0.5, 0.1]}}, "error_model.eps[0]: must be < 0.5, got 0.5"),
    "inference-not-object": ({"inference": [0.05]}, "inference: expected an object"),
    "inference-null": ({"inference": None}, "inference: expected an object"),
    "number-type": ({"inference": {"alpha": "0.05"}}, "inference.alpha: expected a number"),
    "number-nan": ({"inference": {"prior_log_odds": math.nan}}, "inference.prior_log_odds: must be finite"),
    # JSON integers beyond float range, which float() cannot convert, read as the float 1e400 does
    "number-integer-beyond-float": ({"state": {"p0": 10**400}}, "state.p0: must be finite"),
    # a transmission of 0 or 1 is refused where the field is read, naming it
    "detector-t0-zero": (
        {"detector_model": second_detector(qpc_config(), t0=0.0)},
        "detector_model.detectors[1].t0: must be > 0.0, got 0.0",
    ),
    "detector-t1-one": (
        {"detector_model": second_detector(qpc_config(), t1=1.0)},
        "detector_model.detectors[1].t1: must be < 1.0, got 1.0",
    ),
    "detector-integer-beyond-float": (
        {"detector_model": second_detector(qpc_config(), t0=-(10**400))},
        "detector_model.detectors[1].t0: must be finite",
    ),
}


# finite extremes of every detector field: subnormals, the largest float, +-1e300 scales, bounds
EXTREME = (5e-324, 1e-320, 1e-300, 1e-200, 1e-9, 0.5, 1.0, 1e9, 1e200, 1e300, sys.float_info.max)
UNIT_INTERVAL = (5e-324, 1e-300, 1e-9, 0.4, 0.6, 1 - 1e-9, 1 - 2**-53)


@st.composite
def extreme_models(draw):
    """A physical detector model of two detectors, each field drawn from its finite extremes."""
    if draw(st.booleans()):
        model = {"model": "oscillator", "unit_system": draw(st.sampled_from(["si", "natural"]))}
        fields = dict.fromkeys(("mass", "omega", "beta", "relaxation_rate", "measurement_time"), EXTREME)
        fields["coupling_lambda"] = (0.0, *EXTREME)
    else:
        model = {"model": "qpc", "sampling": draw(st.sampled_from(["exact", "gaussian"]))}
        fields = dict.fromkeys(("bias_voltage_uV", "observation_time_ns"), EXTREME)
        fields.update(dict.fromkeys(("t0", "t1"), UNIT_INTERVAL))
    model["detectors"] = [{f: draw(st.sampled_from(values)) for f, values in fields.items()} for _ in range(2)]
    return model


SIM_QPC4_DETECTORS = [
    {"bias_voltage_uV": 50.0, "observation_time_ns": tau, "t0": t0, "t1": t1}
    for t0, t1 in ((0.4, 0.6), (0.6, 0.4))
    for tau in (12.5, 25.0)
]
SWEEP_OSC_DETECTOR = {
    "mass": 1.0, "omega": 1.0, "beta": 0.25, "coupling_lambda": 6.0, "relaxation_rate": 1.0, "measurement_time": 10.0,
}
# the benchmark's three configs (perfbench/workloads.py), a custom-law config and a QPC gaussian config
FUZZ_BASES = (
    {
        "state": {"p0": 0.5}, "scenario": {"kind": "binomial"},
        "detector_model": {"model": "qpc", "sampling": "exact", "detectors": SIM_QPC4_DETECTORS},
        "n_trials": 40, "seed": 1,
    },
    {
        "state": {"p0": 0.3}, "scenario": {"kind": "binomial"}, "detector_model": {"model": "ideal"},
        "n_detectors": 8, "error_model": {"eps": [round(0.01 + 0.005 * i, 3) for i in range(8)]},
        "n_trials": 40, "seed": 2,
    },
    {
        "state": {"p0": 0.5}, "scenario": {"kind": "unanimous"},
        "detector_model": {
            "model": "oscillator", "unit_system": "natural", "detectors": [SWEEP_OSC_DETECTOR, SWEEP_OSC_DETECTOR],
        },
        "n_trials": 40, "seed": 3,
    },
    {**custom_law_config(), "n_trials": 40, "inference": {"alpha": 0.05, "prior_log_odds": 0.0}},
    {
        "state": [0.6, 0.0, 0.0, 0.8], "scenario": {"kind": "unanimous"},
        "detector_model": {"model": "qpc", "sampling": "gaussian", "detectors": SIM_QPC4_DETECTORS},
        "n_trials": 40, "seed": 4,
    },
)
# every JSON type, signed zeros, the float range's edges and integers past int64 and past float range;
# as n_trials, 2**63 and past are refused at once
FUZZ_VALUES = (
    None, True, False, "", "0.5", [], [0.5, 0.5], {}, {"p0": 0.5},
    0, 1, -1, 0.0, -0.0, 0.5, 5e-324, 1e308, -1e308, 2**63, 2**64, 10**400, -(10**400), math.nan,
)


def json_copy(value):
    return json.loads(json.dumps(value))


def config_slots(node):
    """(container, key) of every value under a JSON object or list, depth first."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from config_slots(value)


@st.composite
def fuzzed_configs(draw):
    """A FUZZ_BASES config with one key dropped, or with 1-3 leaves replaced by FUZZ_VALUES."""
    raw = json_copy(draw(st.sampled_from(FUZZ_BASES)))
    if draw(st.booleans()):
        parent, key = draw(st.sampled_from([(p, k) for p, k in config_slots(raw) if isinstance(p, dict)]))
        del parent[key]
        return raw
    for _ in range(draw(st.integers(1, 3))):
        leaves = [(p, k) for p, k in config_slots(raw) if not isinstance(p[k], (dict, list)) or not p[k]]
        parent, key = draw(st.sampled_from(leaves))
        parent[key] = json_copy(draw(st.sampled_from(FUZZ_VALUES)))
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def simulate(tmp_path, raw, out="run", extra=()):
    cfg = write_config(tmp_path, raw)
    out_dir = tmp_path / out
    code = main(["simulate", "--config", str(cfg), "--out", str(out_dir), *extra])
    return code, out_dir


class TestSimulate:
    def test_minimal_run(self, tmp_path):
        code, out = simulate(tmp_path, ideal_config())
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["M"] == 1000
        assert summary["M0"] + summary["M1"] + summary["m"] == 1000
        assert sum(summary["histogram_n0"]) == 1000
        assert summary["seed"] == 42
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0].startswith(CONFIG_COMMENT)
        assert lines[1] == "trial,latent,reading_1,reading_2,outcome_1,outcome_2"
        assert len(lines) == 2 + 1000

    def test_reruns_byte_identical_across_thread_hints(self, tmp_path):
        _, out_a = simulate(tmp_path, ideal_config(), out="a", extra=("--threads", "1"))
        _, out_b = simulate(tmp_path, ideal_config(), out="b", extra=("--threads", "8"))
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    @pytest.mark.parametrize(
        "raw",
        [
            ideal_config(p0=0.36, seed=3),
            qpc_config(n_trials=300),
            oscillator_config(n_trials=300),
        ],
        ids=["ideal", "qpc", "oscillator"],
    )
    def test_rerun_from_embedded_config_reproduces_output(self, tmp_path, raw):
        _, out_a = simulate(tmp_path, raw, out="a")
        first_line = (out_a / "records.csv").read_text().splitlines()[0]
        echo = json.loads(first_line[len(CONFIG_COMMENT):])
        code, out_b = simulate(tmp_path, echo, out="b")
        assert code == 0
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_state_renormalized(self, tmp_path, scale):
        # the squared components overflow or underflow; the ray is still [1, 0, 1, 0]'s
        with pytest.warns(NormalizationWarning, match="^state: "):
            _, out_a = simulate(tmp_path, ideal_config(state=[1.0, 0.0, 1.0, 0.0]), out="a")
            code, out_b = simulate(tmp_path, ideal_config(state=[scale, 0.0, scale, 0.0]), out="b")
        assert code == 0
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_seed_override_changes_data_and_echo(self, tmp_path):
        _, out_a = simulate(tmp_path, ideal_config(), out="a")
        _, out_b = simulate(tmp_path, ideal_config(), out="b", extra=("--seed", "99"))
        assert (out_a / "records.csv").read_bytes() != (out_b / "records.csv").read_bytes()
        assert json.loads((out_b / "summary.json").read_text())["seed"] == 99

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_seed_outside_key_range_rejected(self, tmp_path, capsys, seed):
        code, out = simulate(tmp_path, ideal_config(), extra=("--seed", seed))
        assert code == 1
        assert "config error: seed:" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_largest_seed_accepted(self, tmp_path):
        # -5 used to be masked onto 2**64 - 5; now only the latter is a seed
        code, out = simulate(tmp_path, ideal_config(), out="top", extra=("--seed", str(2**64 - 5)))
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 2**64 - 5

    def test_format_subset(self, tmp_path):
        code, out = simulate(tmp_path, ideal_config(), extra=("--format", "json"))
        assert code == 0
        assert not (out / "records.csv").exists()
        assert (out / "summary.json").exists()

    def test_no_contrast_is_model_error(self, tmp_path, capsys):
        raw = qpc_config(t_pair=((0.5, 0.5), (0.6, 0.4)))
        code, _ = simulate(tmp_path, raw)
        assert code == 2
        assert "NoContrast" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "failure, code, message",
        [
            ("model", 2, "model error: NoContrastError: "),
            ("full-disk", 1, "config error: output_dir: not writable: [Errno 28]"),
        ],
        ids=["model", "full-disk"],
    )
    def test_failed_run_leaves_no_output(self, tmp_path, capsys, failure, code, message):
        # the files of an earlier run in the same directory must not pass for this one's
        assert simulate(tmp_path, ideal_config())[0] == 0
        if failure == "model":
            raw = qpc_config(t_pair=((0.5, 0.5), (0.6, 0.4)))
        else:
            if not os.path.exists("/dev/full"):
                pytest.skip("needs /dev/full")
            (tmp_path / "run" / "records.csv").unlink()
            (tmp_path / "run" / "records.csv").symlink_to("/dev/full")
            raw = ideal_config(n_trials=20000)
        assert simulate(tmp_path, raw)[0] == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert list((tmp_path / "run").iterdir()) == []

    def test_unwritable_output_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ideal_config())
        code = main(["simulate", "--config", str(cfg), "--out", "/dev/null/run"])
        assert code == 1
        assert "output_dir" in capsys.readouterr().err

    def test_config_error_names_field(self, tmp_path, capsys):
        raw = ideal_config()
        raw["n_trials"] = 0
        code, _ = simulate(tmp_path, raw)
        assert code == 1
        assert "n_trials" in capsys.readouterr().err

    def test_bad_transmission_names_field(self, tmp_path, capsys):
        raw = qpc_config()
        raw["detector_model"]["detectors"][0]["t0"] = 1.0
        code, _ = simulate(tmp_path, raw)
        assert code == 1
        assert "detector_model.detectors[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "location, field",
        [
            ("top", "error_modle"),
            ("state", "state.p1"),
            ("scenario", "scenario.pmf"),
            ("detector_model", "detector_model.sampling"),
            ("error_model", "error_model.epsilon"),
            ("inference", "inference.alhpa"),
        ],
    )
    def test_unknown_key_named(self, tmp_path, capsys, location, field):
        raw = ideal_config(error_model={"eps": [0.1, 0.1]}, inference={"alpha": 0.05})
        node = raw if location == "top" else raw[location]
        node[field.split(".")[-1]] = [0.5, 0.5] if location != "detector_model" else "exact"
        code, _ = simulate(tmp_path, raw)
        err = capsys.readouterr().err
        assert code == 1
        assert f"config error: {field}: unknown field" in err
        assert "Traceback" not in err

    def test_qpc_readings_reported_in_nanoamps(self, tmp_path):
        code, out = simulate(tmp_path, qpc_config(n_trials=50))
        assert code == 0
        rows = [
            line.split(",")
            for line in (out / "records.csv").read_text().splitlines()[2:]
        ]
        readings = np.array([[float(r[2]), float(r[3])] for r in rows])
        # 50 uV bias and T in (0.4, 0.6) put currents between 1 and 3 nA
        assert np.all(readings > 0.5) and np.all(readings < 5.0)


class TestInfer:
    def run_infer(self, tmp_path, raw, capsys):
        cfg = write_config(tmp_path, raw)
        out_dir = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 0
        code = main(["infer", "--records", str(out_dir / "records.csv"), "--config", str(cfg)])
        payload = json.loads(capsys.readouterr().out)
        return code, payload

    def test_round_trip_unanimous(self, tmp_path, capsys):
        code, payload = self.run_infer(
            tmp_path, ideal_config(scenario="unanimous", n_trials=400), capsys
        )
        assert code == 0
        assert payload["decision"] == "unanimous"
        assert payload["M_used"] == 400

    def test_round_trip_binomial(self, tmp_path, capsys):
        code, payload = self.run_infer(
            tmp_path, ideal_config(scenario="binomial", n_trials=400), capsys
        )
        assert code == 0
        assert payload["decision"] == "binomial"
        assert payload["loglik_H1"] == "-Infinity"

    def test_physical_round_trips(self, tmp_path, capsys):
        for raw in (qpc_config(n_trials=300), oscillator_config(n_trials=300)):
            for kind in ("unanimous", "binomial"):
                raw = dict(raw)
                raw["scenario"] = {"kind": kind}
                code, payload = self.run_infer(tmp_path, raw, capsys)
                assert code == 0
                assert payload["decision"] == kind

    def test_required_trials_counts_every_detector(self, tmp_path, capsys):
        _, payload = self.run_infer(
            tmp_path, ideal_config(p0=0.99, scenario="unanimous", n_trials=50, n_detectors=3),
            capsys,
        )
        q3 = 1 - 0.99**3 - 0.01**3  # some detector of three disagrees
        q2 = 2 * 0.99 * 0.01  # the two-detector figure
        assert payload["M_required_alpha"] == math.ceil(math.log(0.01) / math.log(1 - q3))
        assert payload["M_required_alpha"] < math.ceil(math.log(0.01) / math.log(1 - q2))

    def test_uncountable_required_trials_reported_as_null(self, tmp_path, capsys):
        # p0 ~ 5e-324: the trial count overflows a float instead of ending in a traceback
        code, payload = self.run_infer(
            tmp_path, ideal_config(p0=5e-324, scenario="unanimous", n_trials=20), capsys
        )
        assert code == 3  # both laws all but certainly read 1 everywhere
        assert payload["M_required_alpha"] is None

    def test_verdict_matches_schema(self, tmp_path, capsys):
        schema = json.loads((DOCS / "verdict.schema.json").read_text())
        for scenario in ("unanimous", "binomial"):
            _, payload = self.run_infer(
                tmp_path, ideal_config(scenario=scenario, n_trials=300), capsys
            )
            jsonschema.validate(payload, schema)

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / "records.csv"
        rows = ["trial,latent,reading_1,reading_2,outcome_1,outcome_2"]
        rows += [f"{i},,0.0,0.0,0,0" for i in range(3)]  # 3*ln2 < ln100
        records.write_text("\n".join(rows) + "\n")
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["decision"] == "inconclusive"

    def test_truncated_row_reports_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / "records.csv"
        records.write_text(
            "trial,latent,reading_1,reading_2,outcome_1,outcome_2\n"
            "0,,0.0,0.0,0,0\n"
            "1,,0.0,0.0,0\n"
        )
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("indices, line", [((0, 1, 1, 2), 4), ((0, 1, 2, 0, 1, 2), 5)])
    def test_repeated_trial_index_rejected(self, tmp_path, capsys, indices, line):
        # a duplicated row, and two runs concatenated into one file
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / "records.csv"
        rows = ["trial,latent,reading_1,reading_2,outcome_1,outcome_2"]
        rows += [f"{i},,0.0,0.0,0,0" for i in indices]
        records.write_text("\n".join(rows) + "\n")
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"records: line {line}: trial index" in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,7,0.0,0.0,0,0", "latent must be empty, 0 or 1"),
            ("2,-1,0.0,0.0,0,0", "latent must be empty, 0 or 1"),
            ("2,,nan,0.0,0,0", "readings must be finite"),
            ("2,1,0.0,-inf,0,0", "readings must be finite"),
            ("2,1,inf,-inf,0,0", "readings must be finite"),
            ("2,,0.0,0.0,0,2", "outcomes must be 0 or 1"),
        ],
    )
    def test_bad_latent_or_reading_rejected(self, tmp_path, capsys, row, message):
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / "records.csv"
        rows = ["trial,latent,reading_1,reading_2,outcome_1,outcome_2"]
        rows += ["0,0,0.0,0.0,0,0", "1,,1.0,1.0,1,1", row, "3,1,1.0,1.0,1,1"]
        records.write_text("\n".join(rows) + "\n")
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"records: line 4: {message}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# multidetect-config: {}\n\n", "no header row found"),
            ("trial,latent,reading_1,reading_2,outcome_1,outcome_2\n# no trials\n", "no trial rows found"),
        ],
        ids=["comment-only", "header-only"],
    )
    def test_records_without_trials_rejected(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / "records.csv"
        records.write_text(text)
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"config error: records: {message}\n"

    @pytest.mark.parametrize("name", [".", "absent.csv"], ids=["directory", "absent"])  # "." is tmp_path itself
    def test_unreadable_records_named(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / name
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"config error: records: cannot read {records}: [Errno ")
        assert "Traceback" not in captured.err

    def test_huge_finite_readings_accepted(self, tmp_path, capsys):
        # their sum overflows to inf, but each reading is finite
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / "records.csv"
        rows = ["trial,latent,reading_1,reading_2,outcome_1,outcome_2"]
        rows += [f"{i},,1.7e308,1.7e308,0,0" for i in range(3)]
        records.write_text("\n".join(rows) + "\n")
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        assert code == 3  # 3 ln 2 < ln 100
        assert json.loads(capsys.readouterr().out)["M_used"] == 3

    def test_index_gaps_allowed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / "records.csv"
        rows = ["trial,latent,reading_1,reading_2,outcome_1,outcome_2"]
        rows += [f"{i},,0.0,0.0,0,0" for i in (0, 5, 6, 40)]
        records.write_text("\n".join(rows) + "\n")
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        assert code == 3  # 4 ln 2 < ln 100
        assert json.loads(capsys.readouterr().out)["M_used"] == 4

    def test_detector_count_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ideal_config(n_detectors=3))
        records = tmp_path / "records.csv"
        records.write_text(
            "trial,latent,reading_1,reading_2,outcome_1,outcome_2\n0,,0.0,0.0,0,0\n"
        )
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        assert code == 1
        assert "detectors" in capsys.readouterr().err

    def test_detector_count_mismatch_reported_before_row_faults(self, tmp_path, capsys):
        # a header valid for 2 detectors is refused against a 3-detector config before its faulty first row is read
        cfg = write_config(tmp_path, ideal_config(n_detectors=3))
        records = tmp_path / "records.csv"
        records.write_text(_records_header(2) + "\n0,,x\n")
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == "config error: records: records have 2 detectors but config says 3\n"

    def test_records_beyond_packing_limit_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / "records.csv"
        records.write_text(_records_header(65) + "\n0,," + ",".join(["0.0"] * 65 + ["0"] * 65) + "\n")
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error: records: 65 detectors exceed the packing limit of 64" in err

    def test_packing_limit_reported_before_row_faults(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / "records.csv"
        records.write_text(_records_header(65) + "\n0,,x\n")
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == "config error: records: 65 detectors exceed the packing limit of 64\n"

    def test_sixty_four_detectors(self, tmp_path, capsys):
        # the summed disagreement probability rounds to 1 here; the trial count is still 1
        code, payload = self.run_infer(tmp_path, ideal_config(n_trials=200, n_detectors=64), capsys)
        assert code == 0
        assert payload["decision"] == "binomial"
        assert payload["M_used"] == 200
        assert payload["M_required_alpha"] == 1


class TestDiscriminability:
    def run(self, tmp_path, raw, capsys):
        cfg = write_config(tmp_path, raw)
        code = main(["discriminability", "--config", str(cfg)])
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None

    def test_uncoupled_pointer_unreliable(self, tmp_path, capsys):
        code, payload = self.run(tmp_path, oscillator_config(coupling=0.0), capsys)
        assert code == 0
        for det in payload["detectors"]:
            assert det["value"] == 0.0
            assert det["reliable"] is False

    def test_qpc_reference_value(self, tmp_path, capsys):
        raw = qpc_config(n_attempts=10**4, t_pair=((0.3, 0.7), (0.7, 0.3)))
        raw["detector_model"]["detectors"][0]["bias_voltage_uV"] = 100.0
        raw["detector_model"]["detectors"][0]["observation_time_ns"] = (
            qpc_detector(0.3, 0.7, 10**4, bias_uV=100.0)["observation_time_ns"]
        )
        code, payload = self.run(tmp_path, raw, capsys)
        assert code == 0
        d_value = payload["detectors"][0]["value"]
        assert d_value == pytest.approx(3809.5238, rel=1e-3)
        assert payload["detectors"][0]["reliable"] is True

    def test_required_trials_closed_form(self, tmp_path, capsys):
        raw = oscillator_config()  # misread ~ 2.9e-7, negligible against p0 = 0.5
        code, payload = self.run(tmp_path, raw, capsys)
        assert code == 0
        assert payload["required_trials"]["0.001"] == math.ceil(
            math.log(0.001) / math.log(0.5)
        )

    def test_ideal_model_rejected(self, tmp_path, capsys):
        code, _ = self.run(tmp_path, ideal_config(), capsys)
        assert code == 1

    def test_matches_schema(self, tmp_path, capsys):
        schema = json.loads((DOCS / "discriminability.schema.json").read_text())
        for raw in (oscillator_config(), qpc_config()):
            _, payload = self.run(tmp_path, raw, capsys)
            jsonschema.validate(payload, schema)


def read_sweep_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# multidetect-sweep: ")
    header = lines[1].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[2:]]
    return header, rows


class TestSweep:
    def test_split_probability_tracks_curve(self, tmp_path):
        raw = ideal_config(p0=0.1, n_trials=4000)
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--config", str(cfg), "--field", "state.p0",
            "--start", "0.1", "--stop", "0.9", "--steps", "9", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_sweep_csv(out)
        assert len(rows) == 9
        for row in rows:
            p0 = row["value"]
            expected = 2 * p0 * (1 - p0)
            band = 4 * math.sqrt(expected * (1 - expected) / 4000)
            assert abs(row["m_over_M"] - expected) < band

    def test_qpc_discriminability_linear_in_time(self, tmp_path):
        raw = qpc_config(n_trials=50)
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "sweep.csv"
        tau0 = raw["detector_model"]["detectors"][0]["observation_time_ns"]
        code = main([
            "sweep", "--config", str(cfg),
            "--field", "detector_model.detectors.0.observation_time_ns",
            "--start", str(tau0), "--stop", str(2 * tau0), "--steps", "3", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_sweep_csv(out)
        assert "disc_1" in header
        assert rows[2]["disc_1"] == pytest.approx(2 * rows[0]["disc_1"], rel=1e-9)
        assert rows[1]["disc_1"] == pytest.approx(1.5 * rows[0]["disc_1"], rel=1e-9)

    def test_unknown_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ideal_config())
        code = main([
            "sweep", "--config", str(cfg), "--field", "state.phase",
            "--start", "0", "--stop", "1", "--steps", "3",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1
        assert "state.phase" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, default, start, stop",
        [("seed", 0, 1, 3), ("n_detectors", 2, 2, 4), ("inference.alpha", 0.01, 0.01, 0.05)],
    )
    def test_field_left_at_default_swept(self, tmp_path, field, default, start, stop):
        # a config that leaves the field out sweeps as one that writes its default
        written = {k: v for k, v in ideal_config(n_trials=300).items() if k not in ("seed", "n_detectors")}
        top, _, inner = field.partition(".")
        written[top] = {inner: default} if inner else default
        swept = []
        for name, raw in (("written", written), ("left-out", {k: v for k, v in written.items() if k != top})):
            out = tmp_path / f"{name}.csv"
            code = main([
                "sweep", "--config", str(write_config(tmp_path, raw, name=f"{name}.json")), "--field", field,
                "--start", str(start), "--stop", str(stop), "--steps", "3", "--out", str(out),
            ])
            assert code == 0
            swept.append(out.read_bytes())
        assert swept[0] == swept[1]

    def test_field_no_config_has_named_by_resolve(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--config", str(write_config(tmp_path, ideal_config())), "--field", "inference.beta",
            "--start", "0", "--stop", "1", "--steps", "3", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "config error: inference.beta: unknown field; "
            "expected one of ['alpha', 'log_odds_threshold', 'prior_log_odds']\n"
        )
        assert not out.exists()

    def test_empty_grid(self, tmp_path):
        cfg = write_config(tmp_path, ideal_config())
        code = main([
            "sweep", "--config", str(cfg), "--field", "state.p0",
            "--start", "0.1", "--stop", "0.9", "--steps", "0",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1

    @pytest.mark.parametrize("bound", ["start", "stop"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_bound_rejected_before_writing(self, tmp_path, capsys, bound, value):
        cfg = write_config(tmp_path, ideal_config())
        out = tmp_path / "s.csv"
        bounds = {"start": "0.1", "stop": "0.9", bound: value}
        code = main([
            "sweep", "--config", str(cfg), "--field", "state.p0", "--steps", "3", "--out", str(out),
            *(f"--{name}={text}" for name, text in bounds.items()),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"config error: {bound}: must be finite\n"
        assert not out.exists()

    def test_sweep_reruns_identical(self, tmp_path):
        cfg = write_config(tmp_path, ideal_config(n_trials=200))
        args = [
            "sweep", "--config", str(cfg), "--field", "state.p0",
            "--start", "0.2", "--stop", "0.8", "--steps", "4",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @staticmethod
    def sweep(tmp_path, raw, field, start, stop, steps, *extra):
        cfg = write_config(tmp_path, raw)
        return main([
            "sweep", "--config", str(cfg), "--field", field, "--start", str(start), "--stop", str(stop),
            "--steps", str(steps), "--out", str(tmp_path / "sweep.csv"), *extra,
        ])

    @pytest.mark.parametrize(
        "raw, grid, code, message",
        [
            pytest.param(
                custom_law_config(), ("state.p0", 0.3, 0.9, 3), 1,
                "config error: scenario.pmf: pmf mean 0.6000000000000001 violates the mean constraint "
                "p0*N = 1.2000000000000002\n",
                id="custom-law-point",
            ),
            pytest.param(
                qpc_config(t_pair=((0.5, 0.5), (0.6, 0.4))), ("state.p0", 0.3, 0.9, 3), 2,
                "model error: NoContrastError: t_given_0 == t_given_1: current carries no outcome signal\n",
                id="no-contrast",
            ),
            pytest.param(
                ideal_config(), ("n_trials", 1000, 2000, 4), 1,
                "config error: n_trials: expected an integer, got 1333.3333333333333\n",
                id="non-integral-n_trials",
            ),
            pytest.param(
                ideal_config(), ("seed", 1, 3, 3, "--seed", "5"), 1,
                "config error: seed: cannot be both the swept field and overridden by --seed\n",
                id="seed-swept-and-overridden",
            ),
        ],
    )
    @pytest.mark.parametrize("existing", [None, b"kept as it was\n"], ids=["absent", "existing"])
    def test_failing_sweep_writes_nothing(self, tmp_path, capsys, raw, grid, code, message, existing):
        out = tmp_path / "sweep.csv"
        if existing is not None:
            out.write_bytes(existing)
        assert self.sweep(tmp_path, raw, *grid) == code
        assert capsys.readouterr().err == message
        assert (out.read_bytes() if out.exists() else None) == existing

    def test_warnings_shown_once_when_a_point_fails(self, tmp_path, capsys):
        with pytest.warns(GaussianRegimeWarning) as shown:
            code = self.sweep(tmp_path, low_attempt_qpc_config(), "state.p0", 0.1, 1.5, 8)
        assert code == 1
        assert capsys.readouterr().err == "config error: state.p0: must be <= 1.0, got 1.0999999999999999\n"
        assert [str(w.message).split(" <")[0] for w in shown] == [
            "detector_model.detectors[0]: attempt count 12",
            "detector_model.detectors[1]: attempt count 24",
        ]
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("field, start, stop", [("n_trials", 1000, 3000), ("seed", 1, 3), ("n_detectors", 2, 4)])
    def test_integer_field(self, tmp_path, field, start, stop):
        assert self.sweep(tmp_path, ideal_config(), field, start, stop, 3) == 0
        _, rows = read_sweep_csv(tmp_path / "sweep.csv")
        assert [row["value"] for row in rows] == [start, (start + stop) / 2, stop]
        # each grid value reached its run: no two rows hold the same fractions
        assert len({tuple(row.values())[1:] for row in rows}) == 3

    # numpy refuses each grid before allocating it: past the address space, past intp, past int64 indexing
    @pytest.mark.parametrize("steps", [10**15, 2**62, 2**63 - 1])
    def test_unbuildable_grid_named(self, tmp_path, capsys, steps):
        assert self.sweep(tmp_path, ideal_config(), "state.p0", 0.1, 0.9, steps) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: steps: cannot build a grid of {steps} points: ")
        assert "Traceback" not in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "raw, field, start, stop",
        [
            pytest.param(
                qpc_config(n_trials=50), "detector_model.detectors[0].observation_time_ns",
                QPC_DETECTOR["observation_time_ns"], 2 * QPC_DETECTOR["observation_time_ns"], id="observation-time",
            ),
            pytest.param(ideal_config(state=[0.6, 0.0, 0.8, 0.0]), "state[0]", 0.6, 0.6, id="state"),
            pytest.param(custom_law_config(), "scenario.pmf[1]", 0.2, 0.2, id="pmf"),
            pytest.param(ideal_config(error_model={"eps": [0.01, 0.02]}), "error_model.eps[1]", 0.02, 0.04, id="eps"),
            pytest.param(qpc_config(n_trials=50), "detector_model.detectors[1].t0", 0.55, 0.65, id="detector"),
        ],
    )
    def test_list_element_named_as_config_prints_it(self, tmp_path, raw, field, start, stop):
        # name[i], as config errors print a list element, sweeps the same slot as name.i
        lines = []
        for name in (field, re.sub(r"\[(\d+)\]", r".\1", field)):
            assert self.sweep(tmp_path, raw, name, start, stop, 3) == 0
            lines.append((tmp_path / "sweep.csv").read_text().splitlines())
            assert json.loads(lines[-1][0].removeprefix("# multidetect-sweep: "))["field"] == name
        assert lines[0][1:] == lines[1][1:]
        assert len(lines[0]) == 5

    def test_sweep_resolves_through_the_module_global(self, tmp_path, monkeypatch):
        # perfbench times setup_s and counts config.resolve_calls by rebinding config.resolve
        from multidetect import config

        calls = []
        resolve = config.resolve

        def counted(*args, **kwargs):
            calls.append(1)
            return resolve(*args, **kwargs)

        monkeypatch.setattr(config, "resolve", counted)
        assert self.sweep(tmp_path, ideal_config(n_trials=100), "state.p0", 0.2, 0.8, 3) == 0
        assert len(calls) == 4


class TestBadInput:
    NOT_UTF8 = b'{"state": {"p0": 0.5}, "scenario": {"kind": "binomial\xff"}}'

    @pytest.mark.parametrize("config, message", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
    def test_bad_config_named(self, tmp_path, capsys, config, message):
        if isinstance(config, dict):
            raw = {**ideal_config(), **config}
            config = json.dumps({k: v for k, v in raw.items() if v is not DROP})
        (tmp_path / "config.json").write_text(config)
        code = main(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @settings(
        max_examples=150, deadline=None, database=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(extreme_models())
    def test_extreme_finite_detector_ends_in_exit_code(self, tmp_path, model):
        # exit 1 names the detector; exit 2 is a model error such as X/dx < 1
        cfg = write_config(tmp_path, {**ideal_config(n_trials=20), "detector_model": model})
        commands = [
            ["simulate", "--format", "json", "--out", str(tmp_path / "run")],
            ["discriminability"],
            ["sweep", "--field", "state.p0", "--start", "0.2", "--stop", "0.8", "--steps", "2",
             "--out", str(tmp_path / "sweep.csv")],
        ]
        for command in commands:
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore")
                code = main([command[0], "--config", str(cfg), *command[1:]])
            assert code in (0, 1, 2), err.getvalue()
            if code == 1:
                assert err.getvalue().startswith("config error: detector_model.detectors["), err.getvalue()

    @settings(
        max_examples=300, deadline=None, database=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(fuzzed_configs())
    def test_fuzzed_config_ends_in_exit_code(self, tmp_path, raw):
        # every config ends in an exit code, and exit 1 names the field it faults
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        commands = [
            ["discriminability"],
            ["simulate", "--format", "json", "--out", str(tmp_path / "run")],
            ["sweep", "--field", "state.p0", "--start", "0.2", "--stop", "0.8", "--steps", "2",
             "--out", str(tmp_path / "sweep.csv")],
        ]
        for command in commands:
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore")
                code = main([command[0], "--config", str(cfg), *command[1:]])
            assert code in (0, 1, 2, 3), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code == 1:
                assert re.match(r"config error: [A-Za-z_]\w*(\.\w+|\[\d+\])*: ", err.getvalue()), err.getvalue()

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--threads", "0"), "threads: must be at least 1"),
            (("--format", "xml"), "format: must be a subset of {csv,json}, got 'xml'"),
        ],
        ids=["threads", "format"],
    )
    def test_bad_option_named(self, tmp_path, capsys, option, message):
        code, out = simulate(tmp_path, ideal_config(), extra=option)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"config error: {message}\n"
        assert not out.exists()

    def test_missing_config_named(self, tmp_path, capsys):
        code = main(["discriminability", "--config", str(tmp_path / "absent.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: config: cannot read {tmp_path / 'absent.json'}: ")

    @pytest.mark.parametrize("command", ["simulate", "infer", "discriminability", "sweep"])
    def test_non_utf8_config_named(self, tmp_path, capsys, command):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(self.NOT_UTF8)
        args = {
            "simulate": ["--out", str(tmp_path / "run")],
            "infer": ["--records", str(tmp_path / "records.csv")],
            "discriminability": [],
            "sweep": ["--field", "state.p0", "--start", "0.1", "--stop", "0.9", "--steps", "3",
                      "--out", str(tmp_path / "s.csv")],
        }[command]
        code = main([command, "--config", str(cfg), *args])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error: config: invalid JSON" in err
        assert "Traceback" not in err

    def test_non_utf8_records_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ideal_config())
        records = tmp_path / "records.csv"
        records.write_bytes(b"trial,latent,reading_1,reading_2,outcome_1,outcome_2\n0,\xff,0,0,0,0\n")
        code = main(["infer", "--records", str(records), "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err == "config error: records: line 2: byte 0xff is not UTF-8\n"

    @pytest.mark.parametrize(
        "field, message",
        [
            ("scenario.kind", "field is not numeric"),
            ("detector_model.detectors.9.t0", "unknown config field"),
            # list indices are ASCII digits: "²" and "١" are digits int() refuses or reads as 1
            pytest.param("detector_model.detectors.\u00b2.t0", "unknown config field", id="index-superscript"),
            pytest.param("detector_model.detectors.\u0661.t0", "unknown config field", id="index-arabic-indic"),
            # more digits than int() converts from a string
            pytest.param("detector_model.detectors." + "1" * 5000 + ".t0", "unknown config field", id="index-huge"),
            # a bracketed index names a list element only
            pytest.param("detector_model[0].model", "unknown config field", id="bracket-on-object"),
            pytest.param("detector_model.detectors[9].t0", "unknown config field", id="bracket-past-end"),
        ],
    )
    def test_sweep_field_rejected(self, tmp_path, capsys, field, message):
        cfg = write_config(tmp_path, qpc_config())
        code = main([
            "sweep", "--config", str(cfg), "--field", field,
            "--start", "0", "--stop", "1", "--steps", "3", "--out", str(tmp_path / "s.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert f"config error: {field}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "field", ["", ".", "state.", ".seed", "state..p0", "a[0", "a[]", "a[0]b", "a.[0]", "a[x]", "a]", "state[\u00b2]"],
    )
    def test_sweep_field_with_empty_name_rejected(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, ideal_config())
        code = main([
            "sweep", "--config", str(cfg), "--field", field,
            "--start", "0", "--stop", "1", "--steps", "3", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"config error: field: {field!r} is not a dotted path of config field names\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_seed_on_non_object_config_named(self, tmp_path, capsys, command):
        # --seed edits only a config object; resolve reports any other config
        cfg = write_config(tmp_path, [ideal_config()])
        args = {
            "simulate": ["--out", str(tmp_path / "run")],
            "sweep": ["--field", "state.p0", "--start", "0.1", "--stop", "0.9", "--steps", "3",
                      "--out", str(tmp_path / "s.csv")],
        }[command]
        code = main([command, "--config", str(cfg), "--seed", "5", *args])
        assert code == 1
        assert capsys.readouterr().err == "config error: config: expected an object\n"
        assert not (tmp_path / "run").exists() and not (tmp_path / "s.csv").exists()

    def test_regime_warnings_name_their_detector(self, tmp_path):
        raw = qpc_config(n_trials=20)
        raw["detector_model"]["detectors"] = [
            qpc_detector(0.4, 0.6, 302), qpc_detector(0.4, 0.6, 20), qpc_detector(0.6, 0.4, 40),
        ]
        cfg = write_config(tmp_path, raw)
        result = subprocess.run(
            [sys.executable, "-m", "multidetect.cli", "simulate",
             "--config", str(cfg), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=fresh_env(),
        )
        assert result.returncode == 0
        assert "detectors[0]" not in result.stderr
        assert "detector_model.detectors[1]: attempt count 20 < 100" in result.stderr
        assert "detector_model.detectors[2]: attempt count 40 < 100" in result.stderr
        assert "<string>" not in result.stderr

    def test_sweep_warns_once_per_detector(self, tmp_path):
        # recording each grid point's warnings must not show them once per point
        cfg = write_config(tmp_path, low_attempt_qpc_config())
        result = subprocess.run(
            [sys.executable, "-m", "multidetect.cli", "sweep", "--config", str(cfg),
             "--field", "state.p0", "--start", "0.1", "--stop", "0.9", "--steps", "9",
             "--out", str(tmp_path / "sweep.csv")],
            capture_output=True, text=True, env=fresh_env(),
        )
        assert result.returncode == 0
        warned = [line for line in result.stderr.splitlines() if "GaussianRegimeWarning" in line]
        assert len(warned) == 2
        assert "detector_model.detectors[0]: attempt count 12 < 100" in warned[0]
        assert "detector_model.detectors[1]: attempt count 24 < 100" in warned[1]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_full_disk_named(self, tmp_path, capsys, command):
        # opening succeeds; the writes and the close fail
        cfg = write_config(tmp_path, ideal_config(n_trials=20000))
        if command == "simulate":
            out = tmp_path / "run"
            out.mkdir()
            (out / "records.csv").symlink_to("/dev/full")
            args, field = ["--out", str(out)], "output_dir"
        else:
            (tmp_path / "sweep.csv").symlink_to("/dev/full")
            args = ["--field", "state.p0", "--start", "0.1", "--stop", "0.9", "--steps", "3",
                    "--out", str(tmp_path / "sweep.csv")]
            field = "out"
        code = main([command, "--config", str(cfg), *args])
        err = capsys.readouterr().err
        assert code == 1
        assert f"config error: {field}: not writable: [Errno 28]" in err
        assert "Traceback" not in err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The forks made on three usable cores, one entry each."""
    made, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    monkeypatch.setattr(os, "fork", lambda: made.append(None) or fork())
    return made


class TestWorkers:
    """simulate and infer cut the records CSV into parts for forked workers, and reap every one."""

    N_TRIALS = 3 * BLOCK_SIZE + 1  # four blocks, three parts

    def run(self, tmp_path):
        code, out = simulate(tmp_path, ideal_config(n_trials=self.N_TRIALS))
        assert code == 0
        return out / "records.csv"

    def infer(self, tmp_path, path):
        return main(["infer", "--records", str(path), "--config", str(tmp_path / "config.json")])

    def test_none_left_after_simulate_and_infer(self, tmp_path, forks):
        path = self.run(tmp_path)
        assert len(forks) == 2
        assert_no_child_left()
        assert self.infer(tmp_path, path) == 0
        assert len(forks) == 4
        assert_no_child_left()

    def test_none_left_after_a_row_fault_in_a_worker(self, tmp_path, capsys, forks):
        path = self.run(tmp_path)
        lines = path.read_text().splitlines()
        lines[-2] += ",0"  # in the last range
        path.write_text("\n".join(lines) + "\n")
        assert self.infer(tmp_path, path) == 1
        assert len(forks) == 4
        assert capsys.readouterr().err == f"config error: records: line {len(lines) - 1}: expected 6 fields, got 7\n"
        assert_no_child_left()

    def test_same_verdict_and_workers_whatever_the_line_end(self, tmp_path, capsys, forks):
        # the ranges are cut after a \n or a lone \r alike, so no line end leaves the file to one worker
        data = self.run(tmp_path).read_bytes()
        verdicts, workers = [], []
        for newline in (b"\n", b"\r\n", b"\r"):
            path = tmp_path / "copy.csv"
            path.write_bytes(data.replace(b"\n", newline))
            forks.clear()
            assert self.infer(tmp_path, path) == 0
            verdicts.append(capsys.readouterr().out)
            workers.append(len(forks))
        assert verdicts == verdicts[:1] * 3
        assert workers == [2, 2, 2]
        assert_no_child_left()

    def test_records_from_a_pipe_parsed_in_one_range(self, tmp_path, capsys, forks):
        path = self.run(tmp_path)
        assert self.infer(tmp_path, path) == 0
        expected = capsys.readouterr().out
        pipe = tmp_path / "records.fifo"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()))
        writer.start()
        try:
            assert self.infer(tmp_path, pipe) == 0
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert capsys.readouterr().out == expected
        assert len(forks) == 4  # two for simulate, two for the file, none for the pipe

    def test_undecodable_byte_from_a_pipe_named(self, tmp_path, capsys, forks):
        # named from the bytes read up to its line: a second open of the pipe would wait for a writer
        write_config(tmp_path, ideal_config())
        pipe = tmp_path / "records.fifo"
        os.mkfifo(pipe)
        data = b"trial,latent,reading_1,reading_2,outcome_1,outcome_2\n0,,0,0,0,0\n1,,0,\xff,0,0\n2,,0,0,0,0\n"
        writer = threading.Thread(target=lambda: pipe.write_bytes(data))

        def release():
            # a writer's open lets a reader blocked in open go on, to the end of the pipe
            with contextlib.suppress(OSError):  # ENXIO: no reader has the pipe open
                os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))

        releaser = threading.Timer(10, release)
        writer.start()
        releaser.start()
        try:
            code = self.infer(tmp_path, pipe)
        finally:
            releaser.cancel()
            releaser.join()
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert code == 1
        assert capsys.readouterr().err == "config error: records: line 3: byte 0xff is not UTF-8\n"
        assert not forks

    def test_no_fork_off_linux(self, tmp_path, monkeypatch, capsys, forks):
        # multiprocessing's documentation calls fork unsafe on macOS: there every part runs in this process
        expected = output_files(self.run(tmp_path).parent)
        assert self.infer(tmp_path, tmp_path / "run" / "records.csv") == 0
        verdict = capsys.readouterr().out
        assert len(forks) == 4
        forks.clear()
        monkeypatch.setattr(sys, "platform", "darwin")
        assert output_files(self.run(tmp_path).parent) == expected
        assert self.infer(tmp_path, tmp_path / "run" / "records.csv") == 0
        assert capsys.readouterr().out == verdict
        assert not forks

    def test_fork_failure_writes_every_part_here(self, tmp_path, monkeypatch, forks):
        expected = self.run(tmp_path).read_bytes()

        def no_fork():
            raise OSError("no process to be had")

        monkeypatch.setattr(os, "fork", no_fork)
        assert self.run(tmp_path).read_bytes() == expected
        assert_no_child_left()

    # part 0 runs in this process, the last part in a child; a package error comes back from the child as itself
    @pytest.mark.parametrize(
        "failing_block, error",
        [(0, RuntimeError("worker failed")), (3, RuntimeError("worker failed")),
         (3, errors.ConfigError("records", "worker failed"))],
        ids=["this-process", "child", "child-config-error"],
    )
    def test_none_left_after_a_writer_raises(self, tmp_path, monkeypatch, capsys, forks, failing_block, error):
        block_rows = records._block_rows

        def failing(block, scale):
            if block.start == failing_block * BLOCK_SIZE:
                raise error
            return block_rows(block, scale)

        monkeypatch.setattr(records, "_block_rows", failing)
        if isinstance(error, errors.ConfigError):
            code, _ = simulate(tmp_path, ideal_config(n_trials=self.N_TRIALS))
            assert code == 1
            assert capsys.readouterr().err == "config error: records: worker failed\n"
        else:
            with pytest.raises(RuntimeError, match="^worker failed$"):
                self.run(tmp_path)
        assert len(forks) == 2
        assert_no_child_left()
        assert not (tmp_path / "run" / "records.csv").exists()

    # a child that ends without sending its outcome, as one the OOM killer ends
    @pytest.mark.parametrize("command", ["simulate", "infer"])
    @pytest.mark.parametrize(
        "end, ended", [(lambda: os._exit(3), "exit status 3"), (lambda: os.kill(os.getpid(), 9), "killed by signal 9")],
        ids=["exit", "kill"],
    )
    def test_worker_ending_without_result_named(self, tmp_path, monkeypatch, capsys, forks, command, end, ended):
        path = self.run(tmp_path)
        parent = os.getpid()
        block_rows, check_row = records._block_rows, records._check_row

        def dying(function):
            return lambda *args: end() if os.getpid() != parent else function(*args)

        monkeypatch.setattr(records, "_block_rows", dying(block_rows))
        monkeypatch.setattr(records, "_check_row", dying(check_row))
        # not an OSError, which simulate reports as an unwritable --out and infer as an unreadable file
        with pytest.raises(RuntimeError, match=f"^the worker of part 1 of 3 ended without a result: {ended}$"):
            self.run(tmp_path) if command == "simulate" else self.infer(tmp_path, path)
        assert capsys.readouterr().err == ""
        assert len(forks) == 4
        assert_no_child_left()
        assert (tmp_path / "run" / "records.csv").exists() == (command == "infer")

    def test_fork_warning_of_a_threaded_process_not_raised(self, tmp_path, monkeypatch, capsys, forks):
        # Python 3.12+ warns on a fork while other threads run, as numpy's BLAS pool does; the workers'
        # forks keep that warning out of shown and recorded warnings.  A real fork drops it where warnings
        # are errors, but this stand-in raises it there, so a fork without the filter fails the run
        expected = self.run(tmp_path).read_bytes()
        assert self.infer(tmp_path, tmp_path / "run" / "records.csv") == 0
        verdict = capsys.readouterr().out
        fork = os.fork

        def warning_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        assert self.run(tmp_path).read_bytes() == expected
        assert self.infer(tmp_path, tmp_path / "run" / "records.csv") == 0
        assert capsys.readouterr().out == verdict
        assert len(forks) == 8
        assert_no_child_left()

    def test_detector_count_mismatch_forks_no_worker(self, tmp_path, capsys, forks):
        # the header is checked against the config before the rows are cut into ranges
        path = self.run(tmp_path)
        assert path.stat().st_size > 2 * records.CHUNK_CHARS  # a matching config would parse it in three ranges
        forks.clear()
        write_config(tmp_path, ideal_config(n_detectors=3))
        assert self.infer(tmp_path, path) == 1
        assert capsys.readouterr().err == "config error: records: records have 2 detectors but config says 3\n"
        assert not forks
        assert_no_child_left()

    @pytest.mark.parametrize(
        "cls",
        [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__],
        ids=lambda c: c.__name__,
    )
    def test_package_error_pickles_as_itself(self, cls):
        # a worker's exception comes back to this process pickled through its pipe
        args = ("records", "no header row found") if cls is errors.ConfigError else ("a message",)
        made = cls(*args)
        sent = pickle.loads(pickle.dumps(made))
        assert type(sent) is cls
        assert (sent.args, str(sent), vars(sent)) == (made.args, str(made), vars(made))
        if cls is errors.ConfigError:
            assert (sent.field, str(sent)) == ("records", "records: no header row found")

    def test_none_left_after_a_parser_raises(self, tmp_path, monkeypatch, forks):
        path = self.run(tmp_path)
        check_row = records._check_row

        def failing(parts, n):
            index, outcomes = check_row(parts, n)
            if index >= self.N_TRIALS // 2:  # past the first range, in a child
                raise RuntimeError("worker failed")
            return index, outcomes

        monkeypatch.setattr(records, "_check_row", failing)
        with pytest.raises(RuntimeError, match="^worker failed$"):
            self.infer(tmp_path, path)
        assert len(forks) == 4
        assert_no_child_left()


def test_console_script(tmp_path):
    # tests/console.sh, the script CI runs with the installed console script, here with `multidetect`
    # a shim over this interpreter's `python -m multidetect.cli`; it fails on any exit but 0 and any stderr
    shims, work = tmp_path / "bin", tmp_path / "work"
    shims.mkdir()
    work.mkdir()
    shim = shims / "multidetect"
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m multidetect.cli "$@"\n')
    shim.chmod(0o755)
    (shims / "python").symlink_to(sys.executable)  # the script's own `python -c` lines
    script = Path(__file__).resolve().parent / "console.sh"
    result = subprocess.run(
        ["bash", str(script)], cwd=work, capture_output=True, text=True,
        env=fresh_env(PATH=f"{shims}{os.pathsep}{os.environ['PATH']}"),
    )
    assert (result.returncode, result.stderr) == (0, "")


def test_benchmark_workloads_pass_their_checks():
    # perfbench/run.py at its workloads' real sizes, warm-up plus three iterations each: every
    # operation passes its checks (5-sigma disagreement, chi-square histogram, binomial verdict)
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "0"],
        cwd=root, capture_output=True, text=True, env=fresh_env(),
    )
    assert result.returncode == 0, result.stderr
    results = json.loads(result.stdout.splitlines()[-1])
    assert results
    assert {name: (r["correct"], r["failed"]) for name, r in results.items()} == dict.fromkeys(results, (True, 0))
    assert not (root / ".perfbench_work").exists()


def run_fresh(*args):
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=fresh_env())
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_imports_no_test_only_package():
    # pyproject.toml declares numpy as the one runtime dependency
    probe = (
        "import sys, multidetect.cli; "
        "print(sorted(set(sys.modules) & {'scipy', 'hypothesis', 'jsonschema', 'pytest'}))"
    )
    assert run_fresh("-c", probe) == "[]\n"


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
def test_cli_starts_no_blas_thread_pool():
    # no command calls BLAS, and numpy's OpenBLAS pool spins a thread of its own after import
    probe = "import os, multidetect.cli; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    env = {k: v for k, v in fresh_env().items() if k != "OPENBLAS_NUM_THREADS"}

    def threads_and_setting(env):
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    assert threads_and_setting(env) == ["1", "1"]
    assert threads_and_setting({**env, "OPENBLAS_NUM_THREADS": "2"})[1] == "2"  # a user's own setting is kept


# runs one command in a fresh interpreter, with config.resolve wrapped as
# perfbench/child.py wraps it, and prints the multidetect modules loaded when
# the first resolve returned and when the command returned
IMPORT_PROBE = """
import json, sys
from multidetect import cli, config

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "multidetect")

resolve, at_resolve = config.resolve, []

def first_resolve(*args, **kwargs):
    out = resolve(*args, **kwargs)
    if not at_resolve:
        at_resolve.extend(loaded())
    return out

config.resolve = first_resolve
code = cli.main(sys.argv[1:])
print("\\n" + json.dumps({"code": code, "at_resolve": at_resolve, "at_end": loaded()}))
"""


PHYSICS = {"multidetect.oscillator", "multidetect.qpc"}


@pytest.mark.parametrize(
    "command, raw, present, absent",
    [
        ("simulate --format csv,json", ideal_config(), {"multidetect.records"}, PHYSICS),
        (
            "simulate --format json", qpc_config(), {"multidetect.qpc"},
            {"multidetect.oscillator", "multidetect.records"},
        ),
        ("infer", ideal_config(), {"multidetect.records"}, PHYSICS),
        ("sweep", oscillator_config(), {"multidetect.oscillator"}, {"multidetect.qpc", "multidetect.records"}),
    ],
    ids=["simulate-csv-ideal", "simulate-json-qpc", "infer-ideal", "sweep-oscillator"],
)
def test_command_imports_only_its_modules_before_first_resolve(tmp_path, command, raw, present, absent):
    # an import after the first resolve would count as work in perfbench's trials_per_s
    cfg = write_config(tmp_path, raw)
    name, *options = command.split()
    options += {
        "simulate": ["--out", str(tmp_path / "run")],
        "infer": ["--records", str(tmp_path / "run" / "records.csv")],
        "sweep": ["--field", "state.p0", "--start", "0.2", "--stop", "0.8", "--steps", "2",
                  "--out", str(tmp_path / "sweep.csv")],
    }[name]
    if name == "infer":
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    report = json.loads(run_fresh("-c", IMPORT_PROBE, name, "--config", str(cfg), *options).splitlines()[-1])
    assert report["code"] == 0
    assert report["at_end"] == report["at_resolve"]
    assert present <= set(report["at_end"])
    assert not absent & set(report["at_end"])


# runs one command in a fresh interpreter on 2 usable cores, with records._fan_out wrapped, and prints
# whether numpy.random was loaded when the first resolve returned, when each fan-out began and at the end
NUMPY_RANDOM_PROBE = """
import json, os, sys
from multidetect import cli, config, records

def loaded():
    return "numpy.random" in sys.modules

os.sched_getaffinity = lambda pid: {0, 1}
resolve, fan_out, seen = config.resolve, records._fan_out, {"at_fan_out": []}

def first_resolve(*args, **kwargs):
    out = resolve(*args, **kwargs)
    seen.setdefault("at_resolve", loaded())
    return out

def probed_fan_out(work, parts):
    seen["at_fan_out"].append([parts, loaded()])
    return fan_out(work, parts)

config.resolve, records._fan_out = first_resolve, probed_fan_out
code = cli.main(sys.argv[1:])
print("\\n" + json.dumps({"code": code, **seen, "at_end": loaded()}))
"""


def test_records_workers_start_with_numpy_random_as_they_need_it(tmp_path):
    # the writer's forked part inherits numpy.random, loaded after the first resolve and before the fork;
    # infer draws nothing and never loads it
    cfg = write_config(tmp_path, ideal_config(n_trials=3 * BLOCK_SIZE))
    run = tmp_path / "run"

    def probe(*args):
        return json.loads(run_fresh("-c", NUMPY_RANDOM_PROBE, *args, "--config", str(cfg)).splitlines()[-1])

    assert probe("simulate", "--out", str(run)) == {
        "code": 0, "at_resolve": False, "at_fan_out": [[2, True]], "at_end": True,
    }
    assert (run / "records.csv").stat().st_size >= 2 * records.CHUNK_CHARS  # so infer cuts it into two ranges
    assert probe("infer", "--records", str(run / "records.csv")) == {
        "code": 0, "at_resolve": False, "at_fan_out": [[2, False]], "at_end": False,
    }


def test_bare_import_loads_no_submodule():
    probe = "import sys, multidetect; print(sorted(m for m in sys.modules if m.startswith('multidetect')))"
    assert run_fresh("-c", probe) == "['multidetect']\n"


def test_cli_import_set_is_the_readme_list():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    count, listed = re.search(r"`multidetect\.cli` imports (\w+): (.*?)\. The rest load on demand", readme).groups()
    named = re.findall(r"`(\w+)`", listed)
    probe = (
        "import json, sys, multidetect.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('multidetect.'))))"
    )
    assert sorted(f"multidetect.{m}" for m in named) == json.loads(run_fresh("-c", probe))
    assert count == ("zero one two three four five six seven eight nine ten eleven twelve".split())[len(named)]


def test_lazy_reexports_are_their_home_objects():
    for name in multidetect.__all__:
        home = importlib.import_module(f"multidetect.{multidetect._HOMES[name]}")
        assert getattr(multidetect, name) is getattr(home, name)
    for retired in ("TrialRecord", "loglik_unanimous", "loglik_binomial"):
        with pytest.raises(AttributeError, match=f"has no attribute '{retired}'"):
            getattr(multidetect, retired)


@pytest.mark.parametrize("module, frozen", [("multidetect.cli", True), ("multidetect", False)])
def test_cli_import_freezes_the_collector_at_exit(module, frozen):
    # atexit runs its handlers last in, first out, so the probe's runs after any hook of the import
    probe = f"import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0)); import {module}"
    assert run_fresh("-c", probe) == f"{frozen}\n"


def output_files(root):
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("command", ["simulate", "infer", "sweep", "discriminability"])
def test_process_exit_keeps_outputs(tmp_path, capsys, command):
    # a CLI process exits with the collector frozen: it writes and prints what an in-process run does
    cfg = write_config(tmp_path, low_attempt_qpc_config())
    records_csv = tmp_path / "given" / "records.csv"

    def args(out):
        return {
            "simulate": ["simulate", "--config", str(cfg), "--out", str(out / "run")],
            "infer": ["infer", "--records", str(records_csv), "--config", str(cfg)],
            "sweep": ["sweep", "--config", str(cfg), "--field", "state.p0", "--start", "0.1", "--stop", "0.9",
                      "--steps", "3", "--out", str(out / "sweep.csv")],
            "discriminability": ["discriminability", "--config", str(cfg)],
        }[command]

    with pytest.warns(GaussianRegimeWarning):
        if command == "infer":
            assert main(["simulate", "--config", str(cfg), "--out", str(records_csv.parent)]) == 0
        code = main(args(tmp_path / "here"))
    printed = capsys.readouterr().out
    result = subprocess.run(
        [sys.executable, "-m", "multidetect.cli", *args(tmp_path / "fresh")], capture_output=True, env=fresh_env(),
    )
    assert result.returncode == code
    assert result.stdout == printed.encode()
    written = output_files(tmp_path / "here")
    assert bool(written) == (command in {"simulate", "sweep"})
    assert output_files(tmp_path / "fresh") == written
    warned = [line for line in result.stderr.decode().splitlines() if "GaussianRegimeWarning" in line]
    assert "detector_model.detectors[0]: attempt count 12 < 100" in warned[0]
    assert "detector_model.detectors[1]: attempt count 24 < 100" in warned[1]


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["infer", "discriminability"])
def test_closed_stdout_named(tmp_path, command, unbuffered):
    # a reader that closes the pipe before the verdict is written, as `| head -c 0` does
    cfg = write_config(tmp_path, qpc_config())
    args = ["--config", str(cfg)]
    if command == "infer":
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        args += ["--records", str(tmp_path / "run" / "records.csv")]
    process = subprocess.Popen(
        [sys.executable, "-m", "multidetect.cli", command, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=fresh_env(PYTHONUNBUFFERED=unbuffered),
    )
    process.stdout.close()
    try:
        err = process.stderr.read().decode()
    finally:
        process.stderr.close()
        process.wait(timeout=60)
    assert process.returncode == 1
    assert err == "config error: stdout: not writable: [Errno 32] Broken pipe\n"


def test_closed_stdout_without_descriptor_named(tmp_path, capsys):
    # a stdout with no file descriptor, as a test's capture gives, is left as it is
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with contextlib.redirect_stdout(Closed()):
        assert main(["discriminability", "--config", str(write_config(tmp_path, qpc_config()))]) == 1
    assert capsys.readouterr().err == "config error: stdout: not writable: [Errno 32] Broken pipe\n"
