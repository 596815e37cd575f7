"""The output contract: SHA-256 digests of every CLI output, one small config per law and model.

Each case runs ``simulate`` (``records.csv`` and ``summary.json``), then
``infer`` on its records, ``discriminability`` for a physical detector
model, and a 3-step ``state.p0`` sweep unless the law is a custom pmf,
whose mean fits one p0 only.  M = 5000 trials make two blocks, the second
of them partial.  A change to the block size, the draw order, the CSV
float formatting or the JSON echo changes a digest here.

The digests depend on numpy's generator algorithms, so the table is keyed
by numpy ``major.minor``.  On a numpy with no entry every case fails and
names the command that prints the entry for the running numpy:

    PYTHONPATH=src python tests/test_output_contract.py

A change that alters output on purpose updates the digests it changes in
the same commit.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import multidetect
from multidetect.cli import EXIT_INCONCLUSIVE, EXIT_OK, main

N_TRIALS = 5000
NUMPY = ".".join(np.__version__.split(".")[:2])
REGENERATE = "PYTHONPATH=src python tests/test_output_contract.py"

# 302 and 604 attempts at 50 uV, both orientations
QPC_DETECTORS = [
    {"bias_voltage_uV": 50.0, "observation_time_ns": tau, "t0": t0, "t1": t1}
    for t0, t1 in ((0.4, 0.6), (0.6, 0.4))
    for tau in (12.5, 25.0)
]
# natural units, X/dx = 3
OSC_DETECTOR = {
    "mass": 1.0,
    "omega": 1.0,
    "beta": 0.25,
    "coupling_lambda": 6.0,
    "relaxation_rate": 1.0,
    "measurement_time": 10.0,
}


def _config(p0, scenario, detector_model, seed, **extra):
    return {
        "state": {"p0": p0},
        "scenario": scenario,
        "detector_model": detector_model,
        "n_trials": N_TRIALS,
        "seed": seed,
        **extra,
    }


CASES = {
    "ideal2-binomial": _config(0.3, {"kind": "binomial"}, {"model": "ideal"}, 11),
    "ideal8-unanimous-eps": _config(
        0.4, {"kind": "unanimous"}, {"model": "ideal"}, 12,
        n_detectors=8, error_model={"eps": [0.01 + 0.005 * i for i in range(8)]},
    ),
    "qpc-exact-binomial": _config(
        0.5, {"kind": "binomial"}, {"model": "qpc", "sampling": "exact", "detectors": QPC_DETECTORS}, 13,
    ),
    "qpc-gaussian-unanimous": _config(
        0.5, {"kind": "unanimous"}, {"model": "qpc", "sampling": "gaussian", "detectors": QPC_DETECTORS}, 14,
    ),
    "oscillator-unanimous": _config(
        0.5, {"kind": "unanimous"},
        {"model": "oscillator", "unit_system": "natural", "detectors": [OSC_DETECTOR, OSC_DETECTOR]}, 15,
    ),
    # mean 1.5 = p0 * N
    "custom-ideal3": _config(
        0.5, {"kind": "custom", "pmf": [0.2, 0.3, 0.3, 0.2]}, {"model": "ideal"}, 16, n_detectors=3,
    ),
}

DIGESTS = {
    "2.4": {
        "custom-ideal3": {
            "records.csv": "0f72fc761473fc3b318b85a32648d9a284877cd92fdf270ebf8de2d68d4dbd09",
            "summary.json": "7f921df5c0b7234a95175cfdeb35dbef5fac63465057c659679a6e87778fc3ce",
            "infer": "25180d680dedf5116d07c7289e5587d2e97a93579d08e7c51fa9cdc90192459e",
        },
        "ideal2-binomial": {
            "records.csv": "93c43323ddb2de130c00f48072af94fc9a5489a271d113d7208d35cc9fa827ae",
            "summary.json": "0f0ce52da0649e8497afab45ccb691d34b105d89142f9d87872871e75ee534f1",
            "infer": "9b06617004cc5737273895fe4df96a2d3b99bd9ff5b7c1116ef04aa52a1787dd",
            "sweep.csv": "f66fa2cf58caae5cd51020cccd3479cd5db9c43a3fd11dc9af35afbde369fd6c",
        },
        "ideal8-unanimous-eps": {
            "records.csv": "b3bb063f135643aa85b58cc03111e871b6c88f1890c79a0e6b399d6e11579695",
            "summary.json": "8a92ea03564bcef35a454e07bb89aedba011c4901f2c87a5e7612b920dbb96a9",
            "infer": "740943e25eb7ecc7d6b190e2a5ba9bfa6177c4a26e42c21cd1edde09806a4308",
            "sweep.csv": "c3c900f7e06b7b49c701d3aa62ed49c688887e68eff0fb75f1ab9022a5cd6e68",
        },
        "oscillator-unanimous": {
            "records.csv": "cebe5675908b50070580c859d456cc2f1c5046d853ee3829e024426914a5eacd",
            "summary.json": "24d1569433157e4e5636c106255a1d619b22de14ed2c91435426b30766b38937",
            "infer": "2423dff2856fb5c0eac25b31d570397f53d196c043abf733f555e33f67924529",
            "discriminability": "14b68ddf5ce41b1bf8930f5598b44f21765b2ce43da5abd72b58f016748e8731",
            "sweep.csv": "5a8ed218870b39866ec562f1508cb54c9fd5938ef6b8776a6e6d9479d85ba1b0",
        },
        "qpc-exact-binomial": {
            "records.csv": "e76c0317216525b167a0ba128707b364e463f0e8c62a4f229ec290c4ca1f849e",
            "summary.json": "065fa3d54daab65ae2432c8a4c94223eb4d4638ad436da3384014ac7b4e71e59",
            "infer": "24e1cd9bcf7cf5e9c4e9fb0a10e92f08c2cafce795ba96d3bbbfe0c6b0394e8a",
            "discriminability": "334cb8b9eb417ac79a0ccacf0a765480ad25358838f0e4c97b096b5490b09a12",
            "sweep.csv": "fb3a6e357ced8ef1107fbd15d6738d57e78fbaddb51ce121f50495ba34996821",
        },
        "qpc-gaussian-unanimous": {
            "records.csv": "da33e387f2862af5341d1793d52d653ea259e1326c4da9f05f8ca021a0f71b2f",
            "summary.json": "16b8f191705ee1d4078981b1a2891edb0259cb632b45f8904b07e4ebfa03cf3a",
            "infer": "a89895516c5d7a90bc592db470a18b7fdf8c510c9f37679508e4f4ef9150fccf",
            "discriminability": "334cb8b9eb417ac79a0ccacf0a765480ad25358838f0e4c97b096b5490b09a12",
            "sweep.csv": "7456d3d5ea79e4dd7b4c1f234eb2add9153a688926f99129551fdf3a830d185c",
        },
    },
}


def _stdout(*args) -> bytes:
    """What ``multidetect`` prints to stdout for ``args``; it must exit 0, or 3 for an inconclusive verdict."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in args])
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE), f"exit {code} for {args}"
    return out.getvalue().encode()


def _outputs(raw: dict, tmp: Path, *simulate_options) -> dict[str, bytes]:
    config, run, sweep = tmp / "config.json", tmp / "run", tmp / "sweep.csv"
    config.write_text(json.dumps(raw))
    _stdout("simulate", "--config", config, "--out", run, *simulate_options)
    outputs = {name: (run / name).read_bytes() for name in ("records.csv", "summary.json")}
    outputs["infer"] = _stdout("infer", "--records", run / "records.csv", "--config", config)
    if raw["detector_model"]["model"] != "ideal":
        outputs["discriminability"] = _stdout("discriminability", "--config", config)
    if raw["scenario"]["kind"] != "custom":
        _stdout("sweep", "--config", config, "--field", "state.p0", "--start", 0.2, "--stop", 0.8,
                "--steps", 3, "--out", sweep)
        outputs["sweep.csv"] = sweep.read_bytes()
    return outputs


def _digests(raw: dict, tmp: Path, *simulate_options) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in _outputs(raw, tmp, *simulate_options).items()}


def _expected(case: str) -> dict[str, str]:
    if NUMPY not in DIGESTS:
        pytest.fail(f"no output digests for numpy {NUMPY}; print them with `{REGENERATE}` and add them to DIGESTS")
    return DIGESTS[NUMPY][case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_digests(case, tmp_path):
    assert _digests(CASES[case], tmp_path) == _expected(case)


# on one core simulate and infer run in this process alone; on three, simulate
# writes M = 5000 (two blocks) in two parts and infer parses up to three ranges
@pytest.mark.parametrize("cores", [1, 3], ids=["one-worker", "three-cores"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_digests_at_any_worker_count(case, cores, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert _digests(CASES[case], tmp_path) == _expected(case)


def test_command_line_run_matches_digests(tmp_path):
    # simulate, then infer, each in a fresh interpreter as a user runs them
    case = "qpc-exact-binomial"
    config, run = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps(CASES[case]))
    env = {**os.environ, "PYTHONPATH": str(Path(multidetect.__file__).resolve().parents[1])}
    cli = [sys.executable, "-m", "multidetect.cli"]
    sim = subprocess.run([*cli, "simulate", "--config", config, "--out", run], capture_output=True, env=env)
    assert (sim.returncode, sim.stderr) == (EXIT_OK, b"")
    infer = subprocess.run([*cli, "infer", "--records", run / "records.csv", "--config", config],
                           capture_output=True, env=env)
    assert (infer.returncode, infer.stderr) == (EXIT_OK, b"")
    outputs = {name: (run / name).read_bytes() for name in ("records.csv", "summary.json")}
    outputs["infer"] = infer.stdout
    expected = _expected(case)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == {
        name: expected[name] for name in outputs
    }


if __name__ == "__main__":
    table = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = _digests(CASES[case], Path(tmp))
    print(f"# DIGESTS entry for numpy {NUMPY}")
    print(json.dumps({NUMPY: table}, indent=4))
