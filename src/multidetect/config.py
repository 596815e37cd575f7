"""JSON experiment configuration: parsing, validation, canonical echo.

Field names carry explicit units (bias_voltage_uV, observation_time_ns);
values are converted to SI once, here, and never again downstream.  Every
output file embeds the resolved configuration returned by ``resolve``, and
re-running from that echo reproduces the run byte-for-byte.

``read_raw`` (--seed) and ``resolve_grid`` (sweep's field) make every edit a
command makes to a raw config, as ``resolve`` keeps no part of ``raw``.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigError, InvalidPmfError, ZeroStateError
from .experiment import (
    MAX_TRIALS,
    SEED_LIMIT,
    DetectorModel,
    ExperimentConfig,
    IdealModel,
    OscillatorModel,
    QpcModel,
)
from .inference import DEFAULT_LOG_ODDS_THRESHOLD, MAX_DETECTORS, ErrorModel
from .scenarios import Binomial, Custom, ScenarioKind, Unanimous
from .state import Amplitudes, make_amplitudes

if TYPE_CHECKING:  # each detector parser imports its physical model's module when a config names it
    from .oscillator import OscillatorParams
    from .qpc import QpcParams

DEFAULT_ALPHA = 0.01

# a non-discriminating detector saturates at a coin flip; cap the derived
# misread just below the anti-correlation boundary so the likelihood stays defined
_DERIVED_EPS_CAP = 0.5 - 1e-9

_OSC_FIELDS = ("mass", "omega", "beta", "coupling_lambda", "relaxation_rate", "measurement_time")
_QPC_FIELDS = ("bias_voltage_uV", "observation_time_ns", "t0", "t1")
_TOP_REQUIRED = ("state", "scenario", "detector_model", "n_trials")
_TOP_OPTIONAL = ("n_detectors", "seed", "error_model", "inference")
_INFERENCE_FIELDS = ("log_odds_threshold", "prior_log_odds", "alpha")


class ResolvedConfig(NamedTuple):
    """Validated experiment plus inference settings and the canonical echo."""

    experiment: ExperimentConfig
    error_model: ErrorModel
    log_odds_threshold: float
    prior_log_odds: float
    alpha: float
    echo: dict


def _object(raw, path: str, required=(), optional=()) -> dict:
    """``raw`` as the config object at ``path`` ("" for the top level).

    Its first fault raises ConfigError: not an object, an unknown field, a missing required one.
    """
    if not isinstance(raw, dict):
        raise ConfigError(path or "config", "expected an object")
    prefix = f"{path}." if path else ""
    allowed = sorted((*required, *optional))
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(prefix + unknown[0], f"unknown field; expected one of {allowed}")
    for field in required:
        if field not in raw:
            raise ConfigError(prefix + field, "missing required field")
    return raw


def _number(value, path: str, minimum=None, maximum=None, strict_min=False, strict_max=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond float range, as the JSON 1e400 reads inf
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if minimum is not None and (v < minimum or (strict_min and v == minimum)):
        raise ConfigError(path, f"must be {'>' if strict_min else '>='} {minimum}, got {v}")
    if maximum is not None and (v > maximum or (strict_max and v == maximum)):
        raise ConfigError(path, f"must be {'<' if strict_max else '<='} {maximum}, got {v}")
    return v


def _integer(value, path: str, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {value}")
    return value


def _built(path: str, build, *args):
    """``build(*args)``, the object at config field ``path``; its fault is a ConfigError naming ``path``.

    Each warning it raises is raised again, prefixed with ``path``.  Recording
    clears Python's once-per-location registry, so every warning is shown.  The
    prefixed copies point at the caller of ``resolve``.
    """
    try:
        with warnings.catch_warnings(record=True, action="always") as caught:
            built = build(*args)
    except (ValueError, ZeroStateError) as exc:
        raise ConfigError(path, str(exc)) from exc
    for warning in caught:
        warnings.warn(f"{path}: {warning.message}", warning.category, stacklevel=4)
    return built


def _parse_state(raw) -> tuple[Amplitudes, list]:
    if isinstance(raw, dict):
        p0 = _number(_object(raw, "state", ("p0",))["p0"], "state.p0", minimum=0.0, maximum=1.0)
        comps = [math.sqrt(p0), 0.0, math.sqrt(1.0 - p0), 0.0]
    elif isinstance(raw, list) and len(raw) == 4:
        comps = [_number(v, f"state[{i}]") for i, v in enumerate(raw)]
    else:
        raise ConfigError("state", "expected [re0, im0, re1, im1] or {\"p0\": x}")
    state = _built("state", make_amplitudes, *comps)
    return state, [state.c0.real, state.c0.imag, state.c1.real, state.c1.imag]


def _parse_scenario(raw) -> tuple[ScenarioKind, dict]:
    kind = _object(raw, "scenario", ("kind",), ("pmf",))["kind"]
    if kind != "custom":  # only a custom law takes a pmf
        _object(raw, "scenario", ("kind",))
    if kind == "unanimous":
        return Unanimous(), {"kind": kind}
    if kind == "binomial":
        return Binomial(), {"kind": kind}
    if kind == "custom":
        pmf = raw.get("pmf")
        if not isinstance(pmf, list) or not pmf:
            raise ConfigError("scenario.pmf", "custom scenario needs a non-empty pmf list")
        pmf = [_number(p, f"scenario.pmf[{i}]", minimum=0.0) for i, p in enumerate(pmf)]
        return Custom(pmf), {"kind": kind, "pmf": pmf}
    raise ConfigError("scenario.kind", f"unknown scenario kind {kind!r}")


def _oscillator_detector(raw: dict, path: str, unit_system: str) -> OscillatorParams:
    from .constants import NATURAL, SI
    from .oscillator import OscillatorParams

    kwargs = {}
    for f in _OSC_FIELDS:
        strict = f != "coupling_lambda"
        kwargs[f] = _number(raw[f], f"{path}.{f}", minimum=0.0, strict_min=strict)
    return OscillatorParams(constants=SI if unit_system == "si" else NATURAL, **kwargs)


def _qpc_detector(raw: dict, path: str, sampling: str) -> QpcParams:
    from .qpc import QpcParams

    return QpcParams(
        bias_voltage=_number(raw["bias_voltage_uV"], f"{path}.bias_voltage_uV", 0.0, strict_min=True) * 1e-6,
        observation_time=_number(raw["observation_time_ns"], f"{path}.observation_time_ns", 0.0, strict_min=True) * 1e-9,
        t_given_0=_number(raw["t0"], f"{path}.t0", 0.0, 1.0, strict_min=True, strict_max=True),
        t_given_1=_number(raw["t1"], f"{path}.t1", 0.0, 1.0, strict_min=True, strict_max=True),
    )


# per physical model: its option, the option's values (the default first),
# the detector fields, one detector's parser, and the model built from both
_PHYSICAL_MODELS = {
    "oscillator": (
        "unit_system", ("si", "natural"), _OSC_FIELDS, _oscillator_detector,
        lambda detectors, unit_system: OscillatorModel(detectors),
    ),
    "qpc": ("sampling", ("exact", "gaussian"), _QPC_FIELDS, _qpc_detector, QpcModel),
}
_MODEL_FIELDS = ("detectors", *(spec[0] for spec in _PHYSICAL_MODELS.values()))


def _parse_detector_model(raw) -> tuple[DetectorModel, dict]:
    # any model's fields first; once the model is known, its own
    model = _object(raw, "detector_model", ("model",), _MODEL_FIELDS)["model"]
    if model == "ideal":
        _object(raw, "detector_model", ("model",))
        return IdealModel(), {"model": "ideal"}
    if not isinstance(model, str) or model not in _PHYSICAL_MODELS:
        raise ConfigError("detector_model.model", f"unknown model {model!r}")
    option, choices, fields, parse_detector, build = _PHYSICAL_MODELS[model]
    _object(raw, "detector_model", ("model",), (option, "detectors"))
    value = raw.get(option, choices[0])
    if value not in choices:
        raise ConfigError(
            f"detector_model.{option}", f"must be \"{choices[0]}\" or \"{choices[1]}\", got {value!r}"
        )
    detectors_raw = raw.get("detectors")
    if not isinstance(detectors_raw, list) or not detectors_raw:
        raise ConfigError("detector_model.detectors", "need a non-empty list of detectors")
    detectors = []
    for i, det in enumerate(detectors_raw):
        path = f"detector_model.detectors[{i}]"
        _object(det, path, fields)
        detectors.append(_built(path, parse_detector, det, path, value))
    # echo the values as given: a back-conversion from SI would not
    # round-trip bit-exactly, breaking rerun-from-echo reproducibility
    echo = {
        "model": model,
        option: value,
        "detectors": [{f: float(det[f]) for f in fields} for det in detectors_raw],
    }
    return build(detectors, value), echo


def _parse_error_model(raw: dict, model: DetectorModel, n_detectors: int) -> ErrorModel:
    """The config's ``error_model.eps``, else each detector's derived misread, capped below 1/2 (0 when ideal)."""
    if "error_model" not in raw:  # a null error_model is a fault, not an absent one
        misreads = [d.misread for d in model.diagnostics()] or [0.0] * n_detectors
        return ErrorModel(min(e, _DERIVED_EPS_CAP) for e in misreads)
    eps = _object(raw["error_model"], "error_model", ("eps",))["eps"]
    if not isinstance(eps, list):
        raise ConfigError("error_model.eps", "expected a list")
    eps = [_number(e, f"error_model.eps[{i}]", 0.0, 0.5, strict_max=True) for i, e in enumerate(eps)]
    if len(eps) != n_detectors:
        raise ConfigError("error_model.eps", f"need {n_detectors} entries, got {len(eps)}")
    return ErrorModel(eps)


def _parse_inference(raw) -> dict:
    inference = _object(raw, "inference", optional=_INFERENCE_FIELDS)
    return {
        "log_odds_threshold": _number(
            inference.get("log_odds_threshold", DEFAULT_LOG_ODDS_THRESHOLD),
            "inference.log_odds_threshold",
            minimum=0.0,
            strict_min=True,
        ),
        "prior_log_odds": _number(inference.get("prior_log_odds", 0.0), "inference.prior_log_odds"),
        "alpha": _number(inference.get("alpha", DEFAULT_ALPHA), "inference.alpha", 0.0, 1.0, strict_min=True),
    }


def resolve(raw: dict) -> ResolvedConfig:
    """Validate a raw config dict and build the runnable objects plus echo; ``raw`` is only read, never kept."""
    _object(raw, "", _TOP_REQUIRED, _TOP_OPTIONAL)
    state, state_echo = _parse_state(raw["state"])
    scenario, scenario_echo = _parse_scenario(raw["scenario"])
    model, model_echo = _parse_detector_model(raw["detector_model"])
    counts = {
        "n_trials": _integer(raw["n_trials"], "n_trials", minimum=1, maximum=MAX_TRIALS),
        "n_detectors": _integer(
            raw.get("n_detectors", len(model.detectors) or 2), "n_detectors", minimum=2, maximum=MAX_DETECTORS
        ),
        "seed": _integer(raw.get("seed", 0), "seed", minimum=0, maximum=SEED_LIMIT - 1),
    }
    try:
        experiment = ExperimentConfig(state, scenario, model, **counts)
    except (ValueError, InvalidPmfError) as exc:
        field = "scenario.pmf" if isinstance(exc, InvalidPmfError) else "n_detectors"
        raise ConfigError(field, str(exc)) from exc
    error_model = _parse_error_model(raw, model, counts["n_detectors"])
    inference = _parse_inference(raw.get("inference", {}))
    echo = {
        "state": state_echo,
        "scenario": scenario_echo,
        "detector_model": model_echo,
        **counts,
        "error_model": {"eps": list(error_model.eps)},
        "inference": inference,
    }
    return ResolvedConfig(experiment, error_model, echo=echo, **inference)


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its key-value pairs; ValueError naming a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicated key {key!r}")
        obj[key] = value
    return obj


def read_raw(path, seed=None):
    """A config file's JSON, not yet validated, each key once per object; a ``seed`` (--seed) replaces its own."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, a key given twice, or nested too deep
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    if seed is not None and isinstance(raw, dict):  # any other config is resolve's to report
        raw["seed"] = seed
    return raw


def _field_slot(raw, dotted: str):
    """The object or list holding the numeric field at path ``dotted``, its key, and whether it is an integer.

    A list element is ``name[i]``, as config errors print it, or ``name.i``.  A
    field left at its default, and any object above it, is added to ``raw`` as
    an integer 0 (the grid value replaces it, as an integer when integral), so
    resolve names a field that does not exist.
    """
    parts = dotted.replace("[", ".[").split(".")  # name[i] as name.[i]: each part a name or an index in ASCII digits
    indices = (p[1:-1].isdigit() and p.isascii() and p[-1] == "]" for p in parts if p[:1] == "[")
    if not all(indices) or not all(p and "]" not in p for p in parts if p[:1] != "["):
        raise ConfigError("field", f"{dotted!r} is not a dotted path of config field names")
    parent, key, node = None, None, raw
    for depth, part in enumerate(parts, start=1):
        named, part = part[0] != "[", part.strip("[]")  # a bracketed index names a list element only
        if isinstance(node, list) and part.isdigit():  # an index in ASCII digits, leading zeros allowed
            part = {str(i): i for i in range(len(node))}.get(part.lstrip("0") or "0", part)
        elif isinstance(node, dict) and named and part not in node:
            node[part] = 0 if depth == len(parts) else {}
        if not (isinstance(part, int) or isinstance(node, dict) and named):
            raise ConfigError(dotted, "unknown config field")
        parent, key, node = node, part, node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(dotted, "field is not numeric")
    return parent, key, isinstance(node, int)


def resolve_grid(raw: dict, field: str, values: list) -> tuple[ResolvedConfig, list[ResolvedConfig]]:
    """``raw`` resolved as it is, then with ``field`` at each of ``values``; each distinct warning is shown once."""
    try:  # recording resets Python's once-per-location registry, so the grid shows its own, also when a point fails
        with warnings.catch_warnings(record=True, action="always") as caught:
            base = resolve(raw)
            parent, key, integral = _field_slot(raw, field)
            points = []
            for value in values:
                # an integer field takes an integral grid value as an integer; a float field reads either alike
                parent[key] = int(value) if integral and value.is_integer() else value
                points.append(resolve(raw))
    finally:
        first = {}
        for w in caught:
            first.setdefault((w.category, str(w.message)), w)
        for w in first.values():
            warnings.warn(w.message, stacklevel=2)  # at the caller, as resolve's own warnings are
    return base, points


def canonical_json(obj, compact: bool = False) -> str:
    """Deterministic JSON serialization used for all embedded config echoes."""
    if compact:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
