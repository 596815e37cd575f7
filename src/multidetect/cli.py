"""Command-line interface: simulate, infer, discriminability, sweep.

All file outputs embed the resolved configuration and seed, so any run can
be reproduced byte-for-byte from its own artifacts.  Verdicts and
diagnostics go to stdout as JSON (schemas in docs/); status chatter goes
to stderr only.

A command imports the modules that only it uses (``records``) itself,
before its first config resolve: perfbench times an operation's work from
the return of that resolve, so a later import would count as work.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import config as cfg
from .errors import ConfigError, ModelError, NoDiscriminationError
from .experiment import ExperimentSummary, run_experiment
from .inference import DECISION_INCONCLUSIVE, PatternTable, decide, required_trials
from .state import born_probabilities

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_INCONCLUSIVE = 3

CONFIG_COMMENT = "# multidetect-config: "
SWEEP_COMMENT = "# multidetect-sweep: "

REQUIRED_TRIALS_ALPHAS = (0.05, 0.01, 0.001)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _read_config(config_path, seed):
    """The raw config of ``config_path``, its ``seed`` replaced by ``seed`` (--seed) when one is given."""
    raw = cfg.read_raw(config_path)
    if seed is not None and isinstance(raw, dict):  # any other config is resolve's to report
        raw["seed"] = seed
    return raw


def cmd_simulate(config_path, output_dir: Path, formats, seed=None) -> int:
    """Run the configured experiment; write the records CSV and summary JSON of ``formats``.

    The records CSV is written by one worker per usable core at most; a
    json-only run stays in this process.
    """
    if "csv" in formats:
        from . import records
    resolved = cfg.resolve(_read_config(config_path, seed))
    experiment = resolved.experiment
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        if "csv" in formats:
            with open(output_dir / "records.csv", "w", newline="") as fh:
                fh.write(CONFIG_COMMENT + cfg.canonical_json(resolved.echo, compact=True) + "\n")
                fh.write(records._records_header(experiment.n_detectors) + "\n")
                summary = ExperimentSummary(records._write_records(fh, experiment, output_dir))
        else:
            summary = run_experiment(experiment)
        if "json" in formats:
            payload = {
                "M": summary.n_trials,
                "M0": summary.m0_unanimous_zero,
                "M1": summary.m1_unanimous_one,
                "m": summary.disagreements,
                "histogram_n0": list(summary.histogram_n0),
                "agreement_fraction": summary.agreement_fraction,
                "config_echo": resolved.echo,
                "seed": experiment.seed,
            }
            (output_dir / "summary.json").write_text(cfg.canonical_json(payload))
    except BaseException as exc:
        # as make's .DELETE_ON_ERROR does: leave no file of the run's formats, partial or older
        for fmt, name in (("csv", "records.csv"), ("json", "summary.json")):
            if fmt in formats:
                with contextlib.suppress(OSError):  # cleanup never raises, also when --out is a file
                    (output_dir / name).unlink()
        if isinstance(exc, OSError):  # creating, opening, writing or closing, as a full disk does
            raise ConfigError("output_dir", f"not writable: {exc}") from exc
        raise
    return EXIT_OK


def _verdict(table: PatternTable, resolved: cfg.ResolvedConfig):
    """Both laws scored on ``table`` with the config's state, error model, threshold and prior."""
    return decide(
        table, born_probabilities(resolved.experiment.state), resolved.error_model,
        log_odds_threshold=resolved.log_odds_threshold, prior_log_odds=resolved.prior_log_odds,
    )


def _required_trials(resolved: cfg.ResolvedConfig, alpha: float) -> int | None:
    """required_trials for the config's state and error model; None if no count exists."""
    try:
        return required_trials(born_probabilities(resolved.experiment.state), alpha, resolved.error_model)
    except NoDiscriminationError:
        return None


def cmd_infer(records_path, config_path) -> int:
    """Score the recorded trials under both laws and print the verdict JSON."""
    from . import records

    resolved = cfg.resolve(cfg.read_raw(config_path))
    table = records._parse_records_csv(records_path)
    n = resolved.experiment.n_detectors
    if table.n_detectors != n:
        raise ConfigError("records", f"records have {table.n_detectors} detectors but config says {n}")
    verdict = _verdict(table, resolved)
    payload = {
        "loglik_H1": _json_safe(verdict.loglik_unanimous),
        "loglik_H2": _json_safe(verdict.loglik_binomial),
        "log_odds": _json_safe(verdict.log_odds),
        "decision": verdict.decision,
        "confidence": verdict.confidence,
        "M_used": table.n_trials,
        "M_required_alpha": _required_trials(resolved, resolved.alpha),
    }
    print(cfg.canonical_json(payload), end="")
    return EXIT_INCONCLUSIVE if verdict.decision == DECISION_INCONCLUSIVE else EXIT_OK


def cmd_discriminability(config_path) -> int:
    """Print per-detector separation diagnostics and the required-trials table."""
    resolved = cfg.resolve(cfg.read_raw(config_path))
    model = resolved.experiment.detector_model
    detectors = [{"index": i, **d._asdict()} for i, d in enumerate(model.diagnostics())]
    if not detectors:
        raise ConfigError("detector_model", "discriminability requires a physical detector model")

    table = {str(alpha): _required_trials(resolved, alpha) for alpha in REQUIRED_TRIALS_ALPHAS}
    payload = {
        "model": model.model,
        "detectors": detectors,
        "required_trials": table,
    }
    print(cfg.canonical_json(payload), end="")
    return EXIT_OK


def _field_slot(raw, dotted: str):
    """The object or list holding the numeric field at dotted path ``dotted``, its key, and whether it is an integer.

    A field that the config leaves at its default, and any object above it,
    is added to ``raw`` as an integer 0 (the grid value replaces it, as an
    integer when integral), so resolve names a field that does not exist.
    """
    parts = dotted.split(".")
    parent, key, node = None, None, raw
    for depth, part in enumerate(parts, start=1):
        if isinstance(node, list) and part.isdigit():  # an index in ASCII digits, leading zeros allowed
            part = {str(i): i for i in range(len(node))}.get(part.lstrip("0") or "0", part)
        elif isinstance(node, dict) and part not in node:
            node[part] = 0 if depth == len(parts) else {}
        if not (isinstance(part, int) or isinstance(node, dict)):
            raise ConfigError(dotted, "unknown config field")
        parent, key, node = node, part, node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(dotted, "field is not numeric")
    return parent, key, isinstance(node, int)


def cmd_sweep(config_path, field: str, start: float, stop: float, steps: int, out_path, seed=None) -> int:
    """Run one experiment per grid point of a numeric config field; write the tidy CSV once all have run."""
    if steps < 1:
        raise ConfigError("steps", "sweep needs at least one grid point")
    for name, bound in (("start", start), ("stop", stop)):
        if not math.isfinite(bound):
            raise ConfigError(name, "must be finite")
    if field == "seed" and seed is not None:
        raise ConfigError("seed", "cannot be both the swept field and overridden by --seed")

    raw = _read_config(config_path, seed)
    try:
        values = np.linspace(start, stop, steps).tolist()
    except (MemoryError, ValueError, IndexError) as exc:  # numpy cannot size or allocate the grid
        raise ConfigError("steps", f"cannot build a grid of {steps} points: {exc}") from exc

    # recording the resolves' warnings resets Python's once-per-location
    # registry, so the sweep shows each distinct one itself, once, also when a point fails
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            base = cfg.resolve(raw)
            # resolve keeps no part of raw, so each point rewrites the one field in place
            parent, key, integral = _field_slot(raw, field)
            points = []
            for value in values:
                # an integer field takes an integral grid value as an integer; a float field reads either alike
                parent[key] = int(value) if integral and value.is_integer() else value
                points.append(cfg.resolve(raw))
    finally:
        first = {}
        for w in caught:
            first.setdefault((w.category, str(w.message)), w)
        for w in first.values():
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    rows = [_sweep_row(value, point) for value, point in zip(values, points)]

    header = ["value", "m_over_M", "M0_over_M", "M1_over_M", "log_odds"]
    header += [f"disc_{i + 1}" for i in range(len(base.experiment.detector_model.detectors))]
    sweep_echo = {
        "config_echo": base.echo,
        "field": field,
        "start": float(start),
        "stop": float(stop),
        "steps": int(steps),
    }
    text = SWEEP_COMMENT + cfg.canonical_json(sweep_echo, compact=True) + "\n" + ",".join(header) + "\n"

    out_path = Path(out_path)
    try:
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text + "".join(rows), newline="")
    except OSError as exc:  # creating, writing or closing, as a full disk does
        raise ConfigError("out", f"not writable: {exc}") from exc
    return EXIT_OK


def _sweep_row(value: float, point: cfg.ResolvedConfig) -> str:
    """One sweep CSV row: agreement fractions, log odds and detector diagnostics at one grid point."""
    summary = run_experiment(point.experiment)
    verdict = _verdict(summary.patterns, point)
    m_total = summary.n_trials
    row = [
        value,
        summary.disagreements / m_total,
        summary.m0_unanimous_zero / m_total,
        summary.m1_unanimous_one / m_total,
        float(verdict.log_odds),
    ]
    row += [float(d.value) for d in point.experiment.detector_model.diagnostics()]
    return ",".join(map(repr, row)) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multidetect",
        description="Simulate simultaneous multi-detector measurements and decide which outcome law the data supports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment; write records CSV and summary JSON")
    sim.add_argument("--config", required=True, type=Path)
    sim.add_argument("--out", required=True, type=Path)
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--format", default="csv,json", help="comma-separated subset of {csv,json}")
    sim.add_argument(
        "--threads", type=int, default=1,
        help="ignored: records.csv is written on the usable cores, which taskset limits; never changes output",
    )

    inf = sub.add_parser("infer", help="score recorded trials under both laws")
    inf.add_argument("--records", required=True, type=Path)
    inf.add_argument("--config", required=True, type=Path)

    disc = sub.add_parser("discriminability", help="per-detector separation diagnostics")
    disc.add_argument("--config", required=True, type=Path)

    swp = sub.add_parser("sweep", help="grid-sweep one numeric config field")
    swp.add_argument("--config", required=True, type=Path)
    swp.add_argument("--field", required=True, help="dotted path, e.g. state.p0")
    swp.add_argument("--start", required=True, type=float)
    swp.add_argument("--stop", required=True, type=float)
    swp.add_argument("--steps", required=True, type=int)
    swp.add_argument("--out", required=True, type=Path)
    swp.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            formats = frozenset(f.strip() for f in args.format.split(",") if f.strip())
            if not formats or not formats <= {"csv", "json"}:
                raise ConfigError("format", f"must be a subset of {{csv,json}}, got {args.format!r}")
            if args.threads < 1:
                raise ConfigError("threads", "must be at least 1")
            return cmd_simulate(args.config, args.out, formats, args.seed)
        if args.command == "infer":
            return cmd_infer(args.records, args.config)
        if args.command == "discriminability":
            return cmd_discriminability(args.config)
        return cmd_sweep(args.config, args.field, args.start, args.stop, args.steps, args.out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"model error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
