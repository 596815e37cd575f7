"""Command-line interface: simulate, infer, discriminability, sweep.

Each command checks its arguments, runs its experiments and writes its outputs;
``config`` makes every edit to a raw config.  File outputs embed the resolved
configuration and seed, so a run reproduces byte-for-byte from its artifacts.
Verdicts and diagnostics go to stdout as JSON (schemas in docs/), status to stderr only.

A command imports the modules that only it uses (``records``) itself,
before its first config resolve: perfbench times an operation's work from
the return of that resolve, so a later import would count as work.  Only
``numpy.random`` comes later, in the work of a command that draws trials:
the records writer imports it just before it forks, so that its workers
inherit it, and every other command that draws on its first
``experiment.block_rng``.  ``infer`` draws nothing and never imports it.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import math
import os
import sys
from pathlib import Path

if "numpy" not in sys.modules:  # no command calls BLAS, so numpy's OpenBLAS starts no thread pool for it
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from . import config as cfg
from .errors import ConfigError, ModelError, NoDiscriminationError
from .experiment import ExperimentSummary, run_blocks, run_experiment
from .inference import DECISION_INCONCLUSIVE, PatternTable, decide, required_trials
from .state import born_probabilities

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_INCONCLUSIVE = 3

SWEEP_COMMENT = "# multidetect-sweep: "

REQUIRED_TRIALS_ALPHAS = (0.05, 0.01, 0.001)

# the interpreter's last collections at exit skip frozen objects: the OS frees numpy's and the run's heap instead
atexit.register(gc.freeze)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def cmd_simulate(config_path, output_dir: Path, formats, seed=None) -> int:
    """Run the configured experiment; write the records CSV and summary JSON of ``formats``.

    The records CSV is written by one worker per usable core at most; a
    json-only run stays in this process.
    """
    if "csv" in formats:
        from . import records
    resolved = cfg.resolve(cfg.read_raw(config_path, seed))
    experiment = resolved.experiment
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        if "csv" in formats:
            summary = ExperimentSummary(records._write_records(output_dir / "records.csv", resolved))
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
    table = records._parse_records_csv(records_path, resolved.experiment.n_detectors)
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
    print(cfg.canonical_json(payload), end="", flush=True)
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
    print(cfg.canonical_json(payload), end="", flush=True)
    return EXIT_OK


def cmd_sweep(config_path, field: str, start: float, stop: float, steps: int, out_path, seed=None) -> int:
    """Run one experiment per grid point of a numeric config field, all as one grid; write the tidy CSV once all have run."""
    if steps < 1:
        raise ConfigError("steps", "sweep needs at least one grid point")
    for name, bound in (("start", start), ("stop", stop)):
        if not math.isfinite(bound):
            raise ConfigError(name, "must be finite")
    if field == "seed" and seed is not None:
        raise ConfigError("seed", "cannot be both the swept field and overridden by --seed")

    raw = cfg.read_raw(config_path, seed)
    try:
        values = np.linspace(start, stop, steps).tolist()
    except (MemoryError, ValueError, IndexError) as exc:  # numpy cannot size or allocate the grid
        raise ConfigError("steps", f"cannot build a grid of {steps} points: {exc}") from exc
    base, points = cfg.resolve_grid(raw, field, values)
    tables = run_blocks([point.experiment for point in points])
    rows = [_sweep_row(value, point, table) for value, point, table in zip(values, points, tables)]

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
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text + "".join(rows), newline="")
    except OSError as exc:  # creating, writing or closing, as a full disk does
        raise ConfigError("out", f"not writable: {exc}") from exc
    return EXIT_OK


def _sweep_row(value: float, point: cfg.ResolvedConfig, table: PatternTable) -> str:
    """One sweep CSV row: agreement fractions, log odds and detector diagnostics of one grid point's table."""
    summary = ExperimentSummary(table)
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
    swp.add_argument("--field", required=True, help="as config errors name it, e.g. detector_model.detectors[0].t0")
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
    except BrokenPipeError as exc:  # stdout's reader closed it; warnings drop their own OSErrors
        _stdout_to_devnull()
        print(f"config error: stdout: not writable: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at os.devnull, so that the interpreter's flush at exit cannot fail again.

    The idiom of the signal module's "Note on SIGPIPE".  A stdout without a
    descriptor, as under pytest's capture, is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (ValueError, OSError):  # io.UnsupportedOperation is both
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
