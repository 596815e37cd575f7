"""Command-line interface: simulate, infer, discriminability, sweep.

All file outputs embed the resolved configuration and seed, so any run can
be reproduced byte-for-byte from its own artifacts.  Verdicts and
diagnostics go to stdout as JSON (schemas in docs/); status chatter goes
to stderr only.
"""

from __future__ import annotations

import argparse
import copy
import math
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import config as cfg
from .errors import ConfigError, ModelError, NoDiscriminationError
from .experiment import TrialBlock, run_experiment
from .inference import DECISION_INCONCLUSIVE, MAX_DETECTORS, PatternTable, decide, required_trials
from .state import born_probabilities

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_INCONCLUSIVE = 3

CONFIG_COMMENT = "# multidetect-config: "
SWEEP_COMMENT = "# multidetect-sweep: "

REQUIRED_TRIALS_ALPHAS = (0.05, 0.01, 0.001)

_BITS = frozenset((0, 1))
_BIT_STRINGS = ("0", "1")
_LATENTS = frozenset(("", "0", "1"))


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _records_header(n_detectors: int) -> str:
    readings = ",".join(f"reading_{i + 1}" for i in range(n_detectors))
    outcomes = ",".join(f"outcome_{i + 1}" for i in range(n_detectors))
    return f"trial,latent,{readings},{outcomes}"


def _reading_strings(values: np.ndarray) -> tuple[list[str] | None, list[str] | np.ndarray]:
    """One column of readings as (distinct strings, per-row index into them).

    Values are told apart by bit pattern, which keeps -0.0 apart from 0.0.
    When more than half of them are distinct, indexing would not pay: the
    result is then (None, the repr of every value).
    """
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if 2 * len(distinct) > len(values):
        return None, list(map(repr, values.tolist()))
    return list(map(repr, distinct.view(np.float64).tolist())), inverse


def _block_rows(block: TrialBlock, scale: float) -> str:
    """CSV rows of one block, as repr of each reading and str of each bit give.

    Formatting is the cost, so each column of readings formats each of its
    distinct values once, unless most of them differ, and when at most half
    of the rows are distinct, each distinct row after its index is joined once.
    """
    size = len(block.outcomes)
    if block.latent is None:
        columns = [(("",), np.zeros(size, dtype=np.intp))]
    else:
        columns = [(_BIT_STRINGS, block.latent)]
    columns += [_reading_strings(r) for r in (block.readings * scale).T]
    columns += [(_BIT_STRINGS, o) for o in block.outcomes.T]
    indices = range(block.start, block.start + size)

    if all(strings is not None for strings, _ in columns):
        # one code per distinct row, renumbered densely whenever the next column could overflow it
        code = np.zeros(size, dtype=np.int64)
        span = 1
        for strings, index in columns:
            if span * len(strings) >= 2**62:
                _, code = np.unique(code, return_inverse=True)
                span = size
            code = code * len(strings) + index
            span *= len(strings)
        _, first, row = np.unique(code, return_index=True, return_inverse=True)
        if 2 * len(first) <= size:
            picked = [map(strings.__getitem__, index[first].tolist()) for strings, index in columns]
            tails = [",".join(cells) + "\n" for cells in zip(*picked)]
            return "".join([f"{i},{tails[r]}" for i, r in zip(indices, row.tolist())])

    fields = [
        cells if strings is None else list(map(strings.__getitem__, cells.tolist()))
        for strings, cells in columns
    ]
    return "\n".join(map(",".join, zip(map(str, indices), *fields))) + "\n"


def cmd_simulate(config_path, output_dir: Path, formats, seed_override=None, threads: int = 1, verbosity: int = 0) -> int:
    """Run the configured experiment; write the records CSV and summary JSON of ``formats``."""
    if threads < 1:
        raise ConfigError("threads", "must be at least 1")
    resolved = cfg.load(config_path, seed_override=seed_override)
    experiment = resolved.experiment
    scale = experiment.detector_model.reading_scale
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
        if "csv" in formats:
            with open(output_dir / "records.csv", "w", newline="") as fh:
                fh.write(CONFIG_COMMENT + cfg.canonical_json(resolved.echo, compact=True) + "\n")
                fh.write(_records_header(experiment.n_detectors) + "\n")
                summary = run_experiment(
                    experiment, on_block=lambda block: fh.write(_block_rows(block, scale))
                )
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
    except OSError as exc:  # creating, opening, writing or closing, as a full disk does
        raise ConfigError("output_dir", f"not writable: {exc}") from exc
    if verbosity:
        print(f"simulated {summary.n_trials} trials into {output_dir}", file=sys.stderr)
    return EXIT_OK


def _check_row(parts: list[str], n: int) -> tuple[int, tuple[int, ...]]:
    """A row's trial index and outcomes; ValueError with the message of its first fault.

    ``parts`` is ``row.split(",", 2)``.  Faults are checked in this order:
    field count, trial index, readings, outcomes, latent, finite readings,
    0/1 outcomes.  The index order is the caller's to check.
    """
    fields = parts[-1].split(",")
    if len(parts) + len(fields) != 2 * n + 3:
        raise ValueError(f"expected {2 * n + 2} fields, got {len(parts) - 1 + len(fields)}")
    index = int(parts[0])
    total = sum(map(float, fields[:n]))
    outcomes = tuple(map(int, fields[n:]))
    if parts[1] not in _LATENTS:
        raise ValueError(f"latent must be empty, 0 or 1, got {parts[1]!r}")
    # nan or inf makes the sum non-finite, but so can finite readings that overflow it
    if not math.isfinite(total) and not all(map(math.isfinite, map(float, fields[:n]))):
        raise ValueError("readings must be finite")
    if not _BITS.issuperset(outcomes):
        raise ValueError("outcomes must be 0 or 1")
    return index, outcomes


def _parse_records_csv(path) -> PatternTable:
    """The outcome-pattern table of a records CSV.

    Every row is checked; trial indices must increase strictly, so duplicated
    rows or two concatenated runs cannot count their evidence twice.  A row's
    readings and outcomes lie in its tail, the text after the latent field,
    so a row whose tail is in the memo of valid tails re-checks only its
    index and latent.  The memo never holds more tails than it has had hits,
    so rows that never repeat leave at most one tail in it.
    """
    try:
        lines = enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("records", f"cannot read {path}: {exc}") from exc

    for header_line, line in lines:
        if line.strip() and not line.startswith("#"):
            header = line.split(",")
            break
    else:
        raise ConfigError("records", "no header row found")
    n = sum(1 for col in header if col.startswith("outcome_"))
    if n < 1 or ",".join(header) != _records_header(n):
        raise ConfigError("records", f"line {header_line}: malformed header {header!r}")

    memo: dict[str, int] = {}
    patterns = []  # outcome tuples of the tails checked; rows point into it
    rows = []
    hits = 0
    previous = -math.inf
    for lineno, line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(",", 2)
        # only a row of at least three fields can have a valid tail in the memo
        pattern = memo.get(parts[-1])
        try:
            if pattern is not None and parts[1] in _LATENTS:
                hits += 1
                index = int(parts[0])
            else:  # a new tail, or a bad latent, which the full check reports after the index
                index, outcomes = _check_row(parts, n)
                pattern = len(patterns)
                patterns.append(outcomes)
                if len(memo) <= hits:
                    memo[parts[-1]] = pattern
        except ValueError as exc:
            raise ConfigError("records", f"line {lineno}: {exc}") from exc
        if index <= previous:
            raise ConfigError(
                "records",
                f"line {lineno}: trial index {index} does not follow {previous}; "
                "indices must increase strictly",
            )
        previous = index
        rows.append(pattern)
    if not rows:
        raise ConfigError("records", "no trial rows found")
    if n > MAX_DETECTORS:
        raise ConfigError("records", f"{n} detectors exceed the packing limit of {MAX_DETECTORS}")
    return PatternTable.from_outcomes(np.array(patterns, dtype=np.int8), np.bincount(rows))


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
    resolved = cfg.load(config_path)
    table = _parse_records_csv(records_path)
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
    resolved = cfg.load(config_path)
    model = resolved.experiment.detector_model
    detectors = [{"index": i, **asdict(d)} for i, d in enumerate(model.diagnostics())]
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


def _apply_field(raw, dotted: str, value: float) -> None:
    parent, key, node = None, None, raw
    for part in dotted.split("."):
        if isinstance(node, list) and part.isdigit() and int(part) < len(node):
            part = int(part)
        elif not (isinstance(node, dict) and part in node):
            raise ConfigError(dotted, "unknown config field")
        parent, key, node = node, part, node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(dotted, "field is not numeric")
    # an integer field takes an integral grid value as an integer; a float field reads either alike
    parent[key] = int(value) if isinstance(node, int) and value.is_integer() else value


def cmd_sweep(config_path, field: str, start: float, stop: float, steps: int, out_path, seed_override=None) -> int:
    """Run one experiment per grid point of a numeric config field; write the tidy CSV once all have run."""
    if steps < 1:
        raise ConfigError("steps", "sweep needs at least one grid point")
    for name, bound in (("start", start), ("stop", stop)):
        if not math.isfinite(bound):
            raise ConfigError(name, "must be finite")
    if field == "seed" and seed_override is not None:
        raise ConfigError("seed", "cannot be both the swept field and overridden by --seed")
    raw = cfg.read_raw(config_path)
    values = np.linspace(start, stop, steps).tolist()

    # recording the resolves' warnings resets Python's once-per-location
    # registry, so the sweep shows each distinct one itself, once, also when a point fails
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            base = cfg.resolve(raw, seed_override=seed_override)
            points = []
            for value in values:
                point_raw = copy.deepcopy(raw)
                _apply_field(point_raw, field, value)
                points.append(cfg.resolve(point_raw, seed_override=seed_override))
    finally:
        first = {}
        for w in caught:
            first.setdefault((w.category, str(w.message)), w)
        for w in first.values():
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    rows = [_sweep_row(value, point) for value, point in zip(values, points)]

    header = ["value", "m_over_M", "M0_over_M", "M1_over_M", "log_odds"]
    header += [f"disc_{i + 1}" for i in range(len(base.experiment.detector_model.diagnostics()))]
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
    sim.add_argument("--threads", type=int, default=1, help="scheduling hint; never changes output")
    sim.add_argument("-v", "--verbose", action="count", default=0)

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
            return cmd_simulate(args.config, args.out, formats, args.seed, args.threads, args.verbose)
        if args.command == "infer":
            return cmd_infer(args.records, args.config)
        if args.command == "discriminability":
            return cmd_discriminability(args.config)
        if args.command == "sweep":
            return cmd_sweep(
                args.config, args.field, args.start, args.stop, args.steps, args.out,
                seed_override=args.seed,
            )
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"model error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
