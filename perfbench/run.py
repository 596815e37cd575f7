"""Benchmark of the multidetect CLI: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload sim-qpc4 --seed 1 --seconds 30 --trace 0

Each operation runs ``multidetect.cli.main`` in a fresh child process
(``child.py``), so set-up time and peak RSS belong to that operation alone.
The workload seed feeds a generator of per-iteration program seeds that
are written into the generated configs; the program sees only those.
One untimed warm-up iteration runs first, then iterations repeat until
``--seconds`` have passed.  Every operation's output is checked against
the paper's laws (``workloads.py``).

``--trace 0`` reports the end-to-end metrics as medians over the untraced
iterations.  Their times are scaled to the speed of the reference machine
by a fixed reference process (``reference.py``) timed right before each
iteration; the readable report also prints the unscaled medians.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer split from the traced ones (``tracing.py``), plus the tracing
overhead.  ``--workload all`` runs every workload in turn.  The last line
of standard output is one JSON object; the lines before it are a readable
report.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
WORK_ROOT = ROOT / ".perfbench_work"

E2E_UNITS = {"trials_per_s": "trials/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_ITERATIONS = 3
# Wall time of reference.py on the reference machine (shared 2-core x86-64 VM)
# in a quiet phase.  A time t measured next to a reference time r is reported
# as t * REFERENCE_S / r: the host's speed swings by up to 40 % over minutes,
# and the reference swings with it.
REFERENCE_S = 0.4
# Stop starting iterations after this long, whatever --seconds says, and kill
# any operation still running at DEADLINE_S, so that a run ends within 180 s.
HARD_LIMIT_S = 150.0
DEADLINE_S = 170.0


@dataclass
class Op:
    """One CLI operation as the parent saw it; timings are None if the child failed."""

    label: str
    exit_code: int | None = None
    stdout: str = ""
    wall_s: float = 0.0
    setup_s: float | None = None
    work_s: float | None = None
    peak_rss_mb: float | None = None
    layer: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.failures


class Runner:
    """Starts child operations inside one scratch directory."""

    def __init__(self, work_dir: Path, started: float):
        self.dir = work_dir
        self.started = started
        self._ops = 0

    def write_config(self, raw: dict) -> Path:
        path = self.dir / "config.json"
        path.write_text(json.dumps(raw, indent=1))
        return path

    def fresh_dir(self, name: str) -> Path:
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    def reference(self) -> float:
        """Wall time of one run of the reference process."""
        start = time.monotonic()
        subprocess.run([sys.executable, str(REFERENCE)], check=True, timeout=60)
        return time.monotonic() - start

    def op(self, label: str, args: list, traced: bool) -> Op:
        self._ops += 1
        result_path = self.dir / f"op{self._ops}.json"
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        op = Op(label)
        spawn = time.monotonic()
        argv = [sys.executable, str(CHILD), str(result_path), repr(spawn), str(int(traced)), "--"]
        try:
            proc = subprocess.run(argv + [str(a) for a in args], cwd=self.dir, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            op.failures.append(f"{label} did not finish within {timeout:.0f} s")
            return op
        op.wall_s = time.monotonic() - spawn
        op.stdout = proc.stdout
        if proc.returncode != 0 or not result_path.exists():
            op.failures.append(f"{label}: child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return op
        result = json.loads(result_path.read_text())
        op.exit_code = result["exit_code"]
        if op.exit_code != 0:
            op.failures.append(f"{label}: multidetect exited {op.exit_code}: {proc.stderr.strip()[-500:]}")
        op.setup_s, op.work_s, op.peak_rss_mb = result["setup_s"], result["work_s"], result["peak_rss_mb"]
        if traced:
            spans = result_path.with_suffix(".npz")
            op.layer.update(tracing.layer_totals(spans, result["counters"]))
            spans.unlink()
        return op


def _complete(ops: list[Op]) -> bool:
    """Whether every operation ran to completion; failed checks still leave timings."""
    return all(op.exit_code == 0 for op in ops)


def end_to_end(workload, plain: list[tuple[float, list[Op]]], scaled: bool = True) -> dict[str, list[float]]:
    """Per-iteration samples of each end-to-end metric (per operation for ``setup_s``).

    ``plain`` pairs each untraced iteration with the reference time taken
    just before it; with ``scaled`` every time is multiplied by
    ``REFERENCE_S`` over that reference time.
    """
    samples = {name: [] for name in E2E_UNITS}
    for reference_s, ops in plain:
        if not _complete(ops):
            continue
        scale = REFERENCE_S / reference_s if scaled else 1.0
        samples["trials_per_s"].append(workload.trials_per_iteration / (scale * sum(op.work_s for op in ops)))
        samples["wall_s"].append(scale * sum(op.wall_s for op in ops))
        samples["setup_s"] += [scale * op.setup_s for op in ops]
        samples["peak_rss_mb"].append(max(op.peak_rss_mb for op in ops))
    return samples


def per_layer(plain: list[tuple[float, list[Op]]], traced: list[list[Op]]) -> dict[str, float]:
    per_iteration = []
    for ops in filter(_complete, traced):
        totals = Counter()
        for op in ops:
            totals.update(op.layer)
        per_iteration.append(tracing.layer_metrics(totals))
    metrics = {name: median(it[name] for it in per_iteration) for name in per_iteration[0]}
    wall = lambda iterations: median(sum(op.wall_s for op in ops) for ops in filter(_complete, iterations))
    metrics["trace.overhead_ratio"] = wall(traced) / wall(ops for _, ops in plain)
    return metrics


def stage_rates(workload, plain: list[tuple[float, list[Op]]]) -> dict[str, float]:
    """Unscaled throughput of each CLI command in the workload, for the readable report."""
    rates = {}
    for label in ("simulate", "infer", "sweep"):
        times = [op.work_s for _, ops in plain if _complete(ops) for op in ops if op.label == label]
        if times:
            unit = "rows" if label == "infer" else "trials"
            rates[f"{label}_{unit}_per_s"] = median(workload.trials_per_iteration / t for t in times)
    return rates


def run_workload(workload, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """Run one workload for ``seconds`` and return the benchmark's result object."""
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    seeds = random.Random(seed)
    started = time.monotonic()
    runner = Runner(work_dir, started)
    plain: list[tuple[float, list[Op]]] = []
    traced: list[list[Op]] = []
    try:
        warmup = workload.iterate(runner, workload, seeds.getrandbits(63), False)
        t0 = time.monotonic()
        while time.monotonic() - started < HARD_LIMIT_S:
            enough = len(plain) >= MIN_ITERATIONS and (not trace or len(traced) >= MIN_ITERATIONS)
            if enough and time.monotonic() - t0 >= seconds:
                break
            if trace and len(plain) > len(traced):
                traced.append(workload.iterate(runner, workload, seeds.getrandbits(63), True))
            else:
                reference_s = runner.reference()
                plain.append((reference_s, workload.iterate(runner, workload, seeds.getrandbits(63), False)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    all_ops = [op for ops in [warmup, *(ops for _, ops in plain), *traced] for op in ops]
    failed = [op for op in all_ops if not op.ok]
    for op in failed:
        for message in op.failures or ["failed"]:
            print(f"{workload.name}: {message}", file=sys.stderr)
    if not any(_complete(ops) for _, ops in plain) or (trace and not any(map(_complete, traced))):
        raise RuntimeError(f"{workload.name}: no iteration ran to completion")

    samples, unscaled = end_to_end(workload, plain), end_to_end(workload, plain, scaled=False)
    e2e = {name: median(values) for name, values in samples.items()}
    log(f"{workload.name}: seed {seed}, {len(plain)} untraced + {len(traced)} traced iterations "
        f"of M = {workload.trials_per_iteration} trials, {len(all_ops)} operations, reference "
        f"{median(ref for ref, _ in plain):.4g} s (scaled to {REFERENCE_S} s)")
    for name, value in e2e.items():
        log(f"  {name:28s} {value:14.6g} {E2E_UNITS[name]:9s} "
            f"(median of {len(samples[name])}; unscaled {median(unscaled[name]):.6g})")
    for name, value in stage_rates(workload, plain).items():
        log(f"  {name:28s} {value:14.6g} {name.split('_')[1]}/s")
    log(f"  {'error_rate':28s} {len(failed) / len(all_ops):14.6g} ({len(failed)}/{len(all_ops)})")
    if trace:
        metrics = per_layer(plain, traced)
        for name, value in metrics.items():
            log(f"  {name:28s} {value:14.6g} {tracing.LAYER_METRICS[name]}")
        units = tracing.LAYER_METRICS
    else:
        metrics, units = e2e, E2E_UNITS
    return {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multidetect" / "cli.py").is_file():
        print(f"no multidetect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
