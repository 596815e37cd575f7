"""The benchmark workloads: generated configs, CLI operations and output checks.

Every check follows from the paper's laws, never from stored output, so
they hold for any random-stream contract.  Each check that fails marks
its operation as failed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

LN100 = math.log(100.0)
SIGMAS = 5.0
CHI2_P_MIN = 1e-6

# One thread per core, capped so the flag never asks for a large pool.
THREADS = min(len(os.sched_getaffinity(0)), 8)

ROUNDTRIP_EPS = [round(0.01 + 0.005 * i, 3) for i in range(8)]

# Oscillator pointer in natural units: X/dx = lambda sqrt(beta) / (sqrt(m) omega) = 3.
OSC_DETECTOR = {
    "mass": 1.0,
    "omega": 1.0,
    "beta": 0.25,
    "coupling_lambda": 6.0,
    "relaxation_rate": 1.0,
    "measurement_time": 10.0,
}
OSC_EPS = 0.5 * math.erfc(3.0 / (2.0 * math.sqrt(2.0)))
SWEEP_STEPS = 9


def sim_qpc4_config(seed: int, trials: int) -> dict:
    detectors = [
        {"bias_voltage_uV": 50.0, "observation_time_ns": tau, "t0": t0, "t1": t1}
        for t0, t1 in ((0.4, 0.6), (0.6, 0.4))
        for tau in (12.5, 25.0)
    ]
    return {
        "state": {"p0": 0.5},
        "scenario": {"kind": "binomial"},
        "detector_model": {"model": "qpc", "sampling": "exact", "detectors": detectors},
        "n_trials": trials,
        "seed": seed,
    }


def roundtrip_ideal8_config(seed: int, trials: int) -> dict:
    return {
        "state": {"p0": 0.3},
        "scenario": {"kind": "binomial"},
        "detector_model": {"model": "ideal"},
        "n_detectors": 8,
        "error_model": {"eps": ROUNDTRIP_EPS},
        "n_trials": trials,
        "seed": seed,
    }


def sweep_osc_config(seed: int, trials: int) -> dict:
    return {
        "state": {"p0": 0.5},
        "scenario": {"kind": "unanimous"},
        "detector_model": {
            "model": "oscillator",
            "unit_system": "natural",
            "detectors": [dict(OSC_DETECTOR), dict(OSC_DETECTOR)],
        },
        "n_trials": trials,
        "seed": seed,
    }


def _within(observed: float, p: float, trials: int) -> bool:
    return abs(observed - p) <= SIGMAS * math.sqrt(p * (1.0 - p) / trials)


def check_summary(summary: dict, trials: int) -> list[str]:
    """M0 + M1 + m = M and the zero-count histogram sums to M."""
    failures = []
    if summary["M"] != trials:
        failures.append(f"M = {summary['M']}, expected {trials}")
    if summary["M0"] + summary["M1"] + summary["m"] != summary["M"]:
        failures.append("M0 + M1 + m != M")
    if sum(summary["histogram_n0"]) != summary["M"]:
        failures.append("sum(histogram_n0) != M")
    return failures


def check_disagreement(summary: dict, trials: int, p_disagree: float) -> list[str]:
    ratio = summary["m"] / trials
    if not _within(ratio, p_disagree, trials):
        return [f"m/M = {ratio:.5f} is more than {SIGMAS} sigma from {p_disagree:.5f}"]
    return []


def chi2_pvalue(observed: list[int], probs: list[float]) -> float:
    """Pearson chi-square p-value, pooling adjacent bins until each expects >= 5."""
    from scipy.stats import chi2

    total = sum(observed)
    pooled: list[list[float]] = []
    obs_acc = exp_acc = 0.0
    for o, p in zip(observed, probs):
        obs_acc += o
        exp_acc += p * total
        if exp_acc >= 5.0:
            pooled.append([obs_acc, exp_acc])
            obs_acc = exp_acc = 0.0
    if pooled:
        pooled[-1][0] += obs_acc
        pooled[-1][1] += exp_acc
    if len(pooled) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for o, e in pooled)
    return float(chi2.sf(stat, len(pooled) - 1))


def check_binomial_histogram(summary: dict, p0: float) -> list[str]:
    n = len(summary["histogram_n0"]) - 1
    probs = [math.comb(n, k) * p0**k * (1.0 - p0) ** (n - k) for k in range(n + 1)]
    pvalue = chi2_pvalue(summary["histogram_n0"], probs)
    if pvalue <= CHI2_P_MIN:
        return [f"histogram_n0 does not fit Binomial({n}, {p0}): p = {pvalue:.3g}"]
    return []


def check_verdict(verdict: dict, trials: int, decision: str) -> list[str]:
    failures = []
    if verdict["decision"] != decision:
        failures.append(f"decision {verdict['decision']!r}, expected {decision!r}")
    if verdict["M_used"] != trials:
        failures.append(f"M_used = {verdict['M_used']}, expected {trials}")
    log_odds = verdict["log_odds"]
    if not isinstance(log_odds, (int, float)) or not math.isfinite(log_odds):
        failures.append(f"log_odds {log_odds!r} is not finite")
    elif decision == "binomial" and log_odds > -LN100:
        failures.append(f"log_odds {log_odds} > -ln 100")
    return failures


def check_sweep(csv_text: str, trials: int, p_disagree: float) -> list[str]:
    rows = [line.split(",") for line in csv_text.splitlines() if line and not line.startswith("#")]
    header, rows = rows[0], rows[1:]
    if len(rows) != SWEEP_STEPS:
        return [f"sweep wrote {len(rows)} rows, expected {SWEEP_STEPS}"]
    col = {name: i for i, name in enumerate(header)}
    failures = []
    for row in rows:
        value = float(row[col["value"]])
        m, m0, m1 = (float(row[col[c]]) for c in ("m_over_M", "M0_over_M", "M1_over_M"))
        if round(m * trials) + round(m0 * trials) + round(m1 * trials) != trials:
            failures.append(f"p0={value}: M0 + M1 + m != M")
        if float(row[col["log_odds"]]) < LN100:
            failures.append(f"p0={value}: log_odds {row[col['log_odds']]} < ln 100")
        if not _within(m, p_disagree, trials):
            failures.append(f"p0={value}: m/M = {m} is more than {SIGMAS} sigma from {p_disagree:.5f}")
    return failures


def _sim_qpc4(runner, workload, seed, traced):
    config = runner.write_config(sim_qpc4_config(seed, workload.trials))
    out = runner.fresh_dir("out")
    op = runner.op("simulate", ["simulate", "--config", config, "--out", out,
                                "--format", "json", "--threads", str(THREADS)], traced)
    if op.exit_code == 0:
        summary = json.loads((out / "summary.json").read_text())
        op.failures += check_summary(summary, workload.trials)
        op.failures += check_disagreement(summary, workload.trials, workload.expect["p_disagree"])
    return [op]


def _roundtrip_ideal8(runner, workload, seed, traced):
    config = runner.write_config(roundtrip_ideal8_config(seed, workload.trials))
    out = runner.fresh_dir("out")
    sim = runner.op("simulate", ["simulate", "--config", config, "--out", out], traced)
    if sim.exit_code != 0:
        return [sim]
    records = out / "records.csv"
    sim.layer["cli.csv_bytes"] = records.stat().st_size
    summary = json.loads((out / "summary.json").read_text())
    sim.failures += check_summary(summary, workload.trials)
    sim.failures += check_binomial_histogram(summary, workload.expect["p0"])
    infer = runner.op("infer", ["infer", "--records", records, "--config", config], traced)
    if infer.exit_code == 0:
        verdict = json.loads(infer.stdout)
        infer.layer["cli.csv_rows_parsed"] = verdict["M_used"]
        infer.failures += check_verdict(verdict, workload.trials, workload.expect["decision"])
    return [sim, infer]


def _sweep_osc(runner, workload, seed, traced):
    config = runner.write_config(sweep_osc_config(seed, workload.trials))
    out = runner.fresh_dir("out") / "sweep.csv"
    op = runner.op("sweep", ["sweep", "--config", config, "--field", "state.p0", "--start", "0.1",
                             "--stop", "0.9", "--steps", str(SWEEP_STEPS), "--out", out], traced)
    if op.exit_code == 0:
        op.failures += check_sweep(out.read_text(), workload.trials, workload.expect["p_disagree"])
    return [op]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: M per experiment, how to run an iteration, what to expect.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    trials: int
    experiments: int
    iterate: Callable = field(repr=False)
    expect: dict = field(default_factory=dict)

    @property
    def trials_per_iteration(self) -> int:
        return self.trials * self.experiments


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-qpc4", trials=20_000, experiments=1, iterate=_sim_qpc4,
                 expect={"p_disagree": 7.0 / 8.0}),
        Workload("roundtrip-ideal8", trials=50_000, experiments=1, iterate=_roundtrip_ideal8,
                 expect={"p0": 0.3, "decision": "binomial"}),
        Workload("sweep-osc", trials=10_000, experiments=SWEEP_STEPS, iterate=_sweep_osc,
                 expect={"p_disagree": 2.0 * OSC_EPS * (1.0 - OSC_EPS)}),
    )
}
