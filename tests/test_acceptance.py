"""Acceptance suite: one test per release criterion, with a printed verdict line.

Run visibly with:  pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from oracles import chisq_gof_pvalue, quadrant_masses
from multidetect.cli import main
from multidetect.constants import NATURAL, SI
from multidetect.experiment import ExperimentConfig, IdealModel, QpcModel, run_experiment
from multidetect.inference import (
    DECISION_BINOMIAL,
    DECISION_UNANIMOUS,
    ErrorModel,
    decide,
    required_trials,
)
from multidetect.oscillator import (
    OscillatorParams,
    joint_density_counterfactual,
    joint_density_qm,
)
from multidetect.qpc import (
    QpcParams,
    current_stats,
    discriminability,
    misread_probability,
    raw_attempts,
    sample_current,
)
from multidetect.scenarios import Binomial, Unanimous, binomial_pmf
from multidetect.state import OutcomeProbabilities, make_amplitudes


def report(criterion: int, description: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {description}: {status} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def state(p0: float):
    return make_amplitudes(math.sqrt(p0), 0.0, math.sqrt(1.0 - p0), 0.0)


def qpc_pair(n_attempts: float = 302.0):
    bias = 50e-6
    tau = n_attempts * SI.planck / (2 * SI.electron_charge * bias)
    pa = QpcParams(bias_voltage=bias, observation_time=tau, t_given_0=0.4, t_given_1=0.6)
    pb = QpcParams(bias_voltage=bias, observation_time=tau, t_given_0=0.6, t_given_1=0.4)
    return pa, pb


def test_criterion_1_disagreement_law():
    t0 = time.perf_counter()
    config = ExperimentConfig(
        state=state(0.5),
        scenario=Binomial(),
        detector_model=IdealModel(),
        n_trials=10**5,
        n_detectors=2,
        seed=20260810,
    )
    summary = run_experiment(config)
    elapsed = time.perf_counter() - t0
    rate = summary.disagreements / summary.n_trials
    ok = abs(rate - 0.5) <= 0.0063 and elapsed < 5.0
    report(
        1,
        "two-detector disagreement rate 2|c0 c1|^2",
        ok,
        f"m/M = {rate:.5f}, |dev| = {abs(rate - 0.5):.5f} <= 0.0063, {elapsed:.2f} s < 5 s",
    )


def test_criterion_2_counting_law_fidelity():
    t0 = time.perf_counter()
    n = 10
    worst_p = 1.0
    worst_sum = 0.0
    worst_mean = 0.0
    for i, p0 in enumerate((0.2, 0.36, 0.5)):
        probs = OutcomeProbabilities(p0)
        pmf = [binomial_pmf(n, k, probs) for k in range(n + 1)]
        worst_sum = max(worst_sum, abs(sum(pmf) - 1.0))
        worst_mean = max(worst_mean, abs(sum(k * q for k, q in enumerate(pmf)) - n * p0))
        config = ExperimentConfig(
            state=state(p0),
            scenario=Binomial(),
            detector_model=IdealModel(),
            n_trials=10**5,
            n_detectors=n,
            seed=100 + i,
        )
        summary = run_experiment(config)
        worst_p = min(worst_p, chisq_gof_pvalue(summary.histogram_n0, pmf))
    elapsed = time.perf_counter() - t0
    ok = worst_p > 0.001 and worst_sum <= 1e-12 and worst_mean <= 1e-9 and elapsed < 10.0
    report(
        2,
        "zero-count histogram matches the binomial counting law",
        ok,
        f"min chi^2 p = {worst_p:.4f} > 0.001, |sum-1| = {worst_sum:.1e} <= 1e-12, "
        f"|mean-Np0| = {worst_mean:.1e} <= 1e-9, {elapsed:.2f} s < 10 s",
    )


def test_criterion_3_quadrant_signature():
    t0 = time.perf_counter()
    params = OscillatorParams(
        mass=1.0, omega=1.0, beta=0.25, coupling_lambda=20.0,
        relaxation_rate=1.0, measurement_time=10.0, constants=NATURAL,
    )  # X = 20, dx = 2: separation 10
    probs = OutcomeProbabilities(0.36)
    threshold = 10.0
    box = (-30.0, 50.0)

    qm = quadrant_masses(
        lambda xa, xb: joint_density_qm(params, params, probs, xa, xb),
        threshold, threshold, box, box, n=220,
    )
    cf = quadrant_masses(
        lambda xa, xb: joint_density_counterfactual(params, params, probs, xa, xb),
        threshold, threshold, box, box, n=220,
    )
    p0, p1 = probs.p0, probs.p1
    targets_qm = {(0, 0): p0, (1, 1): p1, (0, 1): 0.0, (1, 0): 0.0}
    targets_cf = {(0, 0): p0**2, (1, 1): p1**2, (0, 1): p0 * p1, (1, 0): p0 * p1}
    dev_qm = max(abs(qm[k] - targets_qm[k]) for k in qm)
    dev_cf = max(abs(cf[k] - targets_cf[k]) for k in cf)
    cross_total = cf[(0, 1)] + cf[(1, 0)]
    elapsed = time.perf_counter() - t0
    ok = (
        dev_qm <= 1e-5
        and dev_cf <= 1e-5
        and abs(cross_total - 2 * p0 * p1) <= 2e-5
        and elapsed < 2.0
    )
    report(
        3,
        "mixture-weight quadrant signature (shared bit vs independent bits)",
        ok,
        f"max |dev| shared = {dev_qm:.1e}, independent = {dev_cf:.1e} <= 1e-5, "
        f"cross mass = {cross_total:.6f} vs 0.4608, {elapsed:.2f} s < 2 s",
    )


def test_criterion_4_qpc_identities_and_sampling():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_current = 0.0
    worst_noise = 0.0
    for _ in range(50):
        bias = float(rng.uniform(5, 800)) * 1e-6
        tau = float(rng.uniform(150, 1e5)) * SI.planck / (2 * SI.electron_charge * bias)
        p = QpcParams(
            bias_voltage=bias,
            observation_time=tau,
            t_given_0=float(rng.uniform(0.05, 0.95)),
            t_given_1=float(rng.uniform(0.05, 0.95)),
        )
        for sigma in (0, 1):
            st = current_stats(p, sigma)
            t = p.transmission(sigma)
            bridging = SI.electron_charge * raw_attempts(p) * t / p.observation_time
            worst_current = max(worst_current, abs(bridging / st.mean_current - 1.0))
            noise_identity = SI.electron_charge * st.mean_current * (1.0 - t)
            worst_noise = max(worst_noise, abs(noise_identity / st.noise - 1.0))

    bias = 100e-6
    tau = 10**4 * SI.planck / (2 * SI.electron_charge * bias)
    p = QpcParams(bias_voltage=bias, observation_time=tau, t_given_0=0.3, t_given_1=0.7)
    draw_rng = np.random.default_rng(405)
    exact = sample_current(p, 0, draw_rng, mode="exact", size=10**4)
    gauss = sample_current(p, 0, draw_rng, mode="gaussian", size=10**4)
    ks = stats.ks_2samp(exact, gauss)
    elapsed = time.perf_counter() - t0
    ok = worst_current <= 1e-12 and worst_noise <= 1e-12 and ks.pvalue > 0.001 and elapsed < 10.0
    report(
        4,
        "transport identities and sampling-mode agreement",
        ok,
        f"count/current identity dev = {worst_current:.1e}, noise identity dev = "
        f"{worst_noise:.1e} <= 1e-12, KS p = {ks.pvalue:.3f} > 0.001, {elapsed:.2f} s < 10 s",
    )


def test_criterion_5_state_weak_disagreement():
    t0 = time.perf_counter()
    pa, pb = qpc_pair()
    d_min = min(discriminability(pa), discriminability(pb))
    budget = misread_probability(pa) + misread_probability(pb)
    rates = []
    for i, p0 in enumerate(np.arange(0.1, 0.95, 0.1)):
        config = ExperimentConfig(
            state=state(float(p0)),
            scenario=Unanimous(),
            detector_model=QpcModel([pa, pb]),
            n_trials=10**4,
            n_detectors=2,
            seed=500 + i,
        )
        summary = run_experiment(config)
        rates.append(summary.disagreements / summary.n_trials)
    spread = max(rates) - min(rates)
    elapsed = time.perf_counter() - t0
    ok = (
        d_min >= 25.0
        and max(rates) <= budget
        and spread <= budget
        and elapsed < 30.0
    )
    report(
        5,
        "disagreement under the shared-bit law is small and state-weak",
        ok,
        f"D = {d_min:.1f} >= 25, max rate = {max(rates):.5f} <= {budget:.5f}, "
        f"spread = {spread:.5f} <= {budget:.5f}, {elapsed:.2f} s < 30 s",
    )


def test_criterion_6_inference_calibration_and_trial_bound():
    t0 = time.perf_counter()
    no_err = ErrorModel.ideal(2)

    exact_reference = required_trials(OutcomeProbabilities(0.5), math.exp(-1), no_err) == 2

    worst_ratio_dev = 0.0
    for target in (0.01, 0.005, 0.001):
        p0 = (1 + math.sqrt(1 - 4 * target)) / 2  # p0*(1-p0) = target
        probs = OutcomeProbabilities(p0)
        for alpha in (0.01, 0.001):
            m = required_trials(probs, alpha, no_err)
            ratio = m * 2 * probs.p0 * probs.p1 / math.log(1 / alpha)
            worst_ratio_dev = max(worst_ratio_dev, abs(ratio - 1.0))

    worst_wrong = 0.0
    reps = 1000
    for block, p0 in enumerate((0.5, 0.9)):
        probs = OutcomeProbabilities(p0)
        m = required_trials(probs, 0.01, no_err)
        for lane, (scenario, wrong_decision) in enumerate((
            (Unanimous(), DECISION_BINOMIAL),
            (Binomial(), DECISION_UNANIMOUS),
        )):
            wrong = 0
            for rep in range(reps):
                config = ExperimentConfig(
                    state=state(p0),
                    scenario=scenario,
                    detector_model=IdealModel(),
                    n_trials=m,
                    n_detectors=2,
                    seed=block * 10**6 + lane * 10**4 + rep,
                )
                verdict = decide(run_experiment(config).patterns, probs, no_err)
                if verdict.decision == wrong_decision:
                    wrong += 1
            worst_wrong = max(worst_wrong, wrong / reps)

    elapsed = time.perf_counter() - t0
    ok = (
        exact_reference
        and worst_ratio_dev <= 0.05
        and worst_wrong <= 0.02
        and elapsed < 60.0
    )
    report(
        6,
        "decision calibration and required-trials scaling",
        ok,
        f"M(p0=0.5, alpha=1/e) = 2: {exact_reference}, asymptotic ratio dev = "
        f"{worst_ratio_dev:.3f} <= 0.05, worst wrong rate = {worst_wrong:.3f} <= 0.02, "
        f"{elapsed:.1f} s < 60 s",
    )


def test_criterion_7_determinism(tmp_path):
    raw = {
        "state": {"p0": 0.36},
        "scenario": {"kind": "binomial"},
        "detector_model": {"model": "ideal"},
        "n_detectors": 2,
        "n_trials": 5000,
        "seed": 777,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    outputs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / name
        code = main([
            "simulate", "--config", str(cfg), "--out", str(out), "--threads", threads,
        ])
        assert code == 0
        outputs.append(
            ((out / "records.csv").read_bytes(), (out / "summary.json").read_bytes())
        )
    ok = outputs[0] == outputs[1] == outputs[2]
    report(
        7,
        "byte-identical reruns across thread hints",
        ok,
        f"3 runs, csv {len(outputs[0][0])} bytes, json {len(outputs[0][1])} bytes, all equal: {ok}",
    )
