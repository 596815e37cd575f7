"""Independent verification machinery used by the tests.

Everything here deliberately avoids the package's own code paths:
quadrature instead of closed-form mixtures, pattern enumeration instead
of sampler math, exact integer combinatorics instead of log-space pmfs.
``verdict_law`` calls ``decide``, the code it weighs, on tables weighted by its own pattern laws.
``fresh_env`` is the environment of the tests' new Python processes.
"""

from __future__ import annotations

import math
import os
from decimal import Decimal, localcontext
from itertools import accumulate, product
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from scipy import stats

import multidetect
from multidetect.constants import SI
from multidetect.errors import ConfigError
from multidetect.inference import ErrorModel, PatternTable, decide
from multidetect.state import born_probabilities


def fresh_env(**extra: str) -> dict[str, str]:
    """The environment of a new Python process that imports this checkout's multidetect, with ``extra`` set."""
    return {**os.environ, "PYTHONPATH": str(Path(multidetect.__file__).resolve().parents[1]), **extra}


def gauss_legendre_1d(f, a: float, b: float, n: int = 200) -> float:
    """Integrate a vectorized callable over [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.sum(weights * f(x)))


def gauss_legendre_2d(f, xlim, ylim, n: int = 200) -> float:
    """Integrate a vectorized callable f(x, y) over a box."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    xa, xb = xlim
    ya, yb = ylim
    x = 0.5 * (xb - xa) * nodes + 0.5 * (xa + xb)
    y = 0.5 * (yb - ya) * nodes + 0.5 * (ya + yb)
    gx, gy = np.meshgrid(x, y, indexing="ij")
    w2 = np.outer(weights, weights)
    return 0.25 * (xb - xa) * (yb - ya) * float(np.sum(w2 * f(gx, gy)))


def quadrant_masses(f, tx: float, ty: float, xlim, ylim, n: int = 200) -> dict:
    """Integrate f over the four quadrants cut by thresholds (tx, ty).

    Keys are (bit_x, bit_y) with bit 1 meaning above the threshold.
    """
    xa, xb = xlim
    ya, yb = ylim
    boxes = {
        (0, 0): ((xa, tx), (ya, ty)),
        (0, 1): ((xa, tx), (ty, yb)),
        (1, 0): ((tx, xb), (ya, ty)),
        (1, 1): ((tx, xb), (ty, yb)),
    }
    return {k: gauss_legendre_2d(f, bx, by, n=n) for k, (bx, by) in boxes.items()}


def exact_binom_pmf(n: int, k: int, p) -> float:
    """Binomial pmf from exact integer coefficients."""
    return float(math.comb(n, k) * p**k * (1 - p) ** (n - k))


def enumerate_count_probability(n: int, k: int, p: float) -> float:
    """P(exactly k zeros among n detectors) by summing over all labeled patterns."""
    total = 0.0
    for pattern in product((0, 1), repeat=n):
        if pattern.count(0) != k:
            continue
        prob = 1.0
        for bit in pattern:
            prob *= p if bit == 0 else 1.0 - p
        total += prob
    return total


def enumerate_disagreement_probability(p_zero) -> float:
    """P(not all detectors agree) for independent detectors reading 0 w.p. p_zero[a].

    Sums the probability of every labeled pattern that mixes 0s and 1s.
    """
    total = 0.0
    for pattern in product((0, 1), repeat=len(p_zero)):
        if len(set(pattern)) == 1:
            continue
        prob = 1.0
        for bit, p in zip(pattern, p_zero):
            prob *= p if bit == 0 else 1.0 - p
        total += prob
    return total


def enumerate_pattern_prob_unanimous(pattern, probs, eps):
    """Oracle: explicit sum over the shared latent bit."""
    total = 0.0
    for sigma, p_sigma in ((0, probs.p0), (1, probs.p1)):
        term = p_sigma
        for o, e in zip(pattern, eps):
            term *= e if o != sigma else 1 - e
        total += term
    return total


def enumerate_pattern_prob_binomial(pattern, probs, eps):
    """Oracle: explicit sum over one latent bit per detector."""
    total = 0.0
    for latents in product((0, 1), repeat=len(pattern)):
        term = 1.0
        for o, s, e in zip(pattern, latents, eps):
            term *= (probs.p0 if s == 0 else probs.p1) * (e if o != s else 1 - e)
        total += term
    return total


def verdict_law(probs, eps, m: int, truth: str) -> dict[str, float]:
    """P(unanimous), P(binomial) and P(inconclusive) of ``decide``'s verdict on M trials of two detectors.

    Every table of counts of the patterns 00, 01, 10, 11 that sum to M is
    weighted by its multinomial probability under the ``truth`` law
    ("unanimous" or "binomial") with misread probabilities ``eps``, from
    the enumerated pattern laws above, and ``decide`` scores it at its
    default threshold with ``eps`` as its error model.
    """
    patterns = list(product((0, 1), repeat=2))
    law = {"unanimous": enumerate_pattern_prob_unanimous, "binomial": enumerate_pattern_prob_binomial}[truth]
    pattern_probs = [law(pattern, probs, eps) for pattern in patterns]
    err = ErrorModel(eps)
    verdicts = {"unanimous": 0.0, "binomial": 0.0, "inconclusive": 0.0}
    for n00 in range(m + 1):
        for n01 in range(m + 1 - n00):
            for n10 in range(m + 1 - n00 - n01):
                counts = (n00, n01, n10, m - n00 - n01 - n10)
                tables = math.factorial(m) // math.prod(map(math.factorial, counts))
                weight = tables * math.prod(p**n for p, n in zip(pattern_probs, counts))
                if weight == 0.0:  # impossible under the truth, or too rare for a float
                    continue
                seen = [(pattern, n) for pattern, n in zip(patterns, counts) if n]
                table = PatternTable.from_outcomes([pattern for pattern, _ in seen], [n for _, n in seen])
                verdicts[decide(table, probs, err).decision] += weight
    return verdicts


def record_loop_logliks(patterns, probs, eps) -> tuple[float, float]:
    """(unanimous, binomial) log likelihoods, scoring one trial pattern at a time.

    The unanimous law sums over the one latent bit shared by every detector;
    the binomial law multiplies each detector's effective chance of its
    reading, p0 (1 - eps) + p1 eps for a 0.  A pattern impossible under a
    law makes that law's value -inf.  The unanimous sum runs in 40-digit
    decimal arithmetic, where a product of many small misreads cannot
    underflow.
    """
    effective = [probs.p0 * (1.0 - e) + probs.p1 * e for e in eps]
    unanimous = binomial = 0.0
    for pattern in patterns:
        with localcontext() as ctx:
            ctx.prec = 40
            total = Decimal(0)
            for sigma, p_sigma in ((0, probs.p0), (1, probs.p1)):
                term = Decimal(p_sigma)
                for o, e in zip(pattern, eps):
                    term *= Decimal(e) if o != sigma else 1 - Decimal(e)
                total += term
            unanimous += float(total.ln()) if total > 0 else -math.inf
        for o, p_eff in zip(pattern, effective):
            p = p_eff if o == 0 else 1.0 - p_eff
            binomial += math.log(p) if p > 0.0 else -math.inf
    return unanimous, binomial


def chisq_gof_pvalue(counts, expected_probs, min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value with sparse bins pooled from the edges inward."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected_probs, dtype=float) * counts.sum()
    # pool bins until every expected count clears the floor
    obs_bins, exp_bins = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if exp_bins:
            obs_bins[-1] += acc_o
            exp_bins[-1] += acc_e
        else:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
    obs = np.asarray(obs_bins)
    exp = np.asarray(exp_bins)
    exp *= obs.sum() / exp.sum()
    if len(obs) < 2:
        return 1.0
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(stats.chi2.sf(stat, len(obs) - 1))


def gaussian_upper_tail(z: float) -> float:
    """P(Z > z) for standard normal Z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def assert_one_path(f, scalar_type, *arrays) -> None:
    """f on arrays equals, bit for bit, f on their elements one at a time, each a numpy scalar."""
    whole = f(*arrays)
    singles = [f(*args) for args in zip(*(a.tolist() for a in arrays))]
    assert all(type(one) is scalar_type for one in singles)
    assert whole.dtype == scalar_type
    assert whole.tobytes() == np.array(singles, dtype=scalar_type).tobytes()


@st.composite
def bits_sizes_and_keys(draw):
    """(sigma, size, key): 0/1 outcome(s), None or a size they broadcast to, and a Philox key.

    ``sigma`` is a Python int, a 0-d array or an int8 array.  Two generators
    of one key let a sampler and Generator.normal draw the same stream.
    """
    shape = draw(st.sampled_from([(), (1,), (5,), (2, 3)]))
    values = draw(st.lists(st.integers(0, 1), min_size=math.prod(shape), max_size=math.prod(shape)))
    sigma = np.array(values, dtype=np.int8).reshape(shape)
    if shape == () and draw(st.booleans()):
        sigma = int(sigma)
    size = draw(st.sampled_from([None, shape, (4, *shape)] + ([7] if math.prod(shape) == 1 else [])))
    return sigma, size, draw(st.integers(0, 2**128 - 1))


def repr_block_rows(block, scale: float) -> str:
    """Records CSV rows of one TrialBlock, formatting every value with repr or str."""
    size = len(block.outcomes)
    latents = [""] * size if block.latent is None else block.latent.tolist()
    rows = zip(
        range(block.start, block.start + size),
        latents,
        (block.readings * scale).tolist(),
        block.outcomes.tolist(),
    )
    return "".join(
        f"{i},{latent},{','.join(map(repr, readings))},{','.join(map(str, outcomes))}\n"
        for i, latent, readings, outcomes in rows
    )


def line_checker_parse(path) -> tuple[int, np.ndarray]:
    """Detector count and (M, N) int8 outcomes of a records CSV, checking every line in full.

    Raises ConfigError("records", ...) naming the first faulty line and its
    first fault, checked in this order: a byte that is not UTF-8 (on any
    line, blank or comment too), then the header, then for a row field
    count, trial index, readings, outcomes, latent, finite readings, 0/1
    outcomes, increasing index.
    """
    try:
        # surrogateescape reads a byte that is not UTF-8 as the lone surrogate U+DC00 + byte
        lines = Path(path).read_text(encoding="utf-8", errors="surrogateescape").splitlines()
    except OSError as exc:
        raise ConfigError("records", f"cannot read {path}: {exc}") from exc

    header = None
    n = 0
    outcomes = []
    previous = -math.inf
    for lineno, line in enumerate(lines, start=1):
        undecoded = [ord(c) - 0xDC00 for c in line if 0xDC80 <= ord(c) <= 0xDCFF]
        if undecoded:
            raise ConfigError("records", f"line {lineno}: byte {undecoded[0]:#04x} is not UTF-8")
        if not line.strip() or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            n = sum(1 for col in header if col.startswith("outcome_"))
            expected = ["trial", "latent"]
            expected += [f"reading_{i + 1}" for i in range(n)] + [f"outcome_{i + 1}" for i in range(n)]
            if n < 1 or header != expected:
                raise ConfigError("records", f"line {lineno}: malformed header {header!r}")
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(
                "records", f"line {lineno}: expected {len(header)} fields, got {len(parts)}"
            )
        try:
            index = int(parts[0])
            total = sum(map(float, parts[2 : 2 + n]))
            row = list(map(int, parts[2 + n :]))
        except ValueError as exc:
            raise ConfigError("records", f"line {lineno}: {exc}") from exc
        if parts[1] not in ("", "0", "1"):
            raise ConfigError("records", f"line {lineno}: latent must be empty, 0 or 1, got {parts[1]!r}")
        if not math.isfinite(total) and not all(map(math.isfinite, map(float, parts[2 : 2 + n]))):
            raise ConfigError("records", f"line {lineno}: readings must be finite")
        if not {0, 1}.issuperset(row):
            raise ConfigError("records", f"line {lineno}: outcomes must be 0 or 1")
        if index <= previous:
            raise ConfigError(
                "records",
                f"line {lineno}: trial index {index} does not follow {previous}; "
                "indices must increase strictly",
            )
        previous = index
        outcomes.append(row)
    if header is None:
        raise ConfigError("records", "no header row found")
    if not outcomes:
        raise ConfigError("records", "no trial rows found")
    return n, np.array(outcomes, dtype=np.int8)


def reference_blocks(config) -> list[tuple]:
    """(latent, readings, outcomes) of each block of an ExperimentConfig, drawn as README "Reproducibility" lists.

    A trial-by-trial loop written from that list alone.  It shares no code
    with the engine's scenarios, samplers or readouts; it takes from the
    package only the Born probability and each detector's scales (X and dx;
    the attempt count and both currents' means and spreads).
    """
    from multidetect import oscillator, qpc

    p0, n, model = born_probabilities(config.state).p0, config.n_detectors, config.detector_model
    blocks = []
    for block in range(-(-config.n_trials // 4096)):
        rng = np.random.Generator(np.random.Philox(key=np.array([config.seed, block], dtype=np.uint64)))
        b = min(4096, config.n_trials - 4096 * block)
        latent = None
        if config.scenario.kind == "unanimous":
            latent = [0 if u < p0 else 1 for u in rng.random(b).tolist()]
            bits = [[bit] * n for bit in latent]
        elif config.scenario.kind == "binomial":
            bits = [[0 if u < p0 else 1 for u in row] for row in rng.random((b, n)).tolist()]
        else:
            total = sum(config.scenario.pmf)
            cdf = list(accumulate(p / total for p in config.scenario.pmf))
            zeros = [min(sum(c <= u for c in cdf), n) for u in rng.random(b).tolist()]
            bits = []
            for k, keys in zip(zeros, rng.random((b, n)).tolist()):
                smallest = sorted(range(n), key=keys.__getitem__)[:k]
                bits.append([0 if a in smallest else 1 for a in range(n)])
        columns = [[row[a] for row in bits] for a in range(n)]
        readings, outcomes = [], []
        for a, column in enumerate(columns):
            if model.model == "ideal":
                readings.append([float(bit) for bit in column])
                outcomes.append(column)
                continue
            params = model.detectors[a]
            if model.model == "oscillator":
                x, dx = oscillator.displacement(params), oscillator.thermal_std(params)
                means, spreads, level, rising = (0.0, x), (dx, dx), 0.5 * x, True
            else:
                s0, s1 = qpc.current_stats(params, 0), qpc.current_stats(params, 1)
                means, spreads = (s0.mean_current, s1.mean_current), (s0.std_current, s1.std_current)
                level, rising = 0.5 * (means[0] + means[1]), params.t_given_1 > params.t_given_0
            if model.model == "qpc" and model.sampling == "exact":
                t = [params.t_given_0 if bit == 0 else params.t_given_1 for bit in column]
                counts = rng.binomial(qpc.attempts(params), t).tolist()
                values = [SI.electron_charge * count / params.observation_time for count in counts]
            else:
                z = rng.standard_normal(b).tolist()
                values = [means[bit] + spreads[bit] * zt for bit, zt in zip(column, z)]
            readings.append(values)
            outcomes.append([int(v > level if rising else v < level) for v in values])
        blocks.append((
            None if latent is None else np.array(latent, dtype=np.int8),
            np.array(readings, dtype=float).T.copy(),
            np.array(outcomes, dtype=np.int8).T.copy(),
        ))
    return blocks
