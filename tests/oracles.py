"""Independent verification machinery used by the tests.

Everything here deliberately avoids the package's own code paths:
quadrature instead of closed-form mixtures, pattern enumeration instead
of sampler math, exact integer combinatorics instead of log-space pmfs.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from itertools import product
from pathlib import Path

import numpy as np
from scipy import stats

from multidetect.errors import ConfigError


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
