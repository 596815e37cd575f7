import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import assert_one_path, bits_sizes_and_keys, gauss_legendre_1d
from multidetect.constants import SI
from multidetect.errors import GaussianRegimeWarning, NoContrastError, TooFewAttemptsError
from multidetect.qpc import (
    QpcParams,
    attempts,
    count_pmf,
    current_readout,
    current_stats,
    discriminability,
    is_reliable,
    misread_probability,
    raw_attempts,
    sample_current,
)
from multidetect.state import OutcomeProbabilities, gaussian_density


def make_qpc(t0: float, t1: float, n_attempts: float, bias_uV: float = 50.0) -> QpcParams:
    """Contact with the observation window sized for a target attempt count."""
    bias = bias_uV * 1e-6
    tau = n_attempts * SI.planck / (2 * SI.electron_charge * bias)
    return QpcParams(bias_voltage=bias, observation_time=tau, t_given_0=t0, t_given_1=t1)


class TestAttempts:
    def test_exact_integer(self):
        assert attempts(make_qpc(0.3, 0.7, 1000.0)) == 1000

    def test_rounds_to_nearest(self):
        assert attempts(make_qpc(0.3, 0.7, 1000.4)) == 1000
        assert attempts(make_qpc(0.3, 0.7, 1000.6)) == 1001

    def test_doubling_time_doubles_attempts(self):
        p = make_qpc(0.3, 0.7, 1234.0)
        doubled = QpcParams(
            bias_voltage=p.bias_voltage,
            observation_time=2 * p.observation_time,
            t_given_0=p.t_given_0,
            t_given_1=p.t_given_1,
        )
        assert attempts(doubled) == 2 * attempts(p)

    def test_too_few_attempts(self):
        with pytest.warns(GaussianRegimeWarning):
            p = make_qpc(0.3, 0.7, 0.4)
        with pytest.raises(TooFewAttemptsError):
            attempts(p)

    def test_gaussian_floor_warns(self):
        with pytest.warns(GaussianRegimeWarning) as caught:
            make_qpc(0.3, 0.7, 99.0)
        # located at the constructor's caller, not in the generated __init__
        assert caught[0].filename == __file__

    def test_transmission_bounds(self):
        with pytest.raises(ValueError):
            make_qpc(0.0, 0.7, 1000.0)
        with pytest.raises(ValueError):
            make_qpc(0.3, 1.0, 1000.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["bias_voltage", "observation_time", "t_given_0", "t_given_1"])
    def test_non_finite_field_named(self, field, value):
        p = make_qpc(0.3, 0.7, 1000.0)
        kwargs = {name: getattr(p, name) for name in QpcParams.__slots__}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            QpcParams(**{**kwargs, field: value})


class TestCountPmf:
    @pytest.mark.filterwarnings("ignore::multidetect.errors.GaussianRegimeWarning")
    def test_all_transmitted(self):
        p = make_qpc(0.999, 0.5, 10.0)
        assert count_pmf(p, 0, 10) == pytest.approx(0.999**10, rel=1e-12)
        assert 0.999**10 == pytest.approx(0.990045, abs=5e-7)

    def test_normalization(self):
        p = make_qpc(0.3, 0.7, 500.0)
        for sigma in (0, 1):
            total = sum(count_pmf(p, sigma, n) for n in range(attempts(p) + 1))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_mean_identity(self):
        p = make_qpc(0.3, 0.7, 500.0)
        n_att = attempts(p)
        mean = sum(n * count_pmf(p, 0, n) for n in range(n_att + 1))
        assert mean == pytest.approx(n_att * 0.3, abs=1e-9)


class TestCurrentStats:
    def test_noise_current_identity(self):
        # S = e * I * R follows from the two closed forms; check it verbatim
        rng = np.random.default_rng(31)
        for _ in range(50):
            t0 = float(rng.uniform(0.05, 0.95))
            t1 = float(rng.uniform(0.05, 0.95))
            p = make_qpc(t0, t1, float(rng.uniform(200, 5e4)), bias_uV=float(rng.uniform(10, 500)))
            for sigma, t in ((0, t0), (1, t1)):
                st = current_stats(p, sigma)
                expected = SI.electron_charge * st.mean_current * (1.0 - t)
                assert st.noise == pytest.approx(expected, rel=1e-12)

    def test_ballistic_limit_noiseless(self):
        p = make_qpc(1 - 1e-9, 0.5, 1000.0)
        st = current_stats(p, 0)
        assert st.noise / (SI.electron_charge * st.mean_current) == pytest.approx(1e-9, rel=1e-6)

    def test_count_picture_matches_current_picture(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            p = make_qpc(
                float(rng.uniform(0.05, 0.95)),
                float(rng.uniform(0.05, 0.95)),
                float(rng.uniform(150, 1e5)),
                bias_uV=float(rng.uniform(5, 800)),
            )
            for sigma in (0, 1):
                lhs = (
                    SI.electron_charge
                    * raw_attempts(p)
                    * p.transmission(sigma)
                    / p.observation_time
                )
                assert lhs == pytest.approx(current_stats(p, sigma).mean_current, rel=1e-12)


class TestCurrentDensity:
    """The Gaussian law of the time-averaged current, which ``sampling: "gaussian"`` draws from."""

    def test_peak_value(self):
        p = make_qpc(0.3, 0.7, 10**4)
        for sigma in (0, 1):
            s = current_stats(p, sigma)
            peak = gaussian_density(s.mean_current, s.mean_current, s.std_current)
            expected = math.sqrt(p.observation_time / (2 * math.pi * s.noise))
            assert peak == pytest.approx(expected, rel=1e-12)

    def test_normalized(self):
        p = make_qpc(0.3, 0.7, 10**4)
        s = current_stats(p, 0)
        lo = s.mean_current - 12 * s.std_current
        hi = s.mean_current + 12 * s.std_current
        total = gauss_legendre_1d(lambda i: gaussian_density(i, s.mean_current, s.std_current), lo, hi, n=300)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_total_variation_against_binomial(self):
        # exact enumeration oracle: map counts to currents, compare cell masses
        p = make_qpc(0.3, 0.7, 10**4)
        s = current_stats(p, 0)
        n_att = attempts(p)
        e, tau = SI.electron_charge, p.observation_time
        ns = np.arange(n_att + 1)
        exact = stats.binom.pmf(ns, n_att, 0.3)
        approx = gaussian_density(e * ns / tau, s.mean_current, s.std_current) * (e / tau)
        tv = 0.5 * float(np.sum(np.abs(exact - approx)))
        assert tv < 0.02


class TestSampling:
    def test_exact_mode_mean(self):
        p = make_qpc(0.99, 0.5, 100.0)
        rng = np.random.default_rng(33)
        draws = 10**4
        counts = sample_current(p, 0, rng, mode="exact", size=draws) * (
            p.observation_time / SI.electron_charge
        )
        # binomial moments: mean 99, var 0.99
        assert counts.mean() == pytest.approx(99.0, abs=4 * math.sqrt(0.99 / draws))

    def test_exact_mode_scalar_carries_count(self):
        # a scalar draw is one float current e*n/tau, so the count is recoverable
        p = make_qpc(0.3, 0.7, 1000.0)
        rng = np.random.default_rng(34)
        s = sample_current(p, 1, rng, mode="exact")
        assert isinstance(s, float)
        count = s * p.observation_time / SI.electron_charge
        assert count == pytest.approx(round(count), rel=1e-12)
        assert 0 <= round(count) <= attempts(p)

    @pytest.mark.parametrize("mode", ["exact", "gaussian"])
    def test_sigma_array_selects_outcome_per_draw(self, mode):
        p = make_qpc(0.3, 0.7, 10**4)
        rng = np.random.default_rng(39)
        draws = 10**4
        sigma = np.repeat(np.array([0, 1], dtype=np.int8), draws)
        currents = sample_current(p, sigma, rng, mode=mode)
        assert currents.shape == sigma.shape
        for s, half in ((0, currents[:draws]), (1, currents[draws:])):
            st = current_stats(p, s)
            assert abs(half.mean() - st.mean_current) < 4 * st.std_current / math.sqrt(draws)

    def test_invalid_sigma(self):
        p = make_qpc(0.3, 0.7, 1000.0)
        with pytest.raises(ValueError):
            sample_current(p, np.array([0, 2]), np.random.default_rng(0))
        with pytest.raises(ValueError, match="^sigma must be 0 or 1$"):
            p.transmission(2)

    @pytest.mark.parametrize("mode", ["exact", "gaussian"])
    @pytest.mark.parametrize("shape, size", [((2, 3), (3,)), ((3,), (2,)), ((3,), 4)])
    def test_size_that_sigma_does_not_broadcast_to(self, mode, shape, size):
        # as numpy's samplers: sigma broadcasts to size, never size to sigma
        p = make_qpc(0.3, 0.7, 1000.0)
        with pytest.raises(ValueError):
            sample_current(p, np.zeros(shape, dtype=np.int8), np.random.default_rng(0), mode=mode, size=size)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(bits_sizes_and_keys())
    def test_gaussian_draws_are_generator_normal_bits(self, case):
        # the draw rule mean + spread * z is numpy's normal, and fails here first if a numpy release changes it
        sigma, size, key = case
        p = make_qpc(0.3, 0.7, 10**4)
        s0, s1 = current_stats(p, 0), current_stats(p, 1)
        rng, twin = (np.random.Generator(np.random.Philox(key=key)) for _ in range(2))
        got = sample_current(p, sigma, rng, mode="gaussian", size=size)
        zero = np.asarray(sigma) == 0
        want = twin.normal(
            np.where(zero, s0.mean_current, s1.mean_current), np.where(zero, s0.std_current, s1.std_current), size=size
        )
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_gaussian_mode_variance(self):
        p = make_qpc(0.3, 0.7, 10**4)
        rng = np.random.default_rng(35)
        draws = 10**5
        currents = sample_current(p, 0, rng, mode="gaussian", size=draws)
        st = current_stats(p, 0)
        assert currents.var() == pytest.approx(st.noise / p.observation_time, rel=0.05)

    def test_modes_agree_in_distribution(self):
        p = make_qpc(0.3, 0.7, 10**4)
        rng = np.random.default_rng(36)
        draws = 10**4
        exact = sample_current(p, 0, rng, mode="exact", size=draws)
        gauss = sample_current(p, 0, rng, mode="gaussian", size=draws)
        result = stats.ks_2samp(exact, gauss)
        assert result.pvalue > 0.001

    def test_unknown_mode(self):
        p = make_qpc(0.3, 0.7, 1000.0)
        with pytest.raises(ValueError):
            sample_current(p, 0, np.random.default_rng(0), mode="poisson")


PROBS = OutcomeProbabilities(0.36)


class TestJointDensity:
    """Currents of two detectors that latch one shared outcome, drawn as ``sampling: "gaussian"`` draws them."""

    def setup_method(self):
        self.pa = make_qpc(0.4, 0.6, 302.0)
        self.pb = make_qpc(0.6, 0.4, 302.0)  # mirrored orientation

    def _draws(self, probs: OutcomeProbabilities, seed: int, n: int = 2 * 10**5):
        rng = np.random.default_rng(seed)
        sigma = (rng.random(n) >= probs.p0).astype(int)
        ia = sample_current(self.pa, sigma, rng, mode="gaussian")
        ib = sample_current(self.pb, sigma, rng, mode="gaussian")
        return ia, ib

    def test_single_outcome_reduces_to_product(self):
        # one certain outcome: the currents are independent, each with its outcome-0 law
        ia, ib = self._draws(OutcomeProbabilities(1.0), 40)
        for p, draws in ((self.pa, ia), (self.pb, ib)):
            s = current_stats(p, 0)
            assert stats.kstest(draws, stats.norm(s.mean_current, s.std_current).cdf).pvalue > 0.001
        # quartile cells of the two currents: counts match the product of the marginals
        cells = [np.searchsorted(np.quantile(x, [0.25, 0.5, 0.75]), x) for x in (ia, ib)]
        table = np.zeros((4, 4), dtype=np.int64)
        np.add.at(table, tuple(cells), 1)
        assert stats.chi2_contingency(table).pvalue > 0.001

    def test_marginalizes_to_single_detector_mixture(self):
        ia, _ = self._draws(PROBS, 41)
        sa0, sa1 = current_stats(self.pa, 0), current_stats(self.pa, 1)

        def mixture_cdf(i):
            return PROBS.p0 * stats.norm.cdf(i, sa0.mean_current, sa0.std_current) + PROBS.p1 * stats.norm.cdf(
                i, sa1.mean_current, sa1.std_current
            )

        assert stats.kstest(ia, mixture_cdf).pvalue > 0.001

    def test_cross_points_suppressed(self):
        # d: separation standardized by the combined noise of the two outcomes
        ia, ib = self._draws(PROBS, 42)
        ia0 = current_stats(self.pa, 0).mean_current
        ia1 = current_stats(self.pa, 1).mean_current
        ib0 = current_stats(self.pb, 0).mean_current
        ib1 = current_stats(self.pb, 1).mean_current
        wa = max(current_stats(self.pa, s).std_current for s in (0, 1))
        wb = max(current_stats(self.pb, s).std_current for s in (0, 1))

        def near(a: float, b: float) -> int:
            """Draws within one spread of the point (a, b) in both currents."""
            return int(np.sum((np.abs(ia - a) < wa) & (np.abs(ib - b) < wb)))

        d_min = math.sqrt(min(discriminability(self.pa), discriminability(self.pb)))
        bound = math.exp(-0.5 * d_min**2)
        peaks = [near(ia0, ib0), near(ia1, ib1)]
        crosses = [near(ia0, ib1), near(ia1, ib0)]
        assert min(peaks) > 0
        for cross in crosses:
            for peak in peaks:
                assert cross <= peak * bound


class TestDiscriminability:
    def test_no_contrast_zero(self):
        p = make_qpc(0.5, 0.5, 1000.0)
        assert discriminability(p) == 0.0
        assert not is_reliable(p)

    def test_linear_in_observation_time(self):
        p = make_qpc(0.3, 0.7, 1000.0)
        stretched = QpcParams(
            bias_voltage=p.bias_voltage,
            observation_time=3 * p.observation_time,
            t_given_0=0.3,
            t_given_1=0.7,
        )
        assert discriminability(stretched) == pytest.approx(3 * discriminability(p), rel=1e-12)

    def test_reference_value(self):
        # substitute the closed forms: D = N (dT)^2 / (R0 T0 + R1 T1)
        p = make_qpc(0.3, 0.7, 10**4)
        expected = raw_attempts(p) * 0.4**2 / (0.7 * 0.3 + 0.3 * 0.7)
        assert expected == pytest.approx(3809.5238, rel=1e-4)
        assert discriminability(p) == pytest.approx(expected, rel=1e-10)


class TestCurrentReadout:
    def test_means_read_their_outcome_both_orientations(self):
        up = make_qpc(0.3, 0.7, 1000.0)
        down = make_qpc(0.7, 0.3, 1000.0)
        for p in (up, down):
            assert current_readout(current_stats(p, 0).mean_current, p) == 0
            assert current_readout(current_stats(p, 1).mean_current, p) == 1

    def test_tie_resolves_to_zero(self):
        for p in (make_qpc(0.3, 0.7, 1000.0), make_qpc(0.7, 0.3, 1000.0)):
            mid = 0.5 * (current_stats(p, 0).mean_current + current_stats(p, 1).mean_current)
            assert current_readout(mid, p) == 0

    def test_no_contrast_raises(self):
        p = make_qpc(0.5, 0.5, 1000.0)
        with pytest.raises(NoContrastError):
            current_readout(1e-9, p)

    def test_misread_estimate_at_reference_separation(self):
        p = make_qpc(0.4, 0.6, 300.0)
        assert discriminability(p) == pytest.approx(25.0, rel=1e-10)
        assert misread_probability(p) == pytest.approx(stats.norm.sf(2.5), rel=1e-10)
        assert misread_probability(p) == pytest.approx(0.0062, rel=0.01)

    def test_misread_estimate_upper_bounds_true_tails(self):
        # exact binomial tail oracle for the midpoint threshold
        for t0, t1 in ((0.4, 0.6), (0.25, 0.8), (0.7, 0.2)):
            p = make_qpc(t0, t1, 400.0)
            n_att = attempts(p)
            mid_count = 0.5 * n_att * (t0 + t1)
            if t1 > t0:
                eps0 = stats.binom.sf(mid_count, n_att, t0)      # reads 1 although sigma=0
                eps1 = stats.binom.cdf(mid_count, n_att, t1)     # reads 0 although sigma=1
            else:
                eps0 = stats.binom.cdf(mid_count, n_att, t0)
                eps1 = stats.binom.sf(mid_count, n_att, t1)
            estimate = misread_probability(p)
            assert eps0 <= estimate * 1.25
            assert eps1 <= estimate * 1.25


class TestDisagreementUnderSharedOutcome:
    def test_monte_carlo_rate_below_misread_budget(self):
        pa = make_qpc(0.4, 0.6, 302.0)
        pb = make_qpc(0.6, 0.4, 302.0)
        budget = misread_probability(pa) + misread_probability(pb)
        rng = np.random.default_rng(37)
        n = 10**6
        sigma = (rng.random(n) >= PROBS.p0).astype(int)
        ia = sample_current(pa, sigma, rng)
        ib = sample_current(pb, sigma, rng)
        disagree = np.mean(current_readout(ia, pa) != current_readout(ib, pb))
        assert disagree <= budget

    def test_rate_depends_weakly_on_state(self):
        pa = make_qpc(0.4, 0.6, 302.0)
        pb = make_qpc(0.6, 0.4, 302.0)
        budget = misread_probability(pa) + misread_probability(pb)
        rng = np.random.default_rng(38)
        n = 10**5
        rates = []
        for p0 in np.arange(0.1, 0.95, 0.1):
            sigma = (rng.random(n) >= p0).astype(int)
            ia = sample_current(pa, sigma, rng)
            ib = sample_current(pb, sigma, rng)
            rates.append(np.mean(current_readout(ia, pa) != current_readout(ib, pb)))
        assert max(rates) - min(rates) <= budget



# currents in units of the wider spread, measured from the midpoint of the two means
SPREADS = st.lists(st.floats(-8.0, 8.0) | st.just(0.0), min_size=1, max_size=12)
UP, DOWN = make_qpc(0.4, 0.6, 302.0), make_qpc(0.6, 0.4, 302.0)


def _currents(p: QpcParams, spreads) -> np.ndarray:
    s0, s1 = current_stats(p, 0), current_stats(p, 1)
    mid = 0.5 * (s0.mean_current + s1.mean_current)
    return mid + np.array(spreads) * max(s0.std_current, s1.std_current)


class TestScalarArrayPath:
    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(SPREADS)
    def test_current_readout_both_orientations(self, spreads):
        for p in (UP, DOWN):
            assert_one_path(lambda i: current_readout(i, p), np.int64, _currents(p, spreads))

    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(SPREADS, st.integers(0, 1))
    def test_current_density(self, spreads, sigma):
        s = current_stats(UP, sigma)
        assert_one_path(
            lambda i: gaussian_density(i, s.mean_current, s.std_current), np.float64, _currents(UP, spreads)
        )
