import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import assert_one_path, bits_sizes_and_keys, gauss_legendre_2d, quadrant_masses
from multidetect.constants import NATURAL, SI, PhysicalConstants
from multidetect.errors import NotDistinguishableError, QuantumRegimeWarning, RelaxationWarning
from multidetect.oscillator import (
    OscillatorParams,
    displacement,
    distinguishability_ratio,
    is_reliable,
    joint_density_counterfactual,
    joint_density_qm,
    misread_probability,
    readout,
    sample_pointer,
    thermal_std,
)
from multidetect.state import OutcomeProbabilities


def pointer(coupling, beta=0.25, mass=1.0, omega=1.0, gamma=1.0, tau=10.0):
    """Classical-regime natural-units pointer; ratio = coupling * sqrt(beta)."""
    return OscillatorParams(
        mass=mass,
        omega=omega,
        beta=beta,
        coupling_lambda=coupling,
        relaxation_rate=gamma,
        measurement_time=tau,
        constants=NATURAL,
    )


# beta=0.25 -> dx = 2; coupling 20 -> X = 20, ratio 10
WELL_SEPARATED = pointer(20.0)


class TestGeometry:
    def test_no_coupling_no_displacement(self):
        assert displacement(pointer(0.0)) == 0.0

    def test_unit_displacement(self):
        assert displacement(pointer(1.0)) == 1.0

    def test_displacement_arithmetic(self):
        p = OscillatorParams(
            mass=2.0, omega=3.0, beta=0.25, coupling_lambda=36.0,
            relaxation_rate=1.0, measurement_time=10.0, constants=NATURAL,
        )
        assert displacement(p) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.filterwarnings("ignore::multidetect.errors.QuantumRegimeWarning")
    def test_thermal_std_values(self):
        assert thermal_std(pointer(1.0, beta=1.0)) == pytest.approx(1.0, rel=1e-15)
        assert thermal_std(pointer(1.0, beta=4.0)) == pytest.approx(0.5, rel=1e-15)

    def test_quadrupling_beta_halves_spread(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            m, w = rng.uniform(0.5, 3.0, size=2)
            beta = rng.uniform(0.01, 0.1)
            base = pointer(1.0, beta=beta, mass=m, omega=w)
            quad = pointer(1.0, beta=4 * beta, mass=m, omega=w)
            assert thermal_std(quad) == pytest.approx(thermal_std(base) / 2, rel=1e-12)

    def test_ratio_never_distinguishable_without_coupling(self):
        assert distinguishability_ratio(pointer(0.0)) == 0.0

    @pytest.mark.filterwarnings("ignore::multidetect.errors.QuantumRegimeWarning")
    def test_ratio_values(self):
        # X = 1, dx = 0.1
        p = pointer(1.0, beta=100.0)
        assert distinguishability_ratio(p) == pytest.approx(10.0, rel=1e-12)
        assert is_reliable(p)
        # X = 1, dx = 1: equal scales, unreliable
        q = pointer(1.0, beta=1.0)
        assert distinguishability_ratio(q) == pytest.approx(1.0, rel=1e-12)
        assert not is_reliable(q)


class TestRegimeChecks:
    def test_quantum_regime_warns(self):
        with pytest.warns(QuantumRegimeWarning) as caught:
            pointer(1.0, beta=2.0)  # beta*hbar*omega = 2
        assert caught[0].filename == __file__

    def test_slow_relaxation_warns(self):
        with pytest.warns(RelaxationWarning) as caught:
            pointer(1.0, gamma=0.1, tau=10.0)  # gamma*tau = 1
        assert caught[0].filename == __file__

    def test_valid_params_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pointer(20.0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            pointer(1.0, beta=-1.0)
        with pytest.raises(ValueError):
            pointer(-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["mass", "omega", "beta", "coupling_lambda", "relaxation_rate", "measurement_time"]
    )
    def test_non_finite_field_named(self, field, value):
        kwargs = {name: getattr(WELL_SEPARATED, name) for name in OscillatorParams.__slots__}
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            OscillatorParams(**{**kwargs, field: value})


class TestPhysicalConstants:
    def test_hbar_derived_from_planck(self):
        assert SI.hbar == SI.planck / (2 * math.pi)
        assert NATURAL.hbar == 1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["electron_charge", "planck"])
    def test_non_finite_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            PhysicalConstants(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field", ["electron_charge", "planck"])
    def test_non_positive_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be strictly positive$"):
            PhysicalConstants(**{field: value})


class TestSampling:
    def test_moments_sigma_zero(self):
        rng = np.random.default_rng(22)
        xs = sample_pointer(WELL_SEPARATED, 0, rng, size=10**5)
        dx = thermal_std(WELL_SEPARATED)
        assert abs(xs.mean()) < 4 * dx / math.sqrt(len(xs))

    def test_moments_sigma_one(self):
        rng = np.random.default_rng(23)
        xs = sample_pointer(WELL_SEPARATED, 1, rng, size=10**5)
        dx = thermal_std(WELL_SEPARATED)
        X = displacement(WELL_SEPARATED)
        assert abs(xs.mean() - X) < 4 * dx / math.sqrt(len(xs))

    def test_sample_variance(self):
        rng = np.random.default_rng(24)
        xs = sample_pointer(WELL_SEPARATED, 0, rng, size=10**5)
        assert xs.var() == pytest.approx(thermal_std(WELL_SEPARATED) ** 2, rel=0.05)

    def test_scalar_form(self):
        rng = np.random.default_rng(25)
        reading = sample_pointer(WELL_SEPARATED, 1, rng)
        assert type(reading) is float
        assert math.isfinite(reading)

    def test_sigma_array_selects_outcome_per_draw(self):
        rng = np.random.default_rng(27)
        n = 10**5
        sigma = np.repeat(np.array([0, 1], dtype=np.int8), n)
        xs = sample_pointer(WELL_SEPARATED, sigma, rng)
        dx = thermal_std(WELL_SEPARATED)
        assert abs(xs[:n].mean()) < 4 * dx / math.sqrt(n)
        assert abs(xs[n:].mean() - displacement(WELL_SEPARATED)) < 4 * dx / math.sqrt(n)

    def test_invalid_sigma(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_pointer(WELL_SEPARATED, 2, rng)
        with pytest.raises(ValueError):
            sample_pointer(WELL_SEPARATED, np.array([0, 1, 2]), rng)

    @pytest.mark.parametrize("shape, size", [((2, 3), (3,)), ((3,), (2,)), ((3,), 4)])
    def test_size_that_sigma_does_not_broadcast_to(self, shape, size):
        # as Generator.normal: sigma broadcasts to size, never size to sigma
        with pytest.raises(ValueError):
            sample_pointer(WELL_SEPARATED, np.zeros(shape, dtype=np.int8), np.random.default_rng(0), size=size)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(bits_sizes_and_keys())
    def test_draws_are_generator_normal_bits(self, case):
        # the draw rule mean + spread * z is numpy's normal, and fails here first if a numpy release changes it
        sigma, size, key = case
        rng, twin = (np.random.Generator(np.random.Philox(key=key)) for _ in range(2))
        got = sample_pointer(WELL_SEPARATED, sigma, rng, size=size)
        want = twin.normal(np.asarray(sigma) * displacement(WELL_SEPARATED), thermal_std(WELL_SEPARATED), size=size)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


PROBS = OutcomeProbabilities(0.36)
BOX = (-30.0, 50.0)  # covers both peaks (0 and 20) plus 15 thermal spreads


class TestJointDensities:
    def test_qm_reduces_to_product_when_certain(self):
        p = OutcomeProbabilities(1.0)
        xs = np.linspace(-5, 25, 7)
        for xa in xs:
            for xb in xs:
                dx = thermal_std(WELL_SEPARATED)
                ga = stats.norm.pdf(xa, 0.0, dx)
                gb = stats.norm.pdf(xb, 0.0, dx)
                got = joint_density_qm(WELL_SEPARATED, WELL_SEPARATED, p, xa, xb)
                assert got == pytest.approx(ga * gb, rel=1e-10)

    def test_qm_normalized(self):
        total = gauss_legendre_2d(
            lambda xa, xb: joint_density_qm(WELL_SEPARATED, WELL_SEPARATED, PROBS, xa, xb),
            BOX, BOX, n=220,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_counterfactual_normalized(self):
        total = gauss_legendre_2d(
            lambda xa, xb: joint_density_counterfactual(
                WELL_SEPARATED, WELL_SEPARATED, PROBS, xa, xb
            ),
            BOX, BOX, n=220,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_qm_cross_quadrant_mass_negligible(self):
        t = 0.5 * displacement(WELL_SEPARATED)
        masses = quadrant_masses(
            lambda xa, xb: joint_density_qm(WELL_SEPARATED, WELL_SEPARATED, PROBS, xa, xb),
            t, t, BOX, BOX, n=220,
        )
        assert masses[(0, 1)] + masses[(1, 0)] < 1e-6

    def test_counterfactual_matches_qm_for_basis_states(self):
        xs = np.linspace(-5, 25, 5)
        for p0 in (0.0, 1.0):
            p = OutcomeProbabilities(p0)
            for xa in xs:
                for xb in xs:
                    qm = joint_density_qm(WELL_SEPARATED, WELL_SEPARATED, p, xa, xb)
                    cf = joint_density_counterfactual(WELL_SEPARATED, WELL_SEPARATED, p, xa, xb)
                    assert cf == pytest.approx(qm, rel=1e-12, abs=1e-300)

    def test_counterfactual_cross_mass_is_twice_p0p1(self):
        t = 0.5 * displacement(WELL_SEPARATED)
        masses = quadrant_masses(
            lambda xa, xb: joint_density_counterfactual(
                WELL_SEPARATED, WELL_SEPARATED, PROBS, xa, xb
            ),
            t, t, BOX, BOX, n=220,
        )
        cross = masses[(0, 1)] + masses[(1, 0)]
        assert cross == pytest.approx(2 * PROBS.p0 * PROBS.p1, abs=1e-6)

    def test_quadratic_weight_signature(self):
        # the counterfactual law carries squared weights on the agreeing
        # quadrants, which no linear density-matrix evolution can produce
        t = 0.5 * displacement(WELL_SEPARATED)
        cf = quadrant_masses(
            lambda xa, xb: joint_density_counterfactual(
                WELL_SEPARATED, WELL_SEPARATED, PROBS, xa, xb
            ),
            t, t, BOX, BOX, n=220,
        )
        qm = quadrant_masses(
            lambda xa, xb: joint_density_qm(WELL_SEPARATED, WELL_SEPARATED, PROBS, xa, xb),
            t, t, BOX, BOX, n=220,
        )
        p0, p1 = PROBS.p0, PROBS.p1
        assert cf[(0, 0)] == pytest.approx(p0**2, abs=1e-6)
        assert cf[(1, 1)] == pytest.approx(p1**2, abs=1e-6)
        assert cf[(0, 1)] == pytest.approx(p0 * p1, abs=1e-6)
        assert cf[(1, 0)] == pytest.approx(p0 * p1, abs=1e-6)
        assert qm[(0, 0)] == pytest.approx(p0, abs=1e-6)
        assert qm[(1, 1)] == pytest.approx(p1, abs=1e-6)

    def test_difference_integrates_to_zero(self):
        diff = gauss_legendre_2d(
            lambda xa, xb: joint_density_counterfactual(WELL_SEPARATED, WELL_SEPARATED, PROBS, xa, xb)
            - joint_density_qm(WELL_SEPARATED, WELL_SEPARATED, PROBS, xa, xb),
            BOX, BOX, n=220,
        )
        assert diff == pytest.approx(0.0, abs=1e-8)

    def test_densities_non_negative(self):
        rng = np.random.default_rng(26)
        xa = rng.uniform(*BOX, size=500)
        xb = rng.uniform(*BOX, size=500)
        assert np.all(joint_density_qm(WELL_SEPARATED, WELL_SEPARATED, PROBS, xa, xb) >= 0)
        assert np.all(
            joint_density_counterfactual(WELL_SEPARATED, WELL_SEPARATED, PROBS, xa, xb) >= 0
        )


class TestReadout:
    def test_origin_reads_zero(self):
        assert readout(0.0, WELL_SEPARATED) == 0

    def test_displaced_equilibrium_reads_one(self):
        assert readout(displacement(WELL_SEPARATED), WELL_SEPARATED) == 1

    def test_tie_resolves_to_zero(self):
        assert readout(0.5 * displacement(WELL_SEPARATED), WELL_SEPARATED) == 0

    def test_array_readings_accepted(self):
        got = readout(np.array([19.0, 1.0, 10.0]), WELL_SEPARATED)
        assert got.tolist() == [1, 0, 0]

    def test_indistinguishable_raises(self):
        with pytest.raises(NotDistinguishableError):
            readout(0.0, pointer(0.0))

    def test_misread_closed_form(self):
        # independent oracle: standard normal survival beyond half separation
        assert misread_probability(WELL_SEPARATED) == pytest.approx(
            stats.norm.sf(5.0), rel=1e-10
        )
        assert misread_probability(WELL_SEPARATED) == pytest.approx(2.87e-7, rel=2e-2)

    @pytest.mark.parametrize("ratio", [3.0, 5.0, 10.0])
    def test_misread_rate_matches_analytic(self, ratio):
        params = pointer(ratio * 2.0)  # dx = 2, so coupling = ratio * dx
        assert distinguishability_ratio(params) == pytest.approx(ratio, rel=1e-12)
        analytic = stats.norm.sf(ratio / 2)
        rng = np.random.default_rng(int(ratio * 100))
        n = 10**6
        errors = 0
        for sigma in (0, 1):
            bits = readout(sample_pointer(params, sigma, rng, size=n), params)
            errors_sigma = int(np.sum(bits != sigma))
            # each sigma-stream individually within a 4-sigma Poisson band
            band = 4 * math.sqrt(max(analytic * n, 1.0)) + 1
            assert abs(errors_sigma - analytic * n) <= band
            errors += errors_sigma
        assert abs(errors / (2 * n) - analytic) <= 4 * math.sqrt(analytic / (2 * n)) + 2 / n



# positions in thermal spreads, measured from the X/2 threshold
SPREADS = st.lists(st.floats(-8.0, 8.0) | st.just(0.0), min_size=1, max_size=12)


def _positions(spreads) -> np.ndarray:
    return 0.5 * displacement(WELL_SEPARATED) + np.array(spreads) * thermal_std(WELL_SEPARATED)


class TestScalarArrayPath:
    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(SPREADS)
    def test_readout(self, spreads):
        assert_one_path(lambda x: readout(x, WELL_SEPARATED), np.int64, _positions(spreads))

    @pytest.mark.parametrize("density", [joint_density_qm, joint_density_counterfactual])
    @settings(max_examples=50, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_joint_densities(self, density, data):
        spreads = data.draw(SPREADS)
        other = data.draw(st.lists(st.floats(-8.0, 8.0), min_size=len(spreads), max_size=len(spreads)))
        assert_one_path(
            lambda a, b: density(WELL_SEPARATED, WELL_SEPARATED, PROBS, a, b),
            np.float64,
            _positions(spreads),
            _positions(other),
        )
