import cmath
import math

import numpy as np
import pytest

from multidetect.errors import NormalizationWarning, ZeroStateError
from multidetect.state import (
    Amplitudes,
    OutcomeProbabilities,
    born_probabilities,
    make_amplitudes,
)


def test_basis_state():
    probs = born_probabilities(make_amplitudes(1, 0, 0, 0))
    assert probs.p0 == 1.0
    assert probs.p1 == 0.0


def test_equal_superposition():
    s = 1 / math.sqrt(2)
    probs = born_probabilities(make_amplitudes(s, 0, s, 0))
    assert probs.p0 == pytest.approx(0.5, abs=1e-15)


def test_complex_amplitudes():
    # |0.6|^2 = 0.36, |0.8i|^2 = 0.64
    probs = born_probabilities(make_amplitudes(0.6, 0.0, 0.0, 0.8))
    assert probs.p0 == pytest.approx(0.36, abs=1e-15)
    assert probs.p1 == pytest.approx(0.64, abs=1e-15)


def test_make_amplitudes_unit_input():
    a = make_amplitudes(1, 0, 0, 0)
    assert a.c0 == 1 and a.c1 == 0
    assert not a.renormalized


def test_make_amplitudes_rescales_with_warning():
    with pytest.warns(NormalizationWarning):
        a = make_amplitudes(2, 0, 0, 0)
    assert a.c0 == 1.0 and a.c1 == 0.0
    assert a.renormalized


def test_normalization_warning_located_at_caller():
    with pytest.warns(NormalizationWarning) as caught:
        Amplitudes(2, 0)
    assert caught[0].filename == __file__


def test_make_amplitudes_equal_weights():
    with pytest.warns(NormalizationWarning):
        a = make_amplitudes(1, 0, 1, 0)
    assert abs(a.c0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert abs(a.c1) == pytest.approx(1 / math.sqrt(2), abs=1e-15)


@pytest.mark.parametrize(
    "components, unit",
    [
        ((1e200, 0, 1e200, 0), (1, 0, 1, 0)),
        ((1.7e308, 1.7e308, 1.7e308, -1.7e308), (1, 1, 1, -1)),
        ((1e-200, 0, 1e-200, 0), (1, 0, 1, 0)),
        ((5e-324, 0, 0, 0), (1, 0, 0, 0)),
        # squares summing to a subnormal keep only a few digits
        ((3e-162, 0, 1e-162, 0), (3, 0, 1, 0)),
    ],
)
def test_extreme_components_renormalized(components, unit):
    with pytest.warns(NormalizationWarning):
        a, b = make_amplitudes(*components), make_amplitudes(*unit)
    assert a.renormalized
    assert a.c0 == pytest.approx(b.c0, abs=1e-15)
    assert a.c1 == pytest.approx(b.c1, abs=1e-15)
    assert born_probabilities(a).p0 == pytest.approx(born_probabilities(b).p0, abs=1e-15)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("component, field", [(0, "c0"), (1, "c0"), (2, "c1"), (3, "c1")])
def test_non_finite_component_named(component, field, value):
    components = [1.0, 0.0, 1.0, 0.0]
    components[component] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        make_amplitudes(*components)


def test_zero_state_rejected():
    with pytest.raises(ZeroStateError):
        make_amplitudes(0, 0, 0, 0)


def test_small_deviation_no_warning():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_amplitudes(1 + 1e-8, 0, 0, 0)  # below warn threshold: silent


def test_probabilities_sum_exactly_one():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.normal(size=4)
        with np.errstate(all="ignore"):
            probs = born_probabilities(make_amplitudes(*v))
        assert probs.p0 + probs.p1 == 1.0
        assert 0.0 <= probs.p0 <= 1.0


def test_global_phase_invariance():
    rng = np.random.default_rng(5)
    base = make_amplitudes(0.6, 0.0, 0.0, 0.8)
    for _ in range(100):
        phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        rotated = Amplitudes(base.c0 * phase, base.c1 * phase)
        probs = born_probabilities(rotated)
        assert probs.p0 == pytest.approx(0.36, abs=1e-12)


def test_ray_rescaling_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(size=4)
        scale = rng.uniform(0.1, 10.0)
        p_ref = born_probabilities(make_amplitudes(*v))
        p_scaled = born_probabilities(make_amplitudes(*(scale * v)))
        assert p_scaled.p0 == pytest.approx(p_ref.p0, abs=1e-12)


def test_outcome_probabilities_bounds():
    with pytest.raises(ValueError):
        OutcomeProbabilities(p0=-0.1)
    with pytest.raises(ValueError):
        OutcomeProbabilities(p0=1.1)


@pytest.fixture(autouse=True)
def _silence_expected_norm_warnings():
    # random 4-vectors above are rarely unit norm; the warning is the point
    # of dedicated tests, noise everywhere else
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NormalizationWarning)
        yield
