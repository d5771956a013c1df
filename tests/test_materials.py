import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcasimir.materials import (
    MIRROR,
    VACUUM,
    DispersionModel,
    MaterialKind,
    constant,
    drude_lorentz,
    eps_imag_axis,
    is_drude_like,
    is_nonmagnetic,
    mu_imag_axis,
    perfect_mirror,
    plasma,
)


def test_constructor_validation():
    with pytest.raises(ValueError):
        constant(eps=0.5)
    with pytest.raises(ValueError):
        constant(mu=0.0)
    with pytest.raises(ValueError):
        constant(mu=-2.0)
    with pytest.raises(ValueError):
        drude_lorentz(-1e15, 0.0, 0.0)
    with pytest.raises(ValueError):
        drude_lorentz(1e15, 1e15, -1e13)
    with pytest.raises(ValueError):
        DispersionModel(MaterialKind.PLASMA, plasma_freq=1e15, damping=1e13)
    with pytest.raises(ValueError):
        DispersionModel(MaterialKind.CONSTANT, mu_model=(1e15, 0.0, 0.0))
    with pytest.raises(ValueError):
        drude_lorentz(1e15, 0.0, 0.0, mu_model=(-1e15, 0.0, 0.0))


def test_singletons():
    assert VACUUM == constant()
    assert MIRROR == perfect_mirror()
    assert eps_imag_axis(VACUUM, 3e14) == 1.0
    assert mu_imag_axis(VACUUM, 3e14) == 1.0


def test_oscillator_point_value():
    # Hand value: 1 + Omega^2/(omega_0^2 + xi^2 + gamma*xi) at
    # Omega = 2e15, omega_0 = 3e15, gamma = 1e15, xi = 2e15 is 1 + 4/15.
    model = drude_lorentz(2e15, 3e15, 1e15)
    assert eps_imag_axis(model, 2e15) == pytest.approx(1.0 + 4.0 / 15.0, rel=1e-15)
    assert mu_imag_axis(model, 2e15) == 1.0


def _oscillator(strength, resonance, damping, omega):
    # The causal single-resonance form at a complex angular frequency.
    return 1.0 + strength ** 2 / (resonance ** 2 - omega ** 2
                                  - 1j * damping * omega)


def _complex_response(model, omega):
    """(eps, mu) of ``model`` at complex omega, independent of the package."""
    if model.kind is MaterialKind.CONSTANT:
        return (np.full_like(omega, model.eps_static),
                np.full_like(omega, model.mu_static))
    eps = _oscillator(model.plasma_freq, model.resonance_freq, model.damping,
                      omega)
    if model.mu_model is None:
        return eps, np.ones_like(omega)
    return eps, _oscillator(*model.mu_model, omega)


def _assert_matches_complex_reference(model, xi):
    eps, mu = _complex_response(model, 1j * np.asarray(xi, dtype=float))
    np.testing.assert_allclose(eps_imag_axis(model, xi), eps.real, rtol=1e-14)
    np.testing.assert_allclose(mu_imag_axis(model, xi), mu.real, rtol=1e-14)
    assert np.all(eps.imag == 0.0) and np.all(mu.imag == 0.0)


def test_imaginary_axis_fast_path_matches_complex_path():
    models = [
        constant(eps=3.5, mu=1.25),
        drude_lorentz(2e15, 3e15, 1e15),
        drude_lorentz(1.3e16, 0.0, 3e13),
        plasma(9e15),
        drude_lorentz(2e15, 1e15, 1e14, mu_model=(5e14, 8e14, 2e13)),
    ]
    xi = np.geomspace(1e11, 1e17, 25)
    for model in models:
        _assert_matches_complex_reference(model, xi)


_RATE = st.floats(11.0, 17.0).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None, database=None)
@given(_RATE, _RATE, _RATE, _RATE, _RATE, _RATE, _RATE, _RATE)
def test_imaginary_axis_response_matches_complex_reference(
        strength, resonance, damping, mu_strength, mu_resonance, mu_damping,
        xi, xi_other):
    model = drude_lorentz(strength, resonance, damping,
                          mu_model=(mu_strength, mu_resonance, mu_damping))
    _assert_matches_complex_reference(model, xi)
    _assert_matches_complex_reference(model, np.array([xi, xi_other]))


def test_scalar_in_scalar_out():
    e = eps_imag_axis(plasma(1e15), 5e14)
    assert isinstance(e, float)
    assert e == pytest.approx(1.0 + 4.0, rel=1e-15)
    assert isinstance(mu_imag_axis(plasma(1e15), 5e14), float)


def test_mirror_has_no_response():
    for fn in (eps_imag_axis, mu_imag_axis):
        with pytest.raises(ValueError, match="no finite response"):
            fn(MIRROR, 1e15)


def test_imaginary_axis_response_monotone_and_passive():
    rng = np.random.default_rng(20260819)
    xi = np.geomspace(1e10, 1e18, 200)
    for _ in range(50):
        strength = 10.0 ** rng.uniform(13.0, 16.0)
        resonance = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(13.0, 16.0)
        damping = 0.0 if rng.random() < 0.3 else 10.0 ** rng.uniform(12.0, 15.0)
        if resonance == 0.0 and damping == 0.0:
            model = plasma(strength)
        else:
            model = drude_lorentz(strength, resonance, damping)
        eps = eps_imag_axis(model, xi)
        assert np.all(eps >= 1.0)
        assert np.all(np.diff(eps) <= 0.0), "eps(i*xi) must fall monotonically"
        # Large-xi asymptote: xi^2*(eps - 1) -> Omega^2. Keep xi_far moderate:
        # pushing it further makes eps - 1 vanish into rounding of the
        # leading 1 before the asymptote gains any accuracy.
        xi_far = 1e3 * max(resonance, damping, 1e12)
        assert xi_far ** 2 * (eps_imag_axis(model, xi_far) - 1.0) == pytest.approx(
            strength ** 2, rel=5e-3)


def test_magnetic_oscillator_on_imag_axis():
    model = drude_lorentz(2e15, 3e15, 0.0, mu_model=(4e14, 6e14, 1e13))
    xi = 5e14
    expected = 1.0 + (4e14) ** 2 / ((6e14) ** 2 + xi ** 2 + 1e13 * xi)
    assert mu_imag_axis(model, xi) == pytest.approx(expected, rel=1e-15)


def test_is_drude_like():
    assert is_drude_like(plasma(1e15))
    assert is_drude_like(drude_lorentz(1e16, 0.0, 3e13))
    assert not is_drude_like(drude_lorentz(1e16, 2e15, 3e13))
    assert not is_drude_like(constant(eps=10.0))
    assert not is_drude_like(plasma(0.0))
    # A zero-resonance magnetic oscillator also diverges at xi -> 0.
    assert is_drude_like(drude_lorentz(1e15, 2e15, 0.0, mu_model=(1e14, 0.0, 0.0)))


def test_is_nonmagnetic():
    assert is_nonmagnetic(VACUUM)
    assert is_nonmagnetic(constant(eps=4.0))
    assert not is_nonmagnetic(constant(eps=4.0, mu=1.5))
    assert is_nonmagnetic(drude_lorentz(1e15, 2e15, 1e13))
    assert not is_nonmagnetic(drude_lorentz(1e15, 2e15, 1e13,
                                            mu_model=(1e14, 2e14, 0.0)))
    assert not is_nonmagnetic(MIRROR)


_PARAMETER = st.one_of(st.just(0.0),
                       st.floats(8.0, 18.0).map(lambda e: 10.0 ** e))


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([MaterialKind.PLASMA, MaterialKind.DRUDE_LORENTZ]),
       _PARAMETER, _PARAMETER, _PARAMETER,
       st.none() | st.tuples(_PARAMETER, _PARAMETER, _PARAMETER))
def test_drude_like_exactly_when_a_response_diverges_at_zero(
        kind, strength, resonance, damping, mu_model):
    if kind is MaterialKind.PLASMA:
        resonance = damping = 0.0
    model = DispersionModel(kind, plasma_freq=strength,
                            resonance_freq=resonance, damping=damping,
                            mu_model=mu_model)
    xi = np.concatenate([[0.0], np.geomspace(1e8, 1e18, 41)])
    eps, mu = eps_imag_axis(model, xi), mu_imag_axis(model, xi)
    assert not np.isnan(eps).any() and not np.isnan(mu).any()
    assert is_drude_like(model) == bool(np.isinf(eps[0]) or np.isinf(mu[0]))


def test_plasma_is_the_undamped_zero_resonance_oscillator():
    xi = np.concatenate([[0.0], np.geomspace(1e8, 1e18, 41)])
    for strength in (1e13, 9e15):
        np.testing.assert_array_equal(
            eps_imag_axis(plasma(strength), xi),
            eps_imag_axis(drude_lorentz(strength, 0.0, 0.0), xi))


def test_zero_strength_oscillator_is_no_oscillator():
    for model in (plasma(0.0), drude_lorentz(0.0, 0.0, 1e13),
                  drude_lorentz(0.0, 2e15, 0.0, mu_model=(0.0, 0.0, 1e13))):
        assert eps_imag_axis(model, 0.0) == mu_imag_axis(model, 0.0) == 1.0
        assert not is_drude_like(model)
        assert is_nonmagnetic(model)


def test_divergent_mu_makes_any_kind_drude_like():
    model = DispersionModel(MaterialKind.PLASMA, mu_model=(1e15, 0.0, 1e13))
    assert mu_imag_axis(model, 0.0) == np.inf
    assert is_drude_like(model)


@pytest.mark.parametrize("make,field", [
    pytest.param(lambda v: constant(eps=v), "eps_static", id="eps"),
    pytest.param(lambda v: constant(mu=v), "mu_static", id="mu"),
    pytest.param(lambda v: drude_lorentz(v, 0.0, 0.0), "plasma_freq",
                 id="strength"),
    pytest.param(lambda v: drude_lorentz(1e15, v, 0.0), "resonance_freq",
                 id="resonance"),
    pytest.param(lambda v: drude_lorentz(1e15, 0.0, v), "damping",
                 id="damping"),
    pytest.param(plasma, "plasma_freq", id="plasma"),
    pytest.param(lambda v: drude_lorentz(1e15, 0.0, 0.0,
                                         mu_model=(1e14, v, 0.0)),
                 "mu_resonance_freq", id="mu-resonance"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_parameters_are_refused_by_name(make, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make(value)


def test_constant_kind_has_no_oscillator():
    with pytest.raises(ValueError, match="constant kind has no oscillator"):
        DispersionModel(MaterialKind.CONSTANT, eps_static=2.0,
                        plasma_freq=1e15)
