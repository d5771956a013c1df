import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarcasimir.materials import (
    MIRROR,
    VACUUM,
    DispersionModel,
    MaterialKind,
    _records,
    _response,
    constant,
    drude_lorentz,
    eps_imag_axis,
    is_drude_like,
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


def test_sequence_mu_model_is_a_hashable_tuple():
    # Any sequence of three numbers is stored as a tuple of floats, so the
    # frozen model is hashable and equal to its tuple twin, and runs through
    # a wall like it.
    from planarcasimir.layers import Layer, TransverseMode, Wall, wall_reflection

    twin = drude_lorentz(9e15, 1.1e16, 1e14, mu_model=(3e15, 5e15, 1e13))
    for mu_model in ([3e15, 5e15, 1e13], np.array([3e15, 5e15, 1e13])):
        model = drude_lorentz(9e15, 1.1e16, 1e14, mu_model=mu_model)
        assert model == twin and hash(model) == hash(twin)
        assert model.mu_model == (3e15, 5e15, 1e13)
        assert [type(v) for v in model.mu_model] == [float] * 3
        for pol in ("s", "p"):
            mode = TransverseMode(xi=4e14, q=np.geomspace(1e5, 1e8, 4), pol=pol)
            got = wall_reflection(Wall.stack([Layer(model, 5e-8)], model),
                                  VACUUM, mode)
            want = wall_reflection(Wall.stack([Layer(twin, 5e-8)], twin),
                                   VACUUM, mode)
            assert np.isfinite(got).all() and np.array_equal(got, want)
    for short in ((), (3e15, 5e15)):
        with pytest.raises(ValueError, match="mu_model"):
            drude_lorentz(9e15, 1.1e16, 1e14, mu_model=short)


def test_equal_models_hash_alike():
    # The hash is taken once, at construction: models equal field by field
    # (a list or a tuple mu_model, int or float statics) still compare and
    # hash alike, and so do copies and unpickled models, which are built
    # anew.
    import copy
    import pickle

    base = DispersionModel(MaterialKind.DRUDE_LORENTZ, eps_static=2.0,
                           mu_static=1.0, plasma_freq=9e15,
                           mu_model=(3e15, 5e15, 1e13))
    twins = [DispersionModel(MaterialKind.DRUDE_LORENTZ, eps_static=2,
                             mu_static=1, plasma_freq=9e15,
                             mu_model=[3e15, 5e15, 1e13]),
             copy.deepcopy(base), pickle.loads(pickle.dumps(base))]
    for twin in twins:
        assert twin is not base
        assert twin == base and hash(twin) == hash(base)
        assert {twin: 1}[base] == 1
    assert constant(eps=4) == constant(eps=4.0)
    assert hash(constant(eps=4)) == hash(constant(eps=4.0))


def test_singletons():
    assert VACUUM == constant()
    assert MIRROR.kind is MaterialKind.PERFECT_MIRROR
    assert eps_imag_axis(VACUUM, 3e14) == 1.0
    assert _response(VACUUM, 3e14)[1] == 1.0


def test_oscillator_point_value():
    # Hand value: 1 + Omega^2/(omega_0^2 + xi^2 + gamma*xi) at
    # Omega = 2e15, omega_0 = 3e15, gamma = 1e15, xi = 2e15 is 1 + 4/15.
    model = drude_lorentz(2e15, 3e15, 1e15)
    assert eps_imag_axis(model, 2e15) == pytest.approx(1.0 + 4.0 / 15.0, rel=1e-15)
    assert _response(model, 2e15)[1] == 1.0


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
    np.testing.assert_allclose(_response(model, xi)[1], mu.real, rtol=1e-14)
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


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
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


def test_mirror_has_no_response():
    for fn in (eps_imag_axis, _response):
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
    assert _response(model, xi)[1] == pytest.approx(expected, rel=1e-15)


def test_eps_imag_axis_evaluates_eps_alone(monkeypatch):
    # Row 0 of the full response, bit for bit, from eps's record alone: the
    # magnetic oscillator is never evaluated.
    from planarcasimir import materials

    model = drude_lorentz(2e15, 3e15, 1e13, mu_model=(4e14, 0.0, 1e13))
    xi = np.concatenate([[0.0], np.geomspace(1e8, 1e18, 21)])
    full = _response(model, xi)[0]
    evaluated = []
    real = materials._evaluate
    monkeypatch.setattr(materials, "_evaluate", lambda records, *args: (
        evaluated.append(len(records)) or real(records, *args)))
    assert eps_imag_axis(model, xi).tobytes() == full.tobytes()
    assert eps_imag_axis(model, 5e14) == _response(model, 5e14)[0]
    assert evaluated == [1, 1, 2]


def test_is_drude_like():
    assert is_drude_like(plasma(1e15))
    assert is_drude_like(drude_lorentz(1e16, 0.0, 3e13))
    assert not is_drude_like(drude_lorentz(1e16, 2e15, 3e13))
    assert not is_drude_like(constant(eps=10.0))
    assert not is_drude_like(plasma(0.0))
    # A zero-resonance magnetic oscillator also diverges at xi -> 0.
    assert is_drude_like(drude_lorentz(1e15, 2e15, 0.0, mu_model=(1e14, 0.0, 0.0)))


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
    eps, mu = _response(model, xi)
    assert not np.isnan(eps).any() and not np.isnan(mu).any()
    assert is_drude_like(model) == bool(np.isinf(eps[0]) or np.isinf(mu[0]))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([MaterialKind.CONSTANT, MaterialKind.PLASMA,
                        MaterialKind.DRUDE_LORENTZ]),
       st.floats(1.0, 10.0), st.floats(0.1, 10.0),
       _PARAMETER, _PARAMETER, _PARAMETER,
       st.none() | st.tuples(_PARAMETER, _PARAMETER, _PARAMETER))
def test_records_are_built_once_at_construction(
        kind, eps_static, mu_static, strength, resonance, damping, mu_model):
    if kind is MaterialKind.CONSTANT:
        strength = resonance = damping = 0.0
        mu_model = None
    elif kind is MaterialKind.PLASMA:
        resonance = damping = 0.0
    model = DispersionModel(kind, eps_static, mu_static, strength, resonance,
                            damping, mu_model)

    def record(static, oscillator):
        omega, omega_0, gamma = oscillator
        return static, (omega**2, omega_0**2, gamma) if omega else None

    assert _records(model) == (
        record(eps_static, (strength, resonance, damping)),
        record(mu_static, mu_model or (0.0, 0.0, 0.0)))
    assert _records(model) is _records(model)


def test_plasma_is_the_undamped_zero_resonance_oscillator():
    xi = np.concatenate([[0.0], np.geomspace(1e8, 1e18, 41)])
    for strength in (1e13, 9e15):
        np.testing.assert_array_equal(
            eps_imag_axis(plasma(strength), xi),
            eps_imag_axis(drude_lorentz(strength, 0.0, 0.0), xi))


def test_zero_strength_oscillator_is_no_oscillator():
    for model in (plasma(0.0), drude_lorentz(0.0, 0.0, 1e13),
                  drude_lorentz(0.0, 2e15, 0.0, mu_model=(0.0, 0.0, 1e13))):
        assert _response(model, 0.0).tolist() == [1.0, 1.0]
        assert not is_drude_like(model)


def test_divergent_mu_makes_any_kind_drude_like():
    model = DispersionModel(MaterialKind.PLASMA, mu_model=(1e15, 0.0, 1e13))
    assert _response(model, 0.0)[1] == np.inf
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
    # Finite parameters whose squares, or whose ratio of squares at xi = 0,
    # overflow: the evaluation would raise or return inf.
    pytest.param(lambda v: drude_lorentz(1e160, 0.0, 0.0),
                 "plasma_freq squared", id="strength-squared"),
    pytest.param(lambda v: drude_lorentz(1e15, 0.0, 0.0,
                                         mu_model=(1e10, 1e200, 0.0)),
                 "mu_resonance_freq squared", id="mu-resonance-squared"),
    pytest.param(lambda v: drude_lorentz(1e100, 1e-200, 1e13),
                 "plasma_freq over resonance_freq squared", id="ratio"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_parameters_are_refused_by_name(make, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make(value)


@pytest.mark.parametrize("make,message", [
    (lambda: drude_lorentz(1e160, 0.0, 0.0), "plasma_freq squared must be"
     " finite, got inf"),
    (lambda: drude_lorentz(np.float64(1e160), 0, 0), "plasma_freq squared"
     " must be finite, got inf"),
    (lambda: drude_lorentz(1e15, 0.0, 0.0, mu_model=(1e10, 1e200, 0.0)),
     "mu_resonance_freq squared must be finite, got inf"),
    (lambda: drude_lorentz(1e100, 1e-200, 1e13), "plasma_freq over"
     " resonance_freq squared must be finite, got inf"),
    (lambda: drude_lorentz(1e15, 0.0, 0.0, mu_model=(1e100, 1e-200, 0.0)),
     "mu_plasma_freq over resonance_freq squared must be finite, got inf"),
    # Both squares underflow to 0: their ratio is 0/0.
    (lambda: drude_lorentz(1e-170, 1e-170, 0.0), "plasma_freq over"
     " resonance_freq squared must be finite, got nan"),
])
def test_squares_that_leave_the_floats_are_refused_with_their_value(
        make, message):
    # Float products overflow to inf, where x**2 would raise OverflowError,
    # and no numpy warning is raised on the way to the refusal.
    with pytest.raises(ValueError) as refused:
        make()
    assert str(refused.value) == message


def test_squares_that_stay_finite_are_accepted():
    # A strength whose square underflows to 0 over a finite resonance square
    # gives a ratio of 0, and integer parameters square as floats.
    assert drude_lorentz(1e-170, 1.0, 0.0).plasma_freq == 1e-170
    assert drude_lorentz(1e15, 2, 0.0).resonance_freq == 2


def test_constant_kind_has_no_oscillator():
    with pytest.raises(ValueError, match="constant kind has no oscillator"):
        DispersionModel(MaterialKind.CONSTANT, eps_static=2.0,
                        plasma_freq=1e15)
