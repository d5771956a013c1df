import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c, hbar

from planarcasimir import engine, layers
from planarcasimir.engine import (
    ForceResult,
    cavity_interspaces,
    interspace,
    minkowski_plate_force,
    minkowski_stress_zz,
    plate_force,
    stress_profile,
    stress_zz,
    _exact_difference_integrand,
)
from planarcasimir.layers import (
    CavityConfig,
    Layer,
    PerfectMirrorPlate,
    TransverseMode,
    Wall,
    beta_imag,
    wall_reflection,
)
from planarcasimir.materials import (
    MIRROR,
    VACUUM,
    DispersionModel,
    MaterialKind,
    constant,
    drude_lorentz,
    eps_imag_axis,
    mu_imag_axis,
    plasma,
)
from planarcasimir.quadrature import IntegralResult, QuadratureSpec

SPEC = QuadratureSpec(rel_tol=1e-8)


def _mirror_gap(medium=VACUUM, width=1e-6):
    return interspace(Wall.perfect_mirror(), medium, width, Wall.perfect_mirror())


def _g(view, z, xi, q, pol=None):
    """The mode function g at z: the ``pol`` column, or s and p summed."""
    g = engine._g(view, z, xi, q, engine._modes(view.medium, xi, q))
    return g.sum(axis=-1) if pol is None else g[..., "sp".index(pol)]


def _ideal_stress(width, eps=1.0, mu=1.0):
    # Mirror-bounded interspace filled with a static medium: the mode sum
    # collapses to zeta functions, leaving
    #   T = (hbar c pi^2 mu / n) [ (1 + 1/n^2)/480 + (1 - 1/n^2)/96 ] / d^4.
    n = np.sqrt(eps * mu)
    inv = 1.0 / (eps * mu)
    return (hbar * c * np.pi ** 2 * mu / n) * (
        (1.0 + inv) / 480.0 + (1.0 - inv) / 96.0) / width ** 4


def test_mode_function_matches_complex_phase_assembly():
    # Rebuild g from its propagating-wave form with literal complex phases
    # e^{2 i beta d} at beta = i kappa and compare to the real-arithmetic
    # implementation.
    view = interspace(
        Wall.semi_infinite(constant(eps=6.0)),
        constant(eps=2.0, mu=1.3),
        4e-7,
        Wall.stack([Layer(constant(eps=3.0), 5e-8)], MIRROR),
    )
    eps = eps_imag_axis(view.medium, 0.0)
    mu = mu_imag_axis(view.medium, 0.0)
    n_sq = eps * mu
    d = view.width
    for xi in (2e14, 3e15):
        for q in (1e5, 2e6, 3e7):
            kappa = beta_imag(n_sq, xi, q)
            beta = 1j * kappa
            for pol, delta in (("s", -1.0), ("p", 1.0)):
                mode = TransverseMode(xi=xi, q=q, pol=pol)
                rp = wall_reflection(view.right, view.medium, mode)
                rm = wall_reflection(view.left, view.medium, mode)
                z = 1.3e-7
                phase_d = np.exp(2j * beta * d)
                w = (beta ** 2 + q ** 2) * (1.0 - 1.0 / n_sq)
                pair = 2.0 * (beta ** 2 * (1.0 + 1.0 / n_sq)
                              + delta * q ** 2 * (1.0 - 1.0 / n_sq))
                denom = 1.0 - rp * rm * phase_d
                literal = (pair * rp * rm * phase_d + delta * w * (
                    rm * np.exp(2j * beta * z)
                    + rp * np.exp(2j * beta * (d - z)))) / denom
                assert literal.imag == 0.0
                got = _g(view, z, xi, q, pol)
                assert got == pytest.approx(literal.real, rel=1e-13)


def test_mode_function_sums_polarizations():
    view = _mirror_gap(constant(eps=3.0), 5e-7)
    parts = [_g(view, 2e-7, 1e15, 2e6, p) for p in ("s", "p")]
    assert _g(view, 2e-7, 1e15, 2e6) == pytest.approx(sum(parts), rel=1e-15)


def test_mode_function_z_independent_in_empty_interspace():
    view = interspace(Wall.semi_infinite(constant(eps=4.0)), VACUUM, 1e-6,
                      Wall.semi_infinite(constant(eps=9.0)))
    values = {float(_g(view, z, 8e14, 3e6)) for z in (1e-7, 3e-7, 5e-7, 9e-7)}
    assert len(values) == 1


def test_no_contrast_means_no_stress():
    med = constant(eps=2.0)
    view = interspace(Wall.semi_infinite(med), med, 1e-6, Wall.semi_infinite(med))
    assert _g(view, 4e-7, 1e15, 1e6) == 0.0
    assert stress_zz(view, 4e-7, spec=SPEC).value == 0.0


def test_vacuum_mirror_gap_stress():
    width = 1e-6
    res = stress_zz(_mirror_gap(width=width), 0.5 * width, spec=SPEC)
    assert res.converged
    ideal = hbar * c * np.pi ** 2 / 240.0 / width ** 4
    assert res.value == pytest.approx(ideal, rel=1e-7)
    assert res.value > 0.0  # attraction
    assert res.value == pytest.approx(1.3001e-3, rel=1e-3)


@pytest.mark.parametrize("eps,mu", [(2.0, 1.0), (1.0, 2.0), (2.5, 1.4)])
def test_filled_mirror_gap_closed_form(eps, mu):
    # The z-dependent surface terms contribute at mid-gap; this pins their
    # weight against the zeta-function mode sum, separately for a dielectric
    # and a magnetic filling.
    width = 8e-7
    view = _mirror_gap(constant(eps=eps, mu=mu), width)
    res = stress_zz(view, 0.5 * width, spec=SPEC)
    assert res.converged
    assert res.value == pytest.approx(_ideal_stress(width, eps, mu), rel=1e-7)


def test_stress_profile_flat_between_mirrors():
    # Empty interspace: no surface terms, so the profile is a constant.
    view = _mirror_gap(width=6e-7)
    prof = stress_profile(view, 5, spec=SPEC)
    assert prof.z.shape == prof.t_zz.shape == (5,)
    assert np.all(prof.converged)
    assert np.all(prof.z > 0.0) and np.all(prof.z < 6e-7)
    np.testing.assert_allclose(prof.t_zz, prof.t_zz[0], rtol=1e-9)
    with pytest.raises(ValueError):
        stress_profile(view, 1, spec=SPEC)


def test_filled_gap_profile_bends():
    # With a filled interspace the surface terms make T_zz vary with z,
    # symmetrically about the midplane for identical walls.
    width = 6e-7
    view = _mirror_gap(constant(eps=4.0), width)
    prof = stress_profile(view, 5, spec=SPEC)
    assert np.all(prof.converged)
    span = prof.t_zz.max() - prof.t_zz.min()
    assert span > 10.0 * prof.error_estimate.sum()
    np.testing.assert_allclose(prof.t_zz, prof.t_zz[::-1], rtol=1e-7)


def test_minkowski_matches_field_stress_in_empty_interspaces():
    # For n = 1 interspaces the two stress forms are the same expression.
    cases = [
        _mirror_gap(width=1e-6),
        interspace(Wall.semi_infinite(constant(eps=4.0)), VACUUM, 7e-7,
                   Wall.semi_infinite(constant(eps=9.0, mu=2.0))),
        interspace(Wall.stack([Layer(constant(eps=5.0), 6e-8)],
                              constant(eps=2.0)), VACUUM, 5e-7,
                   Wall.perfect_mirror()),
    ]
    for view in cases:
        lorentz = stress_zz(view, 0.5 * view.width, spec=SPEC)
        minkowski = minkowski_stress_zz(view, spec=SPEC)
        assert minkowski.value == pytest.approx(lorentz.value, rel=1e-6)


def test_minkowski_requires_nonmagnetic_medium():
    view = _mirror_gap(constant(eps=2.0, mu=1.5), 1e-6)
    with pytest.raises(ValueError, match="nonmagnetic"):
        minkowski_stress_zz(view, spec=SPEC)
    cavity = CavityConfig(Wall.perfect_mirror(), constant(eps=2.0, mu=1.5),
                          1e-6, PerfectMirrorPlate(), 2e-6,
                          Wall.perfect_mirror())
    with pytest.raises(ValueError, match="nonmagnetic"):
        minkowski_plate_force(cavity, spec=SPEC)


def test_interspace_validation():
    with pytest.raises(ValueError, match="finite response"):
        interspace(Wall.perfect_mirror(), MIRROR, 1e-6, Wall.perfect_mirror())
    with pytest.raises(ValueError, match="positive"):
        interspace(Wall.perfect_mirror(), VACUUM, 0.0, Wall.perfect_mirror())


def test_stress_domain_and_temperature_validation():
    view = _mirror_gap()
    for z in (0.0, 1e-6, -1e-7, 2e-6):
        with pytest.raises(ValueError, match="interface"):
            stress_zz(view, z, spec=SPEC)
    with pytest.raises(ValueError, match="temperature"):
        stress_zz(view, 5e-7, temperature=-1.0, spec=SPEC)


def _asymmetric_cavity():
    return CavityConfig(
        left_wall=Wall.perfect_mirror(),
        medium=VACUUM,
        d1=4e-7,
        plate=Layer(constant(eps=4.0), 8e-8),
        d3=1.1e-6,
        right_wall=Wall.semi_infinite(constant(eps=9.0)),
    )


def test_force_methods_agree():
    cavity = _asymmetric_cavity()
    exact = plate_force(cavity, spec=SPEC, method="exact-difference")
    direct = plate_force(cavity, spec=SPEC, method="direct-difference")
    assert exact.converged and direct.converged
    combined = exact.error_estimate + direct.error_estimate
    assert abs(exact.force_per_area - direct.force_per_area) <= 3.0 * combined
    assert exact.method == "exact-difference"
    assert direct.method == "direct-difference"
    # The nearer mirror wins the tug of war: the plate is pulled toward -z.
    assert exact.force_per_area < 0.0
    with pytest.raises(ValueError, match="method"):
        plate_force(cavity, spec=SPEC, method="midpoint")


def test_force_per_polarization_sums_exactly():
    res = plate_force(_asymmetric_cavity(), spec=SPEC)
    assert res.per_polarization["s"] + res.per_polarization["p"] \
        == res.force_per_area
    assert res.error_estimate > 0.0
    assert res.evaluations > 0
    assert isinstance(res, ForceResult)


def test_symmetric_cavity_force_is_exactly_zero():
    for method in ("exact-difference", "direct-difference"):
        for plate in (PerfectMirrorPlate(), Layer(constant(eps=5.0), 1e-7)):
            cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, 6e-7,
                                  plate, 6e-7, Wall.perfect_mirror())
            res = plate_force(cavity, spec=SPEC, method=method)
            assert res.force_per_area == 0.0
            assert res.per_polarization == {"s": 0.0, "p": 0.0}


_GOLD = drude_lorentz(1.37e16, 0.0, 5.3e13)
_COATED_GOLD = Wall.stack([Layer(constant(eps=3.0), 5e-8)], _GOLD)


def _gold_cavity(d1, d3, left=_COATED_GOLD, right=Wall.semi_infinite(_GOLD)):
    # Gold walls, eps = 2 gaps and a 200 nm gold plate.
    return CavityConfig(left, constant(eps=2.0), d1, Layer(_GOLD, 2e-7), d3,
                        right)


@pytest.mark.parametrize("temperature", [0.0, 300.0])
def test_mirror_imaged_cavity_negates_the_force(temperature):
    cavity = _gold_cavity(1e-6, 5e-6)
    image = _gold_cavity(5e-6, 1e-6, cavity.right_wall, cavity.left_wall)
    policy = "drop" if temperature else None
    res, res_image = (plate_force(cav, temperature, zero_term_policy=policy)
                      for cav in (cavity, image))
    assert res.force_per_area < 0.0
    assert res_image.force_per_area == -res.force_per_area
    assert res_image.per_polarization == {
        pol: -value for pol, value in res.per_polarization.items()}
    assert res_image.evaluations == res.evaluations


@pytest.mark.parametrize("temperature", [0.0, 300.0])
def test_equal_gaps_between_equal_walls_give_exactly_zero(temperature):
    cavity = _gold_cavity(2e-6, 2e-6, right=_COATED_GOLD)
    res = plate_force(cavity, temperature,
                      zero_term_policy="drop" if temperature else None)
    assert res.force_per_area == 0.0
    assert res.per_polarization == {"s": 0.0, "p": 0.0}


def test_vacuum_mirror_cavity_polarizations_share_one_pass():
    # In a vacuum mirror cavity s and p contribute identically; integrated
    # as two columns of one pass they must come out bit for bit equal.
    d1, d3 = 1e-6, 5e-5
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, d1,
                          PerfectMirrorPlate(), d3, Wall.perfect_mirror())
    res = plate_force(cavity, spec=SPEC)
    assert res.converged
    s, p = res.per_polarization["s"], res.per_polarization["p"]
    assert s == p
    half = 0.5 * hbar * c * np.pi ** 2 / 240.0 * (d3 ** -4 - d1 ** -4)
    assert abs(s - half) <= 0.5 * res.error_estimate


def test_custom_zero_term_needs_a_value_before_integrating(monkeypatch):
    view = _mirror_gap()
    calls = []
    monkeypatch.setattr(engine, "double_semi_infinite",
                        lambda *args, **kwargs: calls.append(args))
    for stress in (lambda: stress_zz(view, 5e-7, 300.0, SPEC,
                                     "custom-value"),
                   lambda: minkowski_stress_zz(view, 300.0, SPEC,
                                               "custom-value")):
        with pytest.raises(ValueError, match="zero_term_value"):
            stress()
    assert calls == []
    monkeypatch.undo()
    given = stress_zz(view, 5e-7, 300.0, SPEC, "custom-value", 0.0)
    dropped = stress_zz(view, 5e-7, 300.0, SPEC, "drop")
    assert given.value == dropped.value


_MIRROR_CAVITY = CavityConfig(Wall.perfect_mirror(), VACUUM, 5e-7,
                              PerfectMirrorPlate(), 1.5e-6,
                              Wall.perfect_mirror())

# Every observable as (takes a per-polarization value, call(T, **request)).
_OBSERVABLES = {
    "stress_zz": (False, lambda t, **kw: stress_zz(
        _mirror_gap(), 5e-7, t, SPEC, **kw)),
    "minkowski_stress_zz": (False, lambda t, **kw: minkowski_stress_zz(
        _mirror_gap(), t, SPEC, **kw)),
    "stress_profile": (False, lambda t, **kw: stress_profile(
        _mirror_gap(), 3, t, SPEC, **kw)),
    "plate_force": (True, lambda t, **kw: plate_force(
        _MIRROR_CAVITY, t, SPEC, **kw)),
    "plate_force-direct": (True, lambda t, **kw: plate_force(
        _MIRROR_CAVITY, t, SPEC, "direct-difference", **kw)),
    "minkowski_plate_force": (True, lambda t, **kw: minkowski_plate_force(
        _MIRROR_CAVITY, t, SPEC, **kw)),
}
_BAD_ANYWHERE = {"bogus-policy": ("bogus", None), "none": None,
                 "nan": np.nan, "inf": np.inf}
_BAD_FOR_FORCES = {"s-only": {"s": 1.0}, "s-none": {"s": None, "p": 0.0},
                   "s-nan": {"s": np.nan, "p": 0.0},
                   "p-inf": {"s": 0.0, "p": np.inf}, "bare-number": 1.0}
_BAD_FOR_STRESSES = {"dict": {"s": 1.0, "p": 0.0}}


def _bad_requests():
    for name, (per_pol, _) in _OBSERVABLES.items():
        bad = {**_BAD_ANYWHERE,
               **(_BAD_FOR_FORCES if per_pol else _BAD_FOR_STRESSES)}
        for case, request in bad.items():
            policy, value = (request if isinstance(request, tuple)
                             else ("custom-value", request))
            for temperature in (0.0, 300.0):
                yield pytest.param(name, temperature, policy, value,
                                   id=f"{name}-{case}-{temperature:g}K")


@pytest.mark.parametrize("name,temperature,policy,value", _bad_requests())
def test_bad_zero_term_request_is_refused_before_integrating(
        monkeypatch, name, temperature, policy, value):
    calls = []
    monkeypatch.setattr(engine, "double_semi_infinite",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="zero_term"):
        _OBSERVABLES[name][1](temperature, zero_term_policy=policy,
                              zero_term_value=value)
    assert calls == []


@pytest.mark.parametrize("temperature", [0.0, 300.0])
@pytest.mark.parametrize("name", [name for name in _OBSERVABLES
                                  if name != "stress_profile"])
def test_evaluations_count_the_points_the_integrand_received(
        monkeypatch, name, temperature):
    # The thermal sum adds nothing per term: evaluations are integrand
    # points at every T.
    points = []
    double = engine.double_semi_infinite

    def counted(integrand, *args, **kwargs):
        def f(xi, q):
            points.append(np.size(q))
            return integrand(xi, q)

        return double(f, *args, **kwargs)

    monkeypatch.setattr(engine, "double_semi_infinite", counted)
    res = _OBSERVABLES[name][1](temperature)
    assert res.converged
    assert res.evaluations == sum(points) > 0


def _numbers(result):
    """Every field of a result, arrays as lists, for exact comparison."""
    return [np.asarray(value).tolist() for value in vars(result).values()]


@pytest.mark.parametrize("name", list(_OBSERVABLES))
def test_custom_value_at_zero_kelvin_is_the_default_result(name):
    # There is no m = 0 term at T = 0, so a valid value changes nothing.
    per_pol, observable = _OBSERVABLES[name]
    value = {"s": 1.0, "p": -2.0} if per_pol else 3.0
    custom = observable(0.0, zero_term_policy="custom-value",
                        zero_term_value=value)
    assert _numbers(custom) == _numbers(observable(0.0))


@pytest.mark.parametrize("temperature", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("name", list(_OBSERVABLES))
def test_unusable_temperature_is_refused_by_every_observable(name,
                                                              temperature):
    with pytest.raises(ValueError, match="temperature"):
        _OBSERVABLES[name][1](temperature)


def test_mirror_cavity_force_matches_stress_difference():
    # With an opaque plate the two gaps are independent mirror cavities, so
    # F is the difference of the two ideal stresses.
    d1, d3 = 5e-7, 1.5e-6
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, d1,
                          PerfectMirrorPlate(), d3, Wall.perfect_mirror())
    res = plate_force(cavity, spec=SPEC)
    expected = _ideal_stress(d3) - _ideal_stress(d1)
    assert res.converged
    assert res.force_per_area == pytest.approx(expected, rel=1e-7)


def test_force_scales_as_inverse_fourth_power():
    base = CavityConfig(Wall.perfect_mirror(), VACUUM, 4e-7,
                        PerfectMirrorPlate(), 8e-7, Wall.perfect_mirror())
    doubled = CavityConfig(Wall.perfect_mirror(), VACUUM, 8e-7,
                           PerfectMirrorPlate(), 1.6e-6, Wall.perfect_mirror())
    f1 = plate_force(base, spec=SPEC).force_per_area
    f2 = plate_force(doubled, spec=SPEC).force_per_area
    assert f1 / f2 == pytest.approx(16.0, rel=1e-7)


def test_direct_difference_respects_user_momentum_cutoff():
    cavity = _asymmetric_cavity()
    tight = QuadratureSpec(rel_tol=1e-8, q_cutoff=2e6)
    res = plate_force(cavity, spec=tight, method="direct-difference")
    ref = plate_force(cavity, spec=tight, method="exact-difference")
    assert res.force_per_area == pytest.approx(ref.force_per_area, rel=1e-6)


def test_exact_difference_integrand_finite_at_extreme_momentum():
    cavity = _asymmetric_cavity()
    for pol in ("s", "p"):
        f = _exact_difference_integrand(cavity, pol)
        for q in (1e9, 1e11, 1e13):
            val = f(2e15, q)
            assert np.isfinite(val)
        assert f(2e15, 1e13) == 0.0  # round trips underflow cleanly


def test_thermal_force_continuity_and_trend():
    d1, d3 = 1e-6, 3e-6
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, d1,
                          PerfectMirrorPlate(), d3, Wall.perfect_mirror())
    cold = plate_force(cavity, spec=SPEC)
    warm = plate_force(cavity, temperature=30.0, spec=SPEC)
    hot = plate_force(cavity, temperature=300.0, spec=SPEC)
    assert warm.converged and hot.converged
    assert warm.force_per_area == pytest.approx(cold.force_per_area, rel=1e-6)
    # The width-independent part of the thermal stress cancels between the
    # gaps, so the force shift is small but must deepen the attraction.
    ratio = hot.force_per_area / cold.force_per_area
    assert 1.00003 < ratio < 1.005


def test_thermal_stress_gains_the_blackbody_pressure():
    # Low-temperature mirror gap: T_zz(T) - T_zz(0) approaches the radiation
    # pressure (pi^2/45) (k_B T)^4 / (hbar c)^3 of the thermal photon gas.
    from scipy.constants import Boltzmann
    width = 1e-6
    view = _mirror_gap(width=width)
    cold = stress_zz(view, 0.5 * width, spec=SPEC)
    hot = stress_zz(view, 0.5 * width, temperature=300.0, spec=SPEC)
    assert hot.converged
    blackbody = (np.pi ** 2 / 45.0) * (Boltzmann * 300.0) ** 4 / (hbar * c) ** 3
    assert hot.value - cold.value == pytest.approx(blackbody, rel=2e-2)


def test_drude_media_demand_explicit_zero_term_policy():
    metal = drude_lorentz(1.4e16, 0.0, 4e13)
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, 5e-7,
                          Layer(metal, 1e-7), 1.5e-6, Wall.perfect_mirror())
    assert cavity.has_drude_like
    with pytest.raises(ValueError, match="zero_term_policy"):
        plate_force(cavity, temperature=300.0, spec=SPEC)
    dropped = plate_force(cavity, temperature=300.0, spec=SPEC,
                          zero_term_policy="drop")
    assert dropped.converged
    with pytest.raises(ValueError, match="dict"):
        plate_force(cavity, temperature=300.0, spec=SPEC,
                    zero_term_policy="custom-value", zero_term_value=None)
    shifted = plate_force(cavity, temperature=300.0, spec=SPEC,
                          zero_term_policy="custom-value",
                          zero_term_value={"s": 1e-6, "p": 2e-6})
    assert shifted.force_per_area == pytest.approx(
        dropped.force_per_area + 3e-6, rel=1e-12)
    # Zero temperature integrates straight through without any policy.
    cold = plate_force(cavity, spec=SPEC)
    assert cold.converged


def test_cavity_interspaces_widths_and_media():
    cavity = _asymmetric_cavity()
    view1, view3 = cavity_interspaces(cavity)
    assert view1.width == cavity.d1
    assert view3.width == cavity.d3
    assert view1.medium == view3.medium == cavity.medium
    # Gap 1 looking right must see the plate, gap 3, and the far wall; make
    # the far wall a mirror and check the composite differs from the bare
    # plate reflection (transmission through to the mirror matters).
    xi, q = 5e14, 1e6
    mode = TransverseMode(xi=xi, q=q, pol="p")
    r_bare = layers._plate_rt(cavity.plate, layers._wave(cavity.medium, xi, q),
                              xi, q)[0][1]
    r_composite = wall_reflection(view1.right, view1.medium, mode)
    assert abs(r_composite - r_bare) > 1e-6


def _integrand_of(monkeypatch, observable):
    """The integrand ``observable()`` hands to the double integral."""
    seen = []

    def capture(integrand, *args, **kwargs):
        seen.append(integrand)
        return IntegralResult(np.zeros(2), np.zeros(2), 0, True)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "double_semi_infinite", capture)
        observable()
    return seen[0]


def test_minkowski_force_equals_the_two_interspace_form(monkeypatch):
    # The single-plate form r (B - A) / N must equal the gap difference
    # r r3/(1 - r r3) - r r1/(1 - r r1) of the two composite-wall views.
    metal = drude_lorentz(1.37e16, 0.0, 5.3e13)
    glass = drude_lorentz(1.5e16, 1.2e16, 2e14)
    medium = drude_lorentz(1.2e16, 2.0e16, 1e14)
    walls = (Wall.stack([Layer(glass, 3e-8), Layer(metal, 5e-8)], metal),
             Wall.stack([Layer(glass, 2e-8), Layer(constant(eps=3.0), 4e-8)],
                        MIRROR))
    q = np.geomspace(1e5, 3e7, 9)
    for plate in (Layer(metal, 1e-7), PerfectMirrorPlate()):
        cavity = CavityConfig(walls[0], medium, 4e-7, plate, 9e-7, walls[1])
        integrand = _integrand_of(
            monkeypatch, lambda: minkowski_plate_force(cavity, spec=SPEC))
        view1, view3 = cavity_interspaces(cavity)
        for xi in (3e13, 8e14, 1e16):
            got = integrand(xi, q)
            kappa = beta_imag(eps_imag_axis(medium, xi), xi, q)
            for col, pol in enumerate(("s", "p")):
                mode = TransverseMode(xi=xi, q=q, pol=pol)
                rr1, rr3 = (
                    wall_reflection(view.right, medium, mode)
                    * wall_reflection(view.left, medium, mode)
                    * np.exp(-2.0 * kappa * view.width)
                    for view in (view1, view3)
                )
                want = q * kappa * (rr3 / (1.0 - rr3) - rr1 / (1.0 - rr1))
                np.testing.assert_allclose(got[:, col], want, rtol=1e-13,
                                           atol=1e-13 * np.abs(want).max())


def test_one_kappa_evaluation_per_integrand_call(monkeypatch):
    # The gap medium is evaluated once per call; mirror walls and a mirror
    # plate reflect without evaluating any material.
    cavity = CavityConfig(Wall.perfect_mirror(), constant(eps=2.0), 4e-7,
                          PerfectMirrorPlate(), 9e-7, Wall.perfect_mirror())
    view = _mirror_gap(constant(eps=2.0))
    integrands = [_integrand_of(monkeypatch, observable) for observable in (
        lambda: plate_force(cavity, spec=SPEC),
        lambda: minkowski_plate_force(cavity, spec=SPEC),
        lambda: stress_zz(view, 3e-7, spec=SPEC),
    )]
    calls = []
    real = layers.beta_imag

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (layers, engine):
        monkeypatch.setattr(module, "beta_imag", counting, raising=False)
    xi = np.geomspace(1e13, 1e16, 4)[:, None]
    q = np.geomspace(1e5, 1e8, 12) * np.ones_like(xi)
    for integrand in integrands:
        calls.clear()
        assert np.all(np.isfinite(integrand(xi, q)))
        assert len(calls) == 1


def test_absolute_floor_applies_to_thermal_sums():
    # abs_floor is in N/m^2, so the Matsubara rule must see it scaled by the
    # prefactor as the zero-temperature rule does.
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, 1e-6,
                          PerfectMirrorPlate(), 5e-6, Wall.perfect_mirror())
    def force(temperature, floor):
        spec = QuadratureSpec(rel_tol=1e-13, abs_floor=floor,
                              matsubara_max_terms=10)
        return plate_force(cavity, temperature, spec)

    for temperature in (0.0, 300.0):
        res = force(temperature, 1e-6)
        assert res.converged
        assert res.error_estimate < 1e-6
    tight = force(300.0, 1e-12)
    assert tight.error_estimate > 1e-12
    assert not tight.converged


def _gold_gap():
    # Drude gold | eps = 2, 1 um | mirror: every sample sees a dispersive wall.
    return interspace(Wall.semi_infinite(_GOLD), constant(eps=2.0), 1e-6,
                      Wall.perfect_mirror())


def test_profile_is_one_double_integral(monkeypatch):
    calls = []
    real = engine.double_semi_infinite

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "double_semi_infinite", counting)
    prof = stress_profile(_gold_gap(), 7)
    assert len(calls) == 1
    assert prof.t_zz.shape == prof.error_estimate.shape == (7,)
    assert np.all(prof.converged)
    single = stress_zz(_gold_gap(), 3e-7)
    assert type(single.value) is float and type(single.error_estimate) is float


@pytest.mark.parametrize("temperature", [0.0, 300.0])
def test_profile_matches_one_height_at_a_time(temperature):
    # The heights share one mesh in the profile and each gets its own in a
    # scalar call; the two must agree within their combined error bars.
    view, policy = _gold_gap(), "drop" if temperature else None
    prof = stress_profile(view, 5, temperature, zero_term_policy=policy)
    assert np.all(prof.converged)
    for z, value, error in zip(prof.z, prof.t_zz, prof.error_estimate):
        one = stress_zz(view, float(z), temperature, zero_term_policy=policy)
        assert one.converged
        assert abs(one.value - value) <= one.error_estimate + error


@pytest.mark.parametrize("scale", [1e-2, 7.0])
def test_rescaling_every_length_scales_stress_as_inverse_fourth_power(scale):
    # Mirrors and a constant medium carry no length of their own, so
    # multiplying every length by s multiplies each stress by s^-4.
    def cavity(s):
        return CavityConfig(Wall.perfect_mirror(), constant(eps=2.5), 6e-7 * s,
                            PerfectMirrorPlate(), 1.9e-6 * s,
                            Wall.perfect_mirror())

    def within(value, error, ref, ref_error):
        scaled = value * scale ** 4
        assert abs(scaled - ref) <= error * scale ** 4 + ref_error

    for force in (plate_force, minkowski_plate_force):
        ref, res = force(cavity(1.0)), force(cavity(scale))
        assert ref.converged and res.converged
        within(res.force_per_area, res.error_estimate, ref.force_per_area,
               ref.error_estimate)
    ref, res = (stress_profile(_mirror_gap(constant(eps=2.0), 8e-7 * s), 5)
                for s in (1.0, scale))
    assert np.all(ref.converged) and np.all(res.converged)
    np.testing.assert_allclose(res.z, scale * ref.z, rtol=1e-15)
    for args in zip(res.t_zz, res.error_estimate, ref.t_zz,
                    ref.error_estimate):
        within(*args)


def _log_uniform(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


_RATE = _log_uniform(12.0, 17.0)
_THICKNESS = _log_uniform(-9.0, -6.0)
# Constant, Drude, Lorentz, plasma and magnetic (Lorentz eps and mu) media.
_MATERIAL = st.one_of(
    _log_uniform(0.0, 2.0).map(lambda eps: constant(eps=eps)),
    st.tuples(_RATE, _RATE).map(lambda a: drude_lorentz(a[0], 0.0, a[1])),
    st.tuples(_RATE, _RATE, _RATE).map(lambda a: drude_lorentz(*a)),
    _RATE.map(plasma),
    st.tuples(_RATE, _RATE, _RATE, _RATE, _RATE, _RATE).map(
        lambda a: drude_lorentz(*a[:3], mu_model=a[3:])),
)
_WALL = st.tuples(
    st.lists(st.tuples(_MATERIAL, _THICKNESS), max_size=3),
    st.one_of(st.just(MIRROR), _MATERIAL),
).map(lambda a: Wall.stack([Layer(m, d) for m, d in a[0]], a[1]))
_PLATE = st.one_of(st.just(PerfectMirrorPlate()),
                   st.tuples(_MATERIAL, _THICKNESS).map(lambda a: Layer(*a)))
_M0 = st.floats(-1e3, 1e3)
_BAD_VALUE = st.sampled_from([None, np.nan, np.inf, {"s": 1.0},
                              {"s": None, "p": 0.0}, {"s": np.nan, "p": 0.0}])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(left=_WALL, right=_WALL, plate=_PLATE,
       d1=_log_uniform(-9.0, -3.0), d3=_log_uniform(-9.0, -3.0),
       eps=_log_uniform(0.0, 4.0),
       temperature=st.sampled_from([0.0, 1e-3, 1.0, 300.0, 1e4]),
       policy=st.sampled_from([None, *engine.ZERO_TERM_POLICIES, "bogus"]),
       stress_value=st.one_of(_M0, _BAD_VALUE),
       force_value=st.one_of(
           st.fixed_dictionaries({"s": _M0, "p": _M0}), _BAD_VALUE))
def test_random_structures_give_finite_results_or_value_errors(
        left, right, plate, d1, d3, eps, temperature, policy, stress_value,
        force_value):
    spec = QuadratureSpec(rel_tol=1e-4, max_subdivisions=32,
                          matsubara_max_terms=30)
    medium = constant(eps=eps)
    cavity = CavityConfig(left, medium, d1, plate, d3, right)
    request = dict(temperature=temperature, spec=spec,
                   zero_term_policy=policy)
    calls = (
        lambda: plate_force(cavity, zero_term_value=force_value, **request),
        lambda: minkowski_plate_force(cavity, zero_term_value=force_value,
                                      **request),
        lambda: stress_zz(interspace(left, medium, d1, right), 0.5 * d1,
                          zero_term_value=stress_value, **request),
    )
    for call in calls:
        try:
            res = call()
        except ValueError:
            continue
        value, error = ((res.force_per_area, res.error_estimate)
                        if isinstance(res, ForceResult)
                        else (res.value, res.error_estimate))
        assert np.isfinite(value) and np.isfinite(error)


def _wall_cavity(material):
    # A half-space wall opposite a mirror plate and a mirror far wall.
    return CavityConfig(Wall.semi_infinite(material), VACUUM, 1e-6,
                        PerfectMirrorPlate(), 2e-6, Wall.perfect_mirror())


@pytest.mark.parametrize("wall", [plasma(0.0), drude_lorentz(0.0, 0.0, 1e13)],
                         ids=["plasma", "drude-lorentz"])
def test_zero_strength_wall_is_the_constant_wall(wall):
    def force(material):
        return plate_force(_wall_cavity(material), 300.0, SPEC,
                           zero_term_policy="half-weight")

    assert force(wall) == force(constant())


def test_divergent_mu_is_refused_before_integrating(monkeypatch):
    wall = DispersionModel(MaterialKind.PLASMA, mu_model=(1e15, 0.0, 1e13))
    calls = []
    monkeypatch.setattr(engine, "double_semi_infinite",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="zero_term_policy"):
        plate_force(_wall_cavity(wall), 300.0, SPEC,
                    zero_term_policy="half-weight")
    assert calls == []


def test_nan_interspace_width_is_refused():
    with pytest.raises(ValueError, match="width"):
        interspace(Wall.perfect_mirror(), VACUUM, np.nan, Wall.perfect_mirror())
