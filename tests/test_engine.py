import pickle
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.constants import c, hbar

from planarcasimir import engine, layers, materials, quadrature
from planarcasimir.engine import (
    ForceResult,
    InterspaceView,
    interspace,
    minkowski_plate_force,
    minkowski_stress_zz,
    plate_force,
    stress_profile,
    stress_zz,
    _difference_rule,
)
from planarcasimir.layers import (
    CavityConfig,
    Layer,
    PerfectMirrorPlate,
    TransverseMode,
    Wall,
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
    plasma,
)
from planarcasimir.limits import (StaticMedium, casimir_generalized,
                                  minkowski_generalized)
from planarcasimir.quadrature import (
    QuadratureSpec,
    integrate_semi_infinite,
    matsubara_frequency,
    matsubara_sum,
)

import direct_difference
from direct_difference import cavity_interspaces
from oracles import (
    casimir_polder_plate_force,
    classical_minkowski_plate_force,
    classical_plate_force,
    filled_mirror_gap_stress,
    ideal_mirror_pressure,
    kappa_of,
    lifshitz_free_energy,
    lifshitz_pressure_0k,
    lifshitz_pressure_classical,
    plasma_nonretarded_pressure,
    plasma_retarded_ratio,
)

SPEC = QuadratureSpec(rel_tol=1e-8)


def _mirror_gap(medium=VACUUM, width=1e-6):
    return interspace(Wall.perfect_mirror(), medium, width, Wall.perfect_mirror())


def _g(view, z, xi, q, pol=None):
    """The mode function g at z: the ``pol`` row, or s and p summed; shaped
    like q, a float for scalar q. A float xi and a float or 1-D q run as
    one row of the (s, p)-leading layout."""
    xi_col, q_row = np.reshape(xi, (1, 1)), np.reshape(q, (1, -1))
    g = direct_difference.mode_function(view, z, xi_col, q_row)
    g = g.sum(axis=0) if pol is None else g["sp".index(pol)]
    return g.reshape(np.shape(q)) if np.ndim(q) else float(g[0, 0])


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
    mu = materials._response(view.medium, 0.0)[1]
    n_sq = eps * mu
    d = view.width
    for xi in (2e14, 3e15):
        for q in (1e5, 2e6, 3e7):
            kappa = kappa_of(eps, mu, xi, q)
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
    # An array of q gives the same sums, element by element.
    q = np.geomspace(1e5, 1e8, 7)
    rows = [_g(view, 2e-7, 1e15, q, p) for p in ("s", "p")]
    np.testing.assert_allclose(_g(view, 2e-7, 1e15, q), rows[0] + rows[1],
                               rtol=1e-15)
    for i, one in enumerate(q):
        assert [row[i] for row in rows] == [_g(view, 2e-7, 1e15, one, p)
                                           for p in ("s", "p")]


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


@pytest.mark.parametrize("eps, mu", [(1.0, 3.0), (2.0, 3.0), (4.0, 0.5),
                                     (10.0, 0.32)])
def test_minkowski_mirror_forces_of_any_gap_are_screened_by_its_index(eps,
                                                                      mu):
    # xi -> xi/n turns the Lifshitz integral of a static (eps, mu) gap into
    # the vacuum one: the Minkowski stress and plate force are (eps mu)^-1/2
    # times their vacuum closed forms, magnetic gap or not.
    mirror, medium = Wall.perfect_mirror(), constant(eps=eps, mu=mu)
    screen = (eps * mu) ** -0.5
    cavity = CavityConfig(mirror, medium, 1e-6, PerfectMirrorPlate(), 3e-6,
                          mirror)
    force = minkowski_plate_force(cavity, spec=SPEC)
    assert force.converged
    assert force.force_per_area == pytest.approx(
        screen * minkowski_generalized(1.0, 1e-6, 3e-6), rel=1e-12, abs=0.0)
    stress = minkowski_stress_zz(_mirror_gap(medium), spec=SPEC)
    assert stress.converged
    assert stress.value == pytest.approx(
        screen * _ideal_stress(1e-6), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("eps, mu", [(10.0, 0.32), (1.0, 0.1)])
def test_minkowski_stress_of_a_low_index_gap_meets_its_bar(eps, mu):
    # A gap with mu_static < 1 may have n(i xi) < 1: the stress passes the
    # gap's index to the rule, as the other observables do, so that its
    # frequency axis reaches the slower decay. Without it (1, 0.1) misses
    # its target at rel_tol 1e-10.
    stress = minkowski_stress_zz(_mirror_gap(constant(eps=eps, mu=mu)),
                                 spec=QuadratureSpec(rel_tol=1e-10))
    assert stress.converged
    assert abs(stress.value - (eps * mu) ** -0.5 * _ideal_stress(1e-6)) <= (
        stress.error_estimate)


def test_minkowski_stress_refuses_an_unbounded_interspace_by_name():
    # A single wall facing an unbounded medium: the field stress integrates
    # it, the Minkowski stress of the gap's width refuses it by name.
    view = interspace(Wall.semi_infinite(constant(eps=4.0)), VACUUM, np.inf,
                      Wall.perfect_mirror())
    assert stress_zz(view, 1e-6, spec=SPEC).converged
    with pytest.raises(ValueError, match="finite interspace width, got inf"):
        minkowski_stress_zz(view, spec=SPEC)


@pytest.mark.parametrize("force", [plate_force, minkowski_plate_force],
                         ids=["plate_force", "minkowski_plate_force"])
def test_plate_forces_refuse_two_infinite_gaps_by_name(replace_the_core,
                                                       force):
    # One infinite gap is a plate facing a single wall; with both infinite
    # no finite gap is left to scale the integral, so it is refused by name.
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, np.inf,
                          PerfectMirrorPlate(), np.inf, Wall.perfect_mirror())
    with pytest.MonkeyPatch.context() as patch:
        calls = replace_the_core(patch=patch)
        with pytest.raises(ValueError, match="d1 = inf and d3 = inf"):
            force(cavity, spec=SPEC)
    assert calls == []
    res = force(replace(cavity, d1=1e-6), spec=SPEC)
    assert res.converged
    ideal = -hbar * c * np.pi ** 2 / 240.0 / 1e-6 ** 4
    assert abs(res.force_per_area - ideal) <= res.error_estimate


def test_interspace_validation():
    with pytest.raises(ValueError, match="finite response"):
        interspace(Wall.perfect_mirror(), MIRROR, 1e-6, Wall.perfect_mirror())
    with pytest.raises(ValueError, match="positive"):
        interspace(Wall.perfect_mirror(), VACUUM, 0.0, Wall.perfect_mirror())


def test_interspace_view_checks_itself():
    # However a view is built, it carries interspace()'s two checks.
    mirror = Wall.perfect_mirror()
    with pytest.raises(ValueError,
                       match="the interspace medium must have a finite"):
        InterspaceView(MIRROR, 1e-6, mirror, mirror)
    for width in (0.0, -1e-6):
        with pytest.raises(ValueError, match="interspace width must be positive"):
            InterspaceView(VACUUM, width, mirror, mirror)
    view = interspace(mirror, VACUUM, 1e-6, mirror)
    with pytest.raises(ValueError, match="interspace width must be positive"):
        replace(view, width=-1e-6)


def test_stress_domain_and_temperature_validation():
    view = _mirror_gap()
    for z in (0.0, 1e-6, -1e-7, 2e-6):
        with pytest.raises(ValueError, match="interface"):
            stress_zz(view, z, spec=SPEC)
    with pytest.raises(ValueError, match="temperature"):
        stress_zz(view, 5e-7, temperature=-1.0, spec=SPEC)


@pytest.mark.parametrize("z", [np.full((2, 2), 5e-7), np.full((1, 1), 5e-7),
                               np.array([]), []],
                         ids=["2x2", "1x1", "empty", "empty-list"])
def test_stress_refuses_heights_of_another_shape_by_name(replace_the_core,
                                                        z):
    # One height or a non-empty 1-D array of them: anything else is refused
    # by name before any integral, not by the quadrature's shape check or
    # numpy's reduction over nothing.
    calls = replace_the_core()
    with pytest.raises(ValueError, match=r"^z must be one height or a"
                                         r" non-empty 1-D array"):
        stress_zz(_mirror_gap(), z, spec=SPEC)
    assert calls == []


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
    exact = plate_force(cavity, spec=SPEC)
    direct = direct_difference.plate_force(cavity, spec=SPEC)
    assert exact.converged and direct.converged
    combined = exact.error_estimate + direct.error_estimate
    assert abs(exact.force_per_area - direct.force_per_area) <= 3.0 * combined
    # The nearer mirror wins the tug of war: the plate is pulled toward -z.
    assert exact.force_per_area < 0.0
    # The closed form is the one route: there is no method to choose.
    with pytest.raises(TypeError, match="method"):
        plate_force(cavity, spec=SPEC, method="direct-difference")


def test_force_per_polarization_sums_exactly():
    res = plate_force(_asymmetric_cavity(), spec=SPEC)
    assert res.per_polarization["s"] + res.per_polarization["p"] \
        == res.force_per_area
    assert res.error_estimate > 0.0
    assert res.evaluations > 0
    assert isinstance(res, ForceResult)


def test_symmetric_cavity_force_is_exactly_zero():
    for force in (plate_force, direct_difference.plate_force):
        for plate in (PerfectMirrorPlate(), Layer(constant(eps=5.0), 1e-7)):
            cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, 6e-7,
                                  plate, 6e-7, Wall.perfect_mirror())
            res = force(cavity, spec=SPEC)
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


def test_custom_zero_term_needs_a_value_before_integrating(replace_the_core):
    view = _mirror_gap()
    with pytest.MonkeyPatch.context() as patch:
        calls = replace_the_core(patch=patch)
        for stress in (lambda: stress_zz(view, 5e-7, 300.0, SPEC,
                                         "custom-value"),
                       lambda: minkowski_stress_zz(view, 300.0, SPEC,
                                                   "custom-value")):
            with pytest.raises(ValueError, match="zero_term_value"):
                stress()
    assert calls == []
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
    "plate_force-direct": (True, lambda t, **kw: direct_difference.plate_force(
        _MIRROR_CAVITY, t, SPEC, **kw)),
    "minkowski_plate_force": (True, lambda t, **kw: minkowski_plate_force(
        _MIRROR_CAVITY, t, SPEC, **kw)),
}
# A falsy policy other than None is refused too, not read as the default.
_BAD_ANYWHERE = {"bogus-policy": ("bogus", None), "empty-policy": ("", None),
                 "zero-policy": (0, None), "false-policy": (False, None),
                 "none": None, "nan": np.nan, "inf": np.inf}
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
        replace_the_core, name, temperature, policy, value):
    calls = replace_the_core()
    with pytest.raises(ValueError, match="zero_term"):
        _OBSERVABLES[name][1](temperature, zero_term_policy=policy,
                              zero_term_value=value)
    assert calls == []


def _call_shapes(replace_the_core, observable):
    """(result, the (rows, columns) of every integrand call) of
    ``observable()``."""
    shapes = []

    def recorded(door):
        def rule(integrand, *args, **kwargs):
            def f(xi, q):
                shapes.append(np.broadcast(xi, q).shape)
                return integrand(xi, q)

            return door(f, *args, **kwargs)

        return rule

    with pytest.MonkeyPatch.context() as patch:
        replace_the_core(recorded, patch)
        return observable(), shapes


@pytest.mark.parametrize("temperature", [0.0, 300.0])
@pytest.mark.parametrize("name", [name for name in _OBSERVABLES
                                  if name != "stress_profile"])
def test_evaluations_count_the_points_the_integrand_received(
        replace_the_core, name, temperature):
    # The thermal sum adds nothing per term: evaluations are integrand
    # points at every T.
    res, shapes = _call_shapes(replace_the_core,
                               lambda: _OBSERVABLES[name][1](temperature))
    assert res.converged
    assert res.evaluations == sum(rows * cols for rows, cols in shapes) > 0


_ONE_BY_FIFTY = CavityConfig(Wall.perfect_mirror(), VACUUM, 1e-6,
                             PerfectMirrorPlate(), 5e-5, Wall.perfect_mirror())
# q nodes of the first level of the rule, and most rows of a call of the
# vacuum-mirror force, whose s and p are one column.
_Q_NODES = quadrature._axis(quadrature._MOMENTUM, 4)[0].size
_FORCE_ROWS = quadrature._CHUNK // _Q_NODES


def _assert_balanced(shapes, rows, columns):
    """``shapes`` are the calls of one block of ``rows`` rows of one node
    count: the fewest that hold at most ``_CHUNK`` point-columns or one row,
    their sizes one row apart."""
    (nodes,) = {cols for _, cols in shapes}
    sizes = [size for size, _ in shapes]
    most = max(1, quadrature._CHUNK // (nodes * columns))
    assert len(sizes) == -(-rows // most)
    assert sum(sizes) == rows and max(sizes) - min(sizes) <= 1
    assert all(size == 1 or size * nodes * columns <= quadrature._CHUNK
               for size in sizes)


def test_zero_temperature_force_calls_are_whole_chunks(replace_the_core):
    # The first level's 7,917 points, 91 rows of the one column s + p, in
    # one call, and no call of one row to learn the column count.
    res, shapes = _call_shapes(replace_the_core,
                               lambda: plate_force(_ONE_BY_FIFTY, spec=SPEC))
    assert res.converged and res.evaluations == 7917
    assert shapes == [(91, _Q_NODES)]
    _assert_balanced(shapes, 91, 1)
    assert sum(rows * cols for rows, cols in shapes) == res.evaluations


# The gold of the ROADMAP's gold cavity: gold half-space walls, eps = 2
# gaps of 1 and 5 um and a 200 nm gold plate.
_ROADMAP_GOLD = drude_lorentz(1.37e16, 0.0, 5.32e13)


def test_a_zero_temperature_mirror_pair_takes_one_call(replace_the_core):
    # Between mirrors a filled gap's field force forms its s and p rows in
    # its last product, so at 0 K its pair counts once toward _CHUNK: the
    # first level's 91 rows are one call, as for one column.
    cavity = CavityConfig(Wall.perfect_mirror(), constant(eps=3.0), 1e-6,
                          PerfectMirrorPlate(), 5e-6, Wall.perfect_mirror())
    res, shapes = _call_shapes(replace_the_core,
                               lambda: plate_force(cavity, spec=SPEC))
    assert res.converged and res.evaluations == 7917
    assert res.per_polarization["s"] != res.per_polarization["p"]
    assert shapes == [(91, _Q_NODES)]


def test_a_dispersive_pair_keeps_its_two_calls(replace_the_core):
    # A dispersive structure forms (s, p) arrays from its reflections on,
    # so its pair counts twice: the first level's 91 rows take two
    # balanced calls, of 45 and 46 rows.
    cavity = CavityConfig(Wall.semi_infinite(_ROADMAP_GOLD), constant(eps=2.0),
                          1e-6, Layer(_ROADMAP_GOLD, 2e-7), 5e-6,
                          Wall.semi_infinite(_ROADMAP_GOLD))
    res, shapes = _call_shapes(replace_the_core,
                               lambda: plate_force(cavity, spec=SPEC))
    assert res.converged and res.evaluations == 7917
    _assert_balanced(shapes, 91, 2)
    assert sorted(shapes) == [(45, _Q_NODES), (46, _Q_NODES)]


def test_the_decay_floor_changes_no_result(monkeypatch):
    # ``engine._decay`` floors each exponent at _LEAST_EXPONENT, where
    # numpy's vector exp leaves its fast path. A d3/d1 = 50 mirror cavity
    # and a stress 5 nm from a gold face reach far below it, and give the
    # same value, error, flag and evaluations with plain np.exp.
    cavity = CavityConfig(Wall.perfect_mirror(), constant(eps=2.0), 1e-6,
                          PerfectMirrorPlate(), 5e-5, Wall.perfect_mirror())
    view = interspace(Wall.semi_infinite(_ROADMAP_GOLD), constant(eps=2.0),
                      1e-6, Wall.perfect_mirror())
    observables = (lambda: plate_force(cavity, spec=SPEC),
                   lambda: minkowski_plate_force(cavity, spec=SPEC),
                   lambda: stress_zz(view, 5e-9, spec=SPEC))
    floored = [_numbers(observable()) for observable in observables]
    least = []

    def plain(kappa, length):
        exponent = kappa * (-2.0 * length)
        least.append(exponent.min())
        return np.exp(exponent)

    monkeypatch.setattr(engine, "_decay", plain)
    for observable, want in zip(observables, floored):
        least.clear()
        assert _numbers(observable()) == want
        assert min(least) < 2.0 * engine._LEAST_EXPONENT


@pytest.mark.parametrize("temperature,rules", [
    (300.0, [19]), (3.0, [91, 19]), (0.1, [91, 19])])
def test_each_thermal_rule_takes_the_calls_its_rows_need(
        replace_the_core, temperature, rules):
    # At 300 K the 1 um / 50 um force sums its 19 terms (m = 0 to 18) in one
    # rule; at 3 K and 0.1 K the 0 K rule from xi_8 on (91 frequency rows
    # at its first level) and one head of m = 0 to 18 take it. All meet the
    # target at the first q level, each rule's rows of the one column s + p
    # in the fewest balanced calls.
    res, shapes = _call_shapes(replace_the_core, lambda: plate_force(
        _ONE_BY_FIFTY, temperature, SPEC))
    assert res.converged
    at = 0
    for rows in rules:
        calls = shapes[at:at + -(-rows // _FORCE_ROWS)]
        _assert_balanced(calls, rows, 1)
        at += len(calls)
    assert at == len(shapes)
    assert sum(rows * cols for rows, cols in shapes) == res.evaluations


def test_profile_calls_hold_at_most_a_chunk_or_one_row(replace_the_core):
    # 42 heights are 42 columns: a call of more than one row holds at most
    # _CHUNK point-columns. The first level's 91 rows of 87 q nodes take 46
    # balanced calls, 45 of two rows and one of one; three would exceed it.
    heights = 42
    res, shapes = _call_shapes(replace_the_core, lambda: stress_profile(
        _mirror_gap(), heights, spec=SPEC))
    assert np.all(res.converged)
    _assert_balanced(shapes, 91, heights)
    assert sorted(shapes) == [(1, _Q_NODES)] + [(2, _Q_NODES)] * 45


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
    res = direct_difference.plate_force(cavity, spec=tight)
    ref = plate_force(cavity, spec=tight)
    assert res.force_per_area == pytest.approx(ref.force_per_area, rel=1e-6)


def test_exact_difference_integrand_finite_at_extreme_momentum(monkeypatch):
    f = _difference_rule(_asymmetric_cavity())[0]
    # One row: xi (1, 1) against q (1, 3); columns (s, p) first.
    val = f(np.full((1, 1), 2e15), np.array([[1e9, 1e11, 1e13]]))
    assert val.shape == (2, 1, 3)
    assert np.isfinite(val).all()
    # At q = 1e13 both round trips end at their floor, exactly
    # e^_LEAST_EXPONENT each, not in subnormals.
    monkeypatch.setattr(engine, "_decay", lambda kappa, length: np.exp(
        np.full_like(kappa, engine._LEAST_EXPONENT)))
    at_floor = f(np.full((1, 1), 2e15), np.array([[1e9, 1e11, 1e13]]))
    assert val[..., -1].tobytes() == at_floor[..., -1].tobytes()


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


def _meets_the_geometric_series(temperature, d1, d3):
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, d1,
                          PerfectMirrorPlate(), d3, Wall.perfect_mirror())
    res = plate_force(cavity, temperature=temperature, spec=SPEC)
    exact = (ideal_mirror_pressure(temperature, d3)
             - ideal_mirror_pressure(temperature, d1))
    assert res.converged
    assert abs(res.force_per_area - exact) <= res.error_estimate


@pytest.mark.parametrize("temperature", [0.3, 0.4, 0.5, 1.0, 30.0, 300.0])
def test_thermal_mirror_force_meets_the_geometric_series(temperature):
    _meets_the_geometric_series(temperature, 1e-6, 5e-5)


# Vacuum mirror cavities (T in K, d1 and d3 in m) where the Pade-accelerated
# sums that ``quadrature._thermal_sum`` replaced had no slack to give:
# shortcuts of their stop rule booked 1/30 of the true error on the first and
# 1/7.3 on the other two. ``_thermal_sum``, which sums their terms, must
# bound them too.
_THERMAL_TRAPS = [(168.19782374241206, 0.9043108667287712e-6,
                   3.8290935518332326e-6),
                  (64.72873352694713, 1e-6, 12e-6),
                  (64.72873352694713, 1e-6, 3.7947331922020546e-6)]


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
@pytest.mark.parametrize("temperature,d1,d3", _THERMAL_TRAPS)
def test_thermal_rule_bounds_the_former_pade_traps(
        temperature, d1, d3, rel_tol):
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, d1,
                          PerfectMirrorPlate(), d3, Wall.perfect_mirror())
    res = plate_force(cavity, temperature, QuadratureSpec(rel_tol=rel_tol))
    exact = (ideal_mirror_pressure(temperature, d3)
             - ideal_mirror_pressure(temperature, d1))
    assert res.converged
    assert abs(res.force_per_area - exact) <= res.error_estimate


@pytest.mark.parametrize("temperature", [1.0, 0.2, 0.1, 0.03, 0.01])
def test_cold_mirror_forces_meet_the_oracle_within_three_zero_kelvin_rules(
        temperature):
    # Down to 10 mK the 1 um / 50 um force is its 0 K value plus the T**4
    # law, which Gregory's correction takes from the first terms: it
    # converges within its bar in at most three times the 0 K rule's points.
    res = plate_force(_ONE_BY_FIFTY, temperature, SPEC)
    exact = (ideal_mirror_pressure(temperature, 5e-5)
             - ideal_mirror_pressure(temperature, 1e-6))
    assert res.converged
    assert abs(res.force_per_area - exact) <= res.error_estimate
    assert res.evaluations <= 3 * plate_force(_ONE_BY_FIFTY,
                                              spec=SPEC).evaluations


def test_zero_temperature_mirror_force_takes_the_first_level():
    # The first level of the tensor rule meets the target: level 4 at
    # 1e-8, level 3 at 1e-4.
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, 1e-6,
                          PerfectMirrorPlate(), 5e-5, Wall.perfect_mirror())
    for rel_tol, points in ((1e-8, 7917), (1e-4, 2024)):
        res = plate_force(cavity, spec=QuadratureSpec(rel_tol=rel_tol))
        assert res.converged
        assert res.evaluations == points


def test_near_face_stress_meets_a_finer_rule(monkeypatch):
    # z = d/50 from a gold face: the u and v errors of the coarse levels
    # cancel in the tensor rule, so each axis books its own change.
    view, z = _gold_gap(), 2e-8
    res = stress_zz(view, z, spec=SPEC)
    monkeypatch.setattr(quadrature, "_TENSOR_LEVELS", (7, 7))
    ref = stress_zz(view, z, spec=QuadratureSpec(rel_tol=1e-15))
    assert res.converged
    assert abs(res.value - ref.value) <= res.error_estimate


def _brute_thermal_force(cavity, temperature, spec):
    """(force, bar) from the Matsubara sum of per-frequency q integrals.

    The engine's own integrand, but summed term by term by ``matsubara_sum``
    under ``drop`` with each q integral from ``integrate_semi_infinite``;
    the bar is the sum's error plus the q errors at the sum's weights.
    """
    integrand = _difference_rule(cavity)[0]
    d = min(cavity.d1, cavity.d3)
    q_errors = []

    def term(xi):
        # One row of the columns (s, p): xi (1, 1) against q (1, m), read
        # as the 1-D rule's (m, 2).
        res = integrate_semi_infinite(lambda v: integrand(
            np.full((1, 1), xi), v[None] / d)[:, 0].T / d, spec)
        q_errors.append(res.error_estimate)
        return res.value

    total = matsubara_sum(term, temperature, spec, zero_term=0.0)
    assert total.converged
    spacing = float(matsubara_frequency(1, temperature))
    prefactor = engine._STRESS_PREFACTOR
    bar = total.error_estimate.sum() + spacing * np.sum(q_errors)
    return prefactor * total.value.sum(), abs(prefactor) * bar


@pytest.mark.parametrize("temperature", [30.0, 300.0])
@pytest.mark.parametrize("gap", [constant(eps=2.0),
                                 drude_lorentz(1.2e16, 2.0e16, 1e14)],
                         ids=["eps2", "lorentz"])
def test_dispersive_thermal_force_meets_the_brute_matsubara_sum(gap,
                                                                temperature):
    cavity = replace(_gold_cavity(2e-6, 6e-6), medium=gap)
    res = plate_force(cavity, temperature=temperature, spec=SPEC,
                      zero_term_policy="drop")
    brute, bar = _brute_thermal_force(cavity, temperature, SPEC)
    assert res.converged
    assert abs(res.force_per_area - brute) <= res.error_estimate + bar


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
    assert layers.Plan(cavity.medium, (cavity.left_wall, cavity.right_wall),
                       cavity.plate).has_drude_like
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
    xi_col, q_row = np.full((1, 1), xi), np.full((1, 1), q)
    plan = layers.Plan(cavity.medium, (), cavity.plate)
    r_bare = plan(xi_col, q_row).plate[0][1, 0, 0]
    r_composite = wall_reflection(view1.right, view1.medium, mode)
    assert abs(r_composite - r_bare) > 1e-6


def _integrand_of(replace_the_core, observable):
    """The integrand ``observable()`` hands to the double integral."""
    with pytest.MonkeyPatch.context() as patch:
        calls = replace_the_core(patch=patch)
        observable()
    return calls[0][0]


def test_minkowski_force_equals_the_two_interspace_form(replace_the_core):
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
            replace_the_core, lambda: minkowski_plate_force(cavity, spec=SPEC))
        view1, view3 = cavity_interspaces(cavity)
        for xi in (3e13, 8e14, 1e16):
            got = integrand(np.full((1, 1), xi), q[None])[0, :, 0]
            kappa = kappa_of(eps_imag_axis(medium, xi), 1.0, xi, q)
            for col, pol in enumerate(("s", "p")):
                mode = TransverseMode(xi=xi, q=q, pol=pol)
                rr1, rr3 = (
                    wall_reflection(view.right, medium, mode)
                    * wall_reflection(view.left, medium, mode)
                    * np.exp(-2.0 * kappa * view.width)
                    for view in (view1, view3)
                )
                want = q * kappa * (rr3 / (1.0 - rr3) - rr1 / (1.0 - rr1))
                np.testing.assert_allclose(got[col], want, rtol=1e-13,
                                           atol=1e-13 * np.abs(want).max())


class _CountingNumpy:
    """numpy, with a count of ``sqrt`` calls: one per kappa formed."""

    def __init__(self):
        self.sqrt_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def sqrt(self, *args, **kwargs):
        self.sqrt_calls += 1
        return np.sqrt(*args, **kwargs)


@pytest.mark.parametrize("medium", [VACUUM, constant(eps=2.0)],
                         ids=["vacuum", "eps2"])
def test_one_kappa_evaluation_per_integrand_call(monkeypatch, replace_the_core,
                                                 medium):
    # A constant gap medium between mirror walls and a mirror plate: every
    # integrand call forms the gap's kappa once and evaluates no material,
    # since the plan fixes a constant medium's weights and n^2 and mirrors
    # reflect as the constant DELTA.
    cavity = CavityConfig(Wall.perfect_mirror(), medium, 4e-7,
                          PerfectMirrorPlate(), 9e-7, Wall.perfect_mirror())
    view = _mirror_gap(medium)
    integrands = [_integrand_of(replace_the_core, f) for f in (
        lambda: plate_force(cavity, spec=SPEC),
        lambda: minkowski_plate_force(cavity, spec=SPEC),
        lambda: stress_zz(view, 3e-7, spec=SPEC),
        lambda: stress_zz(view, np.array([1e-7, 3e-7]), spec=SPEC),
        lambda: minkowski_stress_zz(view, spec=SPEC),
        lambda: direct_difference.plate_force(cavity, spec=SPEC),
    )]
    counting = _CountingNumpy()
    evaluated = []
    for module in (layers, engine):
        monkeypatch.setattr(module, "np", counting)
    for module, name in ((materials, "_response"), (layers, "_evaluate")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real: (
            evaluated.append(args) or real(*args)))
    xi = np.geomspace(1e13, 1e16, 4)[:, None]
    q = np.geomspace(1e5, 1e8, 12) * np.ones_like(xi)
    for integrand in integrands:
        counting.sqrt_calls = 0
        assert np.all(np.isfinite(integrand(xi, q)))
        assert counting.sqrt_calls == 1
    assert evaluated == []


def test_vacuum_mirror_integrand_is_the_closed_form():
    # Vacuum between mirrors, a mirror plate: with e_i = e^{-2 kappa d_i},
    # s and p of the field integrand are one array, its one column,
    # 4 q kappa (e_3 - e_1) / ((1 - e_1)(1 - e_3)).
    d1, d3 = 4e-7, 9e-7
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, d1,
                          PerfectMirrorPlate(), d3, Wall.perfect_mirror())
    integrand, columns, _ = _difference_rule(cavity)
    assert columns == ()
    xi = np.geomspace(1e12, 3e16, 9)[:, None]
    q = np.geomspace(1e3, 3e8, 13)[None]
    kappa = np.sqrt(q**2 + xi**2 / c**2)
    e1, e3 = np.exp(-2.0 * kappa * d1), np.exp(-2.0 * kappa * d3)
    want = 4.0 * q * kappa * (e3 - e1) / ((1.0 - e1) * (1.0 - e3))
    got = integrand(xi, q)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("walls,plate", [
    ((Wall.perfect_mirror(), Wall.perfect_mirror()), PerfectMirrorPlate()),
    ((Wall.semi_infinite(constant(eps=4.0)),
      Wall.stack([Layer(constant(eps=2.0, mu=3.0), 5e-8)], MIRROR)),
     Layer(drude_lorentz(1.4e16, 0.0, 4e13), 1e-7)),
], ids=["mirrors", "slabs"])
def test_empty_gap_bracket_is_the_general_one_bit_for_bit(
        monkeypatch, walls, plate):
    # A gap whose n^2 is a static 1 takes the bracket -4 kappa^2 r of the
    # field integrand without forming (pair, surf); with the plan made to
    # say otherwise, the general bracket gives the same bits. Between
    # mirrors the folded form is one array for s and p, and the general
    # form gives it in each of its two columns.
    cavity = CavityConfig(walls[0], VACUUM, 4e-7, plate, 9e-7, walls[1])
    xi = np.geomspace(1e12, 3e16, 7)[:, None]
    q = np.geomspace(1e3, 3e8, 11)[None]
    folded = _difference_rule(cavity)[0]

    class Unfolded(layers.Plan):
        def __init__(self, *args):
            super().__init__(*args)
            assert self.empty
            self.empty = False

    # The engine's plans come from one cache; this one bypasses it.
    monkeypatch.setattr(engine, "_plan", Unfolded)
    general = _difference_rule(cavity)[0]
    formed = []
    real = engine._mode_coefficients
    monkeypatch.setattr(engine, "_mode_coefficients",
                        lambda call: formed.append(1) or real(call))
    got = folded(xi, q)
    assert formed == []
    want = general(xi, q)
    assert formed == [1]
    if isinstance(plate, PerfectMirrorPlate):
        got = np.stack((got,) * 2)
    assert got.tobytes() == want.tobytes()


def _fresh_gold_cavity():
    """A coated-gold cavity built of new objects, equal at every call."""
    gold = drude_lorentz(1.37e16, 0.0, 5.3e13)
    return CavityConfig(
        Wall.stack([Layer(constant(eps=3.0), 5e-8)], gold), constant(eps=2.0),
        1e-6, Layer(gold, 2e-7), 2e-6,
        Wall.semi_infinite(drude_lorentz(1.37e16, 0.0, 5.3e13)))


def _force_bits(res):
    return [float(x).hex() for x in (res.force_per_area, res.error_estimate,
                                     *res.per_polarization.values())] + [
        res.converged, res.evaluations]


@pytest.mark.parametrize("temperature", [0.0, 300.0])
def test_the_plan_cache_cannot_change_a_result(monkeypatch, temperature):
    # One structure's plan serves every force and stress on it. The same
    # force, bit for bit: on an empty cache, after unrelated structures
    # filled it, and from equal but distinct media, walls and plate, which
    # find the first one's plan.
    monkeypatch.setattr(engine, "_plan", lru_cache(maxsize=16)(layers.Plan))
    policy = "drop" if temperature else None
    cavity = _fresh_gold_cavity()
    first = plate_force(cavity, temperature, zero_term_policy=policy)
    for eps in (1.0, 3.0, 7.0):
        mirrors = CavityConfig(Wall.perfect_mirror(), constant(eps=eps), 1e-6,
                               PerfectMirrorPlate(), 3e-6, Wall.perfect_mirror())
        plate_force(mirrors, temperature)
        minkowski_plate_force(mirrors, temperature)
    stress_zz(_gold_gap(), 3e-7, temperature, zero_term_policy=policy)
    assert engine._plan.cache_info().currsize == 5
    again = plate_force(cavity, temperature, zero_term_policy=policy)
    info = engine._plan.cache_info()
    equal = plate_force(_fresh_gold_cavity(), temperature,
                        zero_term_policy=policy)
    # A force looks its plan up once, for its rule and its m = 0 check.
    assert engine._plan.cache_info()[:2] == (info.hits + 1, info.misses)
    assert _force_bits(first) == _force_bits(again) == _force_bits(equal)


@pytest.mark.parametrize("string_first", [False, True],
                         ids=["member-first", "string-first"])
def test_a_mirror_built_from_its_kind_string_is_the_mirror(monkeypatch,
                                                           string_first):
    # A model built from the kind's string is the member's model, so the two
    # walls share one cached plan and both give the mirror force, in either
    # call order; an unknown kind is refused.
    monkeypatch.setattr(engine, "_plan", lru_cache(maxsize=16)(layers.Plan))
    walls = [Wall.perfect_mirror(),
             Wall(terminator=DispersionModel("perfect-mirror"))]
    cavities = [CavityConfig(wall, constant(eps=2.0), 1e-6,
                             PerfectMirrorPlate(), 5e-6, wall)
                for wall in walls[::-1 if string_first else 1]]
    forces = [plate_force(cavity).force_per_area for cavity in cavities]
    assert forces[0] == forces[1] == pytest.approx(casimir_generalized(
        StaticMedium(eps=2.0), 1e-6, 5e-6), rel=1e-9)
    assert walls[1].terminator.kind is MaterialKind.PERFECT_MIRROR
    with pytest.raises(ValueError, match="bogus"):
        DispersionModel("bogus")


def test_integrand_calls_leave_their_cached_plan_as_it_was():
    # The integrands read their cached plan and q and write neither, the
    # in-place mirror folds (empty gap, filled gap, dispersive gap,
    # Minkowski) included, at q of one row and of a row per frequency.
    xi = np.geomspace(1e12, 3e16, 5)[:, None]
    row = np.geomspace(1e3, 3e8, 9)[None]
    gaps = (VACUUM, constant(eps=3.0), drude_lorentz(3e15, 5e15, 1e13))
    cavities = [CavityConfig(Wall.perfect_mirror(), gap, 1e-6,
                             PerfectMirrorPlate(), 3e-6, Wall.perfect_mirror())
                for gap in gaps] + [_fresh_gold_cavity()]
    delta = layers.DELTA.tobytes()
    for cavity, minkowski in zip(cavities * 2, [False] * 4 + [True] * 4):
        f = _difference_rule(cavity, minkowski)[0]
        plan = engine._plan(cavity.medium, (cavity.left_wall,
                                             cavity.right_wall), cavity.plate)
        state = pickle.dumps(vars(plan))
        for q in (row, np.repeat(row, len(xi), axis=0)):
            before = q.tobytes()
            assert np.isfinite(f(xi, q)).all()
            assert q.tobytes() == before
        assert pickle.dumps(vars(plan)) == state
    view = _gold_gap()
    plan = engine._plan(view.medium, (view.left, view.right))
    state = pickle.dumps(vars(plan))
    stress_zz(view, np.array([2e-7, 5e-7]))
    minkowski_stress_zz(view)
    assert pickle.dumps(vars(plan)) == state
    assert layers.DELTA.tobytes() == delta


def _unfolded_mirror_integrand(cavity, minkowski):
    """The general (r, t) form of ``_difference_rule``'s integrand, bracket
    and all, at r = r_1- = r_3+ = Delta and t = 0, for the mirror fold."""
    plan, r, t = layers.Plan(cavity.medium), layers.DELTA, 0.0
    d1, d3 = -2.0 * cavity.d1, -2.0 * cavity.d3

    def integrand(xi, q):
        call = plan(xi, q)
        (mu, _), kappa, _ = call.gap
        a, b = r * np.exp(kappa * d1), r * np.exp(kappa * d3)
        n_den = (1.0 - r * a) * (1.0 - r * b) - t * t * a * b
        if minkowski:
            return q * kappa * r * (b - a) / n_den
        pair, surf = engine._mode_coefficients(call)
        curly = pair * r + surf * (1.0 + r * r - t * t)
        return q * (-mu / kappa) * curly * (b - a) / n_den

    return integrand


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(eps=st.one_of(st.just(1.0), st.floats(1.0, 10.0)),
       mu=st.one_of(st.just(1.0), st.floats(0.5, 10.0)),
       d1=st.floats(-8.0, -4.0).map(lambda e: 10.0 ** e),
       ratio=st.one_of(st.just(np.inf), st.floats(0.02, 50.0)),
       xi_d=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
                     min_size=1, max_size=6),
       q_d=st.lists(st.floats(-3.0, 0.3).map(lambda e: 10.0 ** e),
                    min_size=1, max_size=6))
def test_mirror_fold_is_the_general_form_to_a_few_ulps(eps, mu, d1, ratio,
                                                        xi_d, q_d):
    # Bare mirror walls around a mirror plate: with Delta Delta = 1 folded
    # out, both integrands meet the general (r, t) form to 4 ulps. The
    # Minkowski one, and the field one of a gap whose n^2 is a static 1,
    # are one array for s and p. The draws keep kappa d1 < 3 and
    # kappa d3 < 150, so nothing is subnormal.
    cavity = CavityConfig(Wall.perfect_mirror(), constant(eps=eps, mu=mu),
                          d1, PerfectMirrorPlate(), d1 * ratio,
                          Wall.perfect_mirror())
    n = np.sqrt(eps * mu)
    xi = np.array(xi_d)[:, None] * c / (n * d1)
    q = np.array(q_d)[None] / d1
    for minkowski in (False, True):
        integrand, columns, _ = _difference_rule(cavity, minkowski)
        assert columns == (() if minkowski or eps * mu == 1.0 else (2,))
        got = integrand(xi, q)
        want = _unfolded_mirror_integrand(cavity, minkowski)(xi, q)
        assert want.shape == (2, len(xi_d), len(q_d))
        assert got.shape == columns + want.shape[1:]
        got = got if columns else got[None]
        assert np.all(np.abs(got - want)
                      <= 4.0 * np.finfo(float).eps * np.abs(want))


def test_absolute_floor_applies_to_thermal_sums():
    # abs_floor is in N/m^2, so the thermal sum must see it scaled by the
    # prefactor as the zero-temperature rule does. At rel_tol 1e-16, below
    # rounding, the force (1.3e-3 N/m^2) keeps about 1e-17 N/m^2 of error
    # at every T: a floor above it is met, one below it is not.
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, 1e-6,
                          PerfectMirrorPlate(), 5e-6, Wall.perfect_mirror())

    def force(temperature, floor):
        spec = QuadratureSpec(rel_tol=1e-16, abs_floor=floor)
        return plate_force(cavity, temperature, spec)

    for temperature in (0.0, 300.0, 0.2):
        res = force(temperature, 1e-15)
        assert res.converged
        assert res.error_estimate < 1e-15
    for temperature in (300.0, 0.2):
        tight = force(temperature, 1e-20)
        assert tight.error_estimate > 1e-20
        assert not tight.converged


@pytest.mark.parametrize("scales,spec", [
    # s and p of opposite signs: each meets 1e-8 of itself, the sum misses
    # 1e-8 of the force.
    ((1.0, -(1.0 - 1e-6)), QuadratureSpec(rel_tol=1e-8)),
    # Each error meets the floor, their sum does not.
    ((1.0, 1.0), QuadratureSpec(rel_tol=1e-15, abs_floor=6e-14)),
], ids=["rel-tol", "abs-floor"])
def test_force_converges_only_if_the_summed_error_meets_its_target(
        replace_the_core, scales, spec):
    # Through the core at 0 K and 300 K: as two columns (2,), s and p meet
    # their targets and the sum misses its own; as one group (1, 2) the rule
    # must not then claim convergence. Against a loose target it converges,
    # and where the sum met it as two columns too, both shapes give the same
    # result. Both forces keep the verdict and the summed error of their
    # rule: one group (1, 2) for the asymmetric cavity; for vacuum mirrors,
    # whose s and p are one array, its one column s + p at every T.
    d = 1e-6
    rules = []

    def recorded(door):
        def rule(*args, **kwargs):
            rules.append((kwargs["columns"], door(*args, **kwargs)))
            return rules[-1][1]

        return rule

    replace_the_core(recorded)
    loose = replace(spec, rel_tol=1e-4)
    for force in (plate_force, minkowski_plate_force):
        for temperature in (0.0, 300.0):
            for cavity, want in ((_asymmetric_cavity(), (1, 2)),
                                 (_MIRROR_CAVITY, ())):
                res = force(cavity, temperature, loose)
                columns, (_, error, _, converged) = rules[-1]
                assert columns == want and [res.converged] == converged
                assert res.error_estimate == sum(error)

    def integrand(xi, q):
        f = np.exp(-xi * d / c - q * d) * (1.0 + np.sqrt(q * d))
        return np.array(scales)[:, None, None] * f

    def sum_met(res, spec):
        return res.error_estimate.sum() <= max(
            spec.rel_tol * abs(res.value.sum()), spec.abs_floor)

    def rules_of(spec, temperature):
        """The rule of the two columns, then of the one group."""
        return (quadrature.double_semi_infinite(
            f, spec, d, 1e-21, temperature, columns=columns)
            for f, columns in ((integrand, (2,)), (
                lambda xi, q: integrand(xi, q)[None], (1, 2))))

    for temperature in (0.0, 300.0):
        alone, grouped = rules_of(spec, temperature)
        assert alone.converged and not sum_met(alone, spec)
        assert not grouped.converged
        looser = replace(spec, rel_tol=0.5)
        alone, grouped = rules_of(looser, temperature)
        assert grouped.converged and sum_met(grouped, looser)
        if sum_met(alone, looser):
            assert grouped.evaluations == alone.evaluations
            np.testing.assert_array_equal(grouped.value[0], alone.value)
            np.testing.assert_array_equal(grouped.error_estimate[0],
                                          alone.error_estimate)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(eps=st.one_of(st.just(1.0), st.floats(1.0, 10.0)),
       d1=st.floats(-7.0, -5.0).map(lambda e: 10.0 ** e),
       # d3/d1 away from 1, where the force is 0 and no target is met.
       ratio=st.floats(0.05, 1.5).map(lambda e: 10.0 ** e),
       wider=st.booleans(),
       temperature=st.one_of(st.just(0.0), st.floats(
           -2.0, np.log10(3000.0)).map(lambda e: 10.0 ** e)),
       rel_tol=st.sampled_from([1e-4, 1e-8, 1e-12]),
       floor=st.one_of(st.just(0.0), st.floats(-20.0, -4.0).map(
           lambda e: 10.0 ** e)),
       custom=st.sampled_from([None, (1.0, -2.0), (-1e-9, 2.5e-9)]))
# Under a floor between the q rules' targets for one column and for two,
# where rounding alone keeps both from the target.
@example(eps=1.0, d1=1e-6, ratio=2.0, wider=True, temperature=300.0,
         rel_tol=1e-15, floor=4.641588833612754e-18, custom=None)
def test_one_column_mirror_force_is_the_group_of_its_two(
        eps, d1, ratio, wider, temperature, rel_tol, floor, custom):
    # Between ideal mirrors the Minkowski integrand, and the field integrand
    # of an empty gap, are one array for s and p. The force integrates it as
    # one column, s + p, halved into s = p; the same array stacked as the
    # group (1, 2) must give the same verdict and effort, and values within
    # both error bars. At T > 0 a custom m = 0 value gives s and p targets
    # of their own, and the force then runs that group itself.
    cavity = CavityConfig(Wall.perfect_mirror(), constant(eps=eps), d1,
                          PerfectMirrorPlate(),
                          d1 * ratio if wider else d1 / ratio,
                          Wall.perfect_mirror())
    spec = QuadratureSpec(rel_tol=rel_tol, abs_floor=floor)
    policy, value = ((None, None) if custom is None else
                     ("custom-value", dict(zip(("s", "p"), custom))))
    for force, minkowski, prefactor in (
            (plate_force, False, engine._STRESS_PREFACTOR),
            (minkowski_plate_force, True, engine._MINKOWSKI_PREFACTOR)):
        integrand, columns, _ = _difference_rule(cavity, minkowski)
        if not (minkowski or eps == 1.0):
            assert columns == (2,)
            continue
        assert columns == ()
        res = force(cavity, temperature, spec, policy, value)
        pair = quadrature.double_semi_infinite(
            lambda xi, q: np.stack((integrand(xi, q),) * 2)[None], spec,
            min(cavity.d1, cavity.d3), prefactor,
            temperature, engine._zero_term(temperature, policy, value, False,
                                           per_polarization=True),
            index=engine._index(cavity.medium), columns=(1, 2))
        s, p = res.per_polarization["s"], res.per_polarization["p"]
        assert s + p == res.force_per_area
        assert s == p or custom and temperature > 0.0
        assert res.converged is pair.converged
        assert res.evaluations == pair.evaluations
        bar = min(res.error_estimate, float(pair.error_estimate.sum()))
        for got, want in ((res.force_per_area, pair.value.sum()),
                          *zip((s, p), pair.value[0])):
            assert abs(got - want) <= bar


# Mu = 100 half-space | vacuum | 1 um (eps, mu) = (2, 2) plate | vacuum |
# eps half-space: s and p pull apart, and each met its own target while
# their sum missed it, where only the 0 K rule judged the sum.
_OPPOSED_RUNS = [
    (10.0, 1e-6, 1e-6, 30.0, 1e-3), (2.0, 1e-6, 1e-6, 30.0, 1e-3),
    (10.0, 1e-6, 2e-6, 30.0, 1e-3), (2.0, 1e-6, 2e-6, 30.0, 1e-3),
    (10.0, 1e-6, 1e-6, 300.0, 1e-4)]


def _opposed_cavity(eps, d1, d3):
    return CavityConfig(Wall.semi_infinite(constant(eps=1.0, mu=100.0)),
                        VACUUM, d1, Layer(constant(eps=2.0, mu=2.0), 1e-6), d3,
                        Wall.semi_infinite(constant(eps=eps)))


@pytest.mark.parametrize("eps,d1,d3,temperature,rel_tol", _OPPOSED_RUNS)
def test_opposed_polarizations_converge_on_their_sum(eps, d1, d3, temperature,
                                                     rel_tol):
    cavity = _opposed_cavity(eps, d1, d3)
    results = [plate_force(cavity, temperature, QuadratureSpec(rel_tol=tol))
               for tol in (rel_tol, 0.1 * rel_tol, 1e-10)]
    s, p = results[0].per_polarization.values()
    assert s * p < 0.0
    reference = results[-1]
    for res, tol in zip(results, (rel_tol, 0.1 * rel_tol, 1e-10)):
        assert res.converged
        assert res.error_estimate <= tol * abs(res.force_per_area)
        assert abs(res.force_per_area - reference.force_per_area) <= (
            res.error_estimate + reference.error_estimate)


@pytest.mark.parametrize("temperature", [1e-300, 1e-310, 5e-324])
def test_a_vanishing_matsubara_spacing_gives_the_zero_kelvin_force(
        temperature):
    # 2 pi k_B T/hbar is subnormal or 0 here: the thermal rule neither
    # divides by it nor sums a runaway number of terms, and its head and 0 K
    # tail rebuild the 0 K force.
    cold = plate_force(_ONE_BY_FIFTY, spec=SPEC)
    res = plate_force(_ONE_BY_FIFTY, temperature, SPEC)
    assert res.converged
    assert abs(res.force_per_area - cold.force_per_area) <= (
        res.error_estimate + cold.error_estimate)


# mu = 10 | 1 um | (eps, mu) = (2, 2) plate | 1 um | eps = 10: s = -p, so
# the force is 0 and no rule meets max(1e-8 |0|, 0).
_EXACTLY_OPPOSED = CavityConfig(
    Wall.semi_infinite(constant(eps=1.0, mu=10.0)), VACUUM, 1e-6,
    Layer(constant(eps=2.0, mu=2.0), 1e-6), 1e-6,
    Wall.semi_infinite(constant(eps=10.0)))


def _stops_early(temperature, points):
    res = plate_force(_EXACTLY_OPPOSED, temperature,
                      QuadratureSpec(rel_tol=1e-8))
    s, p = res.per_polarization.values()
    assert s == -p != 0.0
    assert not res.converged
    assert abs(res.force_per_area) <= res.error_estimate
    assert res.evaluations <= points


def test_thermal_force_of_exactly_opposed_polarizations_stops_early():
    # Once the q errors alone exceed the goal, and the rest it books is
    # within them, the 300 K sum stops, flagged, with a bar that still
    # holds 0.
    _stops_early(300.0, 10100)


def test_zero_kelvin_force_of_exactly_opposed_polarizations_stops_early():
    # At 0 K the pair's sum misses by its ulps floor alone from level 5 on,
    # which no later level can mend: the rule stops there, flagged, where
    # it once ran to level 6 (124,545 points).
    _stops_early(0.0, 31313)


def test_one_column_mirror_force_under_a_floor_stops_on_its_floor():
    # 1 / 2 um vacuum mirrors at 300 K, rel_tol 1e-15 and a floor of
    # 4.6e-18 N/m^2, as one column: its q rules stop once rounding alone
    # keeps them from their target, so it takes no more points, and books
    # no larger a bar, than the (s, p) pair that it once ran as.
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, 1e-6,
                          PerfectMirrorPlate(), 2e-6, Wall.perfect_mirror())
    spec = QuadratureSpec(rel_tol=1e-15, abs_floor=4.641588833612754e-18)
    exact = ideal_mirror_pressure(300.0, 2e-6) - ideal_mirror_pressure(
        300.0, 1e-6)
    for force in (plate_force, minkowski_plate_force):
        res = force(cavity, 300.0, spec)
        assert not res.converged
        assert res.evaluations <= 2958
        assert res.error_estimate <= 8.7e-18
        assert abs(res.force_per_area - exact) <= res.error_estimate


# Constant, magnetodielectric and Drude media, for walls and plates.
_CONTRACT_MEDIA = st.sampled_from([
    constant(eps=10.0), constant(eps=1.0, mu=100.0),
    constant(eps=2.0, mu=2.0), _GOLD])


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(left=_CONTRACT_MEDIA, plate=_CONTRACT_MEDIA, right=_CONTRACT_MEDIA,
       gap=st.sampled_from([VACUUM, constant(eps=2.0)]),
       force=st.booleans(), d1=st.sampled_from([5e-7, 1e-6, 2e-6]),
       d3=st.sampled_from([1e-6, 3e-6]),
       temperature=st.sampled_from([0.0, 30.0, 300.0]),
       rel_tol=st.sampled_from([1e-3, 1e-4, 1e-8]),
       abs_floor=st.sampled_from([0.0, 1e-12]),
       policy=st.sampled_from(engine.ZERO_TERM_POLICIES),
       near=st.sampled_from([-1e-9, 1e-6, -1e-3, 0.1]))
def test_a_converged_result_meets_its_target(
        left, plate, right, gap, force, d1, d3, temperature, rel_tol,
        abs_floor, policy, near):
    # Whatever produced it, a result that claims convergence has an error
    # within max(rel_tol |value|, abs_floor) of the value it returns: each
    # stress column, and a force's s + p. A custom-value m = 0 term near
    # minus the drop value leaves a near cancellation to be judged.
    spec = QuadratureSpec(rel_tol=rel_tol, abs_floor=abs_floor)
    if force:
        cavity = CavityConfig(Wall.semi_infinite(left), gap, d1,
                              Layer(plate, 1e-6), d3,
                              Wall.semi_infinite(right))
        drude = layers.Plan(gap, (cavity.left_wall, cavity.right_wall),
                            cavity.plate).has_drude_like

        def run(policy, value=None):
            res = plate_force(cavity, temperature, spec, policy, value)
            return res.force_per_area, res.error_estimate, res.converged
    else:
        view = interspace(Wall.semi_infinite(left), gap, d1,
                          Wall.semi_infinite(right))
        drude = layers.Plan(gap, (view.left, view.right)).has_drude_like

        def run(policy, value=None):
            res = stress_zz(view, d1 * np.array([0.25, 0.5]), temperature,
                            spec, policy, value)
            return res.value, res.error_estimate, res.converged

    if policy == "half-weight" and drude and temperature > 0.0:
        policy = "drop"
    value = None
    if policy == "custom-value":
        if force:
            drop = plate_force(cavity, temperature, spec, "drop")
            value = {pol: -(1.0 + near) * term
                     for pol, term in drop.per_polarization.items()}
        else:
            value = -(1.0 + near) * float(run("drop")[0][0])
    total, error, converged = run(policy, value)
    if converged:
        assert np.all(error <= np.maximum(rel_tol * np.abs(total), abs_floor))


def _gold_gap():
    # Drude gold | eps = 2, 1 um | mirror: every sample sees a dispersive wall.
    return interspace(Wall.semi_infinite(_GOLD), constant(eps=2.0), 1e-6,
                      Wall.perfect_mirror())


def test_profile_is_one_double_integral(replace_the_core):
    calls = []

    def counting(door):
        def rule(*args, **kwargs):
            calls.append(args)
            return door(*args, **kwargs)

        return rule

    with pytest.MonkeyPatch.context() as patch:
        replace_the_core(counting, patch)
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


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(t_d1=_log_uniform(np.log10(5e-6), np.log10(1.1e-3)),
       d1=_log_uniform(np.log10(3e-7), np.log10(3e-6)),
       ratio=_log_uniform(np.log10(1.5), np.log10(8.0)))
def test_thermal_mirror_forces_meet_the_geometric_series(t_d1, d1, ratio):
    # T d1 from 5e-6 to 1.1e-3 K m spans about 600 down to 3 Matsubara
    # terms per polarization.
    _meets_the_geometric_series(t_d1 / d1, d1, d1 * ratio)


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
    spec = QuadratureSpec(rel_tol=1e-4)
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


def _slower(model, k):
    """``model`` with every frequency of its eps and mu divided by k."""
    return replace(model, plasma_freq=model.plasma_freq / k,
                   resonance_freq=model.resonance_freq / k,
                   damping=model.damping / k, mu_model=model.mu_model and
                   tuple(x / k for x in model.mu_model))


def _wider(wall, k):
    """``wall`` with every thickness times k and every frequency over k."""
    return Wall.stack([Layer(_slower(layer.material, k), layer.thickness * k)
                       for layer in wall.layers], _slower(wall.terminator, k))


def _outcome(call):
    """The value, error and, for a force, s and p of ``call()`` as one
    array, with its flag and its effort; or the message it was refused
    with."""
    try:
        res = call()
    except ValueError as exc:
        return str(exc)
    if isinstance(res, ForceResult):
        return (np.array([res.force_per_area, res.error_estimate,
                          *res.per_polarization.values()]),
                res.converged, res.evaluations)
    value = res.t_zz if isinstance(res, engine.StressProfile) else res.value
    return (np.hstack([value, res.error_estimate]), bool(np.all(res.converged)),
            getattr(res, "evaluations", None))


# Drude | Lorentz coating with a Lorentz mu, 50 nm | eps = 2, 1 um | plasma
# plate, 200 nm | eps = 2, 3 um | Drude, under each m = 0 treatment.
_COATED_DRUDE = dict(
    left=Wall.stack([Layer(drude_lorentz(5e15, 4e15, 1e14, mu_model=(
        1e15, 2e15, 1e13)), 5e-8)], _GOLD),
    right=Wall.semi_infinite(_GOLD), plate=Layer(plasma(1e16), 2e-7),
    medium=constant(eps=2.0), d1=1e-6, d3=3e-6, m0=(-1e-6, 2.5e-6, 1e-6))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@example(**_COATED_DRUDE, temperature=0.0, policy="half-weight", k=2.0,
         floor=0.0, cutoff=None)
@example(**_COATED_DRUDE, temperature=3.0, policy="drop", k=0.5,
         floor=1e-9, cutoff=None)
@example(**_COATED_DRUDE, temperature=300.0, policy="custom-value", k=4.0,
         floor=0.0, cutoff=30.0)
@given(left=_WALL, right=_WALL, plate=_PLATE, medium=_MATERIAL,
       d1=_log_uniform(-8.0, -5.0), d3=_log_uniform(-8.0, -5.0),
       temperature=st.sampled_from([0.0, 3.0, 300.0]),
       policy=st.sampled_from(engine.ZERO_TERM_POLICIES),
       m0=st.tuples(_M0, _M0, _M0), k=st.sampled_from([0.5, 2.0, 4.0]),
       floor=st.sampled_from([0.0, 1e-9]), cutoff=st.sampled_from([None, 30.0]))
def test_every_length_times_k_scales_each_result_by_k_to_the_minus_four(
        left, right, plate, medium, d1, d3, temperature, policy, m0, k, floor,
        cutoff):
    # Lengths times a power of two k; frequencies, T and q_cutoff over k;
    # the floor and the m = 0 values times k**-4: every node of both rules
    # and every term scale exactly, so each result is k**-4 times the
    # first, bit for bit, with the same flag and effort, or the same refusal.
    def outcomes(k):
        scale = k ** -4.0
        spec = QuadratureSpec(1e-6, floor * scale,
                              cutoff and cutoff / (d1 * k))
        walls = _wider(left, k), _wider(right, k)
        gap = _slower(medium, k)
        cavity = CavityConfig(walls[0], gap, d1 * k, plate if isinstance(
            plate, PerfectMirrorPlate) else Layer(_slower(plate.material, k),
                                                  plate.thickness * k),
                              d3 * k, walls[1])
        view = interspace(walls[0], gap, d1 * k, walls[1])
        custom = policy == "custom-value"
        force = dict(zero_term_policy=policy, zero_term_value={
            "s": m0[0] * scale, "p": m0[1] * scale} if custom else None)
        stress = dict(zero_term_policy=policy,
                      zero_term_value=m0[2] * scale if custom else None)
        t = temperature / k
        return [_outcome(call) for call in (
            lambda: plate_force(cavity, t, spec, **force),
            lambda: minkowski_plate_force(cavity, t, spec, **force),
            lambda: stress_zz(view, 0.25 * d1 * k, t, spec, **stress),
            lambda: stress_profile(view, 3, t, spec, **stress))]

    for got, want in zip(outcomes(k), outcomes(1.0)):
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert got[0].tobytes() == (want[0] * k ** -4.0).tobytes()
            assert got[1:] == want[1:]


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(left=_WALL, right=_WALL, medium=_MATERIAL,
       d1=_log_uniform(-8.0, -5.5), w=_log_uniform(-8.0, -5.5),
       d3=_log_uniform(-8.0, -5.5), temperature=st.sampled_from([0.0, 300.0]))
def test_a_plate_of_the_gap_medium_takes_the_stress_difference_across_it(
        left, right, medium, d1, w, d3, temperature):
    # A plate of the gap medium leaves one interspace of width d1 + w + d3:
    # the field force on it is the stress at its far face less the stress
    # at its near face, the medium's own share of the force, from the
    # stress integrand rather than the plate rule. The Minkowski force on
    # it is exactly zero, since the plate does not reflect.
    spec = QuadratureSpec(rel_tol=1e-10)
    cavity = CavityConfig(left, medium, d1, Layer(medium, w), d3, right)
    view = interspace(left, medium, d1 + w + d3, right)
    drude = temperature and engine._plan(medium, (left, right)).has_drude_like
    request = dict(zero_term_policy="drop" if drude else None)
    force = plate_force(cavity, temperature, spec, **request)
    faces = stress_zz(view, np.array([d1, d1 + w]), temperature, spec,
                      **request)
    assert abs(force.force_per_area - (faces.value[1] - faces.value[0])) <= (
        force.error_estimate + faces.error_estimate.sum())
    assert minkowski_plate_force(cavity, temperature, spec,
                                 **request).force_per_area == 0.0


def _record(model):
    """The (eps, mu) records of a finite model, as ``oracles.response``
    takes them."""
    return ((model.eps_static, model.plasma_freq, model.resonance_freq,
             model.damping),
            (model.mu_static, *(model.mu_model or (0.0, 0.0, 0.0))))


def _oracle_wall(wall):
    """A ``Wall`` as the free-energy oracle's (layers, terminator)."""
    mirror = wall.terminator.kind is MaterialKind.PERFECT_MIRROR
    return ([(_record(layer.material), layer.thickness)
             for layer in wall.layers],
            None if mirror else _record(wall.terminator))


def _slope(energy, h):
    """(dE/dx at x = 0, error) of ``energy(x) -> (E, error)`` by the central
    difference of step h. Its h^2 error is a third of its change from the
    difference of step 2h, which so bounds it three times over; the
    energies' own errors over the steps bound the rest."""
    (up, e_up), (down, e_down), (up2, e_up2), (down2, e_down2) = (
        energy(x) for x in (h, -h, 2.0 * h, -2.0 * h))
    slope = (up - down) / (2.0 * h)
    return slope, (abs((up2 - down2) / (4.0 * h) - slope)
                   + (e_up + e_down) / (2.0 * h)
                   + (e_up2 + e_down2) / (4.0 * h))


_ORACLE_RATE = _log_uniform(13.0, 16.0)
# Constant media, magnetic or not, and Lorentz and magnetic Lorentz
# (Lorentz eps and mu) ones: the slabs. A Drude slab is left out, since at
# xi, q -> 0 its r -> 1 faces make the oracle's matrix product 0/0.
_ORACLE_SLAB = st.one_of(
    st.tuples(_log_uniform(0.0, 1.5), _log_uniform(-0.5, 1.0)).map(
        lambda a: constant(*a)),
    st.tuples(*[_ORACLE_RATE] * 3).map(lambda a: drude_lorentz(*a)),
    st.tuples(*[_ORACLE_RATE] * 6).map(
        lambda a: drude_lorentz(*a[:3], mu_model=a[3:])),
)
# Gap media and half-spaces are those or Drude.
_ORACLE_MEDIUM = st.one_of(_ORACLE_SLAB, st.tuples(
    _ORACLE_RATE, _ORACLE_RATE).map(lambda a: drude_lorentz(a[0], 0.0, a[1])))
_ORACLE_THICKNESS = _log_uniform(-9.0, -6.5)
_ORACLE_WALL = st.tuples(
    st.lists(st.tuples(_ORACLE_SLAB, _ORACLE_THICKNESS), max_size=3),
    st.one_of(st.just(MIRROR), _ORACLE_MEDIUM),
).map(lambda a: Wall.stack([Layer(m, d) for m, d in a[0]], a[1]))
# A Lorentz eps and mu gap between a gold wall under a magnetic Lorentz
# coat and a magnetic Lorentz half-space.
_MAGNETIC_LORENTZ = drude_lorentz(1e16, 5e15, 1e14,
                                  mu_model=(3e15, 4e15, 2e14))
_MAGNETIC_GAP = drude_lorentz(5e15, 3e15, 1e14, mu_model=(2e15, 3e15, 1e14))
_COATED_WALL = Wall.stack([Layer(_MAGNETIC_LORENTZ, 5e-8)], _GOLD)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(left=_ORACLE_WALL, right=_ORACLE_WALL, medium=_ORACLE_MEDIUM,
       d=_log_uniform(-7.0, -5.5), temperature=st.sampled_from([0.0, 300.0]))
@example(left=_COATED_WALL, right=Wall.semi_infinite(_MAGNETIC_LORENTZ),
         medium=_MAGNETIC_GAP, d=7e-7, temperature=0.0)
def test_minkowski_stress_is_the_slope_of_the_free_energy(left, right, medium,
                                                          d, temperature):
    # T^M = dE/dd for any gap medium, magnetic or not, with E the Lifshitz
    # free energy of the oracle, at 0 K and, with m = 0 dropped where a
    # medium is Drude-like, at 300 K.
    drop = bool(temperature) and engine._plan(
        medium, (left, right)).has_drude_like
    res = minkowski_stress_zz(
        interspace(left, medium, d, right), temperature,
        QuadratureSpec(rel_tol=1e-10), "drop" if drop else None)
    gap, walls = _record(medium), (_oracle_wall(left), _oracle_wall(right))
    slope, error = _slope(lambda x: lifshitz_free_energy(
        gap, *walls, d + x, temperature, drop), 1e-4 * d)
    assert res.converged
    assert abs(res.value - slope) <= res.error_estimate + error


_ORACLE_PLATE = st.one_of(
    st.just(PerfectMirrorPlate()),
    st.tuples(_ORACLE_SLAB, _ORACLE_THICKNESS).map(lambda a: Layer(*a)))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(left=_ORACLE_WALL, right=_ORACLE_WALL, medium=_ORACLE_MEDIUM,
       plate=_ORACLE_PLATE, d1=_log_uniform(-7.0, -5.5),
       d3=_log_uniform(-7.0, -5.5), temperature=st.sampled_from([0.0, 300.0]))
def test_minkowski_plate_force_is_the_slope_of_the_free_energy(
        left, right, medium, plate, d1, d3, temperature):
    # The free energy of the cavity is that of gap 1, whose right wall is
    # the plate, gap 3 and the right wall, plus that of gap 3 between the
    # plate alone and the right wall: its round trips multiply to the
    # cavity's N of ``_difference_rule``. Moving the plate by x takes d1 to
    # d1 + x and d3 to d3 - x, and F^M = -dE/dx.
    cavity = CavityConfig(left, medium, d1, plate, d3, right)
    drop = bool(temperature) and engine._plan(
        medium, (left, right), plate).has_drude_like
    res = minkowski_plate_force(cavity, temperature,
                                QuadratureSpec(rel_tol=1e-10),
                                "drop" if drop else None)
    gap, (near, far) = _record(medium), map(_oracle_wall, (left, right))
    if isinstance(plate, PerfectMirrorPlate):
        beside_1 = lambda d3: ([], None)
        beside_3 = ([], None)
    else:
        slab = (_record(plate.material), plate.thickness)
        beside_1 = lambda d3: ([slab, (gap, d3), *far[0]], far[1])
        beside_3 = ([slab], gap)

    def energy(x):
        (e1, error1), (e3, error3) = (
            lifshitz_free_energy(gap, near, beside_1(d3 - x), d1 + x,
                                 temperature, drop),
            lifshitz_free_energy(gap, beside_3, far, d3 - x, temperature,
                                 drop))
        return e1 + e3, error1 + error3

    slope, error = _slope(energy, 1e-4 * min(d1, d3))
    assert res.converged
    assert abs(res.force_per_area + slope) <= res.error_estimate + error


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(d1=_log_uniform(-7.0, -5.0), thickness=_log_uniform(-2.0, 1.0),
       delta=_log_uniform(-4.0, -3.0))
def test_a_dilute_plate_takes_the_summed_casimir_polder_force(d1, thickness,
                                                              delta):
    # A plate of eps = 1 + delta in vacuum, at d1 from a mirror with nothing
    # behind it, is a sheet of atoms: to first order in delta its force is
    # delta times their summed Casimir-Polder force. (F/(delta CP) - 1)/delta
    # runs from -0.34 at w/d1 = 0.01 to -0.48 at w/d1 = 10, at every d1, as
    # scale covariance requires, so 0.6 bounds it with margin.
    w = thickness * d1
    cavity = CavityConfig(Wall.perfect_mirror(), VACUUM, d1,
                          Layer(constant(eps=1.0 + delta), w), np.inf,
                          Wall.perfect_mirror())
    force = plate_force(cavity, spec=QuadratureSpec(rel_tol=1e-10))
    assert force.converged
    ratio = force.force_per_area / (delta * casimir_polder_plate_force(d1, w))
    assert abs(ratio - 1.0) <= 0.6 * delta


# A static (eps, mu) gap of 10 nm to 10 um between ideal mirrors, at 0 K or
# from 10 K to about 3000 K, for each rel_tol the closed form is checked at.
_FILLED_GAP = dict(eps=_log_uniform(0.0, 2.0), mu=_log_uniform(-0.5, 1.0),
                   width=_log_uniform(-8.0, -5.0),
                   temperature=st.one_of(st.just(0.0), _log_uniform(1.0, 3.5)),
                   rel_tol=st.sampled_from([1e-4, 1e-8, 1e-12]))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(height=st.floats(1e-3, 1.0 - 1e-3), **_FILLED_GAP)
def test_filled_mirror_gap_stress_meets_its_image_sum_at_any_height(
        height, eps, mu, width, temperature, rel_tol):
    # The surface term's images of the two faces sum to Hurwitz zetas at
    # 0 K and to geometric Matsubara series at T > 0: the field-only stress
    # in a filled gap at every height and temperature, near a face where it
    # grows as 1/z^4 included.
    z = height * width
    res = stress_zz(_mirror_gap(constant(eps=eps, mu=mu), width), z,
                    temperature, QuadratureSpec(rel_tol=rel_tol))
    assert res.converged
    ref = filled_mirror_gap_stress(eps, mu, z, width, temperature)
    assert abs(res.value - ref) <= res.error_estimate


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(["field", "minkowski", "stress"]),
       eps=st.one_of(st.just(1.0), _log_uniform(0.0, 2.0)),
       mu=st.one_of(st.just(1.0), _log_uniform(-0.5, 1.0)),
       d1=_log_uniform(-8.0, -5.0), d3=_log_uniform(-8.5, -4.5),
       height=st.floats(1e-3, 1.0 - 1e-3),
       temperature=st.one_of(st.just(0.0), _log_uniform(1.0, 3.5)),
       rel_tol=st.sampled_from([1e-13, 1e-14, 1e-15, 1e-16]),
       abs_floor=st.one_of(st.just(0.0), _log_uniform(-40.0, -25.0)))
# Thermal sums that stopped on their q errors with a Gregory rest booked at
# an early M, or at the last M of their budget with the tail of the first:
# bars 6.3, 2.8 and 1.8 times short.
@example(kind="field", eps=1.0, mu=1.0, d1=1.5449830472634864e-06,
         d3=5.309812896586227e-06, height=0.5, temperature=34.03538552045726,
         rel_tol=1e-14, abs_floor=0.0)
@example(kind="stress", eps=1.0, mu=0.3701624310475203,
         d1=2.2065899776068792e-07, d3=1e-6, height=0.798887484156117,
         temperature=1251.1706316846953, rel_tol=1e-15,
         abs_floor=7.423869325638617e-30)
@example(kind="minkowski", eps=35.87751017605239, mu=6.593008786555975,
         d1=1.4164282066425031e-08, d3=5.722867020630037e-08, height=0.5,
         temperature=201.0255137319085, rel_tol=1e-16, abs_floor=0.0)
def test_bars_near_rounding_hold_the_closed_forms(
        kind, eps, mu, d1, d3, height, temperature, rel_tol, abs_floor):
    # At targets near or below rounding many rules stop, not converged,
    # once rounding alone keeps them from their targets. Converged or not,
    # every bar holds the exact value: of the force between ideal mirrors
    # across a static (eps, mu) gap, of its Minkowski force, or of the
    # field-only stress inside the gap.
    spec = QuadratureSpec(rel_tol=rel_tol, abs_floor=abs_floor)
    if kind == "field" and temperature > 0.0:
        eps = mu = 1.0  # the one thermal field force in closed form
    medium, n = constant(eps=eps, mu=mu), np.sqrt(eps * mu)
    if kind == "stress":
        res = stress_zz(_mirror_gap(medium, d1), height * d1, temperature,
                        spec)
        value, error = res.value, res.error_estimate
        exact = filled_mirror_gap_stress(eps, mu, height * d1, d1,
                                         temperature)
    else:
        cavity = CavityConfig(Wall.perfect_mirror(), medium, d1,
                              PerfectMirrorPlate(), d3, Wall.perfect_mirror())
        res = (plate_force if kind == "field" else minkowski_plate_force)(
            cavity, temperature, spec)
        value, error = res.force_per_area, res.error_estimate
        if temperature > 0.0:  # xi -> n xi: the vacuum force at n T, over n
            exact = (ideal_mirror_pressure(n * temperature, d3)
                     - ideal_mirror_pressure(n * temperature, d1)) / n
        elif kind == "field":
            exact = casimir_generalized(StaticMedium(eps, mu), d1, d3)
        else:
            exact = minkowski_generalized(eps, d1, d3, mu)
    assert abs(value - exact) <= error


def _meets_the_image_sum(profile, eps, mu, width, temperature):
    assert np.all(profile.converged)
    ref = [filled_mirror_gap_stress(eps, mu, float(z), width, temperature)
           for z in profile.z]
    assert np.all(np.abs(profile.t_zz - ref) <= profile.error_estimate)


# Samples of a profile share a mesh scaled for the one nearest a face, and
# some bars then book less than the error: the draw of 30 samples of an
# eps = 12.4 gap, 10 um wide, at 0 K and rel_tol 1e-4 misses by 2% at
# mid-gap, where its bar is 32 ulps and an mpmath value puts the error at
# 7.25e-15 of the stress and the oracle's at 1.4e-16.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="profile bars under-book samples far from the face"
                          " that sets the mesh")
@settings(max_examples=25, derandomize=True, deadline=None, database=None,
          phases=[Phase.generate])  # a known miss needs no shrinking
@given(samples=st.integers(2, 41), **_FILLED_GAP)
def test_filled_mirror_gap_profile_meets_its_image_sum(
        samples, eps, mu, width, temperature, rel_tol):
    view = _mirror_gap(constant(eps=eps, mu=mu), width)
    _meets_the_image_sum(stress_profile(view, samples, temperature,
                                        QuadratureSpec(rel_tol=rel_tol)),
                         eps, mu, width, temperature)


@pytest.mark.parametrize("temperature,rel_tol", [
    (0.0, 1e-4), (0.0, 1e-8), (0.0, 1e-12),
    pytest.param(300.0, 1e-4, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="8 of the 201 bars, near z/d = 0.34 and 0.66, book less"
               " than the error, by up to 1.9 times")),
    (300.0, 1e-8), (300.0, 1e-12)])
def test_a_201_sample_filled_gap_profile_meets_its_image_sum_everywhere(
        temperature, rel_tol):
    # The nearest of 201 samples is d/202 from a face, so every sample
    # shares a mesh scaled for the steepest one.
    eps, mu, width = 2.5, 1.4, 1e-6
    profile = stress_profile(_mirror_gap(constant(eps=eps, mu=mu), width),
                             201, temperature, QuadratureSpec(rel_tol=rel_tol))
    _meets_the_image_sum(profile, eps, mu, width, temperature)


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


def test_divergent_mu_is_refused_before_integrating(replace_the_core):
    wall = DispersionModel(MaterialKind.PLASMA, mu_model=(1e15, 0.0, 1e13))
    calls = replace_the_core()
    with pytest.raises(ValueError, match="zero_term_policy"):
        plate_force(_wall_cavity(wall), 300.0, SPEC,
                    zero_term_policy="half-weight")
    assert calls == []


def test_nan_interspace_width_is_refused():
    with pytest.raises(ValueError, match="width"):
        interspace(Wall.perfect_mirror(), VACUUM, np.nan, Wall.perfect_mirror())


# ---------------------------------------------------------------------------
# what the nested rule must not lose

@pytest.mark.parametrize("mu", [0.5, 0.05, 0.005])
def test_low_index_gap_meets_the_closed_form(mu):
    # n = sqrt(mu) < 1 stretches the frequency scale of the integrand by
    # 1/n; a frequency rule that does not follow it misses the closed form.
    cavity = CavityConfig(Wall.perfect_mirror(), constant(mu=mu), 1e-6,
                          PerfectMirrorPlate(), 3e-6, Wall.perfect_mirror())
    res = plate_force(cavity)
    exact = casimir_generalized(StaticMedium(1.0, mu), 1e-6, 3e-6)
    assert res.converged
    assert abs(res.force_per_area - exact) <= res.error_estimate


def test_symmetric_direct_difference_is_exactly_zero():
    # Coated-gold walls, eps = 2 gaps of 2 um and a 200 nm gold plate: the
    # two faces of the plate are mirror images, so g3(0) - g1(d1) cancels
    # exactly and the direct difference is the true 0, as the exact one is.
    gold = Wall.semi_infinite(_GOLD)
    cavity = CavityConfig(gold, constant(eps=2.0), 2e-6, Layer(_GOLD, 2e-7),
                          2e-6, gold)
    res = direct_difference.plate_force(cavity)
    exact = plate_force(cavity)
    assert res.converged and exact.converged
    assert res.force_per_area == 0.0 and res.error_estimate == 0.0
    assert res.per_polarization == exact.per_polarization


_PLASMA_FREQ = 1.37e16
_SKIN = c / _PLASMA_FREQ


def _plasma_gap_stress(d):
    wall = Wall.semi_infinite(plasma(_PLASMA_FREQ))
    return stress_zz(interspace(wall, VACUUM, d, wall), 0.5 * d,
                     spec=QuadratureSpec(rel_tol=1e-12))


@pytest.mark.parametrize("d_over_skin", [400.0, 800.0])
def test_plasma_half_spaces_meet_the_retarded_expansion(d_over_skin):
    d = d_over_skin * _SKIN
    res = _plasma_gap_stress(d)
    mirror = np.pi ** 2 * hbar * c / (240.0 * d ** 4)
    residual = res.value / mirror - plasma_retarded_ratio(d_over_skin)
    assert res.converged
    assert abs(residual) <= 150.0 / d_over_skin ** 3


@pytest.mark.parametrize("d_over_skin", [1.0 / 400.0, 1.0 / 800.0])
def test_plasma_half_spaces_meet_the_nonretarded_limit(d_over_skin):
    d = d_over_skin * _SKIN
    res = _plasma_gap_stress(d)
    ratio = res.value / plasma_nonretarded_pressure(_PLASMA_FREQ, d)
    assert res.converged
    assert abs(1.0 - ratio) <= 2.5 * d_over_skin ** 2


@pytest.mark.parametrize("eps,mu", [(1.0, 1.0), (4.0, 1.0), (4.0, 2.0),
                                    (2.0, 3.0), (10.0, 0.5)])
def test_mirror_cavity_meets_the_classical_limit(eps, mu):
    # At 3000 K across 20 and 40 um gaps the m >= 1 terms are about 1e-139
    # of the m = 0 one, so the forces are their classical limits. Judged on
    # their own size, the q rules of the m >= 1 terms would miss.
    temperature, d1, d3 = 3000.0, 20e-6, 40e-6
    cavity = CavityConfig(Wall.perfect_mirror(), constant(eps=eps, mu=mu), d1,
                          PerfectMirrorPlate(), d3, Wall.perfect_mirror())
    s, p = classical_plate_force(eps, mu, temperature, d1, d3)
    cases = [(plate_force(cavity, temperature), {"s": s, "p": p})]
    if mu == 1.0:
        half = 0.5 * classical_minkowski_plate_force(temperature, d1, d3)
        cases.append((minkowski_plate_force(cavity, temperature),
                       {"s": half, "p": half}))
    for res, shares in cases:
        exact = shares["s"] + shares["p"]
        assert res.converged
        # The oracle itself rounds at about 1e-15.
        assert (abs(res.force_per_area - exact)
                <= res.error_estimate + 1e-15 * abs(exact))
        for pol, share in shares.items():
            assert res.per_polarization[pol] == pytest.approx(share, rel=1e-12)


# ---------------------------------------------------------------------------
# Nondispersive (eps, mu) half-spaces and mirrors across a vacuum gap against
# the Lifshitz polylogarithm series: Li_4 at 0 K, Li_3 in the classical
# limit. A side is an (eps, mu) pair, or None for an ideal mirror.

_ORACLE_SPEC = QuadratureSpec(rel_tol=1e-10)


def _half_space(side):
    return (Wall.perfect_mirror() if side is None
            else Wall.semi_infinite(constant(eps=side[0], mu=side[1])))


def _vacuum_gap_stress(left, right, d, temperature=0.0):
    view = interspace(_half_space(left), VACUUM, d, _half_space(right))
    return stress_zz(view, 0.5 * d, temperature, _ORACLE_SPEC)


def _meets_the_series(res, pressure, series_error=0.0):
    # T_zz = -P. The series round at about 1e-15 and the 0 K one carries
    # the error bound of its p integral.
    assert res.converged
    assert (abs(res.value + pressure)
            <= res.error_estimate + series_error + 1e-15 * abs(pressure))


@pytest.mark.parametrize("left,right,repels", [
    ((4.0, 3.0), None, False), ((4.0, 1.0), (4.0, 1.0), False),
    (None, (1.0, 50.0), True), ((10.0, 1.0), (1.0, 10.0), True)])
def test_magnetodielectric_half_spaces_meet_the_li4_series(left, right,
                                                           repels):
    # An electric wall facing a magnetic one repels.
    d = 1e-6
    pressure, error = lifshitz_pressure_0k(left, right, d)
    res = _vacuum_gap_stress(left, right, d)
    _meets_the_series(res, pressure, error)
    assert res.value == pytest.approx(-pressure, rel=1e-13)
    assert (res.value < 0.0) == repels


@pytest.mark.parametrize("left,right", [((4.0, 3.0), None),
                                        ((4.0, 1.0), (4.0, 1.0))])
def test_magnetodielectric_half_spaces_meet_the_li3_series(left, right):
    # At 3000 K across 20 um the m >= 1 terms are about e^-329 of the m = 0
    # one, so the stress is its classical limit.
    pressure = lifshitz_pressure_classical(left, right, 3000.0, 20e-6)
    res = _vacuum_gap_stress(left, right, 20e-6, 3000.0)
    _meets_the_series(res, pressure)
    assert res.value == pytest.approx(-pressure, rel=1e-13)


_SIDE = st.one_of(st.none(), st.tuples(_log_uniform(0.0, 1.3),
                                       _log_uniform(0.0, 1.3)))


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(left=_SIDE, right=_SIDE, d=_log_uniform(-7.0, -5.0))
def test_random_magnetodielectric_pairs_meet_the_li4_series(left, right, d):
    pressure, error = lifshitz_pressure_0k(left, right, d)
    _meets_the_series(_vacuum_gap_stress(left, right, d), pressure, error)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(left=_SIDE, right=_SIDE, d=_log_uniform(np.log10(2e-5), -4.0))
def test_random_magnetodielectric_pairs_meet_the_li3_series(left, right, d):
    pressure = lifshitz_pressure_classical(left, right, 3000.0, d)
    _meets_the_series(_vacuum_gap_stress(left, right, d, 3000.0), pressure)


def test_mirror_and_magnetic_wall_approach_boyer_repulsion():
    # Mirror | (1, mu): as mu grows the s reflections tend to -1 and +1 and
    # the p ones to +1 and -1, so the stress falls toward -7/8 of the mirror
    # attraction (Boyer, Phys. Rev. A 9, 2078 (1974)).
    d = 1e-6
    mirror = _vacuum_gap_stress(None, None, d).value
    ratios = [_vacuum_gap_stress(None, (1.0, mu), d).value / mirror
              for mu in (2.0, 10.0, 1e2, 1e3, 1e4)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    # Measured -0.834 at mu = 1e4; the approach goes roughly like mu^-0.4.
    assert -7.0 / 8.0 < ratios[-1] < -0.8


# ---------------------------------------------------------------------------
# loose targets: the 0 K rule starts at level 3

_GLASS = drude_lorentz(1.5e16, 1.2e16, 2e14)
# The README pair: two bilayers of 30 nm gold on 100 nm glass, backed by
# gold, an eps = 2 oil gap of 1 um and a glass half-space.
_OIL_GAP = interspace(
    Wall.stack([Layer(_GOLD, 3e-8), Layer(_GLASS, 1e-7)] * 2, _GOLD),
    constant(eps=2.0), 1e-6, Wall.semi_infinite(_GLASS))
_PLASMA_WALL = Wall.semi_infinite(plasma(_PLASMA_FREQ))
# mu = 100 wall | (2, 2) plate | eps = 10 wall: s and p of opposite signs
# (-1.24e-4 and 1.35e-4 N/m^2). At 1e-3 each meets its target at level 3
# but the force does not, so the rule goes on to level 4.
_OPPOSED = CavityConfig(Wall.semi_infinite(constant(mu=100.0)), VACUUM, 1e-6,
                        Layer(constant(eps=2.0, mu=2.0), 1e-6), 1e-6,
                        Wall.semi_infinite(constant(eps=10.0)))
_LOOSE_CASES = {
    "vacuum-mirrors": lambda spec: plate_force(_ONE_BY_FIFTY, spec=spec),
    "gold-field": lambda spec: plate_force(_gold_cavity(1e-6, 5e-6),
                                           spec=spec),
    "gold-minkowski": lambda spec: minkowski_plate_force(
        _gold_cavity(1e-6, 5e-6), spec=spec),
    "opposed-field": lambda spec: plate_force(_OPPOSED, spec=spec),
    "opposed-minkowski": lambda spec: minkowski_plate_force(_OPPOSED,
                                                            spec=spec),
    "oil-gap": lambda spec: stress_zz(_OIL_GAP, 5e-7, spec=spec),
    "gold-gap-z0.3um": lambda spec: stress_zz(_gold_gap(), 3e-7, spec=spec),
    "gold-gap-profile-21": lambda spec: stress_profile(_gold_gap(), 21,
                                                       spec=spec),
    "(10,1)|(1,10)": lambda spec: stress_zz(
        interspace(_half_space((10.0, 1.0)), VACUUM, 1e-6,
                   _half_space((1.0, 10.0))), 5e-7, spec=spec),
    # At 1e-4 these two miss at level 3 and go on to level 4.
    "gold-gap-z=d/50": lambda spec: stress_zz(_gold_gap(), 2e-8, spec=spec),
    "plasma-gap-1nm": lambda spec: stress_zz(
        interspace(_PLASMA_WALL, VACUUM, 1e-9, _PLASMA_WALL), 5e-10,
        spec=spec),
}


def _value(res):
    """The value of a force, stress or profile result, as an array."""
    for name in ("force_per_area", "t_zz", "value"):
        if hasattr(res, name):
            return np.asarray(getattr(res, name))


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-4])
@pytest.mark.parametrize("name", list(_LOOSE_CASES))
def test_loose_targets_keep_their_error_bars(name, rel_tol):
    # Against a 1e-12 run, the level 3 start (booking its plain change)
    # and the level 4 it may go on to both bound their error. (The opposed
    # force is a tenth of its columns; its rounding floor is 1.8e-13.)
    res, ref = (_LOOSE_CASES[name](QuadratureSpec(rel_tol=tol))
                for tol in (rel_tol, 1e-12))
    assert np.all(res.converged) and np.all(ref.converged)
    assert np.all(np.abs(_value(res) - _value(ref)) <= res.error_estimate)


@pytest.mark.parametrize("observable,cavity", [
    (plate_force, _ONE_BY_FIFTY), (plate_force, _gold_cavity(1e-6, 5e-6)),
    (minkowski_plate_force, _gold_cavity(1e-6, 5e-6))],
    ids=["mirrors", "gold-field", "gold-minkowski"])
def test_loose_zero_temperature_rules_take_a_third_of_the_points(
        observable, cavity):
    loose, tight = (observable(cavity, spec=QuadratureSpec(rel_tol=tol))
                    for tol in (1e-4, 1e-8))
    assert loose.converged and tight.converged
    assert 3 * loose.evaluations <= tight.evaluations


_FILLED_MIRRORS = replace(_MIRROR_CAVITY, medium=constant(eps=3.0, mu=2.0))


@pytest.mark.parametrize("minkowski", [False, True], ids=["field", "minkowski"])
@pytest.mark.parametrize("cavity", [
    _MIRROR_CAVITY, _FILLED_MIRRORS, _asymmetric_cavity(),
    _gold_cavity(1e-6, 5e-6)], ids=["vacuum-mirrors", "filled-mirrors",
                                    "asymmetric", "gold"])
def test_gap_widths_put_points_first_with_each_points_own_bits(cavity,
                                                               minkowski):
    # The rule of G (d1, d3) widths is the rule of each cavity alone, its
    # point first: the same arithmetic, and so the same bits, per point.
    widths = [(4e-7, 1.5e-6), (8e-7, 1.5e-6), (8e-7, np.inf), (3e-6, 9e-7)]
    xi = np.geomspace(1e12, 1e16, 7)[:, None]
    q = np.geomspace(1e4, 1e9, 11)[None, :]
    grouped, columns, _ = _difference_rule(cavity, minkowski, widths)
    got = grouped(xi, q)
    assert got.shape == (len(widths),) + columns + (7, 11)
    for row, (d1, d3) in zip(got, widths):
        alone = _difference_rule(replace(cavity, d1=d1, d3=d3), minkowski)[0]
        assert row.tobytes() == alone(xi, q).tobytes()


# mu = 10 | 1 um vacuum | (eps, mu) = (2, 2) plate of 1 um | 1 um vacuum |
# eps = 10: mirror images under eps <-> mu, so that at d1 = d3 s = -p
# exactly, and the force is 0 with no relative target met.
_DUAL_CAVITY = CavityConfig(Wall.semi_infinite(constant(mu=10.0)), VACUUM,
                            1e-6, Layer(constant(eps=2.0, mu=2.0), 1e-6),
                            1e-6, Wall.semi_infinite(constant(eps=10.0)))


@pytest.mark.parametrize("temperature,policy,value", [
    (0.0, None, None), (300.0, "drop", None),
    (300.0, "custom-value", {"s": 1e-6, "p": -2e-6})])
def test_each_point_of_a_rule_of_gap_widths_keeps_its_own_verdict(
        temperature, policy, value):
    # One rule for three points, the second of which is the cavity's own
    # s = -p point: only that one is flagged, unless an (s, p) m = 0 value
    # breaks the balance, and every point reports the rule's evaluations.
    widths = [(8e-7, 1e-6), (1e-6, 1e-6), (1.5e-6, 1e-6)]
    forces = engine._plate_force(_DUAL_CAVITY, False, temperature, None,
                                 policy, value, widths)
    assert [f.converged for f in forces] == [True, value is not None, True]
    assert len({f.evaluations for f in forces}) == 1
    for force, (d1, d3) in zip(forces, widths):
        alone = plate_force(replace(_DUAL_CAVITY, d1=d1, d3=d3), temperature,
                            None, policy, value)
        assert alone.converged is force.converged
        assert abs(force.force_per_area - alone.force_per_area) <= (
            force.error_estimate + alone.error_estimate)
