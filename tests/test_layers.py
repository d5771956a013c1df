
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c

from planarcasimir import engine, layers, materials
from planarcasimir.layers import (
    DELTA,
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
    _response,
    constant,
    drude_lorentz,
    eps_imag_axis,
    plasma,
)
from planarcasimir.quadrature import QuadratureSpec

import direct_difference
from direct_difference import cavity_interspaces
from oracles import interface_r, kappa_of, slab_rt, stack_reflection


def _plate_column(plate, ambient, mode):
    """(r, t) of ``plate`` in ``ambient`` for ``mode``, from a ``Plan`` of
    the plate: each shaped like q, floats for scalar q. The float xi and the
    float or 1-D q run as one row of the (s, p)-leading layout."""
    xi, q = np.reshape(mode.xi, (1, 1)), np.reshape(mode.q, (1, -1))
    row = layers.POLARIZATIONS.index(mode.pol)
    pair = [np.broadcast_to(x, (2,) + q.shape)[row]
            for x in layers.Plan(ambient, (), plate)(xi, q).plate]
    return tuple(x.reshape(np.shape(mode.q)) if np.ndim(mode.q)
                 else float(x[0, 0]) for x in pair)


def _plan_kappa(n_sq, xi, q):
    """kappa of a constant gap medium of index^2 ``n_sq``, as a plan forms it."""
    return layers.Plan(constant(eps=n_sq))(xi, q).gap.kappa


def test_plan_kappa_hand_values():
    # 3-4-5 triangle: q = 4, xi*n/c = 3.
    assert _plan_kappa(1.0, 3.0 * c, 4.0) == pytest.approx(5.0, rel=1e-15)
    # q^2 + (xi n/c)^2 = 36 + 16 = 52.
    assert _plan_kappa(1.0, 4.0 * c, 6.0) == pytest.approx(np.sqrt(52.0),
                                                          rel=1e-15)
    # Pure frequency part with n = 2.
    assert _plan_kappa(4.0, 0.5 * c, 0.0) == pytest.approx(1.0, rel=1e-15)
    # Pure momentum part.
    assert _plan_kappa(9.0, 0.0, 7.25) == 7.25
    q = np.array([0.0, 3.0, 4.0])
    np.testing.assert_allclose(_plan_kappa(1.0, 3.0 * c, q),
                               [3.0, np.sqrt(18.0), 5.0], rtol=1e-15)


def _interface(pol, ambient, terminator, xi, q):
    """Single-interface reflection from ``ambient`` into ``terminator``."""
    return wall_reflection(Wall.semi_infinite(terminator), ambient,
                           TransverseMode(xi=xi, q=q, pol=pol))


def test_fresnel_normal_incidence_sign_convention():
    # Vacuum onto eps = 4 at q = 0: the s amplitude flips sign, the p
    # amplitude (magnetic-field convention) does not.
    dense = constant(eps=4.0)
    assert _interface("s", VACUUM, dense, 1e15, 0.0) == pytest.approx(-1.0 / 3.0)
    assert _interface("p", VACUUM, dense, 1e15, 0.0) == pytest.approx(+1.0 / 3.0)


def test_fresnel_no_contrast_and_glancing_limits():
    xi, q = 2e15, 1e7
    same = constant(eps=2.0)
    assert _interface("s", same, same, xi, q) == 0.0
    assert _interface("p", same, same, xi, q) == 0.0
    # q >> xi n/c: kappas equalize, the contrast is carried by eps (p) and
    # mu (s) alone.
    q_big = 1e12
    dense = constant(eps=9.0)
    assert _interface("p", VACUUM, dense, xi, q_big) == pytest.approx(0.8, rel=1e-6)
    assert _interface("s", VACUUM, dense, xi, q_big) == pytest.approx(0.0, abs=1e-6)
    assert _interface("s", VACUUM, constant(mu=2.0), xi, q_big) == pytest.approx(
        1.0 / 3.0, rel=1e-6)
    with pytest.raises(ValueError, match="definite polarization"):
        _interface(None, VACUUM, dense, xi, q_big)


def test_fresnel_antisymmetry():
    # Swapping the ambient medium and the terminator flips the sign.
    xi, q = 3e14, 4e6
    a, b = constant(eps=2.0), constant(eps=3.0, mu=2.0)
    for pol in ("s", "p"):
        fwd = _interface(pol, a, b, xi, q)
        bwd = _interface(pol, b, a, xi, q)
        assert fwd == pytest.approx(-bwd, rel=1e-15)


def test_mirror_wall_and_mirror_plate():
    mode_s = TransverseMode(xi=1e15, q=3e6, pol="s")
    mode_p = TransverseMode(xi=1e15, q=3e6, pol="p")
    assert wall_reflection(Wall.perfect_mirror(), VACUUM, mode_s) == -1.0
    assert wall_reflection(Wall.perfect_mirror(), constant(eps=4.0), mode_p) == 1.0
    r, t = _plate_column(PerfectMirrorPlate(), VACUUM, mode_s)
    assert (r, t) == (-1.0, 0.0)
    r, t = _plate_column(PerfectMirrorPlate(), VACUUM, mode_p)
    assert (r, t) == (1.0, 0.0)


def test_semi_infinite_wall_is_a_single_interface():
    amb = constant(eps=2.0)
    term = constant(eps=5.0, mu=1.5)
    xi, q = 7e14, 2e6
    for pol in ("s", "p"):
        mode = TransverseMode(xi=xi, q=q, pol=pol)
        got = wall_reflection(Wall.semi_infinite(term), amb, mode)
        expected = interface_r(pol, 2.0, 1.0, kappa_of(2.0, 1.0, xi, q),
                               5.0, 1.5, kappa_of(5.0, 1.5, xi, q))
        assert got == pytest.approx(expected, rel=1e-14)


def test_single_layer_wall_hand_fold():
    # Vacuum | eps 2.25 slab | eps 9 half-space, folded by hand.
    d = 5e-8
    xi, q = 1e15, 1e7
    wall = Wall.stack([Layer(constant(eps=2.25), d)], constant(eps=9.0))
    k1 = kappa_of(1.0, 1.0, xi, q)
    k2 = kappa_of(2.25, 1.0, xi, q)
    k3 = kappa_of(9.0, 1.0, xi, q)
    for pol in ("s", "p"):
        r12 = interface_r(pol, 1.0, 1.0, k1, 2.25, 1.0, k2)
        r23 = interface_r(pol, 2.25, 1.0, k2, 9.0, 1.0, k3)
        phase = np.exp(-2.0 * k2 * d)
        by_hand = (r12 + phase * r23) / (1.0 + r12 * phase * r23)
        mode = TransverseMode(xi=xi, q=q, pol=pol)
        got = wall_reflection(wall, VACUUM, mode)
        assert got == pytest.approx(by_hand, rel=1e-14)
        matrix = stack_reflection((1.0, 1.0), [(2.25, 1.0, d)],
                                  ("medium", 9.0, 1.0), xi, q, pol)
        assert got == pytest.approx(matrix, rel=1e-13)


def _imag_pair(model, xi):
    return eps_imag_axis(model, xi), _response(model, xi)[1]


def _random_material(rng):
    u = rng.random()
    if u < 0.55:
        mu = 1.0 if rng.random() < 0.6 else rng.uniform(1.0, 3.0)
        return constant(eps=rng.uniform(1.0, 12.0), mu=mu)
    if u < 0.75:
        return plasma(10.0 ** rng.uniform(14.0, 16.3))
    resonance = 0.0 if rng.random() < 0.4 else 10.0 ** rng.uniform(14.0, 16.0)
    return drude_lorentz(10.0 ** rng.uniform(14.0, 16.3), resonance,
                         10.0 ** rng.uniform(12.0, 15.0))


def test_layered_walls_match_transfer_matrix():
    rng = np.random.default_rng(7)
    for _ in range(300):
        xi = 10.0 ** rng.uniform(12.0, 16.3)
        q = 10.0 ** rng.uniform(2.0, 8.7)
        ambient = constant(eps=rng.uniform(1.0, 4.0),
                           mu=1.0 if rng.random() < 0.7 else rng.uniform(1.0, 2.0))
        n_layers = rng.integers(0, 4)
        layers = [Layer(_random_material(rng), 10.0 ** rng.uniform(-9.0, -7.0))
                  for _ in range(n_layers)]
        if rng.random() < 0.4:
            wall = Wall.stack(layers, MIRROR)
            term = ("mirror",)
        else:
            term_mat = _random_material(rng)
            wall = Wall.stack(layers, term_mat)
            term = ("medium", *_imag_pair(term_mat, xi))
        pol = "s" if rng.random() < 0.5 else "p"
        got = wall_reflection(wall, ambient, TransverseMode(xi=xi, q=q, pol=pol))
        want = stack_reflection(
            _imag_pair(ambient, xi),
            [(*_imag_pair(ly.material, xi), ly.thickness) for ly in layers],
            term, xi, q, pol,
        )
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)
        assert abs(got) <= 1.0 + 1e-12


@pytest.mark.parametrize("terminator",
                         [MIRROR, drude_lorentz(1.37e16, 0.0, 5.3e13)],
                         ids=["mirror", "gold"])
def test_splitting_a_slab_leaves_the_wall_unchanged(terminator):
    # The cut adds an interface without contrast (r = 0 exactly) and splits
    # one round-trip phase into two factors, so only rounding may change:
    # at most 2 eps here, checked against 4 eps.
    coat = constant(eps=3.0)
    film = drude_lorentz(1.5e16, 1.2e16, 2e14, mu_model=(3e15, 5e15, 1e13))
    whole = Wall.stack([Layer(coat, 3e-8), Layer(film, 6e-8)], terminator)
    splits = [
        Wall.stack([Layer(coat, 1e-8), Layer(coat, 2e-8), Layer(film, 6e-8)],
                   terminator),
        Wall.stack([Layer(coat, 3e-8), Layer(film, 2.5e-8),
                    Layer(film, 3.5e-8)], terminator),
    ]
    ambient = constant(eps=2.0)
    q = np.geomspace(1e3, 1e9, 61)
    tol = 4 * np.finfo(float).eps
    for xi in np.geomspace(1e13, 3e16, 31):
        for pol in ("s", "p"):
            mode = TransverseMode(xi=float(xi), q=q, pol=pol)
            r = wall_reflection(whole, ambient, mode)
            for split in splits:
                got = wall_reflection(split, ambient, mode)
                np.testing.assert_allclose(got, r, rtol=0.0, atol=tol)


def test_single_plate_matches_transfer_matrix():
    rng = np.random.default_rng(11)
    for _ in range(200):
        xi = 10.0 ** rng.uniform(12.0, 16.3)
        q = 10.0 ** rng.uniform(2.0, 8.7)
        ambient = constant(eps=rng.uniform(1.0, 4.0))
        mat = _random_material(rng)
        d = 10.0 ** rng.uniform(-9.0, -7.0)
        pol = "s" if rng.random() < 0.5 else "p"
        mode = TransverseMode(xi=xi, q=q, pol=pol)
        r, t = _plate_column(Layer(mat, d), ambient, mode)
        r_ref, t_ref = slab_rt(_imag_pair(ambient, xi), _imag_pair(mat, xi),
                               d, xi, q, pol)
        assert r == pytest.approx(r_ref, rel=1e-12, abs=1e-13)
        assert t == pytest.approx(t_ref, rel=1e-12, abs=1e-13)
        assert r * r + t * t <= 1.0 + 1e-12


def test_plate_of_the_ambient_medium_is_transparent():
    amb = constant(eps=2.5)
    d = 3e-7
    xi, q = 8e14, 5e6
    kappa = kappa_of(2.5, 1.0, xi, q)
    for pol in ("s", "p"):
        r, t = _plate_column(Layer(amb, d), amb, TransverseMode(xi=xi, q=q, pol=pol))
        assert r == 0.0
        assert t == pytest.approx(np.exp(-kappa * d), rel=1e-15)


def test_thick_plate_becomes_its_front_interface():
    amb = VACUUM
    mat = constant(eps=6.0)
    xi, q = 1e15, 1e7
    mode = TransverseMode(xi=xi, q=q, pol="p")
    r_thick, t_thick = _plate_column(Layer(mat, 1e-5), amb, mode)
    r_iface = interface_r("p", 1.0, 1.0, kappa_of(1.0, 1.0, xi, q),
                          6.0, 1.0, kappa_of(6.0, 1.0, xi, q))
    assert r_thick == pytest.approx(r_iface, rel=1e-12)
    assert abs(t_thick) < 1e-30


def test_buried_structure_fades_at_high_momentum():
    # Whatever lies behind a slab is screened by its round-trip decay:
    # |r_wall - r_front_interface| <= 2 e^{-2 kappa_2 d_2}.
    d2 = 4e-8
    wall = Wall.stack([Layer(constant(eps=3.0), d2)], constant(eps=50.0))
    xi = 1e15
    for q in np.geomspace(3e7, 1e9, 12):
        k1 = kappa_of(1.0, 1.0, xi, q)
        k2 = kappa_of(3.0, 1.0, xi, q)
        envelope = 2.0 * np.exp(-2.0 * k2 * d2)
        if envelope > 1.0:
            continue
        for pol in ("s", "p"):
            r_wall = wall_reflection(wall, VACUUM, TransverseMode(xi=xi, q=q, pol=pol))
            r_front = interface_r(pol, 1.0, 1.0, k1, 3.0, 1.0, k2)
            assert abs(r_wall - r_front) <= envelope


def _denominator_parts(cavity, xi, q, pol):
    view1, view3 = cavity_interspaces(cavity)
    eps = eps_imag_axis(cavity.medium, xi)
    mu = _response(cavity.medium, xi)[1]
    kappa = kappa_of(eps, mu, xi, q)
    mode = TransverseMode(xi=xi, q=q, pol=pol)
    r, t = _plate_column(cavity.plate, cavity.medium, mode)
    a = wall_reflection(cavity.left_wall, cavity.medium, mode) * np.exp(
        -2.0 * kappa * cavity.d1)
    b = wall_reflection(cavity.right_wall, cavity.medium, mode) * np.exp(
        -2.0 * kappa * cavity.d3)
    d1, d3 = (
        1.0 - wall_reflection(view.right, view.medium, mode)
        * wall_reflection(view.left, view.medium, mode)
        * np.exp(-2.0 * kappa * view.width)
        for view in (view1, view3)
    )
    n = (1.0 - r * a) * (1.0 - r * b) - t * t * a * b
    return n, d1, d3, r, t, a, b


def test_round_trip_denominator_factorization():
    # The two interspace denominators are the single-plate denominator N
    # divided by the opposite-gap bracket: D1 (1 - rB) = N = D3 (1 - rA),
    # hence N^2 = D1 D3 (1 - rA)(1 - rB).
    cavities = [
        CavityConfig(Wall.perfect_mirror(), VACUUM, 4e-7,
                     Layer(constant(eps=5.0), 6e-8), 9e-7, Wall.perfect_mirror()),
        CavityConfig(Wall.semi_infinite(constant(eps=9.0)), constant(eps=2.0),
                     3e-7, Layer(drude_lorentz(1e16, 0.0, 5e13), 5e-8), 5e-7,
                     Wall.semi_infinite(constant(eps=4.0, mu=1.3))),
        CavityConfig(
            Wall.stack([Layer(constant(eps=7.0), 3e-8)], MIRROR),
            constant(eps=1.5, mu=1.2), 2e-7,
            Layer(plasma(9e15), 4e-8), 8e-7,
            Wall.semi_infinite(constant(eps=12.0))),
    ]
    for cavity in cavities:
        for xi in (3e14, 2e15):
            for q in (1e5, 4e6):
                for pol in ("s", "p"):
                    n, d1, d3, r, t, a, b = _denominator_parts(
                        cavity, xi, q, pol)
                    assert d1 * (1.0 - r * b) == pytest.approx(n, rel=1e-10)
                    assert d3 * (1.0 - r * a) == pytest.approx(n, rel=1e-10)
                    assert n * n == pytest.approx(
                        d1 * d3 * (1.0 - r * a) * (1.0 - r * b), rel=1e-10)


def test_vectorized_momentum_matches_scalars():
    wall = Wall.stack([Layer(constant(eps=4.0), 5e-8)], constant(eps=2.0, mu=1.4))
    xi = 6e14
    qs = np.geomspace(1e4, 1e8, 7)
    batch = wall_reflection(wall, VACUUM, TransverseMode(xi=xi, q=qs, pol="p"))
    singles = [wall_reflection(wall, VACUUM, TransverseMode(xi=xi, q=float(q), pol="p"))
               for q in qs]
    np.testing.assert_allclose(batch, singles, rtol=1e-15)
    plate = Layer(constant(eps=3.0), 7e-8)
    rb, tb = _plate_column(plate, VACUUM, TransverseMode(xi=xi, q=qs, pol="s"))
    for i, q in enumerate(qs):
        r1, t1 = _plate_column(plate, VACUUM, TransverseMode(xi=xi, q=float(q), pol="s"))
        assert rb[i] == r1 and tb[i] == t1


def test_polarization_leads_the_internal_layout(replace_the_core):
    # xi is a column of shape (A, 1) against q of shape (A, m); every
    # reflection array is (2, A, m) with rows (s, p), mirrors broadcast to
    # it, and the rows equal the public scalar reflections.
    drude = drude_lorentz(1.37e16, 0.0, 5.3e13)
    lorentz = drude_lorentz(1.5e16, 1.2e16, 2e14)
    magnetic = drude_lorentz(9e15, 1.1e16, 1e14, mu_model=(3e15, 5e15, 1e13))
    slabs = [Layer(drude, 2e-8), Layer(lorentz, 5e-8), Layer(magnetic, 3e-8)]
    ambient = drude_lorentz(1.2e16, 2.0e16, 1e14)
    xi = np.geomspace(1e12, 3e16, 5)[:, None]
    q = np.geomspace(1e4, 3e8, 7) * np.linspace(1.0, 2.0, xi.size)[:, None]
    shape = (2,) + q.shape
    walls = [Wall.stack(slabs, MIRROR), Wall.stack(slabs, drude),
             Wall.semi_infinite(drude), Wall.perfect_mirror()]
    call = layers.Plan(ambient, walls)(xi, q)
    wave, reflections = call.gap, call.walls
    assert wave.weights.shape == (2, xi.size, 1)
    assert wave.kappa.shape == q.shape
    for wall, r in zip(walls, reflections, strict=True):
        assert np.broadcast_shapes(np.shape(r), shape) == shape
        if wall.layers or not wall.is_mirror_terminated:
            assert r.shape == shape
        r = np.broadcast_to(r, shape)
        for (a, b), _ in np.ndenumerate(q):
            for row, pol in enumerate("sp"):
                mode = TransverseMode(xi=float(xi[a, 0]), q=float(q[a, b]),
                                      pol=pol)
                assert r[row, a, b] == pytest.approx(
                    wall_reflection(wall, ambient, mode), rel=1e-15, abs=0.0)
    for plate in (Layer(magnetic, 1e-7), PerfectMirrorPlate()):
        pair = layers.Plan(ambient, (), plate)(xi, q).plate
        if isinstance(plate, Layer):
            assert [x.shape for x in pair] == [shape, shape]
        for x in pair:
            assert np.broadcast_shapes(np.shape(x), shape) == shape
        rows = [np.broadcast_to(x, shape) for x in pair]
        for (a, b), _ in np.ndenumerate(q):
            for row, pol in enumerate("sp"):
                mode = TransverseMode(xi=float(xi[a, 0]), q=float(q[a, b]),
                                      pol=pol)
                want = _plate_column(plate, ambient, mode)
                got = [float(x[row, a, b]) for x in rows]
                assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    # The integrands keep that layout: each one the engine hands to the core
    # returns its columns, then the rows of xi and the nodes of q, in one
    # C-contiguous array. A force's (s, p) are one group (1, 2), or one
    # column where they are one array, and a profile's K heights K columns.
    seen = replace_the_core()
    cavity = CavityConfig(Wall.stack(slabs, drude), ambient, 4e-7,
                          Layer(magnetic, 1e-7), 9e-7,
                          Wall.stack(slabs, MIRROR))
    mirrors = [CavityConfig(Wall.perfect_mirror(), medium, 4e-7,
                            PerfectMirrorPlate(), 9e-7, Wall.perfect_mirror())
               for medium in (ambient, VACUUM)]
    view = cavity_interspaces(cavity)[0]
    engine.plate_force(cavity)
    direct_difference.plate_force(cavity)
    engine.minkowski_plate_force(cavity)
    for mirror in mirrors:  # both mirror folds: (s, p), then one array
        engine.plate_force(mirror)
        engine.minkowski_plate_force(mirror)
    # One array stays one column at T > 0 under a floor too.
    engine.minkowski_plate_force(mirrors[0], 300.0,
                                 QuadratureSpec(abs_floor=1e-9))
    engine.stress_zz(view, 1.3e-7)
    engine.stress_profile(view, 3)
    engine.minkowski_stress_zz(view)
    assert [columns for _, columns in seen] == (
        [(1, 2)] * 4 + [()] * 4 + [(), (3,), ()])
    for integrand, columns in seen:
        y = integrand(xi, q)
        assert y.shape == columns + q.shape
        assert y.flags.c_contiguous


def _alternating_wall(a, b, slabs=20):
    """``slabs`` slabs alternating a, b from the gap side, backed by a."""
    return Wall.stack([Layer((a, b)[i % 2], 3e-8 + 1e-9 * i)
                       for i in range(slabs)], a)


def test_each_material_is_evaluated_once_per_integrand_call(monkeypatch,
                                                           replace_the_core):
    # A 20-slab wall of two alternating materials over a third gap medium:
    # every integrand call evaluates the three materials once each, in one
    # call, and forms each interface once per pair of materials, from the
    # one plan its observable compiled.
    drude = drude_lorentz(1.37e16, 0.0, 5.3e13)
    lorentz = drude_lorentz(1.5e16, 1.2e16, 2e14)
    gap = drude_lorentz(1.2e16, 2.0e16, 1e14)
    wall = _alternating_wall(drude, lorentz)
    view = engine.interspace(wall, gap, 1e-6, Wall.semi_infinite(lorentz))
    cavity = CavityConfig(wall, gap, 4e-7, Layer(lorentz, 1e-7), 9e-7,
                          Wall.semi_infinite(drude))
    seen = replace_the_core()
    engine.stress_zz(view, np.array([2e-7, 5e-7]))
    engine.minkowski_stress_zz(view)
    engine.plate_force(cavity)
    direct_difference.plate_force(cavity)
    engine.minkowski_plate_force(cavity)
    evaluated, interfaces = [], []
    evaluate, fresnel = layers._evaluate, layers._fresnel
    monkeypatch.setattr(layers, "_evaluate", lambda records, *args: (
        evaluated.append(records) or evaluate(records, *args)))
    monkeypatch.setattr(layers, "_fresnel", lambda a, b: (
        interfaces.append(None) or fresnel(a, b)))
    xi = np.geomspace(1e13, 1e16, 3)[:, None]
    q = np.geomspace(1e5, 1e8, 4) * np.ones_like(xi)

    def count(call):
        # The records of every _evaluate call, a (mu, eps) pair a material.
        evaluated.clear()
        interfaces.clear()
        call()
        pairs = [records[i:i + 2] for records in evaluated
                 for i in range(0, len(records), 2)]
        return len(evaluated), sorted(map(repr, pairs)), len(interfaces)

    once = 1, sorted(repr(materials._records(model)[::-1])
                     for model in (drude, lorentz, gap))
    assert len(seen) == 5
    for integrand, _ in seen:
        # gap | drude, drude | lorentz (lorentz | drude is its negation),
        # and gap | lorentz for the other wall or the plate.
        assert count(lambda: integrand(xi, q)) == (*once, 3)
    mode = TransverseMode(1e15, q[0], "p")
    assert count(lambda: wall_reflection(wall, gap, mode)) == (*once, 2)


def test_reversed_interface_is_the_exact_negation():
    # The plan forms a | b once and reads b | a as its negation; forming
    # b | a afresh gives the same bits, as x and y swap in (x - y)/(x + y).
    xi = np.geomspace(1e13, 1e16, 3)[:, None]
    q = np.geomspace(1e5, 1e9, 5) * np.ones_like(xi)
    a = drude_lorentz(1.37e16, 0.0, 5.3e13)
    b = drude_lorentz(9e15, 1.1e16, 1e14, mu_model=(3e15, 5e15, 1e13))
    # From a: the half-space b, then a b slab on a (b | a, then a | b).
    plan = layers.Plan(a, (Wall.semi_infinite(b),
                           Wall.stack([Layer(b, 1e-8)], a)))
    assert plan.faces == [(0, 1, None), (1, 0, 0)]
    forward = plan(xi, q).walls[0]
    wave_b = layers.Plan(b)(xi, q).gap
    direct = layers._fresnel(wave_b, plan(xi, q).gap)
    assert np.all(forward != 0.0)
    assert (-forward).tobytes() == direct.tobytes()
    reverse = layers.Plan(b, (Wall.semi_infinite(a),))(xi, q).walls[0]
    assert reverse.tobytes() == direct.tobytes()


def test_equal_materials_reflect_as_one_shared_object():
    # Distinct but equal-valued model objects are one material of the plan,
    # and the wall reflects exactly as when one object fills every slab.
    def drude():
        return drude_lorentz(1.37e16, 0.0, 5.3e13)

    def lorentz():
        return drude_lorentz(1.5e16, 1.2e16, 2e14)

    shared = _alternating_wall(drude(), lorentz(), slabs=6)
    distinct = Wall.stack([Layer((drude, lorentz)[i % 2](), ly.thickness)
                           for i, ly in enumerate(shared.layers)], drude())
    assert shared == distinct
    assert distinct.layers[0].material is not distinct.layers[2].material
    assert len(layers.Plan(VACUUM, (distinct,)).models) == 3
    q = np.geomspace(1e5, 1e9, 9)
    for pol in ("s", "p"):
        mode = TransverseMode(xi=3e14, q=q, pol=pol)
        assert np.array_equal(wall_reflection(shared, VACUUM, mode),
                              wall_reflection(distinct, VACUUM, mode))


def test_geometry_validation():
    with pytest.raises(ValueError):
        Layer(VACUUM, 0.0)
    with pytest.raises(ValueError):
        Layer(VACUUM, -1e-9)
    with pytest.raises(ValueError, match="finite response"):
        Layer(MIRROR, 1e-8)
    with pytest.raises(ValueError):
        TransverseMode(xi=-1.0, q=1e5, pol="s")
    with pytest.raises(ValueError):
        TransverseMode(xi=1e15, q=-1e5, pol="s")
    with pytest.raises(ValueError):
        TransverseMode(xi=1e15, q=1e5, pol="both")
    # At xi = 0 a zero q has kappa = 0 in every medium: no direction.
    with pytest.raises(ValueError, match="degenerate"):
        TransverseMode(xi=0.0, q=np.array([0.0, 1e6]), pol="s")
    assert TransverseMode(xi=0.0, q=1e6, pol="p").q == 1e6
    # Every consumer takes one polarization, so the mode refuses None itself.
    with pytest.raises(ValueError, match="polarization"):
        TransverseMode(xi=1e15, q=1e5, pol=None)
    with pytest.raises(ValueError, match="medium"):
        CavityConfig(Wall.perfect_mirror(), MIRROR, 1e-6,
                     PerfectMirrorPlate(), 1e-6, Wall.perfect_mirror())
    with pytest.raises(ValueError, match="positive"):
        CavityConfig(Wall.perfect_mirror(), VACUUM, 0.0,
                     PerfectMirrorPlate(), 1e-6, Wall.perfect_mirror())
    with pytest.raises(ValueError, match="plate"):
        CavityConfig(Wall.perfect_mirror(), VACUUM, 1e-6,
                     "plate", 1e-6, Wall.perfect_mirror())


def test_drude_detection_walks_the_whole_structure():
    metal = drude_lorentz(1.4e16, 0.0, 4e13)
    mirrors = (Wall.perfect_mirror(),) * 2
    calm = layers.Plan(VACUUM, mirrors, Layer(constant(eps=4.0), 1e-7))
    assert not calm.has_drude_like
    plated = layers.Plan(VACUUM, mirrors, Layer(metal, 1e-7))
    assert plated.has_drude_like
    walled = layers.Plan(VACUUM, (Wall.stack([Layer(metal, 1e-8)], MIRROR),
                                  Wall.perfect_mirror()), PerfectMirrorPlate())
    assert walled.has_drude_like
    assert Wall.perfect_mirror().is_mirror_terminated
    assert not Wall.semi_infinite(constant(eps=2.0)).is_mirror_terminated


# Constant, Lorentz, Drude (in eps, or in mu alone) and plasma materials.
_FLAG_MEDIA = [constant(eps=3.0), constant(eps=2.0, mu=5.0),
               drude_lorentz(1e16, 2e15, 1e13), drude_lorentz(1.4e16, 0.0, 4e13),
               drude_lorentz(1e15, 3e15, 1e13, mu_model=(1e14, 0.0, 1e12)),
               plasma(2e16)]
_FLAG_WALLS = st.builds(
    Wall, st.lists(st.builds(Layer, st.sampled_from(_FLAG_MEDIA),
                             st.just(1e-8)), max_size=3).map(tuple),
    st.sampled_from(_FLAG_MEDIA + [MIRROR]))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(medium=st.sampled_from(_FLAG_MEDIA), left=_FLAG_WALLS,
       right=_FLAG_WALLS, plate=st.one_of(
           st.just(PerfectMirrorPlate()),
           st.builds(Layer, st.sampled_from(_FLAG_MEDIA), st.just(1e-7))))
def test_plan_flags_a_drude_like_material_anywhere(medium, left, right, plate):
    # The flag of every m = 0 check: some material of the structure, in any
    # region, diverges at xi -> 0. The plan keeps each distinct one once.
    slabs = left.layers + right.layers + (
        (plate,) if isinstance(plate, Layer) else ())
    models = [medium, left.terminator, right.terminator,
              *(slab.material for slab in slabs)]
    assert layers.Plan(medium, (left, right), plate).has_drude_like == any(
        map(materials.is_drude_like, models))


@pytest.mark.parametrize("build", [
    pytest.param(lambda nan: Layer(VACUUM, nan), id="layer"),
    pytest.param(lambda nan: CavityConfig(Wall(), VACUUM, nan,
                                          PerfectMirrorPlate(), 1e-6, Wall()),
                 id="cavity-d1"),
    pytest.param(lambda nan: CavityConfig(Wall(), VACUUM, 1e-6,
                                          PerfectMirrorPlate(), nan, Wall()),
                 id="cavity-d3"),
    pytest.param(lambda nan: TransverseMode(nan, 1e6, "s"), id="mode-xi"),
    pytest.param(lambda nan: TransverseMode(1e14, np.array([1e6, nan]), "p"),
                 id="mode-q"),
])
def test_nan_geometry_is_refused(build):
    with pytest.raises(ValueError):
        build(np.nan)
