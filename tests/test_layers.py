import numpy as np
import pytest
from scipy.constants import c

from planarcasimir import layers
from planarcasimir.engine import cavity_interspaces
from planarcasimir.layers import (
    DELTA,
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
    constant,
    drude_lorentz,
    eps_imag_axis,
    mu_imag_axis,
    plasma,
)

from oracles import interface_r, kappa_of, slab_rt, stack_reflection


def _plate_column(plate, ambient, mode):
    """(r, t) of ``plate`` in ``ambient`` for ``mode``, from ``_plate_rt``."""
    r, t = layers._plate_rt(plate, layers._wave(ambient, mode.xi, mode.q),
                            mode.xi, mode.q)
    return (layers._column(r, mode.pol, mode.q),
            layers._column(t, mode.pol, mode.q))


def test_beta_imag_hand_values():
    # 3-4-5 triangle: q = 4, xi*n/c = 3.
    assert beta_imag(1.0, 3.0 * c, 4.0) == pytest.approx(5.0, rel=1e-15)
    # q^2 + (xi n/c)^2 = 36 + 16 = 52.
    assert beta_imag(1.0, 4.0 * c, 6.0) == pytest.approx(np.sqrt(52.0), rel=1e-15)
    # Pure frequency part with n = 2.
    assert beta_imag(4.0, 0.5 * c, 0.0) == pytest.approx(1.0, rel=1e-15)
    # Pure momentum part.
    assert beta_imag(9.0, 0.0, 7.25) == 7.25
    with pytest.raises(ValueError, match="degenerate"):
        beta_imag(4.0, 0.0, 0.0)
    q = np.array([0.0, 3.0, 4.0])
    np.testing.assert_allclose(beta_imag(1.0, 3.0 * c, q),
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
    return eps_imag_axis(model, xi), mu_imag_axis(model, xi)


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
    mu = mu_imag_axis(cavity.medium, xi)
    kappa = beta_imag(eps * mu, xi, q)
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
    calm = CavityConfig(Wall.perfect_mirror(), VACUUM, 1e-6,
                        Layer(constant(eps=4.0), 1e-7), 1e-6, Wall.perfect_mirror())
    assert not calm.has_drude_like
    plated = CavityConfig(Wall.perfect_mirror(), VACUUM, 1e-6,
                          Layer(metal, 1e-7), 1e-6, Wall.perfect_mirror())
    assert plated.has_drude_like
    walled = CavityConfig(Wall.stack([Layer(metal, 1e-8)], MIRROR), VACUUM, 1e-6,
                          PerfectMirrorPlate(), 1e-6, Wall.perfect_mirror())
    assert walled.has_drude_like
    assert Wall.perfect_mirror().is_mirror_terminated
    assert not Wall.semi_infinite(constant(eps=2.0)).is_mirror_terminated


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
