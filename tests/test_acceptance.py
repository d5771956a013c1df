"""End-to-end checks of the published behavior, one summary line each.

Every test prints a single PASS/FAIL line (shown with pytest -rP or -s)
carrying the measured numbers, then asserts. Tolerances are part of the
package contract and must not be loosened to make a run green.
"""
import time

import numpy as np
from scipy.constants import c, hbar

from planarcasimir.engine import (
    _difference_rule,
    interspace,
    minkowski_plate_force,
    minkowski_stress_zz,
    plate_force,
    stress_profile,
    stress_zz,
)
from planarcasimir.layers import (
    CavityConfig,
    Layer,
    PerfectMirrorPlate,
    TransverseMode,
    Wall,
    wall_reflection,
)
from planarcasimir.limits import (
    StaticMedium,
    casimir_generalized,
    force_ratio,
    minkowski_generalized,
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
from planarcasimir.quadrature import QuadratureSpec, integrate_semi_infinite

import direct_difference
from oracles import INTEGRAND_SUITE, kappa_of, stack_reflection

COEF = hbar * c * np.pi ** 2 / 240.0
MIRROR_WALL = Wall.perfect_mirror()


def _report(index, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{index:>2}/11] {status}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _mirror_cavity(medium, d1, d3):
    return CavityConfig(
        left_wall=MIRROR_WALL,
        medium=medium,
        d1=d1,
        plate=PerfectMirrorPlate(),
        d3=d3,
        right_wall=MIRROR_WALL,
    )


def _coefficient(force, d1, d3):
    """Dimensionless prefactor of the inverse-quartic force law."""
    return force / (COEF * (1.0 / d3 ** 4 - 1.0 / d1 ** 4))


def test_01_vacuum_mirror_cavity_force():
    d = 1e-6
    start = time.perf_counter()
    res = plate_force(_mirror_cavity(VACUUM, d, 50.0 * d))
    elapsed = time.perf_counter() - start
    expected = -COEF / d ** 4
    dev = abs(res.force_per_area - expected) / abs(expected)
    ok = res.converged and dev <= 2e-3 and elapsed <= 10.0
    _report(1, "vacuum mirror cavity force",
            ok, f"rel dev {dev:.2e} (tol 2e-3), {elapsed:.2f} s (limit 10 s)")


def test_02_filled_gap_force_coefficients():
    d1, d3 = 1e-6, 5e-5
    devs = []
    for eps, mu, expected in ((2.0, 1.0, 0.589255650988790),
                              (1.0, 2.0, 1.1785113019775793)):
        res = plate_force(_mirror_cavity(constant(eps=eps, mu=mu), d1, d3))
        coef = _coefficient(res.force_per_area, d1, d3)
        devs.append(abs(coef - expected) / expected)
    ok = max(devs) <= 5e-3
    _report(2, "filled-gap force coefficients",
            ok, f"eps=2 dev {devs[0]:.2e}, mu=2 dev {devs[1]:.2e} (tol 5e-3)")


def test_03_minkowski_coefficient_and_ratio_curve():
    d1, d3 = 1e-6, 5e-5
    res = minkowski_plate_force(_mirror_cavity(constant(eps=2.0), d1, d3))
    coef_dev = abs(_coefficient(res.force_per_area, d1, d3) - 2.0 ** -0.5) \
        * 2.0 ** 0.5

    ratio_devs = []
    for eps in (1.0, 2.0, 4.0, 10.0):
        cavity = _mirror_cavity(constant(eps=eps), 6e-7, 2.4e-6)
        f = plate_force(cavity).force_per_area
        fm = minkowski_plate_force(cavity).force_per_area
        ratio_devs.append(abs(fm / f - force_ratio(eps)) / force_ratio(eps))
    ok = coef_dev <= 5e-3 and max(ratio_devs) <= 1e-2
    _report(3, "uniform-medium tensor comparison", ok,
            f"eps^-1/2 coefficient dev {coef_dev:.2e} (tol 5e-3),"
            f" worst ratio dev {max(ratio_devs):.2e} (tol 1e-2)")


def test_04_empty_interspace_tensors_agree():
    buried = Wall.stack([Layer(VACUUM, 3e-7)], MIRROR)
    devs = []
    for left in (MIRROR_WALL, buried):
        for d in np.geomspace(2e-7, 5e-6, 5):
            view = interspace(left, VACUUM, float(d), MIRROR_WALL)
            s = stress_zz(view, 0.37 * d)
            m = minkowski_stress_zz(view)
            devs.append(abs(s.value - m.value) / abs(m.value))
    ok = max(devs) <= 1e-6
    _report(4, "empty-interspace tensor equality",
            ok, f"worst rel dev {max(devs):.2e} over 10 (d, wall) points"
                " (tol 1e-6)")


def test_05_filled_asymmetric_stress_varies_with_z():
    view = interspace(Wall.semi_infinite(constant(eps=9.0)),
                      constant(eps=2.0), 6e-7,
                      Wall.semi_infinite(constant(eps=4.0)))
    profile = stress_profile(view, 9)
    swing = float(profile.t_zz.max() - profile.t_zz.min())
    budget = float(profile.error_estimate.sum())
    uniform = minkowski_stress_zz(view)
    ok = bool(profile.converged.all()) and swing > 5.0 * budget
    _report(5, "position-dependent stress in a filled interspace", ok,
            f"max-min {swing:.3e} vs 5x error budget {5.0 * budget:.3e}"
            f" (uniform-medium value {uniform.value:.3e} is z-constant)")


def test_06_exact_and_direct_differences_agree():
    drude = drude_lorentz(plasma_freq=1.4e16, resonance_freq=0.0,
                          damping=5e13)
    cavities = [
        ("vacuum mirrors",
         _mirror_cavity(VACUUM, 8e-7, 2e-6)),
        ("eps=4 filled",
         _mirror_cavity(constant(eps=4.0), 8e-7, 2e-6)),
        ("magnetic filling",
         CavityConfig(left_wall=MIRROR_WALL, medium=constant(eps=2.0, mu=1.5),
                      d1=6e-7, plate=PerfectMirrorPlate(), d3=1.8e-6,
                      right_wall=Wall.semi_infinite(constant(eps=9.0)))),
        ("layered wall, metallic plate",
         CavityConfig(left_wall=Wall.stack([Layer(constant(eps=3.0), 1e-7)],
                                           MIRROR),
                      medium=VACUUM, d1=7e-7, plate=Layer(drude, 2e-7),
                      d3=2.1e-6,
                      right_wall=Wall.semi_infinite(constant(eps=6.0)))),
        ("plasma plate, filled",
         CavityConfig(left_wall=Wall.semi_infinite(constant(eps=7.0)),
                      medium=constant(eps=1.5), d1=5e-7,
                      plate=Layer(plasma(2e16), 1.5e-7), d3=1.5e-6,
                      right_wall=Wall.stack([Layer(constant(eps=3.0), 1e-7)],
                                            constant(eps=7.0)))),
    ]
    worst = 0.0
    ok = True
    for name, cavity in cavities:
        exact = plate_force(cavity)
        direct = direct_difference.plate_force(cavity)
        gap = abs(exact.force_per_area - direct.force_per_area)
        budget = exact.error_estimate + direct.error_estimate
        worst = max(worst, gap / budget)
        ok = ok and gap <= budget and exact.converged and direct.converged

    # The single-integrand route must stay finite out to arbitrarily large
    # transverse momentum, where the two stresses it subtracts both blow up.
    integrand = _difference_rule(cavities[1][1])[0]
    tail = np.array([integrand(np.full((1, 1), 1e14), np.full((1, 1), q))
                     [1, 0, 0] for q in (1e8, 1e9, 1e10, 1e11)])
    ok = ok and bool(np.isfinite(tail).all()) \
        and bool((np.abs(tail[1:]) <= np.abs(tail[:-1])).all())
    _report(6, "exact vs direct stress difference", ok,
            f"worst gap/error {worst:.2e} over 5 cavities (limit 1);"
            f" large-q integrand finite and decaying")


def test_07_screening_never_beats_uniform_prediction():
    closed_ok = True
    for eps in np.linspace(1.0, 25.0, 97):
        f = casimir_generalized(StaticMedium(eps=float(eps)), 1e-6)
        fm = minkowski_generalized(float(eps), 1e-6)
        closed_ok = closed_ok and abs(f) <= abs(fm) * (1.0 + 1e-12)
    quad_margin = np.inf
    for eps in (1.0, 4.0, 25.0):
        cavity = _mirror_cavity(constant(eps=eps), 6e-7, 2.4e-6)
        f = plate_force(cavity).force_per_area
        fm = minkowski_plate_force(cavity).force_per_area
        quad_margin = min(quad_margin, abs(fm) / abs(f))
    ok = closed_ok and quad_margin >= 1.0 - 1e-7
    _report(7, "field force never exceeds uniform-medium force", ok,
            f"closed form holds on eps in [1, 25];"
            f" smallest quadrature |F_M|/|F| = {quad_margin:.8f}")


def test_08_inverse_quartic_power_law():
    ds = np.geomspace(5e-7, 5e-6, 7)
    forces = [plate_force(_mirror_cavity(VACUUM, float(d), 50.0 * float(d)))
              .force_per_area for d in ds]
    slope = np.polyfit(np.log(ds), np.log(-np.asarray(forces)), 1)[0]
    ok = abs(slope + 4.0) <= 5e-3
    _report(8, "force power law in separation",
            ok, f"log-log slope {slope:.6f} (want -4.000 +- 0.005)")


def test_09_thermal_sum_joins_the_cold_integral():
    cavity = _mirror_cavity(VACUUM, 1e-6, 5e-5)
    cold = plate_force(cavity)
    devs = []
    for temperature in (1.0, 30.0, 300.0):
        hot = plate_force(cavity, temperature=temperature,
                          zero_term_policy="half-weight")
        devs.append(abs(hot.force_per_area - cold.force_per_area)
                    / abs(cold.force_per_area))
    ok = devs[0] <= 1e-2 and devs[0] < devs[1] < devs[2]
    _report(9, "thermal sum approaches the cold integral", ok,
            f"rel devs {devs[0]:.2e} / {devs[1]:.2e} / {devs[2]:.2e}"
            " at 1/30/300 K (1 K tol 1e-2, growth monotone)")


def _draw_material(rng):
    kind = rng.random()
    if kind < 0.55:
        mu = 1.0 if rng.random() < 0.6 else rng.uniform(1.0, 3.0)
        return constant(eps=rng.uniform(1.0, 12.0), mu=mu)
    if kind < 0.75:
        return plasma(10.0 ** rng.uniform(14.0, 16.3))
    resonance = 0.0 if rng.random() < 0.4 else 10.0 ** rng.uniform(13.0, 16.0)
    return drude_lorentz(plasma_freq=10.0 ** rng.uniform(14.0, 16.3),
                         resonance_freq=resonance,
                         damping=10.0 ** rng.uniform(12.0, 15.0))


def _pair(model, xi):
    return eps_imag_axis(model, xi), _response(model, xi)[1]


def test_10_layer_recursion_against_transfer_matrices():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(1000):
        xi = 10.0 ** rng.uniform(12.0, 16.3)
        q = 10.0 ** rng.uniform(2.0, 8.7)
        pol = "s" if rng.random() < 0.5 else "p"
        ambient = _draw_material(rng)
        layers = [Layer(_draw_material(rng), 10.0 ** rng.uniform(-9.0, -7.0))
                  for _ in range(rng.integers(0, 4))]
        if rng.random() < 0.5:
            wall = Wall.stack(layers, MIRROR)
            term = ("mirror",)
        else:
            tail = _draw_material(rng)
            wall = Wall.stack(layers, tail)
            term = ("medium", *_pair(tail, xi))
        got = wall_reflection(wall, ambient, TransverseMode(xi=xi, q=q, pol=pol))
        want = stack_reflection(
            _pair(ambient, xi),
            [(*_pair(ly.material, xi), ly.thickness) for ly in layers],
            term, xi, q, pol)
        scale = max(abs(want), 1e-1)
        worst = max(worst, abs(got - want) / scale)

    # Burying a half-space under a slab must become invisible at high q,
    # with the bare-interface difference shrinking inside exp(-2 kappa t).
    thickness = 6e-8
    buried = Wall.stack([Layer(constant(eps=2.25), thickness)],
                        constant(eps=5.0))
    bare = Wall.semi_infinite(constant(eps=2.25))
    xi = 1e13
    envelope_ok = True
    for q in np.geomspace(2e7, 4e8, 8):
        mode = TransverseMode(xi=xi, q=float(q), pol="p")
        diff = abs(wall_reflection(buried, VACUUM, mode)
                   - wall_reflection(bare, VACUUM, mode))
        kappa_slab = kappa_of(2.25, 1.0, xi, float(q))
        envelope_ok = envelope_ok and diff <= 2.0 * np.exp(
            -2.0 * kappa_slab * thickness)
    far = wall_reflection(bare, VACUUM, TransverseMode(xi=xi, q=4e8, pol="p"))
    envelope_ok = envelope_ok and abs(far - 1.25 / 3.25) <= 1e-6
    ok = worst <= 1e-12 and envelope_ok
    _report(10, "layer recursion vs transfer matrices", ok,
            f"worst rel dev {worst:.2e} over 1000 draws (tol 1e-12);"
            " buried-slab difference inside its exponential envelope")


def test_11_quadrature_error_estimates_are_honest():
    spec = QuadratureSpec(rel_tol=1e-10)
    worst = 0.0
    ok = True
    for name, fn, exact in INTEGRAND_SUITE:
        res = integrate_semi_infinite(fn, spec)
        miss = abs(res.value - exact)
        ok = ok and res.converged and miss <= 3.0 * res.error_estimate
        worst = max(worst, miss / (3.0 * res.error_estimate))
    _report(11, "quadrature error estimates are honest", ok,
            f"worst |value-exact| / (3 error) = {worst:.3f} over"
            f" {len(INTEGRAND_SUITE)} integrands (limit 1)")
