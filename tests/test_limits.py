import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import c, hbar

from planarcasimir.engine import minkowski_plate_force, plate_force
from planarcasimir.layers import CavityConfig, Layer, PerfectMirrorPlate, Wall
from planarcasimir.limits import (
    StaticMedium,
    casimir_generalized,
    force_ratio,
    minkowski_generalized,
)
from planarcasimir.materials import constant
from planarcasimir.quadrature import QuadratureSpec

SPEC = QuadratureSpec(rel_tol=1e-8)
COEF = hbar * c * math.pi ** 2 / 240.0


def test_static_medium_validation():
    with pytest.raises(ValueError):
        StaticMedium(eps=0.9)
    with pytest.raises(ValueError):
        StaticMedium(eps=2.0, mu=0.0)
    # As constant(mu=inf) is; eps = inf alone is the screened limit.
    for eps in (1.0, math.inf):
        with pytest.raises(ValueError, match="static mu must be finite"):
            StaticMedium(eps=eps, mu=math.inf)
    assert StaticMedium(eps=4.0, mu=2.25).n == 3.0


def test_vacuum_single_wall_value():
    d = 1e-6
    f = casimir_generalized(StaticMedium(1.0), d)
    assert f == pytest.approx(-COEF / d ** 4, rel=1e-15)
    # Absolute scale at one micron, in N/m^2.
    assert f == pytest.approx(-1.3001e-3, rel=1e-3)
    assert f < 0.0  # pulled toward the near wall


def test_closed_form_coefficients():
    d = 1e-6
    # eps = 2: sqrt(1/2) * (2/3 + 1/6) = sqrt(1/2) * 5/6.
    f = casimir_generalized(StaticMedium(2.0), d)
    assert -f * d ** 4 / COEF == pytest.approx(0.589255650988790, rel=1e-12)
    # eps = 1, mu = 2: sqrt(2) * 5/6.
    f = casimir_generalized(StaticMedium(1.0, mu=2.0), d)
    assert -f * d ** 4 / COEF == pytest.approx(1.1785113019775793, rel=1e-12)


def test_two_gap_difference_and_default_infinity():
    med = StaticMedium(3.0)
    d1, d3 = 4e-7, 2e-6
    f = casimir_generalized(med, d1, d3)
    assert f == pytest.approx(
        casimir_generalized(med, d1) - casimir_generalized(med, d3), rel=1e-12)
    assert casimir_generalized(med, d1, math.inf) == casimir_generalized(med, d1)
    assert casimir_generalized(med, 1e-6, 1e-6) == 0.0
    # d3 < d1 flips the sign: the plate is pushed toward +z.
    assert casimir_generalized(med, 2e-6, 4e-7) > 0.0


def test_minkowski_screening():
    d = 1e-6
    for eps in (1.0, 2.0, 4.0, 9.0):
        f = minkowski_generalized(eps, d)
        assert -f * d ** 4 / COEF == pytest.approx(eps ** -0.5, rel=1e-12)


def test_force_ratio_values_and_monotonicity():
    assert force_ratio(1.0) == pytest.approx(1.0, rel=1e-15)
    assert force_ratio(2.0) == pytest.approx(1.2, rel=1e-12)
    assert force_ratio(4.0) == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert force_ratio(10.0) == pytest.approx(10.0 / 7.0, rel=1e-12)
    grid = np.geomspace(1.0, 1e9, 200)
    vals = np.array([force_ratio(float(e)) for e in grid])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals >= 1.0)
    assert np.all(vals < 1.5)
    assert force_ratio(1e12) == pytest.approx(1.5, rel=1e-9)


def test_closed_forms_are_mutually_consistent():
    d1, d3 = 5e-7, 3e-6
    for eps in (1.0, 1.7, 2.0, 4.0, 10.0, 25.0):
        ratio = minkowski_generalized(eps, d1, d3) / casimir_generalized(
            StaticMedium(eps), d1, d3)
        assert ratio == pytest.approx(force_ratio(eps), rel=1e-12)


def test_validation_errors():
    with pytest.raises(ValueError):
        casimir_generalized(StaticMedium(2.0), 0.0)
    with pytest.raises(ValueError):
        casimir_generalized(StaticMedium(2.0), 1e-6, -1.0)
    with pytest.raises(ValueError):
        minkowski_generalized(0.5, 1e-6)
    with pytest.raises(ValueError):
        minkowski_generalized(2.0, -1e-6)
    with pytest.raises(ValueError):
        force_ratio(0.99)


D1, D3 = 6e-7, 2.4e-6


def _mirror_cavity(plate, eps=1.0, mu=1.0, d3=D3):
    return CavityConfig(Wall.perfect_mirror(), constant(eps=eps, mu=mu), D1,
                        plate, d3, Wall.perfect_mirror())


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(eps=st.floats(1.0, 50.0),
       mu=st.one_of(st.just(1.0), st.floats(0.5, 10.0)),
       ratio=st.floats(1.5, 20.0))
@example(1.0, 1.0, D3 / D1)
@example(2.0, 1.0, D3 / D1)
@example(4.0, 1.0, D3 / D1)
@example(1.0, 2.0, D3 / D1)
@example(3.0, 1.5, D3 / D1)
def test_constant_reflection_quadrature_matches_closed_form(eps, mu, ratio):
    # Mirror walls, mirror plate, static (eps, mu) filling: every reflection
    # is constant, and the engine's quadrature must land on the closed form
    # within its own error estimate (plus the closed form's rounding).
    d3 = ratio * D1
    cavity = _mirror_cavity(PerfectMirrorPlate(), eps, mu, d3)
    pairs = [(plate_force(cavity, spec=SPEC),
              casimir_generalized(StaticMedium(eps, mu), D1, d3))]
    if mu == 1.0:
        pairs.append((minkowski_plate_force(cavity, spec=SPEC),
                      minkowski_generalized(eps, D1, d3)))
    for res, closed in pairs:
        assert res.converged
        assert abs(res.force_per_area - closed) <= (
            res.error_estimate + 1e-15 * abs(closed))


def test_full_engine_agrees_with_closed_form_when_filled():
    # The eps = 2 filling at a second pair of gaps.
    eps = 2.0
    d1, d3 = 5e-7, 1.5e-6
    cavity = CavityConfig(Wall.perfect_mirror(), constant(eps=eps), d1,
                          PerfectMirrorPlate(), d3, Wall.perfect_mirror())
    res = plate_force(cavity, spec=SPEC)
    assert res.converged
    assert res.force_per_area == pytest.approx(
        casimir_generalized(StaticMedium(eps), d1, d3), rel=1e-7)


def test_partially_reflecting_plate_weakens_the_force():
    weak = plate_force(_mirror_cavity(Layer(constant(eps=4.0), 1e-7)),
                       spec=SPEC)
    full = plate_force(_mirror_cavity(PerfectMirrorPlate()), spec=SPEC)
    assert weak.converged
    assert 0.0 < abs(weak.force_per_area) < abs(full.force_per_area)


@pytest.mark.parametrize("call", [
    pytest.param(lambda nan: StaticMedium(eps=nan), id="medium-eps"),
    pytest.param(lambda nan: StaticMedium(eps=2.0, mu=nan), id="medium-mu"),
    pytest.param(lambda nan: casimir_generalized(StaticMedium(2.0), nan),
                 id="casimir-d1"),
    pytest.param(lambda nan: casimir_generalized(StaticMedium(2.0), 1e-6,
                                                 nan), id="casimir-d3"),
    pytest.param(lambda nan: minkowski_generalized(nan, 1e-6),
                 id="minkowski-eps"),
    pytest.param(lambda nan: minkowski_generalized(2.0, nan),
                 id="minkowski-d1"),
    pytest.param(lambda nan: force_ratio(nan), id="ratio-eps"),
])
def test_nan_inputs_are_refused(call):
    with pytest.raises(ValueError):
        call(math.nan)


def test_infinite_permittivity_is_the_closed_form_limit():
    # eps -> inf screens both forces to zero; their ratio tends to 3/2.
    assert casimir_generalized(StaticMedium(math.inf), 1e-6) == 0.0
    assert minkowski_generalized(math.inf, 1e-6) == 0.0
    assert force_ratio(math.inf) == 1.5
