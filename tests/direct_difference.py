"""The direct-difference reference for the plate force.

``engine.plate_force`` integrates the closed single-plate (r, t) form of
g_3(0) - g_1(d1). This module subtracts the two face evaluations of g
literally instead, each gap seeing the plate side as a composite wall: a
slower route that shares no algebra with the closed form beyond the mode
coefficients, and so the tests' reference for it. Unlike ``oracles``, it is
built from the package's own pieces: ``engine.interspace`` views, whose
``InterspaceView`` checks its own medium and width; one ``layers.Plan`` of
the gap medium and the four walls of the two views, compiled once per force
and called once per integrand call, so that each material is evaluated once
for both faces; ``engine._g_terms`` on that call; and ``engine._plate_force``,
the entry that ``engine.plate_force`` and ``engine.minkowski_plate_force``
share: it checks the m = 0 request, takes the gap index from the cavity,
runs the rule of the two columns (s, p) given here as one group (1, 2),
judged on s, p and s + p, through the module attribute ``quadrature._double``
(so a test that replaces that attribute sees this integrand too) and builds
the ``ForceResult``.

Its error bar does not cover the rounding of the g_3 - g_1 cancellation.
The quadrature's 32-ulp floor is taken on the sum of |w (g_3 - g_1)|, not on
the two terms the difference cancels. Measured on a Drude (Omega = 4.58e15,
gamma = 1.22e14 rad/s) half-space, a 10 um vacuum gap, a mirror plate, a
100 nm gap, then a plasma slab (Omega = 7e13 rad/s, 132 nm) and an
eps = 1.343 slab (8.4 nm) on vacuum, at ``rel_tol`` 1e-6: the bar is
7.8e-15 N/m^2 against a true error of 3.3e-14 N/m^2, while the closed form
stays inside its own bar.
"""

from dataclasses import replace

import numpy as np

from planarcasimir import engine, layers
from planarcasimir.layers import CavityConfig, Layer, PerfectMirrorPlate, Wall


def cavity_interspaces(cavity: CavityConfig):
    """Views of gaps 1 and 3; each sees the plate side as a composite wall."""
    med = cavity.medium
    if isinstance(cavity.plate, PerfectMirrorPlate):
        right_of_1 = Wall.perfect_mirror()
        left_of_3 = Wall.perfect_mirror()
    else:
        right_of_1 = Wall(
            layers=(cavity.plate, Layer(med, cavity.d3)) + cavity.right_wall.layers,
            terminator=cavity.right_wall.terminator,
        )
        left_of_3 = Wall(
            layers=(cavity.plate, Layer(med, cavity.d1)) + cavity.left_wall.layers,
            terminator=cavity.left_wall.terminator,
        )
    view1 = engine.interspace(cavity.left_wall, med, cavity.d1, right_of_1)
    view3 = engine.interspace(left_of_3, med, cavity.d3, cavity.right_wall)
    return view1, view3


def _plan(*views):
    """The ``layers.Plan`` of the views' common medium and their walls, the
    left and right wall of each view in turn."""
    return layers.Plan(views[0].medium, [wall for view in views
                                         for wall in (view.left, view.right)])


def _g(call, view, z, left=0):
    """Mode function g at z, shape (2, A, m), rows (s, p), of ``view`` in a
    ``layers.Plan``'s ``call``, whose walls are ``left`` and ``left + 1``."""
    r_minus, r_plus = call.walls[left:left + 2]
    bulk, surf, denom = engine._g_terms(call, r_minus, r_plus, view.width)
    kappa = call.gap.kappa
    return (bulk + surf * (r_minus * np.exp(-2.0 * kappa * z) + r_plus
                           * np.exp(-2.0 * kappa * (view.width - z)))) / denom


def mode_function(view, z, xi, q):
    """Mode function g at z, shape (2, A, m), rows (s, p), for xi (A, 1)
    and q (A, m) or (1, m), from a plan of the one view."""
    return _g(_plan(view)(xi, q), view, z)


def direct_difference_integrand(cavity: CavityConfig):
    """g_3(0) - g_1(d1) evaluated literally at the plate faces, columns (s, p)."""
    view1, view3 = cavity_interspaces(cavity)
    plan = _plan(view1, view3)

    def integrand(xi, q):
        call = plan(xi, q)
        (mu, _), kappa, _ = call.gap
        g3 = _g(call, view3, 0.0, left=2)
        g1 = _g(call, view1, cavity.d1)
        return q * (-mu / kappa) * (g3 - g1)

    return integrand


def plate_force(cavity, temperature=0.0, spec=None, zero_term_policy=None,
                zero_term_value=None):
    """The plate force of the direct difference, with ``engine.plate_force``'s
    parameters and result."""
    spec = spec or engine.DEFAULT_SPEC
    d_min = min(cavity.d1, cavity.d3)
    # The face evaluations subtracted here agree to within
    # C * e^{-2 kappa min(d1, d3)} (every term of the analytic difference
    # carries a gap round trip), so beyond kappa*d_min ~ 45 the true
    # contribution is below 1e-39 of the bulk while the float difference
    # is pure rounding noise amplified by the half-line transform. Cap
    # the momentum domain there; a tighter user q_cutoff still wins.
    noise_guard = 45.0 / d_min
    if spec.q_cutoff is None or spec.q_cutoff > noise_guard:
        spec = replace(spec, q_cutoff=noise_guard)
    plan = engine._plan(cavity.medium, (cavity.left_wall, cavity.right_wall),
                        cavity.plate)
    return engine._plate_force(
        cavity, direct_difference_integrand(cavity), (2,), plan,
        engine._STRESS_PREFACTOR, temperature, spec, zero_term_policy,
        zero_term_value)
