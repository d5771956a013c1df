"""Casimir stress and plate force in planar interspaces.

Everything is evaluated on the positive imaginary frequency axis
(omega = i*xi), where the normal wavenumber is beta = i*kappa with
kappa = sqrt(q^2 + xi^2 n^2/c^2) and every quantity below is real.

The zz component of the field-only (Lorentz-force) stress tensor inside an
interspace of width d, at height z from its left face, is

    T_zz(z) = (hbar / 8 pi^2) Int_0^inf dxi Int_0^inf dq
              q * (-mu/kappa) * g(z, xi, q)

with the mode function g summing, per polarization sigma with
Delta_s = -1, Delta_p = +1 and round-trip denominator
D = 1 - r_+ r_- e^{-2 kappa d}:

    g_sigma = 2 [ -kappa^2 (1 + 1/n^2) + Delta_sigma q^2 (1 - 1/n^2) ]
              * r_+ r_- e^{-2 kappa d} / D
            + Delta_sigma * (beta^2 + q^2)(1 - 1/n^2)
              * [ r_- e^{-2 kappa z} + r_+ e^{-2 kappa (d - z)} ] / D

where (beta^2 + q^2)(1 - 1/n^2) = -(xi^2/c^2)(n^2 - 1). In empty interspaces
the z-dependent terms vanish identically and g collapses to the familiar
Fabry-Perot form. The Minkowski-tensor counterpart (defined for nonmagnetic
interspaces only) is z-independent:

    T_zz^M = (hbar / 2 pi^2) Int dxi Int dq
             q * kappa * sum_sigma r_+ r_- e^{-2 kappa d} / D_sigma .

Sign conventions: for an attractive configuration (e.g. vacuum between
mirrors) the in-gap T_zz is positive. The net force per area on the central
plate of a cavity is F = T_zz(gap 3) - T_zz(gap 1) evaluated at the plate
faces; F > 0 pushes the plate toward +z (toward gap 3's far wall).

At temperature T > 0 the xi integral becomes the standard weighted sum over
bosonic frequencies xi_m = 2 pi m k_B T/hbar; media whose response diverges
at xi -> 0 require an explicit zero-term policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import c, hbar
from .layers import (
    DELTA,
    POLARIZATIONS,
    CavityConfig,
    Layer,
    PerfectMirrorPlate,
    Wall,
    _column,
    _has_drude_like,
    _plate_rt,
    _wall_refl,
    _wave,
)
from .materials import DispersionModel, MaterialKind, is_nonmagnetic
from .quadrature import IntegralResult, QuadratureSpec, double_semi_infinite

DEFAULT_SPEC = QuadratureSpec()
# The treatments of the m = 0 thermal term, read by ``_zero_term`` alone.
ZERO_TERM_POLICIES = ("half-weight", "drop", "custom-value")

_STRESS_PREFACTOR = hbar / (8.0 * np.pi**2)
_MINKOWSKI_PREFACTOR = hbar / (2.0 * np.pi**2)


@dataclass(frozen=True)
class InterspaceView:
    """An interspace: ``medium`` of ``width`` between ``left`` and ``right``.

    The stress integrands see the walls only through their reflections from
    the medium, evaluated once per integrand call for both walls.
    """

    medium: DispersionModel
    width: float
    left: Wall
    right: Wall

    @property
    def has_drude_like(self) -> bool:
        return _has_drude_like(self.medium, self.left, self.right)


@dataclass(frozen=True)
class StressProfile:
    """Stress sampled on an interior grid of one interspace."""

    z: np.ndarray
    t_zz: np.ndarray
    error_estimate: np.ndarray
    converged: np.ndarray


@dataclass(frozen=True)
class ForceResult:
    """Net force per area on a cavity's central plate.

    ``per_polarization`` maps "s" and "p" to their contributions; they sum to
    ``force_per_area`` exactly. Positive force pushes the plate toward +z.
    """

    force_per_area: float
    error_estimate: float
    per_polarization: dict[str, float]
    method: str
    converged: bool
    evaluations: int


def interspace(
    left_wall: Wall,
    medium: DispersionModel,
    width: float,
    right_wall: Wall,
) -> InterspaceView:
    """Build the stress-ready view of a wall | medium | wall interspace."""
    if medium.kind is MaterialKind.PERFECT_MIRROR:
        raise ValueError("the interspace medium must have a finite response")
    if not width > 0.0:
        raise ValueError("interspace width must be positive")
    return InterspaceView(medium=medium, width=width, left=left_wall,
                          right=right_wall)


def cavity_interspaces(cavity: CavityConfig) -> tuple[InterspaceView, InterspaceView]:
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
    view1 = interspace(cavity.left_wall, med, cavity.d1, right_of_1)
    view3 = interspace(left_of_3, med, cavity.d3, cavity.right_wall)
    return view1, view3


def _modes(medium: DispersionModel, xi, q):
    """(wave, mu, n^2, kappa) of the gap medium: its one evaluation per call.

    xi is a float, or a column of shape (A, 1) broadcast against q of shape
    (A, m). The wave is what every wall and plate reflection takes; mu and
    n^2 are shaped like xi, kappa like the broadcast (xi, q).
    """
    wave = _wave(medium, xi, q)
    mu, eps = np.moveaxis(wave[0], -1, 0)
    return wave, mu, eps * mu, wave[1][..., 0]


def _axis(*values):
    """Each value with a trailing unit axis, to broadcast against (s, p)."""
    return [np.asarray(v, dtype=float)[..., None] for v in values]


def _mode_coefficients(n_sq, xi, kappa, q):
    """(pair, surf) = (2 [ -kappa^2 (1 + 1/n^2) + Delta q^2 (1 - 1/n^2) ],
    -Delta (xi^2/c^2)(n^2 - 1)), the coefficients of g, columns (s, p)."""
    n_sq, xi, kappa, q = _axis(n_sq, xi, kappa, q)
    inv = 1.0 / n_sq
    return (2.0 * (-(kappa**2) * (1.0 + inv) + DELTA * q**2 * (1.0 - inv)),
            DELTA * (-(xi * xi / c**2) * (n_sq - 1.0)))


def _g_terms(view: InterspaceView, xi, q, modes):
    """(bulk, surf, r_-, r_+, D) of g at ``modes``, columns (s, p):
    g(z) = (bulk + surf [r_- e^{-2 kappa z} + r_+ e^{-2 kappa (d-z)}]) / D."""
    wave, _, n_sq, kappa = modes
    r_plus = _wall_refl(view.right, wave, xi, q)
    r_minus = _wall_refl(view.left, wave, xi, q)
    pair, surf = _mode_coefficients(n_sq, xi, kappa, q)
    roundtrip = np.exp(-2.0 * wave[1] * view.width)
    return (pair * r_plus * r_minus * roundtrip, surf, r_minus, r_plus,
            1.0 - r_plus * r_minus * roundtrip)


def _g(view: InterspaceView, z, xi, q, modes):
    """Mode function g at z, columns (s, p); ``modes`` from ``_modes``."""
    bulk, surf, r_minus, r_plus, denom = _g_terms(view, xi, q, modes)
    kappa = modes[0][1]  # the gap's kappa with a unit (s, p) axis
    return (bulk + surf * (r_minus * np.exp(-2.0 * kappa * z) + r_plus
                           * np.exp(-2.0 * kappa * (view.width - z)))) / denom


def _zero_term(temperature, policy, value, has_drude, per_polarization=False):
    """(endpoint rule, m = 0 contribution) of a zero-term request.

    The one reader of ``zero_term_policy``/``zero_term_value``, run by every
    observable at every T before its first integral. The rule is one that
    ``matsubara_sum`` knows; ``custom-value`` drops m = 0 and, at T > 0
    only, adds a finite number (stresses) or (s, p) array from a dict with
    both keys (forces).
    """
    policy = policy or "half-weight"
    if policy not in ZERO_TERM_POLICIES:
        raise ValueError(f"unknown zero_term_policy {policy!r}, choose one"
                         f" of {', '.join(ZERO_TERM_POLICIES)}")
    if temperature > 0.0 and policy == "half-weight" and has_drude:
        raise ValueError(
            "a material in this structure has a diverging response at xi -> 0,"
            " so the m = 0 thermal term is ambiguous: pass zero_term_policy"
            " 'drop' or 'custom-value' explicitly"
        )
    if policy != "custom-value":
        return policy, None
    try:
        value = np.array([value["s"], value["p"]] if per_polarization
                         else value, dtype=float)
    except (TypeError, KeyError, IndexError, ValueError):
        value = np.array(np.nan)  # not a number, or a key is missing
    if (value.shape != ((2,) if per_polarization else ())
            or not np.isfinite(value).all()):
        raise ValueError(
            "custom-value on a plate force needs a dict {'s': ..., 'p': ...}"
            " of finite m = 0 contributions in N/m^2 (in a config, [run]"
            " zero_term_value_s and zero_term_value_p)" if per_polarization
            else "custom-value on a stress needs zero_term_value, a finite"
            " m = 0 contribution in N/m^2 (in a config, [run] zero_term_value)")
    return "drop", value if temperature > 0.0 else None


def stress_zz(
    view: InterspaceView,
    z: float | np.ndarray,
    temperature: float = 0.0,
    spec: QuadratureSpec | None = None,
    zero_term_policy: str | None = None,
    zero_term_value: float | None = None,
) -> IntegralResult:
    """T_zz at height z, or at each of a 1-D array of heights, in N/m^2.

    Positive values mean the walls are pulled toward the interspace
    (attraction for the usual configurations). Every z must lie strictly
    inside; near an interface the transverse integral develops a 1/z scale
    and, if no ``q_cutoff`` regularizes it, may exhaust the subdivision
    budget, which is reported through ``converged`` rather than raised.

    K heights are the K columns of one double integral, with values and
    errors of shape (K,) (floats for a scalar z). They share one mesh,
    scaled by the least distance from a height to a face, and so one
    ``converged`` flag; the integrand's memory grows in proportion to K.

    ``_zero_term`` checks ``zero_term_policy`` and ``zero_term_value`` (under
    ``custom-value`` a finite m = 0 term in N/m^2) first, at any T.
    """
    spec = spec or DEFAULT_SPEC
    heights = np.asarray(z, dtype=float)
    outside = heights[~((0.0 < heights) & (heights < view.width))]
    if outside.size:
        raise ValueError(
            f"z = {outside[0]} is on or beyond an interface of"
            f" (0, {view.width}); the stress diverges at the surfaces (set"
            " q_cutoff to study the near-surface region at finite resolution)")
    zero_term = _zero_term(temperature, zero_term_policy, zero_term_value,
                           view.has_drude_like)
    spread = (1,) * heights.ndim  # the height axis, if there is one

    def integrand(xi, q):
        modes = _modes(view.medium, xi, q)
        bulk, surf, r_minus, r_plus, denom = _g_terms(view, xi, q, modes)
        # Sum s and p before the heights come in: only the two surface
        # exponentials depend on z, and their kappa is the gap's for both.
        terms = [q * (-modes[1] / modes[3]), modes[3]] + [
            (term / denom).sum(axis=-1)
            for term in (bulk, surf * r_minus, surf * r_plus)]
        weight, kappa, bulk, near, far = (
            term.reshape(term.shape + spread) for term in terms)
        return weight * (bulk + near * np.exp(-2.0 * kappa * heights)
                         + far * np.exp(-2.0 * kappa * (view.width - heights)))

    d_ref = min(heights.min(), view.width - heights.max())
    return double_semi_infinite(integrand, spec, d_ref, _STRESS_PREFACTOR,
                                temperature, *zero_term)


def minkowski_stress_zz(
    view: InterspaceView,
    temperature: float = 0.0,
    spec: QuadratureSpec | None = None,
    zero_term_policy: str | None = None,
    zero_term_value: float | None = None,
) -> IntegralResult:
    """Minkowski-tensor T_zz of the interspace (z-independent), in N/m^2.

    Defined only for nonmagnetic interspace media (mu = 1); for empty
    interspaces it coincides with :func:`stress_zz` identically.
    """
    spec = spec or DEFAULT_SPEC
    if not is_nonmagnetic(view.medium):
        raise ValueError(
            "the Minkowski form used here requires a nonmagnetic interspace"
            f" medium, got mu != 1 for kind {view.medium.kind.value!r}"
        )
    zero_term = _zero_term(temperature, zero_term_policy, zero_term_value,
                           view.has_drude_like)

    def integrand(xi, q):
        wave, _, _, kappa = _modes(view.medium, xi, q)
        rr = (_wall_refl(view.right, wave, xi, q)
              * _wall_refl(view.left, wave, xi, q)
              * np.exp(-2.0 * wave[1] * view.width))
        return q * kappa * (rr / (1.0 - rr)).sum(axis=-1)

    return double_semi_infinite(integrand, spec, view.width,
                                _MINKOWSKI_PREFACTOR, temperature, *zero_term)


def stress_profile(
    view: InterspaceView,
    n_samples: int,
    temperature: float = 0.0,
    spec: QuadratureSpec | None = None,
    zero_term_policy: str | None = None,
    zero_term_value: float | None = None,
) -> StressProfile:
    """stress_zz on an evenly spaced interior grid (endpoints excluded).

    One ``stress_zz`` call, the samples its columns, so the walls and gap
    are evaluated once per node for all of them. Its one flag is repeated in
    ``converged``: a miss anywhere marks every sample. The integrand's
    memory grows in proportion to ``n_samples``.
    """
    if n_samples < 2:
        raise ValueError("a profile needs at least 2 interior samples")
    z_grid = np.linspace(0.0, view.width, n_samples + 2)[1:-1]
    res = stress_zz(view, z_grid, temperature, spec, zero_term_policy,
                    zero_term_value)
    return StressProfile(z_grid, res.value, res.error_estimate,
                         np.full(n_samples, res.converged))


def _plate_terms(cavity: CavityConfig, xi, q):
    """(modes, r, t, A, B, N) of the single-plate form, columns (s, p).

    With the plate's (r, t) and the bare walls' reflections r_1- and r_3+,
    all seen from the gap medium, A = r_1- e^{-2 kappa d1},
    B = r_3+ e^{-2 kappa d3} and N = (1 - r A)(1 - r B) - t^2 A B.
    """
    modes = _modes(cavity.medium, xi, q)
    wave = modes[0]
    r, t = _plate_rt(cavity.plate, wave, xi, q)
    a = _wall_refl(cavity.left_wall, wave, xi, q) * np.exp(
        -2.0 * wave[1] * cavity.d1)
    b = _wall_refl(cavity.right_wall, wave, xi, q) * np.exp(
        -2.0 * wave[1] * cavity.d3)
    return modes, r, t, a, b, (1.0 - r * a) * (1.0 - r * b) - t * t * a * b


def _exact_difference_integrand(cavity: CavityConfig, pol: str | None = None):
    """Single-plate (r, t) form of the stress difference across the plate.

    With A, B and N of ``_plate_terms`` and (pair, surf) of
    ``_mode_coefficients``, the difference of the mode functions at the
    plate faces collapses to

        g_3(0) - g_1(d1) = [ pair r + surf (1 + r^2 - t^2) ] (B - A) / N ,

    which is manifestly exponentially convergent in q (every term carries A
    or B). The integrand returns both polarization columns (s, p); ``pol``
    "s" or "p" selects one, as a float for scalar q.
    """
    def integrand(xi, q):
        (_, mu, n_sq, kappa), r, t, a, b, n_den = _plate_terms(cavity, xi, q)
        pair, surf = _mode_coefficients(n_sq, xi, kappa, q)
        curly = pair * r + surf * (1.0 + r * r - t * t)
        return _axis(q * (-mu / kappa))[0] * curly * (b - a) / n_den

    if pol is None:
        return integrand
    return lambda xi, q: _column(integrand(xi, q), pol, q)


def _direct_difference_integrand(cavity: CavityConfig):
    """g_3(0) - g_1(d1) evaluated literally at the plate faces, columns (s, p)."""
    view1, view3 = cavity_interspaces(cavity)

    def integrand(xi, q):
        modes = _modes(cavity.medium, xi, q)
        _, mu, _, kappa = modes
        g3 = _g(view3, 0.0, xi, q, modes)
        g1 = _g(view1, cavity.d1, xi, q, modes)
        return _axis(q * (-mu / kappa))[0] * (g3 - g1)

    return integrand


# The plate-force routes in --help order, each with its integrand builder.
_INTEGRANDS = {"exact-difference": _exact_difference_integrand,
               "direct-difference": _direct_difference_integrand}
METHODS = tuple(_INTEGRANDS)


def _force_result(res: IntegralResult, method: str) -> ForceResult:
    """ForceResult from a two-column (s, p) integral."""
    per_pol = dict(zip(POLARIZATIONS, map(float, res.value)))
    return ForceResult(
        force_per_area=per_pol["s"] + per_pol["p"],
        error_estimate=float(res.error_estimate.sum()),
        per_polarization=per_pol,
        method=method,
        converged=res.converged,
        evaluations=res.evaluations,
    )


def plate_force(
    cavity: CavityConfig,
    temperature: float = 0.0,
    spec: QuadratureSpec | None = None,
    method: str = "exact-difference",
    zero_term_policy: str | None = None,
    zero_term_value: dict[str, float] | None = None,
) -> ForceResult:
    """Net force per area on the central plate, in N/m^2.

    Parameters
    ----------
    cavity : CavityConfig
    temperature : float
        Kelvin; 0 integrates over xi, > 0 sums over thermal frequencies.
    spec : QuadratureSpec, optional
    method : str
        ``"exact-difference"`` uses the single-plate (r, t) closed form of
        the stress difference (one exponentially convergent integrand);
        ``"direct-difference"`` subtracts the two face evaluations of g.
        Both converge to the same value; the direct route exercises more of
        the machinery and loses some precision to cancellation.
    zero_term_policy, zero_term_value
        Checked by ``_zero_term`` before the first integral; ``custom-value``
        takes a dict {'s': ..., 'p': ...} of finite m = 0 terms in N/m^2.

    Returns
    -------
    ForceResult
        Positive force pushes the plate toward +z. Both polarizations are
        integrated in one adaptive pass.
    """
    spec = spec or DEFAULT_SPEC
    d_min = min(cavity.d1, cavity.d3)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "direct-difference":
        # The face evaluations subtracted here agree to within
        # C * e^{-2 kappa min(d1, d3)} (every term of the analytic difference
        # carries a gap round trip), so beyond kappa*d_min ~ 45 the true
        # contribution is below 1e-39 of the bulk while the float difference
        # is pure rounding noise amplified by the half-line transform. Cap
        # the momentum domain there; a tighter user q_cutoff still wins.
        noise_guard = 45.0 / d_min
        if spec.q_cutoff is None or spec.q_cutoff > noise_guard:
            spec = replace(spec, q_cutoff=noise_guard)
    zero_term = _zero_term(temperature, zero_term_policy, zero_term_value,
                           cavity.has_drude_like, per_polarization=True)
    res = double_semi_infinite(_INTEGRANDS[method](cavity), spec, d_min,
                               _STRESS_PREFACTOR, temperature, *zero_term)
    return _force_result(res, method)


def minkowski_plate_force(
    cavity: CavityConfig,
    temperature: float = 0.0,
    spec: QuadratureSpec | None = None,
    zero_term_policy: str | None = None,
    zero_term_value: dict[str, float] | None = None,
) -> ForceResult:
    """Minkowski-tensor prediction for the plate force, in N/m^2.

    F^M = T^M(gap 3) - T^M(gap 1) with the z-independent Minkowski stress;
    requires a nonmagnetic interspace medium. For idealized mirror walls and
    a static medium this reproduces the eps^{-1/2}-screened closed form.
    With A, B and N of ``_plate_terms``, the composite-wall gap difference
    r r_3/(1 - r r_3) - r r_1/(1 - r r_1) reduces exactly to r (B - A) / N.
    """
    spec = spec or DEFAULT_SPEC
    if not is_nonmagnetic(cavity.medium):
        raise ValueError(
            "the Minkowski force is defined here for nonmagnetic interspace"
            " media only"
        )
    zero_term = _zero_term(temperature, zero_term_policy, zero_term_value,
                           cavity.has_drude_like, per_polarization=True)

    def integrand(xi, q):
        (_, _, _, kappa), r, _, a, b, n_den = _plate_terms(cavity, xi, q)
        kappa, qc = _axis(kappa, q)
        return qc * kappa * r * (b - a) / n_den

    res = double_semi_infinite(integrand, spec, min(cavity.d1, cavity.d3),
                               _MINKOWSKI_PREFACTOR, temperature, *zero_term)
    return _force_result(res, "minkowski")
