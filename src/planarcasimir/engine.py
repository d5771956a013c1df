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
from scipy.constants import c, hbar

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

_STRESS_PREFACTOR = hbar / (8.0 * np.pi**2)
_MINKOWSKI_PREFACTOR = hbar / (2.0 * np.pi**2)


@dataclass(frozen=True)
class InterspaceView:
    """An interspace: ``medium`` of ``width`` between ``left`` and ``right``.

    The stress integrands see the walls only through their reflections from
    the medium, which each integrand call evaluates once for both walls.
    xi is a float, or a column of shape (A, 1) broadcast against q of shape
    (A, m): ``double_semi_infinite`` evaluates the integrands in batches of
    frequency rows, one refinement round of all rows per call, under a
    per-batch inner error floor.
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
    temperature: float
    spec: QuadratureSpec


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
    if width <= 0.0:
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


def _g(view: InterspaceView, z, xi, q, modes):
    """Mode function g at z, columns (s, p); ``modes`` from ``_modes``."""
    wave, _, n_sq, kappa = modes
    r_plus = _wall_refl(view.right, wave, xi, q)
    r_minus = _wall_refl(view.left, wave, xi, q)
    n_sq, xi, kappa, q = _axis(n_sq, xi, kappa, q)
    inv = 1.0 / n_sq
    roundtrip = np.exp(-2.0 * kappa * view.width)
    denom = 1.0 - r_plus * r_minus * roundtrip
    pair = 2.0 * (-(kappa**2) * (1.0 + inv) + DELTA * q**2 * (1.0 - inv))
    surf_coef = -(xi * xi / c**2) * (n_sq - 1.0)
    surface = DELTA * surf_coef * (
        r_minus * np.exp(-2.0 * kappa * z)
        + r_plus * np.exp(-2.0 * kappa * (view.width - z))
    )
    return (pair * r_plus * r_minus * roundtrip + surface) / denom


def _zero_term(temperature, policy, value, has_drude, per_polarization=False):
    """(policy, value) of the m = 0 thermal term, checked before integrating.

    Forces take ``value`` as a dict of per-polarization m = 0 contributions
    and get it back as an (s, p) array.
    """
    policy = policy or "half-weight"
    if temperature > 0.0 and policy == "half-weight" and has_drude:
        raise ValueError(
            "a material in this structure has a diverging response at xi -> 0,"
            " so the m = 0 thermal term is ambiguous: pass zero_term_policy"
            " 'drop' or 'custom-value' explicitly"
        )
    if policy == "custom-value":
        if per_polarization:
            if not isinstance(value, dict):
                raise ValueError(
                    "custom-value on a plate force needs a per-polarization"
                    " dict {'s': ..., 'p': ...} of m = 0 contributions in N/m^2"
                )
            value = np.array([value["s"], value["p"]], dtype=float)
        elif value is None:
            raise ValueError("custom-value policy requires zero_term_value")
    return policy, value


def stress_zz(
    view: InterspaceView,
    z: float,
    temperature: float = 0.0,
    spec: QuadratureSpec | None = None,
    zero_term_policy: str | None = None,
    zero_term_value: float | None = None,
) -> IntegralResult:
    """T_zz at height z inside the interspace, in N/m^2.

    Positive values mean the walls are pulled toward the interspace
    (attraction for the usual configurations). z must lie strictly inside;
    near an interface the transverse integral develops a 1/z scale and, if
    no ``q_cutoff`` regularizes it, may exhaust the subdivision budget, which
    is reported through ``converged`` rather than raised.
    """
    spec = spec or DEFAULT_SPEC
    if not 0.0 < z < view.width:
        raise ValueError(
            f"z = {z} is on or beyond an interface of (0, {view.width}); the"
            " stress diverges at the surfaces (set q_cutoff to study the"
            " near-surface region at finite resolution)"
        )
    zero_term = _zero_term(temperature, zero_term_policy, zero_term_value,
                           view.has_drude_like)

    def integrand(xi, q):
        modes = _modes(view.medium, xi, q)
        _, mu, _, kappa = modes
        return q * (-mu / kappa) * _g(view, z, xi, q, modes).sum(axis=-1)

    d_ref = min(z, view.width - z)
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

    Non-convergence of individual samples is recorded per sample; the run
    continues.
    """
    spec = spec or DEFAULT_SPEC
    if n_samples < 2:
        raise ValueError("a profile needs at least 2 interior samples")
    z_grid = np.linspace(0.0, view.width, n_samples + 2)[1:-1]
    values = np.empty(n_samples)
    errors = np.empty(n_samples)
    flags = np.empty(n_samples, dtype=bool)
    for i, z in enumerate(z_grid):
        res = stress_zz(view, float(z), temperature, spec,
                        zero_term_policy, zero_term_value)
        values[i] = res.value
        errors[i] = res.error_estimate
        flags[i] = res.converged
    return StressProfile(z=z_grid, t_zz=values, error_estimate=errors,
                         converged=flags, temperature=temperature, spec=spec)


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

    With A, B and N of ``_plate_terms``, the difference of the mode
    functions at the plate faces collapses to

        g_3(0) - g_1(d1) = { 2 [ -kappa^2 (1+1/n^2) + Delta q^2 (1-1/n^2) ] r
                             + Delta (beta^2+q^2)(1-1/n^2)(1 + r^2 - t^2) }
                           * (B - A) / N ,

    which is manifestly exponentially convergent in q (every term carries A
    or B). The integrand returns both polarization columns (s, p); ``pol``
    "s" or "p" selects one, as a float for scalar q.
    """
    def integrand(xi, q):
        (_, mu, n_sq, kappa), r, t, a, b, n_den = _plate_terms(cavity, xi, q)
        weight = q * (-mu / kappa)
        n_sq, xi, kappa, qc, weight = _axis(n_sq, xi, kappa, q, weight)
        inv = 1.0 / n_sq
        surf_coef = -(xi * xi / c**2) * (n_sq - 1.0)
        curly = (
            2.0 * (-(kappa**2) * (1.0 + inv) + DELTA * qc**2 * (1.0 - inv)) * r
            + DELTA * surf_coef * (1.0 + r * r - t * t)
        )
        return weight * curly * (b - a) / n_den

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
        Thermal zero-term handling. The custom value, when used here, is a
        per-polarization dict of full m = 0 contributions in N/m^2.

    Returns
    -------
    ForceResult
        Positive force pushes the plate toward +z. Both polarizations are
        integrated in one adaptive pass.
    """
    spec = spec or DEFAULT_SPEC
    d_min = min(cavity.d1, cavity.d3)
    if method == "exact-difference":
        make = _exact_difference_integrand
    elif method == "direct-difference":
        make = _direct_difference_integrand
        # The face evaluations subtracted here agree to within
        # C * e^{-2 kappa min(d1, d3)} (every term of the analytic difference
        # carries a gap round trip), so beyond kappa*d_min ~ 45 the true
        # contribution is below 1e-39 of the bulk while the float difference
        # is pure rounding noise amplified by the half-line transform. Cap
        # the momentum domain there; a tighter user q_cutoff still wins.
        noise_guard = 45.0 / d_min
        if spec.q_cutoff is None or spec.q_cutoff > noise_guard:
            spec = replace(spec, q_cutoff=noise_guard)
    else:
        raise ValueError(f"unknown method {method!r}")
    zero_term = _zero_term(temperature, zero_term_policy, zero_term_value,
                           cavity.has_drude_like, per_polarization=True)
    res = double_semi_infinite(make(cavity), spec, d_min, _STRESS_PREFACTOR,
                               temperature, *zero_term)
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
