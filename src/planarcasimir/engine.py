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
Fabry-Perot form. The Minkowski-tensor counterpart is z-independent:

    T_zz^M = (hbar / 2 pi^2) Int dxi Int dq
             q * kappa * sum_sigma r_+ r_- e^{-2 kappa d} / D_sigma ,

which is dE/dd of the Lifshitz free energy E = (hbar / 4 pi^2) Int dxi Int dq
q sum_sigma ln D_sigma for any gap medium, magnetic or not, because the
reflections r_+ and r_- do not depend on d.

Sign conventions: for an attractive configuration (e.g. vacuum between
mirrors) the in-gap T_zz is positive. The net force per area on the central
plate of a cavity is F = T_zz(gap 3) - T_zz(gap 1) evaluated at the plate
faces; F > 0 pushes the plate toward +z (toward gap 3's far wall).

At temperature T > 0 the xi integral becomes the weighted sum over bosonic
frequencies xi_m = 2 pi m k_B T/hbar: its terms, or the first of them plus
the 0 K rule with Gregory's end correction (``quadrature._thermal_sum``;
``quadrature.matsubara_sum`` is its reference). Media whose response
diverges at xi -> 0 require an explicit zero-term policy; ``_zero_term``
turns the policy into the one m = 0 value the quadrature takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import c, hbar
from .layers import DELTA, POLARIZATIONS, CavityConfig, Plan, Wall
from .materials import DispersionModel, MaterialKind
from . import quadrature
from .quadrature import IntegralResult, QuadratureSpec, double_semi_infinite

DEFAULT_SPEC = QuadratureSpec()
# The treatments of the m = 0 thermal term, read by ``_zero_term`` alone.
ZERO_TERM_POLICIES = ("half-weight", "drop", "custom-value")

_STRESS_PREFACTOR = hbar / (8.0 * np.pi**2)
_MINKOWSKI_PREFACTOR = hbar / (2.0 * np.pi**2)
_LEAST_EXPONENT = -707.0  # numpy's vector exp is 15-150x slower below -708


@dataclass(frozen=True)
class InterspaceView:
    """An interspace: ``medium`` of ``width`` between ``left`` and ``right``.

    However it is built, its medium must have a finite response and its
    width be positive. The stress integrands see the walls only through their
    reflections from the medium, from the one ``Plan`` of its structure in
    the process (``_plan``).
    """

    medium: DispersionModel
    width: float
    left: Wall
    right: Wall

    def __post_init__(self) -> None:
        if self.medium.kind is MaterialKind.PERFECT_MIRROR:
            raise ValueError("the interspace medium must have a finite response")
        if not self.width > 0.0:
            raise ValueError("interspace width must be positive")


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
    ``converged`` is the verdict of the rule that produced it, at every T:
    s, p and s + p met ``max(rel_tol*|value|, abs_floor)``, or s + p alone
    where s and p are one array (``_plate_force``).
    """

    force_per_area: float
    error_estimate: float
    per_polarization: dict[str, float]
    converged: bool
    evaluations: int


def interspace(
    left_wall: Wall,
    medium: DispersionModel,
    width: float,
    right_wall: Wall,
) -> InterspaceView:
    """Build the stress-ready view of a wall | medium | wall interspace."""
    return InterspaceView(medium, width, left_wall, right_wall)


def _mode_coefficients(call):
    """(pair, surf) = (2 [ -kappa^2 (1 + 1/n^2) + Delta q^2 (1 - 1/n^2) ],
    -Delta (xi^2/c^2)(n^2 - 1)) of the gap in a ``Plan``'s ``call``, the
    coefficients of g, of shapes (2, A, m) and (2, A, 1), rows (s, p)."""
    _, kappa, n_sq = call.gap
    twice_inv = 2.0 / n_sq
    return ((-2.0 - twice_inv) * (kappa * kappa)
            + DELTA * ((2.0 - twice_inv) * call.q_sq),
            DELTA * ((call.xi_sq / c**2) * (1.0 - n_sq)))


def _decay(kappa, length):
    """e^{-2 kappa length}; for a finite length at least e^_LEAST_EXPONENT."""
    x = kappa * (-2.0 * length)
    np.maximum(x, _LEAST_EXPONENT, out=x, where=length < math.inf)
    return np.exp(x, out=x)


def _g_terms(call, r_minus, r_plus, width):
    """(bulk, surf, D) of g in a ``Plan``'s ``call`` for a gap of ``width``
    between reflections r_- and r_+, rows (s, p): g(z) =
    (bulk + surf [r_- e^{-2 kappa z} + r_+ e^{-2 kappa (d-z)}]) / D."""
    pair, surf = _mode_coefficients(call)
    # r_+ r_- e^{-2 kappa d} once, so that mirror-image walls round alike.
    rr = r_plus * r_minus * _decay(call.gap.kappa, width)
    return pair * rr, surf, 1.0 - rr


# The ``Plan`` of a (medium, walls, plate), compiled once per process: they
# are frozen, so equal ones are one key, and an integrand call only reads it.
_plan = lru_cache(maxsize=16)(Plan)


def _index(medium: DispersionModel) -> float:
    """A lower bound on the medium's n(i xi): eps >= 1 and mu >= mu_static."""
    return np.sqrt(min(1.0, medium.mu_static))


def _zero_term(temperature, policy, value, has_drude, per_polarization=False):
    """The ``zero_term`` of ``double_semi_infinite`` for a policy and value.

    The one reader of ``zero_term_policy``/``zero_term_value``, run by every
    observable at every T before its first integral: None for the default,
    ``half-weight``, 0.0 for ``drop`` and, for ``custom-value``, a finite
    number (stresses) or (s, p) array from a dict with both keys (forces),
    checked even at 0 K, which has no m = 0 term.
    """
    policy = "half-weight" if policy is None else policy
    if policy not in ZERO_TERM_POLICIES:
        raise ValueError(f"unknown zero_term_policy {policy!r}, choose one"
                         f" of {', '.join(ZERO_TERM_POLICIES)}")
    if temperature > 0.0 and policy == "half-weight" and has_drude:
        raise ValueError(
            "a material in this structure has a diverging response at xi -> 0,"
            " so the m = 0 thermal term is ambiguous: pass zero_term_policy"
            " 'drop' or 'custom-value' explicitly")
    if policy != "custom-value":
        return None if policy == "half-weight" else 0.0
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
    return value


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
    and, if no ``q_cutoff`` regularizes it, may miss the tolerance at the
    last level, which is reported through ``converged`` rather than raised.

    K heights are the K columns of one double integral, with values and
    errors of shape (K,) (floats for a scalar z); any other shape of z is
    refused. They share one mesh, scaled by the least distance from a
    height to a face, and so one ``converged`` flag; an integrand call,
    (K, A, m), holds at most ``quadrature._CHUNK`` point-columns or one row.

    ``_zero_term`` checks ``zero_term_policy`` and ``zero_term_value`` (under
    ``custom-value`` a finite m = 0 term in N/m^2) first, at any T.
    """
    spec = spec or DEFAULT_SPEC
    heights = np.asarray(z, dtype=float)
    if heights.ndim > 1 or not heights.size:
        raise ValueError("z must be one height or a non-empty 1-D array of"
                         f" heights, got shape {heights.shape}")
    outside = heights[~((0.0 < heights) & (heights < view.width))]
    if outside.size:
        raise ValueError(
            f"z = {outside[0]} is on or beyond an interface of"
            f" (0, {view.width}); the stress diverges at the surfaces (set"
            " q_cutoff to study the near-surface region at finite resolution)")
    plan = _plan(view.medium, (view.left, view.right))
    zero_term = _zero_term(temperature, zero_term_policy, zero_term_value,
                           plan.has_drude_like)
    h = heights[..., None, None]  # the heights lead, if there are any

    def integrand(xi, q):
        call = plan(xi, q)
        r_minus, r_plus = call.walls
        bulk, surf, denom = _g_terms(call, r_minus, r_plus, view.width)
        (mu, _), kappa, _ = call.gap
        # Sum s and p before the heights come in: only the two surface
        # exponentials depend on z, and their kappa is the gap's for both.
        inv = 1.0 / denom
        bulk, near, far = ((term * inv).sum(axis=0)
                           for term in (bulk, surf * r_minus, surf * r_plus))
        return q * (-mu / kappa) * (
            bulk + near * _decay(kappa, h)
            + far * _decay(kappa, view.width - h))

    d_ref = min(heights.min(), view.width - heights.max())
    return double_semi_infinite(integrand, spec, d_ref, _STRESS_PREFACTOR,
                                temperature, zero_term,
                                index=_index(view.medium),
                                columns=heights.shape)


def minkowski_stress_zz(
    view: InterspaceView,
    temperature: float = 0.0,
    spec: QuadratureSpec | None = None,
    zero_term_policy: str | None = None,
    zero_term_value: float | None = None,
) -> IntegralResult:
    """Minkowski-tensor T_zz of the interspace (z-independent), in N/m^2.

    For empty interspaces it coincides with :func:`stress_zz` identically.
    """
    spec = spec or DEFAULT_SPEC
    if not np.isfinite(view.width):
        raise ValueError("the Minkowski stress needs a finite interspace"
                         f" width, got {view.width}")
    plan = _plan(view.medium, (view.left, view.right))
    zero_term = _zero_term(temperature, zero_term_policy, zero_term_value,
                           plan.has_drude_like)

    def integrand(xi, q):
        call = plan(xi, q)
        kappa, (r_minus, r_plus) = call.gap.kappa, call.walls
        rr = r_plus * r_minus * _decay(kappa, view.width)
        return q * kappa * (rr / (1.0 - rr)).sum(axis=0)

    return double_semi_infinite(integrand, spec, view.width,
                                _MINKOWSKI_PREFACTOR, temperature, zero_term,
                                index=_index(view.medium))


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
    ``converged``: a miss anywhere marks every sample. An integrand call
    holds at most ``quadrature._CHUNK`` point-columns, or one row.
    """
    if n_samples < 2:
        raise ValueError("a profile needs at least 2 interior samples")
    if not np.isfinite(view.width):
        raise ValueError("a profile needs a finite interspace width, got"
                         f" {view.width}")
    z_grid = np.linspace(0.0, view.width, n_samples + 2)[1:-1]
    res = stress_zz(view, z_grid, temperature, spec, zero_term_policy,
                    zero_term_value)
    return StressProfile(z_grid, res.value, res.error_estimate,
                         np.full(n_samples, res.converged))


def _difference_rule(cavity: CavityConfig, minkowski=False):
    """(integrand, columns, plan) of the plate's (r, t) stress difference.

    With the plate's (r, t) and the bare walls' reflections r_1- and r_3+,
    all seen from the gap medium, A = r_1- e^{-2 kappa d1},
    B = r_3+ e^{-2 kappa d3} and N = (1 - r A)(1 - r B) - t^2 A B. With
    (pair, surf) of ``_mode_coefficients`` the difference of the mode
    functions at the plate faces collapses to

        g_3(0) - g_1(d1) = [ pair r + surf (1 + r^2 - t^2) ] (B - A) / N ,

    which is manifestly exponentially convergent in q (every term carries A
    or B). Where the gap's n^2 is a static 1 (``Plan.empty``), pair is
    -4 kappa^2 and surf is 0, so the bracket is -4 kappa^2 r exactly. The
    ``minkowski`` integrand is q kappa r (B - A) / N. Under ``Plan.mirrors``
    r A = e_1 = e^{-2 kappa d1}, r B = e_3 = e^{-2 kappa d3} and N = (1 -
    e_1)(1 - e_3): q kappa (e_3 - e_1) / N and q (-mu/kappa)(pair + 2 Delta
    surf)(e_3 - e_1) / N. Each takes xi (A, 1) and q (1, m) or (A, m) and
    returns ``columns`` + (A, m) from one ``Plan``: (2,), columns (s, p),
    or (), one array for both, the mirror Minkowski and empty-gap ones.
    """
    plan = _plan(cavity.medium, (cavity.left_wall, cavity.right_wall),
                 cavity.plate)
    d1, d3 = cavity.d1, cavity.d3

    def integrand(xi, q):
        call = plan(xi, q)
        (mu, _), kappa, _ = call.gap
        if plan.mirrors:  # r A = e_1, r B = e_3, t = 0; in place, in order
            e1, e3 = _decay(kappa, d1), _decay(kappa, d3)
            fold = e3 - e1
            fold *= q
            fold /= np.multiply(np.subtract(1.0, e1, out=e1),
                                np.subtract(1.0, e3, out=e3), out=e1)
            fold *= kappa if minkowski else np.divide(-mu, kappa)
            if minkowski or plan.empty:  # s and p alike
                if not minkowski:
                    fold *= np.multiply(kappa * kappa, -4.0, out=e3)
                return fold
            pair, surf = _mode_coefficients(call)
            return np.multiply(np.add(pair, 2.0 * DELTA * surf, out=pair),
                               fold, out=pair)
        (r_minus, r_plus), (r, t) = call.walls, call.plate
        a, b = r_minus * _decay(kappa, d1), r_plus * _decay(kappa, d3)
        n_den = (1.0 - r * a) * (1.0 - r * b) - t * t * a * b
        if minkowski:
            return q * kappa * r * (b - a) / n_den
        if plan.empty:  # pair is -4 kappa^2 and surf is 0
            curly = -4.0 * (kappa * kappa) * r
        else:
            pair, surf = _mode_coefficients(call)
            curly = pair * r + surf * (1.0 + r * r - t * t)
        return q * (-mu / kappa) * curly * (b - a) / n_den

    alike = plan.mirrors and (minkowski or plan.empty)
    return integrand, () if alike else (2,), plan


def _plate_force(cavity, integrand, columns, plan, prefactor, temperature,
                 spec, policy, value) -> ForceResult:
    """A cavity's plate force from its ``integrand`` of ``columns`` and its
    ``plan``: a finite gap and the m = 0 request are checked, then one rule
    on the smaller gap and the gap index runs, with the ``zero_term`` of
    ``_zero_term`` as it is. (s, p) is one group (1, 2), judged on s, p and
    s + p, counted once toward ``_CHUNK`` at 0 K under ``Plan.mirrors``. One
    array y for both runs at twice the prefactor, judged on s + p, whose
    goal implies the others, and s = p is half of it. At T > 0 the q rules
    judge each column against the floor, and an (s, p) m = 0 value gives s
    and p their own targets: with either, y runs as the group (y, y)."""
    if not math.isfinite(min(cavity.d1, cavity.d3)):
        raise ValueError("a plate force needs at least one finite gap, got"
                         f" d1 = {cavity.d1} and d3 = {cavity.d3}")
    zero_term = _zero_term(temperature, policy, value, plan.has_drude_like,
                           per_polarization=True)
    spec = spec or DEFAULT_SPEC
    if not columns and temperature > 0.0 and (
            spec.abs_floor or isinstance(zero_term, np.ndarray)):
        f, columns = integrand, (2,)
        integrand = lambda xi, q: np.stack((f(xi, q),) * 2)
    sums, error, evaluations, converged = quadrature._double(
        (lambda xi, q: integrand(xi, q)[None]) if columns else integrand,
        spec, min(cavity.d1, cavity.d3), prefactor * (1.0 if columns else 2.0),
        temperature, zero_term, index=_index(cavity.medium),
        columns=(1, 2) if columns else (),
        once=plan.mirrors and temperature == 0.0)
    s, p = sums if columns else (0.5 * sums[0],) * 2
    return ForceResult(s + p, sum(error), dict(zip(POLARIZATIONS, (s, p))),
                       converged, evaluations)


def plate_force(
    cavity: CavityConfig,
    temperature: float = 0.0,
    spec: QuadratureSpec | None = None,
    zero_term_policy: str | None = None,
    zero_term_value: dict[str, float] | None = None,
) -> ForceResult:
    """Net force per area on the central plate, in N/m^2.

    Parameters
    ----------
    cavity : CavityConfig
        With at least one of d1 and d3 finite.
    temperature : float
        Kelvin; 0 integrates over xi, > 0 sums over thermal frequencies.
    spec : QuadratureSpec, optional
    zero_term_policy, zero_term_value
        Checked by ``_zero_term`` before the first integral; ``custom-value``
        takes a dict {'s': ..., 'p': ...} of finite m = 0 terms in N/m^2.

    Returns
    -------
    ForceResult
        Positive force pushes the plate toward +z. Both polarizations are
        integrated in one pass.
    """
    return _plate_force(cavity, *_difference_rule(cavity),
                        _STRESS_PREFACTOR, temperature, spec, zero_term_policy,
                        zero_term_value)


def minkowski_plate_force(
    cavity: CavityConfig,
    temperature: float = 0.0,
    spec: QuadratureSpec | None = None,
    zero_term_policy: str | None = None,
    zero_term_value: dict[str, float] | None = None,
) -> ForceResult:
    """Minkowski-tensor prediction for the plate force, in N/m^2.

    F^M = T^M(gap 3) - T^M(gap 1) with the z-independent Minkowski stress.
    For idealized mirror walls and a static medium this reproduces the
    (eps mu)^{-1/2}-screened closed form.
    With A, B and N of ``_difference_rule``, the composite-wall
    gap difference r r_3/(1 - r r_3) - r r_1/(1 - r r_1) reduces exactly to
    r (B - A) / N.
    """
    return _plate_force(cavity, *_difference_rule(cavity, True),
                        _MINKOWSKI_PREFACTOR, temperature, spec,
                        zero_term_policy, zero_term_value)
