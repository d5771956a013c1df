"""Closed forms and the constant-reflection approximation for plate forces.

For a cavity with nondispersive interspace medium (static eps, mu) between
nearly ideal reflectors, the net force per area on the central plate has the
closed form

    F = (hbar c pi^2 / 240) sqrt(mu/eps) (2/3 + 1/(3 eps mu))
        (1/d3^4 - 1/d1^4),

while the Minkowski stress tensor predicts the uniformly screened

    F^M = (hbar c pi^2 / 240) eps^{-1/2} (1/d3^4 - 1/d1^4)     (mu = 1).

Their ratio F^M/F = 1/(2/3 + 1/(3 eps)) for mu = 1 grows monotonically from 1
(vacuum) to 3/2 (dense media), so the field-only force is never larger in
magnitude than the Minkowski one; the factor is the measurable discriminator
between the two stress tensors.

The constant-reflection approximation re-derives F for walls and plate whose
reflection coefficients can be frozen to per-polarization constants; it is
exact in the ideal-mirror limit and is the bridge between the full engine
quadrature and the closed forms above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c, hbar

from .layers import DELTA, POLARIZATIONS, beta_imag
from .quadrature import IntegralResult, QuadratureSpec, double_semi_infinite

_CLOSED_FORM_COEF = hbar * c * math.pi**2 / 240.0


@dataclass(frozen=True)
class StaticMedium:
    """Nondispersive interspace medium with static eps and mu."""

    eps: float
    mu: float = 1.0

    def __post_init__(self) -> None:
        if self.eps < 1.0:
            raise ValueError(f"static eps must be >= 1, got {self.eps}")
        if self.mu <= 0.0:
            raise ValueError(f"static mu must be > 0, got {self.mu}")

    @property
    def n(self) -> float:
        return math.sqrt(self.eps * self.mu)


def casimir_generalized(medium: StaticMedium, d1: float, d3: float = math.inf) -> float:
    """Closed-form plate force for ideal mirrors and a static medium (N/m^2).

    ``d3 = inf`` gives the single-wall attraction -coef/d1^4. Positive values
    push the plate toward +z.
    """
    if d1 <= 0.0 or d3 <= 0.0:
        raise ValueError("gap widths must be positive")
    factor = math.sqrt(medium.mu / medium.eps) * (
        2.0 / 3.0 + 1.0 / (3.0 * medium.eps * medium.mu)
    )
    return _CLOSED_FORM_COEF * factor * (d3**-4 - d1**-4)


def minkowski_generalized(eps: float, d1: float, d3: float = math.inf) -> float:
    """Minkowski-tensor closed form: uniform eps^{-1/2} screening (N/m^2)."""
    if eps < 1.0:
        raise ValueError(f"static eps must be >= 1, got {eps}")
    if d1 <= 0.0 or d3 <= 0.0:
        raise ValueError("gap widths must be positive")
    return _CLOSED_FORM_COEF * eps**-0.5 * (d3**-4 - d1**-4)


def force_ratio(eps: float) -> float:
    """F^M / F for mu = 1: 1/(2/3 + 1/(3 eps)), from 1 at eps=1 to 3/2."""
    if eps < 1.0:
        raise ValueError(f"static eps must be >= 1, got {eps}")
    return 1.0 / (2.0 / 3.0 + 1.0 / (3.0 * eps))


def mirror_reflections() -> dict[str, float]:
    """The ideal-mirror per-polarization constants r_s = -1, r_p = +1."""
    return {pol: float(delta) for pol, delta in zip(POLARIZATIONS, DELTA)}


def approx_plate_force(
    medium: StaticMedium,
    r_half: dict[str, float],
    r_left: dict[str, float],
    r_right: dict[str, float],
    d1: float,
    d3: float,
    spec: QuadratureSpec | None = None,
) -> IntegralResult:
    """Plate force with all reflections frozen to per-polarization constants.

    Parameters
    ----------
    medium : StaticMedium
        The common interspace medium.
    r_half : dict
        Single plate-interface reflection constant per polarization ("s",
        "p"). Must be nonzero: the integrand carries the combination
        r + 1/r, which is how the near-mirror expansion keeps both faces of
        the plate in play. Use :func:`mirror_reflections` for ideal mirrors.
    r_left, r_right : dict
        Wall reflection constants seen from gap 1 toward -z and from gap 3
        toward +z.
    d1, d3 : float
        Gap widths (m).
    spec : QuadratureSpec, optional

    Returns
    -------
    IntegralResult
        Force per area (N/m^2), positive toward +z.
    """
    spec = spec or QuadratureSpec()
    rh, r_left, r_right = (np.array([r[pol] for pol in POLARIZATIONS], dtype=float)
                           for r in (r_half, r_left, r_right))
    if np.any(rh == 0.0):
        raise ValueError(
            "r_half must be nonzero per polarization: the constant-"
            "reflection force carries the combination r + 1/r"
        )
    if d1 <= 0.0 or d3 <= 0.0:
        raise ValueError("gap widths must be positive")

    n_sq = medium.eps * medium.mu
    inv = 1.0 / n_sq
    prefactor = hbar / (8.0 * math.pi**2)

    def integrand(xi, q):
        kappa = beta_imag(n_sq, xi, q)
        # kappa, q and xi broadcast against the (s, p) axis
        k, qc, xc = (np.asarray(v)[..., None] for v in (kappa, q, xi))
        e1 = r_left * np.exp(-2.0 * k * d1)
        e3 = r_right * np.exp(-2.0 * k * d3)
        coef = (
            -2.0 * k**2 * (1.0 + inv)
            - DELTA * (xc * xc / c**2) * (n_sq - 1.0) * (rh + 1.0 / rh)
            + 2.0 * DELTA * qc**2 * (1.0 - inv)
        )
        # 1/d3_den - 1/d1_den written difference-free of cancellation
        total = coef * rh * (e3 - e1) / ((1.0 - rh * e3) * (1.0 - rh * e1))
        return q * (-medium.mu / kappa) * total.sum(axis=-1)

    return double_semi_infinite(integrand, spec, min(d1, d3), prefactor)
