"""Closed forms for plate forces between ideal mirrors.

For a cavity with nondispersive interspace medium (static eps, mu) between
nearly ideal reflectors, the net force per area on the central plate has the
closed form

    F = (hbar c pi^2 / 240) sqrt(mu/eps) (2/3 + 1/(3 eps mu))
        (1/d3^4 - 1/d1^4),

while the Minkowski stress tensor predicts the uniformly screened

    F^M = (hbar c pi^2 / 240) (eps mu)^{-1/2} (1/d3^4 - 1/d1^4).

The ratio F^M/F = 1/(2 mu/3 + 1/(3 eps)), the measurable discriminator of the
two tensors, grows at mu = 1 from 1 (vacuum) to 3/2 (dense media); the
field-only force is the larger only where 2 mu/3 + 1/(3 eps) > 1, as at mu = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import c, hbar

_CLOSED_FORM_COEF = hbar * c * math.pi**2 / 240.0


@dataclass(frozen=True)
class StaticMedium:
    """Nondispersive interspace medium with static eps and mu."""

    eps: float
    mu: float = 1.0

    def __post_init__(self) -> None:
        if not self.eps >= 1.0:
            raise ValueError(f"static eps must be >= 1, got {self.eps}")
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"static mu must be finite and > 0, got {self.mu}")

    @property
    def n(self) -> float:
        return math.sqrt(self.eps * self.mu)


def casimir_generalized(medium: StaticMedium, d1: float, d3: float = math.inf) -> float:
    """Closed-form plate force for ideal mirrors and a static medium (N/m^2).

    ``d3 = inf`` gives the single-wall attraction -coef/d1^4. Positive values
    push the plate toward +z.
    """
    if not (d1 > 0.0 and d3 > 0.0):
        raise ValueError("gap widths must be positive")
    factor = math.sqrt(medium.mu / medium.eps) * (
        2.0 / 3.0 + 1.0 / (3.0 * medium.eps * medium.mu)
    )
    return _CLOSED_FORM_COEF * factor * (d3**-4 - d1**-4)


def minkowski_generalized(eps: float, d1: float, d3: float = math.inf,
                          mu: float = 1.0) -> float:
    """Minkowski-tensor closed form: (eps mu)^{-1/2} screening (N/m^2)."""
    StaticMedium(eps, mu)
    if not (d1 > 0.0 and d3 > 0.0):
        raise ValueError("gap widths must be positive")
    return _CLOSED_FORM_COEF * (eps * mu)**-0.5 * (d3**-4 - d1**-4)


def force_ratio(eps: float, mu: float = 1.0) -> float:
    """F^M / F = 1/(2 mu/3 + 1/(3 eps)); at mu = 1 from 1 (eps = 1) to 3/2."""
    StaticMedium(eps, mu)
    return 1.0 / (2.0 * mu / 3.0 + 1.0 / (3.0 * eps))
