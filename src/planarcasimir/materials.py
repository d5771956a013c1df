"""Dispersive material response models on the imaginary frequency axis.

Every finite medium is one record: for the relative permittivity eps and for
the relative permeability mu alike, a static value plus at most one damped
harmonic oscillator of strength Omega, resonance omega_0 and damping gamma.
At a point omega = i*xi on the positive imaginary axis each response is

    static + Omega^2 / (omega_0^2 + xi^2 + gamma*xi),

real, so it is evaluated in pure real arithmetic; that axis is the only
place the engine evaluates a material. Zero strength counts as no
oscillator: the response is then its static value at every xi. Zero
resonance is the Drude metal; zero resonance and damping is the plasma. The
kinds constrain the record: ``constant`` has no oscillator, ``plasma`` no
eps resonance or damping. The perfect-mirror tag has no finite response.
All oscillator parameters are SI angular frequencies (rad/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class MaterialKind(str, Enum):
    CONSTANT = "constant"
    DRUDE_LORENTZ = "drude-lorentz"
    PLASMA = "plasma"
    PERFECT_MIRROR = "perfect-mirror"


@dataclass(frozen=True)
class DispersionModel:
    """A material response: one (static, oscillator) record each for eps, mu.

    Parameters
    ----------
    kind : MaterialKind
        The constraints the record obeys (see the module docstring).
    eps_static, mu_static : float
        Static parts of eps (>= 1) and mu (> 0), the whole response where it
        has no oscillator.
    plasma_freq, resonance_freq, damping : float
        The permittivity's oscillator: strength Omega, resonance omega_0 and
        damping gamma (rad/s). Zero strength means no oscillator.
    mu_model : tuple of float, optional
        The permeability's oscillator ``(plasma_freq, resonance_freq,
        damping)``; ``None`` means none.

    Every parameter must be finite and every oscillator parameter >= 0.
    """

    kind: MaterialKind
    eps_static: float = 1.0
    mu_static: float = 1.0
    plasma_freq: float = 0.0
    resonance_freq: float = 0.0
    damping: float = 0.0
    mu_model: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        eps_osc = (self.plasma_freq, self.resonance_freq, self.damping)
        mu_osc = tuple(self.mu_model or ())
        named = zip(("eps_static", "mu_static", "plasma_freq",
                     "resonance_freq", "damping", "mu_plasma_freq",
                     "mu_resonance_freq", "mu_damping"),
                    (self.eps_static, self.mu_static) + eps_osc + mu_osc)
        for name, value in named:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.eps_static >= 1.0:
            raise ValueError(
                f"static permittivity must be >= 1, got {self.eps_static}")
        if not self.mu_static > 0.0:
            raise ValueError(
                f"static permeability must be > 0, got {self.mu_static}")
        if not all(p >= 0.0 for p in eps_osc + mu_osc):
            raise ValueError("oscillator parameters must be non-negative")
        if self.kind is MaterialKind.PLASMA and any(eps_osc[1:]):
            raise ValueError("plasma kind has no resonance or damping")
        if self.kind in (MaterialKind.CONSTANT, MaterialKind.PERFECT_MIRROR
                         ) and any(eps_osc + mu_osc):
            raise ValueError(f"the {self.kind.value} kind has no oscillator")


def constant(eps: float = 1.0, mu: float = 1.0) -> DispersionModel:
    """Nondispersive medium with fixed relative eps and mu."""
    return DispersionModel(MaterialKind.CONSTANT, eps_static=eps, mu_static=mu)


def drude_lorentz(
    plasma_freq: float,
    resonance_freq: float,
    damping: float,
    mu_model: tuple[float, float, float] | None = None,
) -> DispersionModel:
    """Single Lorentz oscillator: eps = 1 + Omega^2/(omega_0^2 - omega^2 - i gamma omega).

    ``resonance_freq = 0`` gives the Drude metal. An optional ``mu_model``
    triple gives the permeability the same oscillator form.
    """
    return DispersionModel(
        MaterialKind.DRUDE_LORENTZ,
        plasma_freq=plasma_freq,
        resonance_freq=resonance_freq,
        damping=damping,
        mu_model=mu_model,
    )


def plasma(plasma_freq: float) -> DispersionModel:
    """Dissipationless plasma: eps = 1 - Omega^2/omega^2."""
    return DispersionModel(MaterialKind.PLASMA, plasma_freq=plasma_freq)


def perfect_mirror() -> DispersionModel:
    """Idealized perfectly reflecting boundary (no finite eps or mu exists)."""
    return DispersionModel(MaterialKind.PERFECT_MIRROR)


VACUUM = constant()
MIRROR = perfect_mirror()


def _records(model: DispersionModel):
    """The (static, oscillator) records of eps and of mu, in that order.

    An oscillator is (Omega, omega_0, gamma), or None when there is none or
    its strength is zero.
    """
    if model.kind is MaterialKind.PERFECT_MIRROR:
        raise ValueError("a perfect mirror has no finite response function")
    eps_osc = (model.plasma_freq, model.resonance_freq, model.damping)
    mu_osc = model.mu_model or (0.0,)
    return ((model.eps_static, eps_osc if eps_osc[0] else None),
            (model.mu_static, mu_osc if mu_osc[0] else None))


def _evaluate(record, xi):
    """static + Omega^2/(omega_0^2 + xi^2 + gamma*xi); a float for scalar xi."""
    static, oscillator = record
    x = np.asarray(xi, dtype=float)
    if oscillator is None:
        out = np.full_like(x, static)
    else:
        strength, resonance, damping = oscillator
        with np.errstate(divide="ignore"):
            out = static + strength**2 / (resonance**2 + x**2 + damping * x)
    return out if np.ndim(xi) else float(out)


def _response(model: DispersionModel, xi):
    """[eps(i*xi), mu(i*xi)], the one evaluation of a material's record."""
    return [_evaluate(record, xi) for record in _records(model)]


def eps_imag_axis(model: DispersionModel, xi: float | np.ndarray) -> float | np.ndarray:
    """eps(i*xi) as a real number; a float for scalar xi."""
    return _evaluate(_records(model)[0], xi)


def mu_imag_axis(model: DispersionModel, xi: float | np.ndarray) -> float | np.ndarray:
    """mu(i*xi) as a real number; a float for scalar xi."""
    return _evaluate(_records(model)[1], xi)


def is_drude_like(model: DispersionModel) -> bool:
    """True when eps or mu has an oscillator of zero resonance (Drude or
    plasma), so that it diverges as xi -> 0 on the imaginary axis.

    Such models make the zero-frequency term of thermal sums ambiguous, so
    callers must pick an explicit policy. A perfect mirror is not one.
    """
    return model.kind is not MaterialKind.PERFECT_MIRROR and any(
        osc is not None and osc[1] == 0.0 for _, osc in _records(model))


def is_nonmagnetic(model: DispersionModel) -> bool:
    """True when mu(omega) is identically 1: static 1, no oscillator."""
    return (model.kind is not MaterialKind.PERFECT_MIRROR
            and _records(model)[1] == (1.0, None))
