"""Dispersive material response models on the imaginary frequency axis.

Every medium is described by a relative permittivity eps(omega) and a relative
permeability mu(omega). The models kept here are deliberately small: a
nondispersive constant, a single Lorentz oscillator (with the Drude metal as
its zero-resonance special case), the dissipationless plasma model, and an
idealized perfect-mirror tag that carries no finite response function at all.

All model parameters are SI angular frequencies (rad/s). At a point
omega = i*xi on the positive imaginary axis every causal model here has a
real response, so it is evaluated in pure real arithmetic; that axis is the
only place the engine evaluates a material.
"""

from __future__ import annotations

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
    """A material response model.

    Parameters
    ----------
    kind : MaterialKind
        Which functional form applies. The remaining fields are interpreted
        according to the kind; irrelevant fields keep their defaults.
    eps_static : float
        Relative permittivity of the ``constant`` kind. Must be >= 1 (a
        passive, nondispersive dielectric).
    mu_static : float
        Relative permeability of the ``constant`` kind. Must be > 0.
    plasma_freq : float
        Oscillator strength Omega (rad/s) of the dielectric resonance for the
        ``drude-lorentz`` and ``plasma`` kinds.
    resonance_freq : float
        Resonance frequency omega_0 (rad/s); forced to zero for ``plasma``.
    damping : float
        Absorption rate gamma (rad/s); forced to zero for ``plasma``.
    mu_model : tuple of float, optional
        Optional magnetic Lorentz oscillator ``(plasma_freq, resonance_freq,
        damping)`` giving mu(omega) the same single-resonance form as the
        permittivity. ``None`` means mu = 1 for oscillator kinds.
    """

    kind: MaterialKind
    eps_static: float = 1.0
    mu_static: float = 1.0
    plasma_freq: float = 0.0
    resonance_freq: float = 0.0
    damping: float = 0.0
    mu_model: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind is MaterialKind.CONSTANT:
            if self.eps_static < 1.0:
                raise ValueError(
                    f"constant permittivity must be >= 1, got {self.eps_static}"
                )
            if self.mu_static <= 0.0:
                raise ValueError(
                    f"constant permeability must be > 0, got {self.mu_static}"
                )
        if self.plasma_freq < 0.0 or self.resonance_freq < 0.0 or self.damping < 0.0:
            raise ValueError("oscillator parameters must be non-negative")
        if self.kind is MaterialKind.PLASMA and (
            self.resonance_freq != 0.0 or self.damping != 0.0
        ):
            raise ValueError("plasma kind has no resonance or damping")
        if self.mu_model is not None:
            if self.kind in (MaterialKind.CONSTANT, MaterialKind.PERFECT_MIRROR):
                raise ValueError("mu_model applies to oscillator kinds only")
            if any(p < 0.0 for p in self.mu_model):
                raise ValueError("mu_model parameters must be non-negative")


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


def eps_imag_axis(model: DispersionModel, xi: float | np.ndarray) -> float | np.ndarray:
    """eps(i*xi) as a real number, the hot path for imaginary-axis work."""
    if model.kind is MaterialKind.PERFECT_MIRROR:
        raise ValueError("a perfect mirror has no finite response function")
    x = np.asarray(xi, dtype=float)
    if model.kind is MaterialKind.CONSTANT:
        out = np.full_like(x, model.eps_static)
    elif model.kind is MaterialKind.PLASMA:
        with np.errstate(divide="ignore"):
            out = 1.0 + model.plasma_freq**2 / x**2
    else:
        out = _osc_imag(model.plasma_freq, model.resonance_freq, model.damping, x)
    return out if np.ndim(xi) else float(out)


def mu_imag_axis(model: DispersionModel, xi: float | np.ndarray) -> float | np.ndarray:
    """mu(i*xi) as a real number; see :func:`eps_imag_axis`."""
    if model.kind is MaterialKind.PERFECT_MIRROR:
        raise ValueError("a perfect mirror has no finite response function")
    x = np.asarray(xi, dtype=float)
    if model.kind is MaterialKind.CONSTANT:
        out = np.full_like(x, model.mu_static)
    elif model.mu_model is None:
        out = np.ones_like(x)
    else:
        out = _osc_imag(*model.mu_model, x)
    return out if np.ndim(xi) else float(out)


def _osc_imag(strength, resonance, damping, x):
    # 1 + Omega^2/(omega_0^2 + xi^2 + gamma*xi), the oscillator rotated to i*xi.
    with np.errstate(divide="ignore"):
        return 1.0 + strength**2 / (resonance**2 + x**2 + damping * x)


def is_drude_like(model: DispersionModel) -> bool:
    """True when the response diverges as xi -> 0 on the imaginary axis.

    Such models (plasma, zero-resonance oscillators) make the zero-frequency
    term of thermal sums ambiguous, so callers must pick an explicit policy.
    """
    if model.kind is MaterialKind.PLASMA:
        return model.plasma_freq > 0.0
    if model.kind is MaterialKind.DRUDE_LORENTZ:
        if model.resonance_freq == 0.0 and model.plasma_freq > 0.0:
            return True
        if model.mu_model is not None:
            s, res, _ = model.mu_model
            return res == 0.0 and s > 0.0
    return False


def is_nonmagnetic(model: DispersionModel) -> bool:
    """True when mu(omega) is identically 1."""
    if model.kind is MaterialKind.CONSTANT:
        return model.mu_static == 1.0
    if model.kind is MaterialKind.PERFECT_MIRROR:
        return False
    return model.mu_model is None
