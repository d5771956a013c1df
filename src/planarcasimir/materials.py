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
        damping)``; ``None`` means none. Any sequence of three numbers is
        stored as a tuple of floats, so that equal models hash alike.

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
        if self.mu_model is not None:
            mu_model = tuple(map(float, self.mu_model))
            if len(mu_model) != 3:
                raise ValueError("mu_model must be (plasma_freq,"
                                 " resonance_freq, damping), got"
                                 f" {self.mu_model!r}")
            object.__setattr__(self, "mu_model", mu_model)
        eps_osc = (self.plasma_freq, self.resonance_freq, self.damping)
        mu_osc = self.mu_model or (0.0, 0.0, 0.0)
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
        # The evaluation forms Omega^2, omega_0^2 and, at xi = 0, their
        # ratio; as in numpy, x * x overflows to inf (x**2 raises), 0/0 is nan.
        for prefix, osc in (("", eps_osc), ("mu_", mu_osc)):
            strength, resonance = (float(x) * float(x) for x in osc[:2])
            ratio = 0.0 if not (osc[0] and osc[1]) else (strength / resonance
                     if resonance else math.inf if strength else math.nan)
            for name, square in (("plasma_freq", strength),
                                 ("resonance_freq", resonance),
                                 ("plasma_freq over resonance_freq", ratio)):
                if not math.isfinite(square):
                    raise ValueError(f"{prefix}{name} squared must be finite,"
                                     f" got {square}")
        if self.kind is MaterialKind.PLASMA and any(eps_osc[1:]):
            raise ValueError("plasma kind has no resonance or damping")
        if self.kind in (MaterialKind.CONSTANT, MaterialKind.PERFECT_MIRROR
                         ) and any(eps_osc + mu_osc):
            raise ValueError(f"the {self.kind.value} kind has no oscillator")
        # Built once for ``_records``. They square with **, not with the
        # x * x checked above: the two can differ in the last bit.
        records = tuple((static, (s**2, r**2, g) if s else None)
                        for static, (s, r, g) in ((self.eps_static, eps_osc),
                                                  (self.mu_static, mu_osc)))
        object.__setattr__(self, "_records", None if self.kind
                           is MaterialKind.PERFECT_MIRROR else records)
        object.__setattr__(self, "_hash", hash(self.__reduce__()[1]))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt on copy or unpickling: kind hashes as a str, per process.
        return type(self), (self.kind, self.eps_static, self.mu_static,
                            self.plasma_freq, self.resonance_freq,
                            self.damping, self.mu_model)


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


VACUUM = constant()
# The idealized perfectly reflecting boundary: no finite eps or mu exists.
MIRROR = DispersionModel(MaterialKind.PERFECT_MIRROR)


def _records(model: DispersionModel):
    """The (static, oscillator) records of eps and of mu, in that order, as
    the model built them once: an oscillator is (Omega^2, omega_0^2, gamma),
    or None where there is none or its strength is zero."""
    if model._records is None:
        raise ValueError("a perfect mirror has no finite response function")
    return model._records


def _evaluate(records, x, x_sq):
    """Rows static + Omega^2/(omega_0^2 + x^2 + gamma*x) of ``records`` at
    x, given x_sq = x*x, under the caller's np.errstate(divide="ignore")."""
    out = np.empty((len(records),) + x.shape)
    for i, (static, oscillator) in enumerate(records):
        row = out[i, ...]
        if oscillator is None:
            row.fill(static)
        else:
            strength, resonance, damping = oscillator
            np.divide(strength, resonance + x_sq + damping * x, out=row)
            row += static
    return out


def _response(model: DispersionModel, xi, rows=2):
    """Rows eps(i*xi) and mu(i*xi) of one material, or its first ``rows``."""
    x = np.asarray(xi, dtype=float)
    with np.errstate(divide="ignore"):
        return _evaluate(_records(model)[:rows], x, x * x)


def eps_imag_axis(model: DispersionModel, xi: float | np.ndarray) -> float | np.ndarray:
    """eps(i*xi) as a real number, row 0 of ``_response``, which alone is
    evaluated; a float for scalar xi."""
    eps = _response(model, xi, 1)[0]
    return eps if eps.ndim else float(eps)


def is_drude_like(model: DispersionModel) -> bool:
    """True when eps or mu has an oscillator of zero resonance (Drude or
    plasma), so that it diverges as xi -> 0 on the imaginary axis.

    Such models make the zero-frequency term of thermal sums ambiguous, so
    callers must pick an explicit policy. A perfect mirror is not one.
    """
    records = model._records
    return records is not None and any(
        osc is not None and osc[1] == 0.0 for _, osc in records)

