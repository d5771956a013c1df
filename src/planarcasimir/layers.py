"""Planar geometry types and reflection coefficients on the imaginary axis.

A structure is a stack of homogeneous regions normal to z. Interspaces (the
regions where stress is evaluated) see their bounding half-spaces only through
reflection coefficients, so walls of arbitrary layering collapse to a single
function of the transverse mode.

Conventions, fixed once for the whole package:

* imaginary frequency omega = i*xi with xi >= 0, where the normal wavenumber
  becomes beta = i*kappa with kappa = sqrt(q^2 + xi^2 n^2/c^2) real;
* s (TE) interface coefficient r_s = (mu_b kappa_a - mu_a kappa_b)
  / (mu_b kappa_a + mu_a kappa_b);
* p (TM) coefficient in the magnetic-field amplitude convention
  r_p = (eps_b kappa_a - eps_a kappa_b) / (eps_b kappa_a + eps_a kappa_b),
  so a perfect conductor gives r_p = +1 and r_s = -1.

Multilayer walls are folded by the two-media recursion
r = (r_front + e^{-2 kappa d} r_back) / (1 + r_front e^{-2 kappa d} r_back);
an independent transfer-matrix product in the test suite cross-checks every
code path of that recursion.

Polarization is the leading array axis: internal reflection and
transmission arrays have shape (2, A, m), ordered (s, p), for xi a column of
shape (A, 1), one frequency per row, against q of shape (A, m) or (1, m). A
perfect mirror is ``DELTA``, a (2, 1, 1) constant that broadcasts. The s and
p coefficients are one expression whose kappa contrast is weighted by
(mu, eps). ``_wave`` is the one place a material is evaluated, for both
polarizations, through one call into ``materials``.

Every integrand call holds one ``_Waves`` memo at its (xi, q): each distinct
material is evaluated once, however many slabs, terminators and gaps it
fills, and each interface coefficient is formed once per pair of materials.
The internal reflections take the medium they are seen from and that memo,
so its memory grows with the number of distinct materials and interfaces,
not with the slab count. The public ``wall_reflection`` runs its float xi
and float or 1-D q as one row of that layout and returns one polarization's
row, shaped like q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import c
from .materials import (MIRROR, DispersionModel, MaterialKind, _response,
                        is_drude_like)

POLARIZATIONS = ("s", "p")
# Perfect-reflector limits of the interface coefficients, leading axis (s, p).
DELTA = np.array([-1.0, +1.0]).reshape(2, 1, 1)


@dataclass(frozen=True)
class Layer:
    """A finite slab: material plus thickness in meters."""

    material: DispersionModel
    thickness: float

    def __post_init__(self) -> None:
        if not self.thickness > 0.0:
            raise ValueError(f"layer thickness must be > 0, got {self.thickness}")
        if self.material.kind is MaterialKind.PERFECT_MIRROR:
            raise ValueError("finite layers need a finite response; use a wall"
                             " terminator or PerfectMirrorPlate for mirrors")


@dataclass(frozen=True)
class Wall:
    """One side of an interspace: finite slabs backed by a terminator.

    ``layers`` are ordered nearest-to-the-interspace first. The terminator is
    either a semi-infinite material or the perfect-mirror tag.
    """

    layers: tuple[Layer, ...] = ()
    terminator: DispersionModel = MIRROR

    @staticmethod
    def perfect_mirror() -> "Wall":
        return Wall()

    @staticmethod
    def semi_infinite(material: DispersionModel) -> "Wall":
        return Wall(layers=(), terminator=material)

    @staticmethod
    def stack(layers, terminator: DispersionModel) -> "Wall":
        return Wall(layers=tuple(layers), terminator=terminator)

    @property
    def is_mirror_terminated(self) -> bool:
        return self.terminator.kind is MaterialKind.PERFECT_MIRROR


@dataclass(frozen=True)
class PerfectMirrorPlate:
    """Opaque idealized plate: r = Delta_sigma exactly, t = 0."""


@dataclass(frozen=True)
class TransverseMode:
    """A mode (xi, q, pol), pol "s" or "p"; q may be an ndarray."""

    xi: float
    q: float | np.ndarray
    pol: str

    def __post_init__(self) -> None:
        if not self.xi >= 0.0:
            raise ValueError("imaginary frequency xi must be >= 0")
        if not np.all(np.asarray(self.q) >= 0.0):
            raise ValueError("transverse momentum q must be >= 0")
        if self.pol not in POLARIZATIONS:
            raise ValueError("a mode needs a definite polarization, 's' or"
                             f" 'p', got {self.pol!r}")


@dataclass(frozen=True)
class CavityConfig:
    """Wall | gap d1 | plate | gap d3 | wall, with one common gap medium.

    The two interspaces share a single ``medium`` field by construction, which
    is the geometry every plate-force formula here assumes.
    """

    left_wall: Wall
    medium: DispersionModel
    d1: float
    plate: Layer | PerfectMirrorPlate
    d3: float
    right_wall: Wall

    def __post_init__(self) -> None:
        if self.medium.kind is MaterialKind.PERFECT_MIRROR:
            raise ValueError("the interspace medium must have a finite response")
        if not (self.d1 > 0.0 and self.d3 > 0.0):
            raise ValueError("gap widths must be positive")
        if not isinstance(self.plate, (Layer, PerfectMirrorPlate)):
            raise ValueError("plate must be a Layer or PerfectMirrorPlate")

    @cached_property
    def has_drude_like(self) -> bool:
        return _has_drude_like(self.medium, self.left_wall, self.right_wall,
                               plate=self.plate)


def _has_drude_like(medium: DispersionModel, *walls: Wall, plate=None) -> bool:
    """Whether the medium, a wall or a Layer plate diverges as xi -> 0."""
    slabs = [ly for wall in walls for ly in wall.layers]
    slabs += [plate] if isinstance(plate, Layer) else []
    models = [medium, *(wall.terminator for wall in walls),
              *(ly.material for ly in slabs)]
    return any(map(is_drude_like, models))


def beta_imag(n_sq, xi, q: float | np.ndarray):
    """Normal decay constant kappa = sqrt(q^2 + xi^2 n^2 / c^2).

    This is beta evaluated at omega = i*xi, written as beta = i*kappa. n_sq
    and xi may be frequency columns of shape (A, 1) broadcast against q. The
    mode (xi, q) = (0, 0) has no propagation direction and is rejected.
    """
    kappa = np.sqrt(np.asarray(q, dtype=float) ** 2 + xi * xi * n_sq / c**2)
    if not kappa.all():
        raise ValueError("kappa vanishes: xi = 0 and q = 0 is a degenerate mode")
    return kappa if np.ndim(q) else float(kappa)


def _wave(model: DispersionModel, xi, q):
    """A material's Fresnel weights (mu, eps) and kappa at omega = i*xi.

    xi is a column (A, 1) broadcast against q of shape (A, m) or (1, m). The
    weights have shape (2, A, 1), rows (s, p); kappa has shape (A, m).
    """
    response = _response(model, xi)
    return response[::-1], beta_imag(response[0] * response[1], xi, q)


def _fresnel(a, b):
    """Interface coefficients from medium a into medium b, shape (2, A, m).

    s weights the kappa contrast by permeability, p by permittivity
    (magnetic-field amplitude convention, conductor limit +1).
    """
    (w_a, kappa_a), (w_b, kappa_b) = a, b
    x, y = w_b * kappa_a, w_a * kappa_b
    return (x - y) / (x + y)


class _Waves(dict):
    """The memo of one integrand call at xi (A, 1) and q (A, m) or (1, m).

    ``waves[model]`` is the ``_wave`` of a material and ``waves[a, b]`` the
    interface coefficient from material a into material b, each formed on
    first use. Swapping x and y in (x - y)/(x + y) negates it bit for bit,
    so ``waves[b, a]`` is read as the negation of a stored ``waves[a, b]``.
    """

    def __init__(self, xi, q):
        super().__init__()
        self.xi, self.q = xi, q

    def __missing__(self, key):
        if isinstance(key, DispersionModel):
            value = _wave(key, self.xi, self.q)
        else:
            a, b = key
            value = (-self[b, a] if (b, a) in self
                     else _fresnel(self[a], self[b]))
        self[key] = value
        return value


def _wall_refl(wall: Wall, ambient: DispersionModel, waves: _Waves):
    """Reflection of ``wall`` seen from the ``ambient`` material.

    The result has shape (2, A, m), rows (s, p); a bare mirror is ``DELTA``,
    which broadcasts to it. The fold runs from the terminator outward; the
    materials and interfaces come from ``waves``, so its memory grows with
    the number of distinct materials, not with the slab count. Only the
    round trip e^{-2 kappa d} and the recursion step are per slab.
    """
    layers = wall.layers
    # Innermost reflection: from the deepest medium into the terminator.
    inner = layers[-1].material if layers else ambient
    r = DELTA if wall.is_mirror_terminated else waves[inner, wall.terminator]
    # Fold outward: each finite layer adds one interface and one round trip.
    for i in range(len(layers) - 1, -1, -1):
        outer = layers[i - 1].material if i else ambient
        rf = waves[outer, inner]
        back = np.exp(waves[inner][1] * (-2.0 * layers[i].thickness)) * r
        r = (rf + back) / (1.0 + rf * back)
        inner = outer
    return r


def wall_reflection(wall: Wall, ambient: DispersionModel, mode: TransverseMode):
    """Reflection coefficient of a wall as seen from the ambient interspace.

    Parameters
    ----------
    wall : Wall
    ambient : DispersionModel
        The interspace medium the wave lives in.
    mode : TransverseMode

    Returns
    -------
    float or ndarray
        Real reflection coefficient(s) at omega = i*xi, |r| <= 1 for passive
        structures.
    """
    xi, q = np.reshape(mode.xi, (1, 1)), np.reshape(mode.q, (1, -1))
    r = _wall_refl(wall, ambient, _Waves(xi, q))
    r = r[POLARIZATIONS.index(mode.pol)] * np.ones(q.shape)
    return r.reshape(np.shape(mode.q)) if np.ndim(mode.q) else float(r[0, 0])


def _plate_rt(plate, ambient: DispersionModel, waves: _Waves):
    """(r, t) of the plate with the ``ambient`` material on both faces, each
    of shape (2, A, m), rows (s, p); t is the face-to-face amplitude. A
    mirror plate is (``DELTA``, 0.0), which broadcasts."""
    if isinstance(plate, PerfectMirrorPlate):
        return DELTA, 0.0
    r12 = waves[ambient, plate.material]
    decay = np.exp(waves[plate.material][1] * -plate.thickness)
    r12_sq, decay_sq = r12 * r12, decay * decay
    den = 1.0 - r12_sq * decay_sq
    return r12 * (1.0 - decay_sq) / den, (1.0 - r12_sq) * decay / den
