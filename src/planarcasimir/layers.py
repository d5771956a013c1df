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

Polarization is an array axis: internal reflection and transmission arrays
have shape ``np.shape(q) + (2,)`` with the trailing axis ordered (s, p), as
is ``DELTA``. The s and p coefficients are one expression whose kappa
contrast is weighted by (mu, eps). ``_wave`` is the one place a material is
evaluated, for both polarizations, through one call into ``materials``. The
internal reflections take the wave of the medium they are seen from, so a
caller evaluates that medium once per integrand call for every wall and
plate. The public ``wall_reflection`` selects one polarization's column.

The internal functions also take xi as a column of shape (A, 1), one
frequency per row, broadcast against q of shape (A, m): a medium's response
is then shaped like xi and gains the (s, p) axis in ``_wave``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import c
from .materials import DispersionModel, MaterialKind, _response, is_drude_like

POLARIZATIONS = ("s", "p")
# Perfect-reflector limits of the interface coefficients, axis (s, p).
DELTA = np.array([-1.0, +1.0])


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
    terminator: DispersionModel = DispersionModel(MaterialKind.PERFECT_MIRROR)

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

    @property
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
    if np.any(kappa == 0.0):
        raise ValueError("kappa vanishes: xi = 0 and q = 0 is a degenerate mode")
    return kappa if np.ndim(q) else float(kappa)


def _column(pair, pol: str, q):
    """The ``pol`` column of an (s, p) array; a float for scalar q."""
    out = pair[..., POLARIZATIONS.index(pol)]
    return out if np.ndim(q) else float(out)


def _wave(model: DispersionModel, xi, q):
    """A material's Fresnel weights (mu, eps) and kappa at omega = i*xi.

    xi is a float or a column of shape (A, 1) broadcast against q. The
    weights are shaped like xi plus the (s, p) axis; kappa is shaped like
    the broadcast (xi, q) plus a unit axis.
    """
    eps, mu = _response(model, xi)
    kappa = np.asarray(beta_imag(eps * mu, xi, q))
    return np.stack(np.broadcast_arrays(mu, eps), axis=-1), kappa[..., None]


def _fresnel(a, b):
    """Interface coefficients from medium a into medium b, axis (s, p).

    s weights the kappa contrast by permeability, p by permittivity
    (magnetic-field amplitude convention, conductor limit +1).
    """
    (w_a, kappa_a), (w_b, kappa_b) = a, b
    return (w_b * kappa_a - w_a * kappa_b) / (w_b * kappa_a + w_a * kappa_b)


def _wall_refl(wall: Wall, ambient, xi, q):
    """Reflection of ``wall`` seen from the medium of wave ``ambient``.

    The result has the (s, p) axis last. The fold runs from the terminator
    outward and keeps only the two media of the current interface, so
    memory does not grow with the slab count.
    """
    layers = wall.layers
    # Innermost reflection: from the deepest finite medium into the terminator.
    inner = _wave(layers[-1].material, xi, q) if layers else ambient
    if wall.is_mirror_terminated:
        r = DELTA * np.ones_like(inner[1])
    else:
        r = _fresnel(inner, _wave(wall.terminator, xi, q))

    # Fold outward: each finite layer adds one interface and one round trip.
    for i in range(len(layers) - 1, -1, -1):
        outer = _wave(layers[i - 1].material, xi, q) if i else ambient
        rf = _fresnel(outer, inner)
        phase = np.exp(-2.0 * inner[1] * layers[i].thickness)
        r = (rf + phase * r) / (1.0 + rf * phase * r)
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
    r = _wall_refl(wall, _wave(ambient, mode.xi, mode.q), mode.xi, mode.q)
    return _column(r, mode.pol, mode.q)


def _plate_rt(plate, ambient, xi, q):
    """(r, t) of the plate with the medium of wave ``ambient`` on both faces,
    axis (s, p) last; t is the face-to-face amplitude."""
    if isinstance(plate, PerfectMirrorPlate):
        r = DELTA * np.ones_like(ambient[1])
        return r, np.zeros_like(r)
    inside = _wave(plate.material, xi, q)
    r12 = _fresnel(ambient, inside)
    decay = np.exp(-inside[1] * plate.thickness)
    den = 1.0 - r12 * r12 * decay * decay
    r = r12 * (1.0 - decay * decay) / den
    t = (1.0 - r12 * r12) * decay / den
    return r, t
