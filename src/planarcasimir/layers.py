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
shape (A, 1), one frequency per row, against q of shape (A, m) or (1, m).
It is the one layout from here through the quadrature core: an integrand
returns its columns, (s, p) or heights, first, then (A, m). A perfect mirror
is ``DELTA``, a (2, 1, 1) constant that broadcasts; the s and p coefficients
are one expression whose kappa contrast is weighted by (mu, eps).

A structure is compiled once into a ``Plan`` (``engine._plan``): its distinct
materials, constant ones with weights and n^2 fixed, the others with their
oscillator constants squared; its interfaces by the materials they join, a
reversed one the exact negation of its twin; each wall's fold by those
numbers. An integrand call is then straight-line numpy: xi^2 and q^2 once,
each dispersive material evaluated once under one ``np.errstate``, kappa
once per material, so memory grows with the distinct materials and
interfaces, not with the slab count. ``wall_reflection`` plans its one wall
and runs its float xi and float or 1-D q as one row of that layout.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .constants import c
from .materials import (MIRROR, DispersionModel, MaterialKind, _evaluate,
                        _records, is_drude_like)

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
        if not (self.xi or np.all(self.q)):
            raise ValueError("kappa vanishes: xi = q = 0 is a degenerate mode")
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


# A material at one call: Fresnel weights (mu, eps) of shape (2, A, 1) or
# (2, 1, 1), kappa of shape (A, m) and n^2.
Wave = namedtuple("Wave", "weights kappa n_sq")
# What ``plan(xi, q)`` returns: xi^2, q^2, the gap's ``Wave``, each wall's
# reflection (2, A, m) seen from the gap, in the plan's order, and the
# plate's (r, t), (``DELTA``, 0.0) for a ``PerfectMirrorPlate``, or None.
Call = namedtuple("Call", "xi_sq q_sq gap walls plate")


def _fresnel(a, b):
    """Interface coefficients from wave a into wave b, shape (2, A, m): s
    weights the kappa contrast by permeability, p by permittivity
    (magnetic-field amplitude convention, conductor limit +1)."""
    x, y = b.weights * a.kappa, a.weights * b.kappa
    return (x - y) / (x + y)


class Plan:
    """A gap ``medium``, its ``walls`` and a ``plate`` in it, compiled once.

    ``models`` are the distinct materials, the gap medium first; ``empty``
    says that the gap's n^2 is a static 1, ``mirrors`` that bare mirror
    walls hold a ``PerfectMirrorPlate``. ``plan(xi, q)`` returns their
    ``Call`` at xi (A, 1) and q (A, m) or (1, m).
    """

    def __init__(self, medium: DispersionModel, walls=(), plate=None):
        numbers, faces, self.walls = {medium: 0}, {}, []

        def number(model):
            return numbers.setdefault(model, len(numbers))

        def face(a, b):
            return faces.setdefault((a, b), len(faces))

        for wall in walls:  # folded from the terminator outward
            slabs = wall.layers
            outer = [0] + [number(slab.material) for slab in slabs]
            self.walls.append((
                None if wall.is_mirror_terminated
                else face(outer[-1], number(wall.terminator)),
                [(face(outer[i], outer[i + 1]), outer[i + 1],
                  -2.0 * slabs[i].thickness)
                 for i in range(len(slabs) - 1, -1, -1)]))
        self.plate = plate if not isinstance(plate, Layer) else (
            face(0, number(plate.material)), number(plate.material),
            -plate.thickness)
        self.models = list(numbers)
        self.faces = [(a, b, faces[b, a] if faces.get((b, a), n) < n
                       else None) for (a, b), n in faces.items()]
        self.media, self.records = [], ()
        for model in self.models:
            (mu, mu_osc), (eps, eps_osc) = records = _records(model)[::-1]
            if mu_osc or eps_osc:  # evaluated per call, from this row on
                self.media.append((len(self.records), None, None))
                self.records += records
            else:  # fixed weights and n^2
                self.media.append((None, np.array([[[mu]], [[eps]]], float),
                                   float(eps) * float(mu)))
        self.empty = self.media[0][2] == 1.0
        self.mirrors = isinstance(plate, PerfectMirrorPlate) and all(
            term is None and not steps for term, steps in self.walls)
        self.has_drude_like = any(map(is_drude_like, self.models))

    def __call__(self, xi, q):
        xi_sq, q_sq = xi * xi, q * q
        if self.records:
            with np.errstate(divide="ignore"):
                rows = _evaluate(self.records, xi, xi_sq)
        waves = []
        for row, weights, n_sq in self.media:
            if row is not None:
                weights = rows[row:row + 2]
                n_sq = weights[0] * weights[1]
            waves.append(Wave(weights, np.sqrt(q_sq + xi_sq * n_sq / c**2),
                              n_sq))
        rs = []
        for a, b, twin in self.faces:
            rs.append(_fresnel(waves[a], waves[b]) if twin is None
                      else -rs[twin])
        walls = []
        for term, steps in self.walls:
            r = DELTA if term is None else rs[term]
            for face, inner, round_trip in steps:
                back = np.exp(waves[inner].kappa * round_trip) * r
                r = (rs[face] + back) / (1.0 + rs[face] * back)
            walls.append(r)
        plate = None if self.plate is None else (DELTA, 0.0)
        if isinstance(self.plate, tuple):
            face, inner, minus_d = self.plate
            r12, decay = rs[face], np.exp(waves[inner].kappa * minus_d)
            r12_sq, decay_sq = r12 * r12, decay * decay
            den = 1.0 - r12_sq * decay_sq
            plate = (r12 * (1.0 - decay_sq) / den,
                     (1.0 - r12_sq) * decay / den)
        return Call(xi_sq, q_sq, waves[0], walls, plate)


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
    r = Plan(ambient, (wall,))(xi, q).walls[0]
    r = r[POLARIZATIONS.index(mode.pol)] * np.ones(q.shape)
    return r.reshape(np.shape(mode.q)) if np.ndim(mode.q) else float(r[0, 0])
