"""Deterministic quadrature on [0, inf) and bosonic frequency sums.

Every integral is one nested double-exponential rule (Takahasi & Mori, Publ.
RIMS 9, 721 (1974); Mori & Sugihara, J. Comput. Appl. Math. 127, 287 (2001))
over the tensor product of two axes. An integrated axis is the trapezoid rule
of step 2**-k in t under the exp-sinh map x = exp((pi/2) sinh t) on a fixed
range of t: each level halves the step and evaluates only the nodes it adds. A
fixed axis has the same nodes and weights at every level: the single node of a
1-D integral, or a set of thermal frequencies. A level's error is, per
integrated axis, its change from the level before, squared where the axis was
seen to double its digits (``_booked``), plus the end terms, and at least a few
ulps of the sum of |weight * f|; the rule stops at the tolerance, once those
ulps alone miss it, or at its last level. The verdict runs on floats, with
numpy's NaNs and order of addition; results replay bit for bit on the same
numpy, BLAS build and CPU kernel. ``integrate_semi_infinite`` is the 1-D rule,
and ``double_semi_infinite`` the tensor product of the rule in frequency and in
momentum at T = 0. At T > 0 its frequency axis is a fixed axis of Matsubara
frequencies (``_thermal_sum``): all the terms the sum needs where they cost
less than the 0 K rule, or else the first ones plus the 0 K rule above them,
corrected by Gregory's formula, whose last differences book the rest.
``matsubara_sum``, their reference, sums Matsubara terms in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .constants import Boltzmann, c, hbar


@dataclass(frozen=True)
class QuadratureSpec:
    """Shared tolerance knobs for all integrals and sums.

    Parameters
    ----------
    rel_tol : float
        Relative tolerance target, 0 < rel_tol < 1. Every nested rule stops
        at its target or at its fixed last level; no knob sets the effort.
    abs_floor : float
        Finite absolute error floor, >= 0; convergence means
        ``error <= max(rel_tol*|value|, abs_floor)``.
    q_cutoff : float or None
        Sharp, finite upper truncation of transverse-momentum integrals
        (rad/m). ``None`` integrates to infinity.
    """

    rel_tol: float = 1e-8
    abs_floor: float = 0.0
    q_cutoff: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if not 0.0 <= self.abs_floor < np.inf:
            raise ValueError("abs_floor must be finite and >= 0, got"
                             f" {self.abs_floor}")
        if self.q_cutoff is not None and not 0.0 < self.q_cutoff < np.inf:
            raise ValueError("q_cutoff must be positive and finite when"
                             f" given, got {self.q_cutoff}")


@dataclass(frozen=True)
class IntegralResult:
    """Value, error bookkeeping, and effort of one integral or sum.

    ``converged`` is the verdict of the rule that produced the result:
    ``error_estimate <= max(rel_tol*|value|, abs_floor)`` for its spec, for
    every column and, for G (s, p) pairs (G, 2), each pair's sum with the
    sum of its errors. ``value`` and ``error_estimate`` are floats for one
    column and ndarrays of the columns' shape otherwise.
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    converged: bool


# Ranges of t, (lo, hi, None), with both ends multiples of 1/8: nodes of
# every level from 3 on. The engine's q rule: v = q d_ref from 3.2e-15 to
# 46, never from below 3.7e-16, where 1 - r_+ r_- exp(-2 kappa d) can round
# to 0 at small xi; kappa >= q keeps it from 0 for the xi rule, which reaches
# further down, to u = 2.4e-19: a gap much thinner than c/omega_p needs it.
_MOMENTUM = (-3.75, 1.625, None)
_FREQUENCY = (-4.0, 1.625, None)
# Top of the q range under a cutoff, where v = V x/(1 + x) is V to 2e-17.
_CUTOFF_TOP = 3.875
# First and last level of the 0 K tensor rule and of the q rule of each
# row of Matsubara terms. On a vacuum mirror cavity the q rule
# changes by about 3e-9 from level 3 to level 4; squared, that change meets
# a tenth of rel_tol 1e-8, where the plain change needed level 5. From
# rel_tol _LOOSE up a tensor rule starts at level 3 (2,024 points): 9.3e-5
# on vacuum mirrors, which below it would go on to level 4, one call more.
_TENSOR_LEVELS = (4, 6)
_TERM_LEVELS = (4, 6)
_LOOSE = 1e-4
_LINE = (-4.5, 3.875, None)
_LINE_LEVELS = (3, 12)
# Point-columns per integrand call, or one row; ``_nested`` cuts a block
# into the fewest such calls, one row apart. A richer integrand leaves L2
# sooner: a gold cavity's 0 K field force took 855 us warm as one call of
# its pair, 732 as two; a mirror pair, formed in its last product, counts
# once: 180 us against 237 (eps = 3; medians of 10 processes). Exp, mul and
# add on 20,000 doubles took 69-95 us with 23 minor faults, 32-48 us with
# none on 16,384 (past malloc's mmap threshold; 2-core Xeon).
_CHUNK = 8192
# Nonzero Matsubara terms in the first and the last block of
# ``matsubara_sum``; every later block is twice the one before, so a sum of
# n terms takes about log2(n/4) blocks, and it stops at 16,380 terms.
_BLOCKS = (4, 8192)
# Gregory's coefficients c_k, of t/ln(1 + t) from t**2 on: h Sum'_{m>=M}
# g(xi_m), xi_m = m h and m = M at half weight, is the integral of g over
# xi >= xi_M plus h Sum_k c_k delta**k g(xi_M), delta the forward
# difference. A thermal sum takes K = 10, books its rest with c_11 and sums
# m < _HEAD itself: a part that falls within a few spacings (the wider gap
# of a cavity) defeats the differences. Against the exact mirror force, 150
# draws of T d1 in 3e-6..9e-5 K m and d3/d1 in 1.2..80, the rest booked
# from M = 8 held every true one above 1e-12 but one, by 1.3x; from M = 0
# it fell 10x short at d3/d1 = 50.
_GREGORY = (-1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480, 275 / 24192,
            -33953 / 3628800, 8183 / 1036800, -3250433 / 479001600,
            4671 / 788480, -13695779093 / 2615348736000)
_HEAD = 8
# The factor on a squared change and the ratio that shows digit doubling
# (``_booked``), and the error floor in ulps of the sum of |weight * f|:
# the least that bound the errors of the known 1-D integrals, of 0 K
# stresses against level 7 and of thermal mirror forces at targets 1e-4 to
# 1e-12 (a factor of 16 and a floor of 16 ulps each miss a 1-D integral).
_SQUARE, _DOUBLING, _ULPS = 32.0, 2.0, 32
_FLOOR, _TINY = _ULPS * float(np.finfo(float).eps), float(np.finfo(float).tiny)


@lru_cache(maxsize=64)
def _axis(axis, level: int):
    """(x, weights, odd, even) of an integrated axis of the rule at ``level``.

    ``axis`` is a range (lo, hi, None) of the exp-sinh map onto [0, inf), or
    (lo, hi, V) for its composition with v = V x/(1 + x), tanh-sinh on
    [0, V]. The read-only weight rows are the trapezoid weights, those of
    the level before (zero on the odd nodes) and of the level before that
    (zero off every fourth node), and dx/dt at the first and at the last
    node. ``odd`` and ``even`` index the nodes the level adds and keeps.
    """
    lo, hi, top = axis
    j = np.arange(round(lo * 2**level), round(hi * 2**level) + 1)
    t = np.ldexp(j, -level)
    x = np.exp(0.5 * np.pi * np.sinh(t))
    jac = 0.5 * np.pi * np.cosh(t) * x
    if top is not None:
        shrink = 1.0 / (1.0 + x)
        x, jac = top * x * shrink, top * jac * shrink * shrink
    weights = np.zeros((5, j.size))
    weights[0] = np.ldexp(jac, -level)
    weights[1, j % 2 == 0] = 2.0 * weights[0, j % 2 == 0]
    weights[2, j % 4 == 0] = 4.0 * weights[0, j % 4 == 0]
    weights[3, 0], weights[4, -1] = jac[0], jac[-1]
    x.setflags(write=False)
    weights.setflags(write=False)
    # Node i has j = j[0] + i, so the odd and the even nodes alternate.
    start = int(j[0]) % 2
    return x, weights, range(1 - start, x.size, 2), range(start, x.size, 2)


def _fixed(x: np.ndarray, w: np.ndarray):
    """A fixed outer axis in the form of ``_axis``: nodes x, and weights w
    of shape (R, x.size), R sums, for every level; no added nodes or ends."""
    return x, w, range(0), range(x.size)


# The single node x = 0 of an axis not integrated.
_POINT = _fixed(np.zeros(1), np.ones((1, 1)))
# A new level halves S_k into S_k-1 as S_k-1 becomes S_k-2; end rows stay.
_KEEP, _HALVE = np.array([0, 0, 1, 3, 4]), np.array([0.5, 1, 1, 1, 1.0])


def _max(a, b):
    """np.maximum of floats a and b: NaN if either is, b if they are equal."""
    return a if a > b or a != a else b


def _booked(change, before, total):
    """The error booked for a step of ``change`` after one of ``before``.

    A double-exponential rule roughly doubles its correct digits per step,
    so its error after the step is about change**2/|total|. That is booked,
    times ``_SQUARE`` and never above the change itself, only where the two
    steps showed the doubling: K*before <= |total|, the step before gained
    digits, and change*|total| <= K*before**2, K = ``_DOUBLING``. Elsewhere,
    and wherever a NaN is, the change itself is booked. Floats in and out.
    """
    size, twice = abs(total), _DOUBLING * before
    if change * size <= twice * before and twice <= size:
        square = _SQUARE * change * change / max(size, _TINY)
        return change if change < square else square  # as np.minimum
    return change


def _grouped(xs, shape):
    """``shape``'s column floats by group: (s, p, s + p) of (G, 2), or each."""
    if len(shape) == 2:
        return [[s, p, s + p] for s, p in zip(xs[::2], xs[1::2])]
    return [[x] for x in xs] if shape else [xs]


def _nested(f: Callable, outer, inner, levels: tuple[int, int],
            rel_tol: float, abs_floor: float, shape: tuple | None, once=False):
    """Nested trapezoid rule over the tensor product of two axes.

    The inner axis is a range of ``_axis``; the outer one is a range too or a
    fixed axis of ``_fixed``, of R sums. ``f(a, b)`` gets outer abscissas a of
    shape (A, 1) and inner ones b of shape (1, m) and returns shape ``shape`` +
    (A, m), columns first, () or (K,) or G (s, p) pairs (G, 2); None takes ()
    or (k,) from the first call (the 1-D rule). The first of ``levels``
    evaluates every node and reads the two levels before from every second and
    every fourth node, so one pass yields an error; each later level evaluates
    the nodes it adds. A block takes the fewest calls of at most ``_CHUNK``
    point-columns (one per pair if ``once``) or one row, one row apart. The
    level's verdict runs on its sums as floats: each integrated axis books
    (``_booked``) the change of S_k as it alone drops to level k-1, after its
    change from k-2 to k-1, plus the end terms, integrals along the end lines
    of each such axis per unit t; ``_ULPS`` ulps of the sum of |weight * f| are
    the least error. Every column of every sum meets
    ``max(rel_tol*|S_k|, abs_floor)``, and, with an integrated outer axis, each
    pair's sum with the sum of its errors (``_grouped``); a fixed axis's sums
    are terms the caller judges. A miss stops the rule, not converged, where
    each miss is by its floor alone (a pair's sum by its summed floor), the
    error it books; the last level books the larger of its last two changes.
    Returns (value, error, points, a verdict per ``_grouped`` group, upper end
    term of the inner axis, sum of |weight * f|, ``shape``), as floats, each
    column's R sums in turn."""
    first, last = levels
    integrated = len(outer) == 3
    columns = math.prod((shape or ())[:1] if once else shape or ())
    sums, size, evals = 0.0, 0.0, 0
    for level in range(first, last + 1):
        u, w_u, odd_u, even_u = _axis(outer, level) if integrated else outer
        v, w_v, odd_v, _ = _axis(inner, level)
        if level == first:
            blocks = [(range(u.size), range(v.size))]
        else:
            blocks = [(odd_u, range(v.size)), (even_u, odd_v)]
            sums, size = sums.take(_KEEP, -1) * _HALVE, 0.5 * size
            if integrated:
                sums, size = sums.take(_KEEP, 1) * _HALVE[:, None], 0.5 * size
        for rows, nodes in blocks:
            cols = slice(nodes.start, nodes.stop, nodes.step)
            n = -(-len(rows) // max(1, _CHUNK // (len(nodes) * columns)))
            for k in range(n):  # n calls, one row apart in size
                chunk = rows[k * len(rows) // n:(k + 1) * len(rows) // n]
                r = slice(chunk.start, chunk.stop, chunk.step)
                y = np.asarray(f(u[r, None], v[None, cols]), dtype=float)
                if shape is None:  # the 1-D rule: one value or k columns
                    shape = y.shape[:-2][-1:]
                if y.shape != (want := shape + (len(chunk), len(nodes))):
                    raise ValueError(f"integrand shape {y.shape}, not {want}:"
                                     " one row per abscissa of its columns")
                y = y.reshape(-1, len(chunk), len(nodes))
                evals += len(chunk) * len(nodes)
                wu, wv, magnitude = w_u[:, r], w_v[:, cols], np.abs(y)
                # One sum's vector product rounds as it always has.
                mass = ((wu[0] @ magnitude @ wv[0])[:, None] if len(wu) == 1
                        or integrated else wu @ magnitude @ wv[0])
                # A non-finite value leaves its column's sum of |w * f|
                # non-finite; so may an overflow, which is let through.
                if not np.isfinite(mass).all():
                    for i, j in np.argwhere(~np.isfinite(y).all(axis=0))[:1]:
                        where = ("" if outer is _POINT
                                 else f" (outer {u[chunk[i]]})")
                        raise ValueError("integrand returned a non-finite"
                                         f" value at x = {v[nodes[j]]}{where}")
                sums = sums + wu @ y @ wv.T
                size = size + mass
        # Per column and sum, on floats: S of each integrated axis, inner and
        # then outer, alone at levels k, k-1 and k-2, then its end lines. A
        # tensor rule's levels 1 and 2 are too coarse to show doubling.
        judge, verdict = level > 3 or not integrated, []
        for column, masses in zip(sums.tolist(), size.tolist()):
            for lines, mass in zip([(column[0], [s[0] for s in column])]
                                   if integrated else zip(column), masses):
                total, booked, worst, bound = lines[0][0], 0.0, 0.0, 0.0
                for s in lines:
                    step, prior = abs(s[0] - s[1]), abs(s[1] - s[2])
                    booked += _booked(step, prior, total) if judge else step
                    worst += _max(step, prior)
                    bound = bound + abs(s[3]) + abs(s[4])
                verdict.append((total, _max(booked + bound, _FLOOR * mass),
                                abs(lines[0][4]), mass, worst + bound))
        groups, judged = ((shape, verdict) if integrated
                          else ((), verdict[::sums.shape[1]]))
        met, floored = [], True
        for ts, es, ms in zip(*(_grouped([row[i] for row in judged], groups)
                                for i in (0, 1, 3))):
            miss = [(e, m) for t, e, m in zip(ts, es, ms)
                    if not e <= _max(rel_tol * abs(t), abs_floor)]
            met.append(not miss)
            floored = floored and all(e <= _FLOOR * m for e, m in miss)
        if floored or level == last:
            break
    # (value, error, top, mass, unsettled) per column, its sums in turn.
    value, error, top, mass, unsettled = map(list, zip(*verdict))
    if not floored:
        # The levels have not settled (rounding noise need not shrink from
        # one level to the next), so book the larger of the last two changes.
        error = list(map(_max, error, unsettled))
    return value, error, evals, met, top, mass, shape


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
) -> IntegralResult:
    """Integrate a decaying function over [0, inf).

    ``f`` maps an ndarray of n abscissas to shape (n,), or (n, k) for k
    integrals over the same abscissas (columns); ``spec`` gives rel_tol and
    abs_floor. The nested rule runs on t in [-4.5, 3.875], x from 2e-31 to
    2.7e16, levels 3 to 12 (68 to 34,305 points). An upper end term above
    the target means the integrand has not decayed by the top of the range:
    a request to rescale it, raised as a ValueError. ``value`` and
    ``error_estimate`` are floats for one column and ndarrays of shape (k,)
    otherwise; ``converged`` requires every column to meet its target, and
    a miss is reported through it, never silently.
    ``evaluations`` counts abscissas.
    """
    value, error, evaluations, converged, top, _, shape = _nested(
        lambda _, x: np.atleast_1d(f(x[0])).T[..., None, :], _POINT, _LINE,
        _LINE_LEVELS, spec.rel_tol, spec.abs_floor, None)
    value, error = (np.array(x) if shape else x[0] for x in (value, error))
    if np.any(top > np.maximum(spec.rel_tol * np.abs(value), spec.abs_floor)):
        raise ValueError(
            "the integrand has not decayed by x = 2.7e16; rescale the"
            " integrand so its decay scale is of order one before integrating")
    return IntegralResult(value, error, evaluations, all(converged))


def double_semi_infinite(
    integrand_si: Callable,
    spec: QuadratureSpec,
    d_ref: float,
    prefactor: float = 1.0,
    temperature: float = 0.0,
    zero_term: float | np.ndarray | None = None,
    index: float = 1.0,
    columns: tuple[int, ...] = (),
) -> IntegralResult:
    """prefactor * Int_0^inf dxi Int_0^inf dq integrand_si(xi, q).

    ``integrand_si(xi, q)`` is called with xi of shape (A, 1), one frequency
    per row, and a row q of shape (1, m) that broadcasts against it; it returns
    shape ``columns`` + (A, m), the columns first as in ``layers.Plan``, and
    any other is refused: () for one column, (K,) for K (the engine's
    heights, or G forces whose s and p are one array), or (G, 2) pairs, G
    forces' s and p (one force is (1, 2)); other ``columns`` are refused
    before the first call. The columns share one pass, and their count sizes
    its calls (``_nested``). The q rule runs in v = q*d_ref from 3.2e-15 to
    46, so decay scales of order d_ref become O(1); ``spec.q_cutoff``
    composes it with tanh-sinh on [0, q_cutoff*d_ref].
    ``index`` is a lower bound on the medium's refractive index n(i xi): the
    integrand decays like exp(-2 n xi d_ref/c), so ``d_ref`` and ``index`` set
    the frequency scale both rules must resolve. Both must be finite and
    positive, ``prefactor`` finite and nonzero and ``temperature`` finite and
    >= 0, or they are refused.

    At T = 0 the rule is the tensor product of the q rule with the rule in
    u = index*xi*d_ref/c from 2.4e-19 to 46, levels 4 to 6 (7,917 to
    124,545 points without a cutoff), or 3 to 6 from 2,024 points where
    ``spec.rel_tol`` is at least 1e-4. At T > 0 the xi integral is the sum
    of ``_thermal_sum``; its m = 0 term is ``zero_term``: None sums it at
    half weight, a number or an array of the columns' shape is added in its
    place (0.0 leaves it out), and 0 K ignores it. Either rule judges its
    result at every temperature: each column, and each pair's sum with the
    sum of its errors, must meet max(rel_tol*|.|, abs_floor); a rule stops once
    each pair or column meets it or rounding alone keeps it out of reach, and
    no non-finite scaled result converges. ``evaluations`` counts points.
    """
    *sums, evaluations, converged = _double(
        integrand_si, spec, d_ref, prefactor, temperature, zero_term,
        index=index, columns=columns)
    return IntegralResult(*(np.reshape(x, columns) if columns else x[0]
                            for x in sums), evaluations, all(converged))


def _double(integrand_si, spec, d_ref, prefactor, temperature, zero_term,
            index, columns, once=False):
    """``double_semi_infinite`` in lists, a verdict per ``_grouped`` group."""
    for name, bound in (("d_ref", d_ref), ("index", index)):
        if not 0.0 < bound < np.inf:
            raise ValueError(f"{name} must be finite and positive: {bound}")
    if not (math.isfinite(prefactor) and prefactor != 0.0):
        raise ValueError(f"prefactor must be finite and nonzero: {prefactor}")
    if not 0.0 <= temperature < np.inf:
        raise ValueError(f"temperature must be finite and >= 0: {temperature}")
    if columns[1:] not in ((), (2,)) or 0 in columns:
        raise ValueError(f"columns {columns} are not (), (K,) or (G, 2) pairs")
    # The rules sum in u and v without the prefactor and the Jacobians of
    # those variables, which scale the result; so must the floor.
    jac = c / (index * d_ref)
    scale = float(prefactor * jac / d_ref)
    floor = 0.0 if spec.abs_floor == 0.0 else spec.abs_floor / abs(scale)
    v_axis = _MOMENTUM if spec.q_cutoff is None else (
        _MOMENTUM[0], _CUTOFF_TOP, spec.q_cutoff * d_ref)
    first = 3 if spec.rel_tol >= _LOOSE else _TENSOR_LEVELS[0]

    def tensor(xi):  # the 0 K rule over frequencies from xi on
        return _nested(lambda u, v: integrand_si(xi + u * jac, v / d_ref),
                       _FREQUENCY, v_axis, (first, _TENSOR_LEVELS[1]),
                       spec.rel_tol, floor, columns, once)

    if temperature == 0.0:
        value, error, evaluations, converged, *_ = tensor(0.0)
        zero_term = None  # 0 K has no m = 0 term
    else:
        spacing = float(matsubara_frequency(1, temperature))
        if zero_term is not None:  # per column
            zero_term = np.broadcast_to(zero_term, columns).ravel().tolist()
        value, error, evaluations, converged = _thermal_sum(
            tensor, lambda xi, v: integrand_si(xi, v / d_ref), columns,
            v_axis, first, spacing, spacing / jac, spec, floor,
            zero_term and [x / scale for x in zero_term])
    k = np.float64(scale)  # numpy's scalars warn where a product overflows
    value = [float(k * x) for x in value]
    error = [float(abs(k) * x) for x in error]
    if zero_term is not None:
        value = [x + a for x, a in zip(value, zero_term)]
    finite = all(map(math.isfinite, value + error))
    return value, error, evaluations, [ok and finite for ok in converged]


def matsubara_frequency(m: int | np.ndarray, temperature: float):
    """m-th bosonic imaginary frequency xi_m = 2 pi m k_B T / hbar (rad/s)."""
    return 2.0 * np.pi * Boltzmann * temperature * m / hbar


@lru_cache(maxsize=None)
def _rows(start: int, stop: int, tail: int | None):
    """Read-only (m, w): Matsubara nodes m = start..stop-1 and three weight
    rows in units of their spacing, m = 0 at half weight: the sum, the last
    node and the one before; or, with a ``tail`` M, the sum of m < M plus
    the trapezoid sum from M on less its integral, by ``_GREGORY`` but its
    last coefficient, then delta**K and delta**K-1 at M."""
    m, w = np.arange(start, stop), np.zeros((3, stop - start))
    at = m.size if tail is None else tail - start
    w[0, :at] = 1.0
    if tail is None:
        w[1, -1], w[2, -2:-1] = 1.0, 1.0
    else:
        w[0, at] = 0.5
        diff = np.ones(1)  # delta**k: the powers of (E - 1), E the shift
        for k, c_k in enumerate(_GREGORY[:-1], 1):
            diff, w[2] = np.convolve(diff, [-1.0, 1.0]), w[1]
            w[1, at:at + k + 1] = diff
            w[0] += c_k * w[1]
    w[0, 0] -= 0.5 if start == 0 else 0.0
    m.flags.writeable = w.flags.writeable = False
    return m, w


def _thermal_sum(tensor: Callable, f: Callable, shape: tuple[int, ...],
                 inner, first: int, spacing: float, h: float,
                 spec: QuadratureSpec, floor: float, zero_term: list | None):
    """(value, error, points, converged) of the thermal sum of f, as lists.

    The sum is h Sum_m g(xi_m), xi_m = m ``spacing`` (rad/s), h that spacing in
    the units of ``tensor``, the 0 K rule (first level ``first``) from a
    frequency on; m = 0 is at half weight, or out given a ``zero_term``. g is
    the q rule ``inner`` of f on a fixed axis of ``_nested`` (``_rows``),
    judged on row 0 against a tenth of rel_tol. The terms fall like
    exp(-2 m h), so n = 2 + 0.75 ln(1/rel_tol)/h meet the target. While n, then
    twice as many, cost no more q rules than the 0 K rule has points plus the
    first head, they are summed, the masses a, b of the last two bounding the
    rest by a**2/(b - a) + a/(e^2h - 1): their ratio held, or the slowest fall
    the integrand may have. Else m < M is summed, M = ``_HEAD`` first, and m >=
    M is ``tensor(xi_M)`` plus Gregory's correction, whose last differences a,
    b book its rest as max(a, b) min(the coefficients left, |c_K+1|/(1 - a/b)).
    While that misses what the q errors leave of the target, judged on the
    first tail, M doubles within the same budget; the tail runs again at the M
    that fits, or at the last M. The error is the q errors plus the booked
    rest. Each column and pair sum of S + ``zero_term`` must meet
    max(rel_tol*|.|, floor); each group of ``_grouped`` has a verdict once
    all have met theirs or their q errors alone miss and the rest is within.
    """
    tol, start, points = spec.rel_tol, int(zero_term is not None), 0
    zero = zero_term or [0.0] * math.prod(shape)
    nodes = _axis(inner, _TERM_LEVELS[0])[0].size
    budget = (_axis(_FREQUENCY, first)[0].size * _axis(inner, first)[0].size
              // nodes + _HEAD + len(_GREGORY) - start)

    def terms(lo, hi, cut, aim):  # lists of value, error and mass rows
        nonlocal points
        m, w = _rows(lo, hi, cut)
        v, e, count, _, _, mass, _ = _nested(
            f, _fixed(m * spacing, w * h), inner, _TERM_LEVELS, 0.1 * tol,
            _max(floor, aim), shape)
        points += count  # each column's R sums in turn, to R rows
        return [[x[i::len(w)] for i in range(len(w))] for x in (v, e, mass)]

    def tail(m):  # the 0 K rule from xi_m on, as lists
        nonlocal points
        value, error, count, *_ = tensor(m * spacing)
        points += count
        return value, error

    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    def judge(value, q_error, booked):  # (met per group, each met or out)
        met, done = [], True
        for t, q, b in zip(_grouped(add(value, zero), shape),
                           _grouped(q_error, shape), _grouped(booked, shape)):
            goal = [_max(tol * abs(x), floor) for x in t]
            met.append(all(x + y <= g for x, y, g in zip(q, b, goal)))
            done = done and (met[-1] or not all(x < g for x, g in zip(q, goal))
                             and not any(y > x for x, y in zip(q, b)))
        return met, done

    def aim(value):  # a tenth of the least column target, for later rules
        return 0.1 * tol * min(map(abs, add(value, zero)))

    n = min(0.75 * math.log(1.0 / tol) / h, budget) if h else budget
    lo, hi = start, start + 2 + math.ceil(n)
    slow = math.exp(-2.0 * h) / -math.expm1(-2.0 * h) if h else 0.0
    value = error = [0.0] * len(zero)
    while hi - start <= budget:
        (v, *_), (e, *_), (_, a, b) = terms(lo, hi, None, aim(
            value) if lo > start else 0.0)
        value, error = add(value, v), add(error, e)
        rest = [x * (x / (y - x) + slow) if x < y else math.inf if x else 0.0
                for x, y in zip(a, b)]
        met, done = judge(value, error, rest)
        if done:
            return value, add(error, rest), points, met
        lo, hi = hi, 2 * hi - lo
    left, last = 0.5 - sum(map(abs, _GREGORY[:-1])), abs(_GREGORY[-1])

    def gregory(m, aim):  # value, q error and booked rest of the head
        (value, a, b), (error, *_), _ = terms(start, m + len(_GREGORY), m,
                                              aim)
        return value, error, [
            max(x, y) * (min(left, last / (1.0 - x / y)) if x < y else left)
            for x, y in zip(map(abs, a), map(abs, b))]

    m = _HEAD
    t_value, t_error = tail(m)
    g_value, g_error, booked = gregory(m, aim(t_value))
    value, error = add(g_value, t_value), add(g_error, t_error)
    met, done = judge(value, error, booked)
    while not done and 2 * m + len(_GREGORY) - start <= budget:
        m *= 2
        g_value, g_error, rest = gregory(m, aim(t_value))
        met, done = judge(value, add(g_error, t_error), rest)
        if done or 2 * m + len(_GREGORY) - start > budget:
            t_value, t_error = tail(m)
            value, error = add(g_value, t_value), add(g_error, t_error)
            booked, met = rest, judge(value, error, rest)[0]
    return value, add(error, booked), points, met


def matsubara_sum(
    g: Callable,
    temperature: float,
    spec: QuadratureSpec,
    zero_term: float | np.ndarray | None = None,
) -> IntegralResult:
    """Thermal sum (2 pi k_B T/hbar) [g(0)/2 + Sum_{m>=1} g(xi_m)].

    The weighted sum is a trapezoid rule with node spacing 2 pi k_B T/hbar,
    so it converges to ``integral_0^inf g(xi) dxi`` as T -> 0. It sums the
    Matsubara terms themselves, sharing no code with the rule of
    ``double_semi_infinite``, whose thermal sums it checks. Blocks of
    ``_BLOCKS[0]`` nonzero terms, then of twice the block before, each book
    ``_ULPS`` ulps of their sum S of |weight * g| as rounding; with rho the
    ratio of S to the block before (0.999 at most, and for the first block),
    the tail bound is S rho/(1 - rho) per column. The sum stops when the
    tail fits in what the rounding leaves of the target (or meets the target
    alone), or, not converged, after the block of ``_BLOCKS[1]`` terms.

    Parameters
    ----------
    g : callable
        Function of the imaginary frequency xi (rad/s, a float) returning a
        real number, or an ndarray of shape (k,) for k sums over the same
        frequencies (columns). It is called once per frequency and must
        decay.
    temperature : float
        Temperature in kelvin, finite and > 0.
    spec : QuadratureSpec
        Uses rel_tol and abs_floor.
    zero_term : float or ndarray, optional
        None adds g(0)/2 (the trapezoid endpoint weight) to the first block;
        a value, of the result's shape and units, replaces the m = 0 term
        without evaluating g(0) (0.0 drops it).

    Returns
    -------
    IntegralResult
        ``value`` includes the 2 pi k_B T/hbar prefactor; ``error_estimate``
        is the tail bound plus the rounding of the blocks. Floats for a
        scalar g, ndarrays of shape (k,) otherwise; ``converged`` covers
        every column and is false if the last block stopped the sum.
        ``evaluations`` counts the frequencies g received.
    """
    if not 0.0 < temperature < np.inf:
        raise ValueError("matsubara_sum needs a finite temperature > 0, got"
                         f" {temperature}; use the zero-temperature integral"
                         " at 0 K")
    if zero_term is not None and not np.isfinite(zero_term).all():
        raise ValueError(f"zero_term must be finite, got {zero_term}")
    spacing = float(matsubara_frequency(1, temperature))
    error = mass = 0.0
    # done: the last nonzero m summed; head: m = 0 joins the first block.
    points, done, size = 0, 0, _BLOCKS[0]
    total, head = (0.0, 1) if zero_term is None else (zero_term, 0)
    while True:
        m = np.arange(done + 1 - head, done + size + 1)
        xi = matsubara_frequency(m, temperature)
        y = np.array([g(x) for x in xi.tolist()], dtype=float)
        bad = ~np.isfinite(y.reshape(len(y), -1)).all(axis=1)
        if bad.any():
            x = xi[bad.argmax()]
            raise ValueError(
                f"thermal term at xi = {x} rad/s is not finite" if x else
                "g(0) is not finite; for zero-frequency-divergent media pass"
                " zero_term, 0.0 to leave m = 0 out or a finite m = 0 value")
        # Each column's terms contiguous, so that its sums are the same
        # whatever the number of columns.
        y = np.ascontiguousarray(y.T)
        w = np.where(m == 0, 0.5 * spacing, spacing)
        points += m.size
        block_mass = (w * np.abs(y)).sum(axis=-1)
        total = total + (w * y).sum(axis=-1)
        error = error + _FLOOR * block_mass
        # No quotient above 0.999 is formed, so none can overflow.
        ratio = np.divide(block_mass, mass,
                          out=np.full(np.shape(block_mass), 0.999),
                          where=block_mass < 0.999 * mass)
        tail = block_mass * ratio / (1.0 - ratio)
        # The tail must fit in what the blocks' rounding leaves of the
        # target, or meet the target alone once it leaves nothing.
        goal = np.maximum(spec.rel_tol * np.abs(total), spec.abs_floor)
        met = bool(np.all(tail <= np.where(error < goal, goal - error, goal)))
        if met or size == _BLOCKS[1]:
            break
        mass, done, size, head = block_mass, done + size, 2 * size, 0
    error = error + tail
    met = met and bool(np.all(error <= goal))
    total, error = (x if np.ndim(x) else float(x) for x in (total, error))
    return IntegralResult(total, error, points, met)
