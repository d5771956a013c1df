"""Deterministic adaptive quadrature on [0, inf) and bosonic frequency sums.

The integrator is a globally adaptive Gauss-Kronrod 7/15 scheme applied after
the compactifying substitution x = t/(1 - t), which maps [0, inf) onto [0, 1)
with Jacobian 1/(1 - t)^2. All Kronrod nodes are interior, so integrands are
never evaluated at x = 0 or at infinity. Subdivision order, and therefore the
floating-point result, is a pure function of the integrand and the spec: no
randomized nodes, no thread-order dependence.

Integrands are vectorized callables: they receive an ndarray of n abscissas
and return an ndarray of shape (n,), or (n, k) for k integrals sharing the
abscissas (the engine's s and p polarizations). An auxiliary error channel
adds a trailing axis of length 2, see ``integrate_semi_infinite``.
``double_semi_infinite`` is the one two-dimensional core: an inner q integral
under either an adaptive xi integral (T = 0) or a thermal frequency sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.constants import Boltzmann, hbar, c


@dataclass(frozen=True)
class QuadratureSpec:
    """Shared tolerance and budget knobs for all integrals and sums.

    Parameters
    ----------
    rel_tol : float
        Relative tolerance target, 0 < rel_tol < 1.
    abs_floor : float
        Absolute error floor; convergence means
        ``error <= max(rel_tol*|value|, abs_floor)``.
    max_subdivisions : int
        Interval-split budget per one-dimensional integral (>= 8).
    q_cutoff : float or None
        Sharp upper truncation of transverse-momentum integrals (rad/m).
        ``None`` integrates to infinity.
    matsubara_max_terms : int
        Hard cap on the number of nonzero thermal terms.
    matsubara_tail : str
        ``"none"`` truncates and books the tail bound as error;
        ``"integral-tail-estimate"`` adds a geometric tail continuation to the
        value and books half of it as error.
    """

    rel_tol: float = 1e-8
    abs_floor: float = 0.0
    max_subdivisions: int = 512
    q_cutoff: float | None = None
    matsubara_max_terms: int = 20000
    matsubara_tail: str = "none"

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if self.abs_floor < 0.0:
            raise ValueError("abs_floor must be >= 0")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be >= 8")
        if self.q_cutoff is not None and self.q_cutoff <= 0.0:
            raise ValueError("q_cutoff must be positive when given")
        if self.matsubara_max_terms < 1:
            raise ValueError("matsubara_max_terms must be >= 1")
        if self.matsubara_tail not in ("none", "integral-tail-estimate"):
            raise ValueError(f"unknown matsubara_tail policy {self.matsubara_tail!r}")


@dataclass(frozen=True)
class IntegralResult:
    """Value, error bookkeeping, and effort of one integral or sum.

    ``converged`` is true iff
    ``error_estimate <= max(rel_tol*|value|, abs_floor)`` for the spec the
    result was produced with, for every column. ``value`` and
    ``error_estimate`` are floats for a one-column integrand or sum and
    ndarrays of shape (k,) for k columns.
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int
    converged: bool


# 15-point Kronrod extension of 7-point Gauss on [-1, 1]; the Gauss points are
# every second Kronrod node. Standard public-domain table.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_IDX = np.arange(1, 15, 2)
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])

_N_INITIAL = 8  # initial uniform panels on the transformed interval


def _panel(f: Callable, a: float, b: float, error_channel: bool):
    """One GK15 panel: (value, gk_error, channel_integral), one entry per column."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _XGK
    y = np.asarray(f(x), dtype=float)
    if error_channel:
        if y.ndim not in (2, 3) or y.shape[0] != 15 or y.shape[-1] != 2:
            raise ValueError(
                "error-channel integrand must return shape (n, 2) or (n, k, 2)")
        vals, errs = y[..., 0], y[..., 1]
    else:
        if y.ndim not in (1, 2) or y.shape[0] != 15:
            raise ValueError(
                "integrand must return one value or one row per abscissa")
        vals, errs = y, None
    finite = np.isfinite(y).reshape(15, -1).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"integrand returned a non-finite value at x = {x[~finite][0]}")
    kron = half * (_WGK @ vals)
    gauss = half * (_WG @ vals[_GAUSS_IDX])
    channel = 0.0 if errs is None else half * (_WGK @ np.abs(errs))
    return kron, np.abs(kron - gauss), channel


def _adaptive(f: Callable, a: float, b: float, spec: QuadratureSpec,
              error_channel: bool, floor) -> IntegralResult:
    """Globally adaptive GK15 on the finite interval [a, b].

    Panels are kept ordered by left edge, so totals are summed in a fixed
    order. Each round splits the panel with the largest GK error summed over
    columns (the leftmost one on a tie) until every column meets its own
    target ``max(rel_tol*|value_k|, floor_k)``.
    """
    edges = np.linspace(a, b, _N_INITIAL + 1)
    bounds = list(zip(edges[:-1], edges[1:]))
    panels = [_panel(f, lo, hi, error_channel) for lo, hi in bounds]
    scores = [float(np.sum(p[1])) for p in panels]
    evaluations = 15 * _N_INITIAL
    splits = 0
    while True:
        value, gk_error, channel = (np.sum(col, axis=0) for col in zip(*panels))
        tol = np.maximum(spec.rel_tol * np.abs(value), floor)
        converged = bool(np.all(gk_error <= tol))
        if converged or splits >= spec.max_subdivisions:
            # converged tracks this integral's own subdivision target; the
            # channel is a pass-through contribution from inner integrals and
            # is booked in error_estimate but not judged here.
            return IntegralResult(
                value=_plain(value),
                error_estimate=_plain(gk_error + channel),
                evaluations=evaluations,
                converged=converged,
            )
        worst = scores.index(max(scores))
        left, right = bounds[worst]
        mid = 0.5 * (left + right)
        halves = [(left, mid), (mid, right)]
        children = [_panel(f, lo, hi, error_channel) for lo, hi in halves]
        bounds[worst:worst + 1] = halves
        panels[worst:worst + 1] = children
        scores[worst:worst + 1] = [float(np.sum(p[1])) for p in children]
        evaluations += 30
        splits += 1


def _plain(x):
    """A float for one column, the ndarray for several."""
    return float(x) if np.ndim(x) == 0 else x


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
    upper: float | None = None,
    error_channel: bool = False,
    abs_floor: float | np.ndarray | None = None,
) -> IntegralResult:
    """Integrate a decaying function over [0, upper) with upper = inf default.

    Parameters
    ----------
    f : callable
        Vectorized integrand: ndarray of n abscissas -> ndarray of shape (n,),
        or (n, k) for k integrals over the same abscissas (columns). With
        ``error_channel=True`` a trailing axis of length 2 is added; entry 0
        is the integrand proper, entry 1 a non-negative auxiliary error
        density that is integrated alongside and added to ``error_estimate``
        (used to pass inner-integral errors through an outer integral).
    spec : QuadratureSpec
    upper : float, optional
        Finite sharp truncation point (used for momentum cutoffs). ``None``
        means the full half line.
    error_channel : bool
        See ``f``.
    abs_floor : float or ndarray, optional
        Absolute error floor in place of ``spec.abs_floor``; one per column
        when an ndarray.

    Returns
    -------
    IntegralResult
        Floats for a one-column integrand, ndarrays of shape (k,) for
        ``value`` and ``error_estimate`` otherwise. Panels are split by the
        error summed over columns; ``converged`` requires every column to
        meet its own target. Non-convergence within the subdivision budget is
        reported through the flag, never silently.
    """
    if upper is not None and upper <= 0.0:
        raise ValueError("upper truncation must be positive")
    t_max = 1.0 if upper is None else upper / (1.0 + upper)

    def transformed(t: np.ndarray):
        with np.errstate(divide="ignore"):
            x = t / (1.0 - t)
            jac = 1.0 / (1.0 - t) ** 2
        if not np.all(np.isfinite(x)):
            # Subdivision walked into the last representable sliver before
            # t = 1, which only happens when the integrand varies on a scale
            # wildly different from order one.
            raise ValueError(
                "upper-limit transform collapsed; rescale the integrand so "
                "its decay scale is of order one before integrating")
        y = np.asarray(f(x), dtype=float)
        if y.ndim == 0 or y.shape[0] != x.size:
            return y  # rejected by the panel's shape check
        finite = np.isfinite(y).reshape(y.shape[0], -1).all(axis=1)
        if not finite.all():
            bad = x[~finite][0]
            raise ValueError(
                f"integrand returned a non-finite value at x = {bad}")
        return y * jac.reshape((-1,) + (1,) * (y.ndim - 1))

    floor = spec.abs_floor if abs_floor is None else abs_floor
    return _adaptive(transformed, 0.0, t_max, spec, error_channel, floor)


def double_semi_infinite(
    integrand_si: Callable,
    spec: QuadratureSpec,
    d_ref: float,
    prefactor: float = 1.0,
    temperature: float = 0.0,
    zero_term_policy: str = "half-weight",
    zero_term_value: float | np.ndarray | None = None,
) -> IntegralResult:
    """prefactor * Int_0^inf dxi Int_0^inf dq integrand_si(xi, q).

    The integrand gives one value, or one row of k columns, per q; all
    columns share one pass. The q integral runs in v = q*d_ref, so decay
    scales of order d_ref become O(1), at a tenfold tighter relative
    tolerance so the outer error dominates; ``spec.q_cutoff`` truncates it
    sharply. Each q integral also gets a per-column absolute floor tracking
    the largest inner value seen so far: q integrals deep in the exponential
    tail (or pure rounding noise) could otherwise never meet a relative
    target and would burn the subdivision budget on contributions the outer
    rule cannot see.

    At T = 0 the outer rule is the adaptive integral over u = xi*d_ref/c,
    with inner errors riding the error channel. At T > 0 it is
    ``matsubara_sum``; the error is the tail bound plus the inner errors
    weighted by the node spacing (half weight on m = 0 under
    ``"half-weight"``). ``"custom-value"`` skips m = 0 and adds
    ``zero_term_value``, the full m = 0 contribution per column, to the
    value. ``converged`` requires the outer target and every inner target.
    """
    if d_ref <= 0.0:
        raise ValueError("reference length must be positive")
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")

    inner_rel = 0.1 * spec.rel_tol
    inner_spec = replace(spec, rel_tol=inner_rel)
    v_upper = None if spec.q_cutoff is None else spec.q_cutoff * d_ref
    state = {"evals": 0, "inner_ok": True, "scale": 0.0}

    def inner(xi):
        def f(vs):
            return integrand_si(xi, vs / d_ref) / d_ref

        res = integrate_semi_infinite(
            f, inner_spec, upper=v_upper,
            abs_floor=0.01 * spec.rel_tol * state["scale"])
        state["evals"] += res.evaluations
        state["inner_ok"] = state["inner_ok"] and res.converged
        state["scale"] = np.maximum(state["scale"], np.abs(res.value))
        return res

    if temperature == 0.0:
        jac = c / d_ref

        def outer_f(us):
            rows = []
            for u in us:
                res = inner(u * jac)
                rows.append(np.stack([res.value, res.error_estimate], axis=-1))
            return np.array(rows) * jac

        outer_spec = spec if spec.abs_floor == 0.0 else replace(
            spec, abs_floor=spec.abs_floor / abs(prefactor)
        )
        outer = integrate_semi_infinite(outer_f, outer_spec, error_channel=True)
        return IntegralResult(
            value=_plain(prefactor * outer.value),
            error_estimate=_plain(abs(prefactor) * outer.error_estimate),
            evaluations=state["evals"],
            converged=outer.converged and state["inner_ok"],
        )

    inner_errors = []

    def h(xi):
        res = inner(xi)
        inner_errors.append(res.error_estimate)
        return res.value

    custom = zero_term_policy == "custom-value"
    sum_policy = "drop" if custom else zero_term_policy
    ms = matsubara_sum(h, temperature, spec, zero_term_policy=sum_policy)

    node_spacing = 2.0 * np.pi * Boltzmann * temperature / hbar
    head = 0.5 if zero_term_policy == "half-weight" else 1.0
    weighted = head * inner_errors[0] + sum(inner_errors[1:])
    value = prefactor * ms.value
    if custom:
        value = value + np.asarray(zero_term_value, dtype=float)
    error = abs(prefactor) * (ms.error_estimate + node_spacing * weighted)
    return IntegralResult(
        value=_plain(value),
        error_estimate=_plain(error),
        evaluations=state["evals"] + ms.evaluations,
        converged=ms.converged and state["inner_ok"],
    )


def matsubara_frequency(m: int | np.ndarray, temperature: float):
    """m-th bosonic imaginary frequency xi_m = 2 pi m k_B T / hbar (rad/s)."""
    return 2.0 * np.pi * Boltzmann * temperature * np.asarray(m) / hbar


def _geometric_tail(last, prev):
    """Upper bound on the remaining sum, from the last two terms, per column.

    Models the tail as a geometric series with the observed term ratio
    (clipped to 0.999 so a ratio near 1 gives a large but finite bound).
    """
    last, prev = np.abs(last), np.abs(prev)
    ratio = np.divide(last, prev, out=np.full_like(last, 0.5), where=prev != 0.0)
    ratio = np.minimum(ratio, 0.999)
    return last * ratio / (1.0 - ratio)


def matsubara_sum(
    g: Callable,
    temperature: float,
    spec: QuadratureSpec,
    zero_term_policy: str = "half-weight",
    zero_term_value: float | np.ndarray | None = None,
) -> IntegralResult:
    """Weighted thermal sum (2 pi k_B T/hbar) * [w0*g(0) + sum_m g(xi_m)].

    The weighted sum is a trapezoid rule with node spacing 2 pi k_B T/hbar,
    so it converges to ``integral_0^inf g(xi) dxi`` as T -> 0.

    Parameters
    ----------
    g : callable
        Function of the imaginary frequency xi (rad/s) returning a real
        number, or an ndarray of shape (k,) for k sums over the same
        frequencies (columns). Must decay; summation stops once the geometric
        tail bound of every column falls below its tolerance for three
        consecutive m.
    temperature : float
        Temperature in kelvin, > 0.
    spec : QuadratureSpec
        Uses rel_tol, abs_floor, matsubara_max_terms and matsubara_tail.
    zero_term_policy : str
        ``"half-weight"`` uses g(0)/2 (the trapezoid endpoint weight);
        ``"drop"`` omits the m = 0 term without evaluating g(0);
        ``"custom-value"`` uses ``zero_term_value/2`` in place of g(0)/2, for
        integrands whose xi -> 0 limit exists but cannot be evaluated at 0.
    zero_term_value : float or ndarray, optional
        Stand-in for g(0) under ``"custom-value"``.

    Returns
    -------
    IntegralResult
        ``value`` includes the 2 pi k_B T/hbar prefactor; ``error_estimate``
        covers truncation of the tail (and the discarded/added tail per the
        tail policy), not errors internal to g itself. Floats for a scalar g,
        ndarrays of shape (k,) otherwise; ``converged`` covers every column.
    """
    if temperature <= 0.0:
        raise ValueError("matsubara_sum needs temperature > 0; use the"
                         " zero-temperature integral instead")
    if zero_term_policy not in ("half-weight", "drop", "custom-value"):
        raise ValueError(f"unknown zero_term_policy {zero_term_policy!r}")
    if zero_term_policy == "custom-value" and zero_term_value is None:
        raise ValueError("custom-value policy requires zero_term_value")

    prefactor = 2.0 * np.pi * Boltzmann * temperature / hbar
    evaluations = 0

    if zero_term_policy == "drop":
        total = 0.0
    elif zero_term_policy == "custom-value":
        total = 0.5 * np.asarray(zero_term_value, dtype=float)
    else:
        g0 = np.asarray(g(0.0), dtype=float)
        evaluations += 1
        if not np.all(np.isfinite(g0)):
            raise ValueError(
                "g(0) is not finite; choose zero_term_policy 'drop' or"
                " 'custom-value' for zero-frequency-divergent media"
            )
        total = 0.5 * g0

    below = 0
    last = prev = 0.0
    truncated = True
    for m in range(1, spec.matsubara_max_terms + 1):
        term = np.asarray(g(float(matsubara_frequency(m, temperature))),
                          dtype=float)
        evaluations += 1
        if not np.all(np.isfinite(term)):
            raise ValueError(f"thermal term m = {m} is not finite")
        prev, last = last, term
        total = total + term
        tol = np.maximum(spec.rel_tol * np.abs(total), spec.abs_floor / prefactor)
        # Judge the geometric tail, not the term: at low temperature the
        # term ratio approaches 1 and the tail dwarfs the last term.
        below = np.where(_geometric_tail(last, prev) <= tol, below + 1, 0)
        if np.all(below >= 3):
            truncated = False
            break

    tail = _geometric_tail(last, prev)
    if spec.matsubara_tail == "integral-tail-estimate":
        total = total + np.sign(last) * tail
        error = prefactor * 0.5 * tail
    else:
        error = prefactor * tail

    value = prefactor * total
    converged = (not truncated) and bool(np.all(
        error <= np.maximum(spec.rel_tol * np.abs(value), spec.abs_floor)
    ))
    return IntegralResult(value=_plain(value), error_estimate=_plain(error),
                          evaluations=evaluations, converged=converged)
