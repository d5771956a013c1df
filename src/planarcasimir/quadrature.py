"""Deterministic adaptive quadrature on [0, inf) and bosonic frequency sums.

The integrator is a globally adaptive Gauss-Kronrod 7/15 scheme applied after
the compactifying substitution x = t/(1 - t), which maps [0, inf) onto [0, 1)
with Jacobian 1/(1 - t)^2. All Kronrod nodes are interior, so integrands are
never evaluated at x = 0 or at infinity. Subdivision order, and therefore the
floating-point result, is a pure function of the integrand and the spec: no
randomized nodes, no thread-order dependence.

One core, ``_adaptive_rows``, runs R independent integrals ("rows") at
once, with every refinement round of all rows in one integrand call, so
numpy's per-call cost is paid per round rather than per 15-node panel (the
QUADPACK qags rule of Piessens et al., 1983, applied row by row).
``integrate_semi_infinite`` is its one-row caller. Its integrands are
vectorized callables: they receive an ndarray of n abscissas and return an
ndarray of shape (n,), or (n, k) for k integrals sharing the abscissas (the
engine's s and p polarizations). An auxiliary error channel adds a trailing
axis of length 2. ``double_semi_infinite`` is the one two-dimensional core:
batches of inner q integrals, one row per frequency, whose errors ride the
channel of an adaptive xi integral (T = 0) or of ``matsubara_sum``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .constants import Boltzmann, c, hbar


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
        Sharp, finite upper truncation of transverse-momentum integrals
        (rad/m). ``None`` integrates to infinity.
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
        if not self.abs_floor >= 0.0:
            raise ValueError(f"abs_floor must be >= 0, got {self.abs_floor}")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be >= 8")
        if self.q_cutoff is not None and not 0.0 < self.q_cutoff < np.inf:
            raise ValueError("q_cutoff must be positive and finite when"
                             f" given, got {self.q_cutoff}")
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
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])

# Kronrod and Gauss weights as the rows of one matrix, so one product gives
# both estimates of every panel.
_W_KG = np.zeros((2, 15))
_W_KG[0] = _WGK
_W_KG[1, 1::2] = _WG

_N_INITIAL = 8  # initial uniform panels on the transformed interval
_EDGES = np.arange(_N_INITIAL + 1) / _N_INITIAL
# Rows per batch of inner integrals. Larger batches amortize more per-call
# overhead but hold more points in the integrand's temporaries: 30 rows
# (about 3,600 points in the first call) add about 1 MB to peak memory.
_BATCH_ROWS = 30


def _panels(f: Callable, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            error_channel: bool):
    """GK15 on the panels [lo, hi) of t, for all rows in one call of ``f``.

    ``lo`` and ``hi`` have shape (r, p): p panels of each of the r rows
    listed in ``rows``. ``f`` gets ``rows`` and the abscissas x = t/(1 - t)
    of shape (r, 15 p); the Jacobian is applied here. Returns the panel
    data of shape (r, p, 2k), or (r, p, 3k) with the error channel: the
    Kronrod values, the GK errors and the channel integrals of the k
    columns, then the column shape of ``f``, () or (k,).
    """
    half = 0.5 * (hi - lo)
    t = ((0.5 * (lo + hi))[..., None] + half[..., None] * _XGK).reshape(
        lo.shape[0], -1)
    if not t.max() < 1.0:
        # Subdivision walked into the last representable sliver before
        # t = 1, which only happens when the integrand varies on a scale
        # wildly different from order one.
        raise ValueError(
            "upper-limit transform collapsed; rescale the integrand so "
            "its decay scale is of order one before integrating")
    gap = 1.0 - t
    x = t / gap
    y = np.asarray(f(rows, x), dtype=float)
    n_cols = y.ndim - 2 - error_channel
    if (y.shape[:2] != x.shape or n_cols not in (0, 1)
            or (error_channel and y.shape[-1] != 2)):
        raise ValueError(
            "error-channel integrand must return shape (n, 2) or (n, k, 2)"
            if error_channel else
            "integrand must return one value or one row per abscissa")
    y = y * (1.0 / gap**2).reshape(x.shape + (1,) * (y.ndim - 2))
    if not np.isfinite(y).all():
        finite = np.isfinite(y).reshape(x.shape + (-1,)).all(axis=-1)
        raise ValueError(
            f"integrand returned a non-finite value at x = {x[~finite][0]}")
    cols = y.shape[2:2 + n_cols]
    # einsum rather than a stacked matmul: BLAS would add its work buffers
    # to the peak memory of every run for no speed gain at these sizes.
    y = y.reshape(lo.shape + (15, -1, 1 + error_channel))
    both = np.einsum("gn,rpnk->rpgk", _W_KG, y[..., 0])
    half = half[..., None]
    kron = half * both[:, :, 0]
    parts = [kron, np.abs(kron - half * both[:, :, 1])]
    if error_channel:
        parts.append(half * np.einsum("n,rpnk->rpk", _WGK, np.abs(y[..., 1])))
    return np.concatenate(parts, axis=-1), cols


def _adaptive_rows(f: Callable, n_rows: int, upper: float | None,
                   spec: QuadratureSpec, floor_of: Callable,
                   error_channel: bool = False):
    """R = ``n_rows`` independent globally adaptive GK15 integrals on [0, upper).

    ``f(rows, x)`` evaluates the rows listed in ``rows``, shape (r,), at
    abscissas x of shape (r, n) and returns shape (r, n), or (r, n, k) for
    k columns, plus a trailing axis of 2 with the error channel. The first
    8 panels of every row are one call of ``f``. Each round then splits, in
    every row still short of its target and of ``spec.max_subdivisions``,
    the panel with the largest GK error summed over columns (the lowest
    slot on a tie), and evaluates all children of the round in one call.

    A row's target is ``max(rel_tol*|value_k|, floor_k)`` for every column,
    with ``floor_of(first)`` computed once from the first-pass values, shape
    (R,) + columns. Running totals drive the rounds; a row is converged
    when the exact sum of its panels confirms it. Panel storage doubles on
    demand, for the rows still running. Returns (value, error_estimate, evaluations, converged): value
    and error of shape (R,) + columns, the others of shape (R,).
    """
    # Panel slots per row: [lo, hi) on the transformed axis, data holds the
    # (Kronrod, GK error, channel) columns, score the GK error summed over
    # columns (-1 marks a free slot).
    cap = 2 * _N_INITIAL
    lo, hi = np.zeros((n_rows, cap)), np.zeros((n_rows, cap))
    edges = (1.0 if upper is None else upper / (1.0 + upper)) * _EDGES
    lo[:, :_N_INITIAL], hi[:, :_N_INITIAL] = edges[:-1], edges[1:]
    first, cols = _panels(f, np.arange(n_rows), lo[:, :_N_INITIAL],
                          hi[:, :_N_INITIAL], error_channel)
    k = first.shape[-1] // (2 + error_channel)
    data = np.zeros((n_rows, cap, first.shape[-1]))
    data[:, :_N_INITIAL] = first
    score = np.full((n_rows, cap), -1.0)
    score[:, :_N_INITIAL] = first[..., k:2 * k].sum(axis=-1)
    total = first.sum(axis=1)
    floor = (np.zeros((n_rows,) + cols) + floor_of(
        total[:, :k].reshape((n_rows,) + cols))).reshape(n_rows, k)
    count = np.full(n_rows, _N_INITIAL)
    limit = _N_INITIAL + spec.max_subdivisions
    done = np.zeros(n_rows, dtype=bool)
    converged = np.zeros(n_rows, dtype=bool)
    # Storage row of each integral. A finished row keeps its exact sums in
    # ``total`` and loses its slots when the storage next grows, so a long
    # row does not hold the finished ones' panels at its own size.
    slot_row = np.arange(n_rows)
    while True:
        claim = ~done & (total[:, k:2 * k] <= np.maximum(
            spec.rel_tol * np.abs(total[:, :k]), floor)).all(axis=1)
        if claim.any():
            # Running totals drift once errors span many decades, so
            # convergence is judged on exact sums.
            rows = claim.nonzero()[0]
            total[rows] = data[slot_row[rows]].sum(axis=1)
            ok = rows[(total[rows, k:2 * k] <= np.maximum(
                spec.rel_tol * np.abs(total[rows, :k]), floor[rows])
            ).all(axis=1)]
            converged[ok] = done[ok] = True
        spent = ~done & (count >= limit)
        if spent.any():
            rows = spent.nonzero()[0]
            total[rows] = data[slot_row[rows]].sum(axis=1)
            done[rows] = True
        rows = (~done).nonzero()[0]
        if rows.size == 0:
            break
        if count[rows].max() == cap:
            live = slot_row[rows]
            data, score, lo, hi = (
                np.concatenate([a, np.full_like(a, fill)], axis=1)
                for a, fill in ((data[live], 0.0), (score[live], -1.0),
                                (lo[live], 0.0), (hi[live], 0.0)))
            slot_row[rows] = np.arange(rows.size)
            cap *= 2
        at = slot_row[rows]
        worst = score[at].argmax(axis=1)
        cut = np.empty((rows.size, 3))
        cut[:, 0], cut[:, 2] = lo[at, worst], hi[at, worst]
        cut[:, 1] = 0.5 * (cut[:, 0] + cut[:, 2])
        children = _panels(f, rows, cut[:, :2], cut[:, 1:], error_channel)[0]
        total[rows] += children.sum(axis=1) - data[at, worst]
        pair = at[:, None], np.stack([worst, count[rows]], axis=1)
        data[pair] = children
        score[pair] = children[..., k:2 * k].sum(axis=-1)
        lo[pair], hi[pair] = cut[:, :2], cut[:, 1:]
        count[rows] += 1

    # converged tracks each row's own subdivision target; the channel is a
    # pass-through contribution from inner integrals and is booked in the
    # error estimate but not judged here.
    sums = total.reshape((n_rows, 2 + error_channel) + cols)
    return (sums[:, 0], sums[:, 1:].sum(axis=1),
            15 * (2 * count - _N_INITIAL), converged)


def _plain(x):
    """A float for one column, the ndarray for several."""
    return float(x) if np.ndim(x) == 0 else x


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec,
    *,
    error_channel: bool = False,
) -> IntegralResult:
    """Integrate a decaying function over [0, inf).

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
    error_channel : bool
        See ``f``.

    Returns
    -------
    IntegralResult
        Floats for a one-column integrand, ndarrays of shape (k,) for
        ``value`` and ``error_estimate`` otherwise. Panels are split by the
        error summed over columns; ``converged`` requires every column to
        meet its own target. Non-convergence within the subdivision budget is
        reported through the flag, never silently.
    """
    value, error, evaluations, converged = _adaptive_rows(
        lambda rows, x: np.asarray(f(x[0]))[None], 1, None, spec,
        lambda first: spec.abs_floor, error_channel)
    return IntegralResult(
        value=_plain(value[0]),
        error_estimate=_plain(error[0]),
        evaluations=int(evaluations[0]),
        converged=bool(converged[0]),
    )


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

    ``integrand_si(xi, q)`` is called with xi of shape (A, 1), one
    frequency per row, and q of shape (A, m); it returns shape (A, m), or
    (A, m, k) for k columns (the engine's s and p), and all columns share
    one pass. The q integral runs in v = q*d_ref, so decay scales of order
    d_ref become O(1), at a tenfold tighter relative tolerance so the outer
    error dominates; ``spec.q_cutoff`` truncates it sharply.

    The q integrals of all outer nodes of one outer call run together, up
    to ``_BATCH_ROWS`` rows per batch, each row with its own target, budget
    and ``converged`` flag (``_adaptive_rows``): every refinement round of
    a batch is one integrand call. Each batch gets a per-column absolute
    floor, ``0.01*rel_tol*max(scale, max over its rows of |first-pass
    value|)``, where ``scale`` is the largest inner value of the batches
    before it: q integrals deep in the exponential tail (or pure rounding
    noise) could otherwise never meet a relative target and would burn the
    subdivision budget on contributions the outer rule cannot see. The
    floor depends only on the integrand and the spec, so results replay
    bit for bit.

    One outer integrand maps an array of frequencies to the stacked
    (value, error) of their q integrals, and both outer rules carry the
    inner errors on their error channel. At T = 0 the rule is the adaptive
    integral over u = xi*d_ref/c, whose first call (120 nodes) and each
    split (30 nodes) feed one batched inner evaluation; at T > 0 it is
    ``matsubara_sum`` under the endpoint rule ``zero_term_policy``, each
    term a one-row batch. A given ``zero_term_value`` (per column, only at
    T > 0) is added as it is; the caller has checked both
    (``engine._zero_term``). ``evaluations`` counts integrand points at
    every T; ``converged`` requires the outer and every inner target.
    """
    if d_ref <= 0.0:
        raise ValueError("reference length must be positive")
    if not 0.0 <= temperature < np.inf:
        raise ValueError(f"temperature must be finite and >= 0: {temperature}")

    inner_spec = replace(spec, rel_tol=0.1 * spec.rel_tol)
    # The outer rules see values without the prefactor; so must the floor.
    outer_spec = spec if spec.abs_floor == 0.0 else replace(
        spec, abs_floor=spec.abs_floor / abs(prefactor)
    )
    v_upper = None if spec.q_cutoff is None else spec.q_cutoff * d_ref
    state = {"evals": 0, "inner_ok": True, "scale": 0.0}

    def floor(first):
        return 0.01 * spec.rel_tol * np.maximum(
            state["scale"], np.abs(first).max(axis=0))

    def outer_f(xi):
        """Stacked (value, error) of the q integrals at the frequencies xi."""
        values, errors = [], []
        for start in range(0, xi.size, _BATCH_ROWS):
            batch = xi[start:start + _BATCH_ROWS, None]

            def f(rows, vs, batch=batch):
                return integrand_si(batch[rows], vs / d_ref) / d_ref

            value, error, evals, ok = _adaptive_rows(
                f, batch.shape[0], v_upper, inner_spec, floor)
            state["evals"] += int(evals.sum())
            state["inner_ok"] = state["inner_ok"] and bool(ok.all())
            state["scale"] = np.maximum(state["scale"],
                                        np.abs(value).max(axis=0))
            values.append(value)
            errors.append(error)
        return np.stack([np.concatenate(values), np.concatenate(errors)], -1)

    if temperature == 0.0:
        jac = c / d_ref
        outer = integrate_semi_infinite(lambda u: outer_f(u * jac) * jac,
                                        outer_spec, error_channel=True)
    else:
        outer = matsubara_sum(lambda xi: outer_f(np.array([xi]))[0],
                              temperature, outer_spec, zero_term_policy,
                              error_channel=True)
    value = prefactor * outer.value
    if zero_term_value is not None:
        value = value + zero_term_value
    return IntegralResult(
        value=_plain(value),
        error_estimate=_plain(abs(prefactor) * outer.error_estimate),
        evaluations=state["evals"],
        converged=outer.converged and state["inner_ok"],
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
    error_channel: bool = False,
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
        consecutive m. With ``error_channel=True`` a trailing axis of length
        2 is added, as for ``integrate_semi_infinite``: entry 0 is the term
        proper, entry 1 a non-negative auxiliary error density that is
        summed with the same weights and node spacing and added to
        ``error_estimate``. The stop rule, the tail policy and ``converged``
        never see it.
    temperature : float
        Temperature in kelvin, > 0.
    spec : QuadratureSpec
        Uses rel_tol, abs_floor, matsubara_max_terms and matsubara_tail.
    zero_term_policy : str
        ``"half-weight"`` uses g(0)/2 (the trapezoid endpoint weight);
        ``"drop"`` omits the m = 0 term without evaluating g(0).
    error_channel : bool
        See ``g``.

    Returns
    -------
    IntegralResult
        ``value`` includes the 2 pi k_B T/hbar prefactor; ``error_estimate``
        covers truncation of the tail (and the discarded/added tail per the
        tail policy) plus the weighted error channel, if any. Floats for a
        scalar g, ndarrays of shape (k,) otherwise; ``converged`` covers
        every column. ``evaluations`` counts the frequencies g received.
    """
    if temperature <= 0.0:
        raise ValueError("matsubara_sum needs temperature > 0; use the"
                         " zero-temperature integral instead")
    if zero_term_policy not in ("half-weight", "drop"):
        raise ValueError(f"unknown zero_term_policy {zero_term_policy!r}")

    spacing = float(matsubara_frequency(1, temperature))

    def term(xi):
        """g(xi) with its error channel; a channel-less g gets zeros."""
        y = np.asarray(g(xi), dtype=float)
        if error_channel and y.shape[-1:] != (2,):
            raise ValueError("error-channel g must return shape (2,) or (k, 2)")
        return y if error_channel else np.stack([y, np.zeros_like(y)], -1)

    if zero_term_policy == "drop":
        total = 0.0
    else:
        g0 = term(0.0)
        if not np.all(np.isfinite(g0)):
            raise ValueError(
                "g(0) is not finite; choose zero_term_policy 'drop' for"
                " zero-frequency-divergent media"
            )
        total = 0.5 * g0

    below = 0
    last = prev = 0.0
    truncated = True
    for m in range(1, spec.matsubara_max_terms + 1):
        y = term(float(matsubara_frequency(m, temperature)))
        if not np.all(np.isfinite(y)):
            raise ValueError(f"thermal term m = {m} is not finite")
        prev, last = last, y[..., 0]
        total = total + y
        tol = np.maximum(spec.rel_tol * np.abs(total[..., 0]),
                         spec.abs_floor / spacing)
        # Judge the geometric tail, not the term: at low temperature the
        # term ratio approaches 1 and the tail dwarfs the last term.
        below = np.where(_geometric_tail(last, prev) <= tol, below + 1, 0)
        if np.all(below >= 3):
            truncated = False
            break

    value, channel = total[..., 0], total[..., 1]
    tail = _geometric_tail(last, prev)
    if spec.matsubara_tail == "integral-tail-estimate":
        value = value + np.sign(last) * tail
        error = spacing * 0.5 * tail
    else:
        error = spacing * tail
    value = spacing * value
    converged = (not truncated) and bool(np.all(
        error <= np.maximum(spec.rel_tol * np.abs(value), spec.abs_floor)
    ))
    return IntegralResult(
        value=_plain(value), error_estimate=_plain(error + spacing * channel),
        evaluations=m + (zero_term_policy == "half-weight"),
        converged=converged)
