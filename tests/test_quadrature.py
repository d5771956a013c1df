import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma
from scipy.constants import Boltzmann, c, hbar

from planarcasimir import engine, quadrature
from planarcasimir.layers import CavityConfig, Layer, Wall
from planarcasimir.materials import MIRROR, drude_lorentz
from planarcasimir.quadrature import (
    IntegralResult,
    QuadratureSpec,
    double_semi_infinite,
    integrate_semi_infinite,
    matsubara_frequency,
    matsubara_sum,
)

import direct_difference
from oracles import INTEGRAND_SUITE

SPEC = QuadratureSpec(rel_tol=1e-10)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_floor=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(q_cutoff=0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="q_cutoff"):
            QuadratureSpec(q_cutoff=bad)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="abs_floor"):
            QuadratureSpec(abs_floor=bad)


def test_suite_closed_forms_are_consistent():
    # Anchor the two series-derived constants against partial sums, so a
    # typo in the expected values cannot silently validate the integrator.
    n = np.arange(1.0, 400000.0)
    assert np.pi ** 4 / 15.0 == pytest.approx(6.0 * np.sum(1.0 / n ** 4), rel=1e-12)
    assert np.pi ** 2 / 12.0 == pytest.approx(
        np.sum((-1.0) ** (n + 1) / n ** 2), rel=1e-10)


@pytest.mark.parametrize("name,f,exact", INTEGRAND_SUITE,
                         ids=[row[0] for row in INTEGRAND_SUITE])
def test_known_integrals(name, f, exact):
    res = integrate_semi_infinite(f, SPEC)
    assert res.converged, f"{name}: did not converge"
    assert res.value == pytest.approx(exact, rel=5e-10, abs=1e-14)
    # The error estimate must bound the true error honestly.
    assert abs(res.value - exact) <= 3.0 * res.error_estimate + 1e-15 * abs(exact)


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-6, 1e-8, 1e-12])
@pytest.mark.parametrize("name,f,exact", INTEGRAND_SUITE,
                         ids=[row[0] for row in INTEGRAND_SUITE])
def test_error_bars_hold_at_every_target(name, f, exact, rel_tol):
    # Squared level changes are booked only where the digits were seen to
    # double; at a loose target the first levels are far from that regime.
    res = integrate_semi_infinite(f, QuadratureSpec(rel_tol=rel_tol))
    assert abs(res.value - exact) <= res.error_estimate, name


def test_results_are_deterministic():
    def f(x):
        with np.errstate(over="ignore"):
            return x ** 3 / np.expm1(x)
    a = integrate_semi_infinite(f, SPEC)
    b = integrate_semi_infinite(f, SPEC)
    assert a == b
    assert isinstance(a, IntegralResult)
    assert isinstance(a.value, float)
    assert isinstance(a.evaluations, int)


def test_finite_upper_truncation():
    # Under a q cutoff the q rule is tanh-sinh on [0, q_cutoff*d_ref].
    d = 1e-6

    def integrand(xi, q):
        return np.exp(-xi * d / c) * np.exp(-q * d)

    res = double_semi_infinite(integrand, SPEC, d, temperature=300.0)
    cut = double_semi_infinite(integrand, replace(SPEC, q_cutoff=3.0 / d), d,
                               temperature=300.0)
    assert res.converged and cut.converged
    assert cut.value / res.value == pytest.approx(1.0 - np.exp(-3.0),
                                                  rel=1e-12)


def test_non_finite_evaluation_is_reported_with_abscissa():
    def bad(x):
        return np.where(np.abs(x - 0.5) < 0.2, np.nan, np.exp(-x))

    with pytest.raises(ValueError, match=r"non-finite value at x = 0\.3"):
        integrate_semi_infinite(bad, SPEC)


@pytest.mark.parametrize("shape", [lambda n: (n + 1,), lambda n: (n, 2, 2)],
                         ids=["length", "rank"])
def test_integrand_of_the_wrong_shape_is_refused(shape):
    with pytest.raises(ValueError, match="one row per abscissa"):
        integrate_semi_infinite(lambda x: np.ones(shape(x.size)), SPEC)


def test_pathological_scale_is_reported():
    # Decay scale 1e15 exhausts double precision near the transformed upper
    # limit; the integrator must say "rescale", not return garbage.
    f = lambda x: np.exp(-x / 1e15)
    with pytest.raises(ValueError, match="rescale"):
        integrate_semi_infinite(f, QuadratureSpec(rel_tol=1e-12))


def test_budget_exhaustion_flags_not_converged():
    # A target below double rounding is refused by the eps floor of the
    # error at every level; the flag must say so instead of lying.
    tight = QuadratureSpec(rel_tol=1e-17)
    res = integrate_semi_infinite(lambda x: np.exp(-x) / np.sqrt(x), tight)
    assert not res.converged
    assert abs(res.value - np.sqrt(np.pi)) <= 10.0 * res.error_estimate


@pytest.mark.parametrize("f, exact, mass, rel_tol", [
    (lambda x: (1.0 - x) * np.exp(-x), 0.0, 2.0 / np.e, 1e-8),
    (lambda x: np.exp(-x), 1.0, 1.0, 1e-17)])
def test_a_rule_stops_once_rounding_alone_misses_its_target(f, exact, mass,
                                                            rel_tol):
    # Int (1 - x) e^-x = 0 asks max(rel_tol |0|, 0) of the error, and
    # Int e^-x = 1 at rel_tol 1e-17 asks less than rounding: the error is
    # its ulps floor, _ULPS ulps of Int |f|, long before the last level
    # (34,305 points). The rule stops there, flagged, booking that floor,
    # which holds the exact value.
    res = integrate_semi_infinite(f, QuadratureSpec(rel_tol=rel_tol))
    assert not res.converged
    assert res.evaluations < 34305
    assert res.error_estimate == pytest.approx(quadrature._FLOOR * mass,
                                               rel=1e-3)
    assert abs(res.value - exact) <= res.error_estimate


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-8])
def test_kinked_integrand_keeps_the_plain_change(monkeypatch, rel_tol):
    # The kink at x = 1 leaves the trapezoid error algebraic in the step:
    # no level doubles the digits of the one before, so every level books
    # its plain change, which bounds the true error. At 1e-8 the last level
    # stops the rule unconverged.
    booked, steps = quadrature._booked, []

    def spy(change, before, total):
        steps.append((change, booked(change, before, total)))
        return steps[-1][1]

    monkeypatch.setattr(quadrature, "_booked", spy)
    res = integrate_semi_infinite(lambda x: np.abs(x - 1.0) * np.exp(-x),
                                  QuadratureSpec(rel_tol=rel_tol))
    assert res.converged is (rel_tol > 1e-8)
    assert abs(res.value - 2.0 / np.e) <= res.error_estimate
    # One step per level, from the first, which reads the two before it, to
    # the one whose nodes were the last evaluated.
    first, _ = quadrature._LINE_LEVELS
    last = next(level for level in range(first, 13) if quadrature._axis(
        quadrature._LINE, level)[0].size == res.evaluations)
    assert len(steps) == last - first + 1
    for change, out in steps:
        np.testing.assert_array_equal(out, change)


def _booked_array(change, before, total):
    """The array form of ``quadrature._booked`` that the float one replaced."""
    size, twice = np.abs(total), quadrature._DOUBLING * before
    doubled = (change * size <= twice * before) & (twice <= size)
    return change if not doubled.any() else np.where(doubled, np.minimum(
        change, quadrature._SQUARE * change * change
        / np.maximum(size, quadrature._TINY)), change)


def _grouped_array(x, shape):
    """The array form of ``quadrature._grouped`` that the float one replaced,
    each group's columns and then its pair's sum in turn."""
    if len(shape) < 2:
        return x
    n, k = math.prod(shape), shape[1]
    judged = np.add.reduceat(x.reshape(n, -1), [*range(n), *range(0, n, k)])
    return np.concatenate([judged[:n].reshape(-1, k), judged[n:]], axis=1)


_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                          1e-300, 1.0, 1e300, 1.7976931348623157e308, np.inf,
                          -np.inf, np.nan])
_SHAPES = st.one_of(st.just(()), st.tuples(st.integers(1, 5)),
                    st.tuples(st.integers(1, 140), st.just(2)))


def _bits(x):
    return np.asarray(x, dtype=float).ravel().tobytes()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(pool=st.lists(st.one_of(_EDGES, st.floats()), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1), shape=_SHAPES)
@example(pool=[1.0, -2.5e-3, 7.3e5, 3.1e-9], seed=1, shape=(140, 2))
@example(pool=[1.0, -2.5e-3, 7.3e5, 3.1e-9], seed=2, shape=(300, 2))
def test_float_verdict_is_the_array_one_bit_for_bit(pool, seed, shape):
    # The float ``_booked``, ``_grouped`` and ``_max`` against the array
    # formulas they replaced, on zeros of either sign, subnormals, huge
    # values, infinities and NaNs drawn into every column: the same bits,
    # NaNs and equal zeros kept as np.minimum and np.maximum keep them, and
    # pair sums added as numpy adds them, for every column shape the core
    # takes: (), (K,) and G (s, p) pairs (G, 2), G up to 300.
    change, before, total = np.random.default_rng(seed).choice(
        np.array(pool), size=(3, math.prod(shape)))
    with np.errstate(all="ignore"):
        want = _booked_array(change, before, total)
        got = [quadrature._booked(*args) for args in zip(
            change.tolist(), before.tolist(), total.tolist())]
        assert _bits(got) == _bits(want)
        assert _bits(quadrature._grouped(change.tolist(), shape)) == _bits(
            _grouped_array(change, shape))
    for a, b in ((change, before), (before, change)):
        assert _bits([quadrature._max(*args) for args in zip(
            a.tolist(), b.tolist())]) == _bits(np.maximum(a, b))


@pytest.mark.parametrize("temperature, points", [(0.0, 124545), (300.0, 7935)])
def test_sums_that_overflow_keep_the_nan_of_their_changes(temperature, points):
    # Finite values whose weighted sums overflow: a level's change is then
    # inf - inf, a NaN that the float verdict keeps as the array one did,
    # so the error is NaN, not a number, and no level converges.
    def f(xi, q):
        return 1e307 * np.exp(-q * (1e-6 / 30.0) - xi * (1e-6 / (30.0 * c)))

    with pytest.warns(RuntimeWarning):
        res = double_semi_infinite(f, SPEC, 1e-6, 1.0, temperature)
    assert res.value == np.inf and np.isnan(res.error_estimate)
    assert not res.converged
    assert res.evaluations == points


@pytest.mark.parametrize("temperature", [0.0, 300.0])
def test_a_result_that_overflows_when_scaled_never_converges(temperature):
    # The rules sum without the prefactor and the Jacobians, so 1e300
    # e^{-q d} e^{-xi d/c} converges there; scaled by c/d**2 = 3e20 its value
    # and error overflow, and an infinite result is not converged.
    d = 1e-6

    def f(xi, q):
        return 1e300 * np.exp(-q * d) * np.exp(-xi * d / c)

    with pytest.warns(RuntimeWarning, match="overflow"):
        res = double_semi_infinite(f, QuadratureSpec(), d, 1.0, temperature)
    assert res.value == np.inf and res.error_estimate == np.inf
    assert not res.converged


def test_two_column_integrand_meets_each_relative_target():
    # Column 1 is 1e-6 of column 0 in size and much harder (an endpoint
    # singularity); a target judged on the summed error would under-resolve
    # it, so each column must reach its own relative tolerance.
    spec = QuadratureSpec(rel_tol=1e-9)

    def f(x):
        return np.stack([np.exp(-x), 1e-6 * np.exp(-x) / np.sqrt(x)], axis=-1)

    both = integrate_semi_infinite(f, spec)
    assert both.converged
    assert both.value.shape == both.error_estimate.shape == (2,)
    exact = np.array([1.0, 1e-6 * np.sqrt(np.pi)])
    assert np.all(both.error_estimate <= spec.rel_tol * np.abs(both.value))
    assert np.all(np.abs(both.value - exact) <= both.error_estimate)
    for k in range(2):
        alone = integrate_semi_infinite(lambda x: f(x)[:, k], spec)
        assert isinstance(alone.value, float)
        assert abs(both.value[k] - alone.value) <= (
            both.error_estimate[k] + alone.error_estimate)


def test_double_semi_infinite_separable_product():
    d = 2.5e-6

    def integrand(xi, q):
        return np.exp(-xi * d / c) * np.exp(-q * d)

    res = double_semi_infinite(integrand, QuadratureSpec(rel_tol=1e-9), d)
    assert res.converged
    assert res.value == pytest.approx(c / d ** 2, rel=1e-8)

    scaled = double_semi_infinite(integrand, QuadratureSpec(rel_tol=1e-9), d,
                                  prefactor=-3.0)
    assert scaled.value == pytest.approx(-3.0 * c / d ** 2, rel=1e-8)


def test_double_semi_infinite_momentum_cutoff():
    d = 1e-6
    q_cut = 0.8 / d

    def integrand(xi, q):
        return np.exp(-xi * d / c) * np.exp(-q * d)

    spec = QuadratureSpec(rel_tol=1e-9, q_cutoff=q_cut)
    res = double_semi_infinite(integrand, spec, d)
    expected = (c / d) * (1.0 - np.exp(-q_cut * d)) / d
    assert res.value == pytest.approx(expected, rel=1e-8)


def _singular_rows(xi, q, d=1e-6):
    """exp(-u - v) (1 + u/sqrt(v)): smooth in u, 1/sqrt(q) at q = 0."""
    u, v = xi * d / c, q * d
    return np.exp(-u - v) * (1.0 + u / np.sqrt(v))


def _assert_inner_budget_miss(exact, temperature):
    d = 1e-6
    loose = double_semi_infinite(_singular_rows, QuadratureSpec(rel_tol=1e-6),
                                 d, temperature=temperature)
    assert loose.converged
    assert abs(loose.value - exact) <= loose.error_estimate
    tight = double_semi_infinite(_singular_rows,
                                 QuadratureSpec(rel_tol=1e-17), d,
                                 temperature=temperature)
    assert not tight.converged
    assert abs(tight.value - exact) <= tight.error_estimate


@pytest.mark.parametrize("axis", [
    quadrature._MOMENTUM, quadrature._FREQUENCY, quadrature._LINE,
    (quadrature._MOMENTUM[0], quadrature._CUTOFF_TOP, 2.0)],
    ids=["momentum", "frequency", "line", "cutoff"])
def test_every_level_from_3_nests_in_the_next(axis):
    # A rule started at level 3 reads its nodes again at level 4 and adds
    # only the odd ones: the ends of every range are multiples of 1/8.
    for level in range(3, 7):
        coarse = quadrature._axis(axis, level)[0]
        fine, _, odd, even = quadrature._axis(axis, level + 1)
        np.testing.assert_array_equal(fine[even], coarse)
        assert len(odd) + len(even) == fine.size == 2 * coarse.size - 1


def test_double_integral_reports_an_inner_budget_miss():
    # The outer integrand exp(-u) (1 + u sqrt(pi)) is smooth, but every q
    # integral has a 1/sqrt(q) endpoint singularity; a target below double
    # rounding cannot be met, and the miss must reach the flag.
    d = 1e-6
    _assert_inner_budget_miss(c / d ** 2 * (1.0 + np.sqrt(np.pi)), 0.0)


def test_thermal_double_integral_reports_an_inner_budget_miss():
    # The same integrand at 300 K: the q rules of the thermal terms carry
    # the miss. The reference is the trapezoid sum of the q integrals
    # (1 + u_m sqrt(pi))/d over u_m = m a, closed form through the sums of
    # r^m and m r^m.
    d, temperature = 1e-6, 300.0
    spacing = float(matsubara_frequency(1, temperature))
    a = spacing * d / c
    r, rest = np.exp(-a), -np.expm1(-a)
    exact = spacing / d * (0.5 + r / rest + np.sqrt(np.pi) * a * r / rest ** 2)
    _assert_inner_budget_miss(exact, temperature)


@pytest.mark.parametrize("n_cols", [1, 2])
@pytest.mark.parametrize("policy", ["half-weight", "drop"])
def test_thermal_terms_are_judged_against_the_sum(policy, n_cols):
    # Terms from m = 2 on are below 1e-65 of the sum, and their q integrals
    # have a v**-0.9 singularity that no q rule meets relative to the term
    # itself. Judged against the sum, as each column's value is, they
    # neither flag the result nor hide their error.
    d, temperature = 1e-6, 300.0
    spacing = float(matsubara_frequency(1, temperature))
    scales = np.array([1.0, 1e-30])[:n_cols]

    def integrand(xi, q):
        m, v = xi / spacing, q * d
        hard = np.where(m > 1.5, v ** -0.9, 0.0)
        f = np.exp(-50.0 * m ** 2 - v) * (1.0 + hard)
        return scales[:, None, None] * f if n_cols == 2 else f

    res = double_semi_infinite(integrand, QuadratureSpec(rel_tol=1e-10), d,
                               temperature=temperature,
                               zero_term=(None if policy == "half-weight"
                                          else 0.0),
                               columns=scales.shape if n_cols == 2 else ())
    m = np.arange(0 if policy == "half-weight" else 1, 40)
    weights = np.where(m == 0, 0.5, 1.0)
    inner = np.where(m >= 2, 1.0 + gamma(0.1), 1.0)
    exact = spacing / d * np.sum(weights * np.exp(-50.0 * m ** 2) * inner)
    assert res.converged
    assert np.all(np.abs(res.value - exact * scales) <= res.error_estimate)


def test_thermal_double_integral_zero_term_policies():
    # Without the head ("drop") the m = 0 row is never evaluated, so a NaN
    # there is harmless; with it ("half-weight") m = 0 joins at weight 1/2.
    d, temperature, xi_c = 1e-6, 300.0, 5e14
    spacing = float(matsubara_frequency(1, temperature))
    spec = QuadratureSpec(rel_tol=1e-10)

    def integrand(xi, q):
        return np.exp(-xi / xi_c - q * d) * np.ones_like(q)

    def poisoned(xi, q):
        return np.where(xi == 0.0, np.nan, integrand(xi, q))

    drop = double_semi_infinite(poisoned, spec, d, temperature=temperature,
                                zero_term=0.0)
    assert drop.converged
    expected = spacing / d / np.expm1(spacing / xi_c)
    assert abs(drop.value - expected) <= drop.error_estimate
    half = double_semi_infinite(integrand, spec, d, temperature=temperature)
    assert half.converged
    assert half.value - drop.value == pytest.approx(0.5 * spacing / d,
                                                    rel=1e-9)
    with pytest.raises(ValueError, match="non-finite"):
        double_semi_infinite(poisoned, spec, d, temperature=temperature)


@pytest.mark.parametrize("columns,zero_term", [
    ((), 1e12), ((3,), 1e12), ((3,), np.array([1e11, -2.5e12, 0.0])),
    ((1, 2), np.array([[-1e11, 2.5e12]]))])
def test_a_zero_term_value_is_added_to_the_dropped_sum(columns, zero_term):
    # A value in place of m = 0 is the sum without it plus that value in
    # each column, bit for bit, with the same effort and verdict: m = 0 is
    # counted once, from the integrand or from the value. At 0 K, which has
    # no m = 0 term, every zero_term gives the same result.
    d = 1e-6
    scales = np.array([1.0, 3.0, 0.5])[:math.prod(columns)].reshape(columns)

    def integrand(xi, q):
        f = np.exp(-xi * d / c - q * d)
        return scales[..., None, None] * f if columns else f

    def run(temperature, zero_term):
        return double_semi_infinite(integrand, SPEC, d, 1.0, temperature,
                                    zero_term, columns=columns)

    drop, value = run(300.0, 0.0), run(300.0, zero_term)
    assert np.array_equal(value.value, drop.value + zero_term)
    assert np.array_equal(value.error_estimate, drop.error_estimate)
    assert (value.evaluations, value.converged) == (drop.evaluations, True)
    half = run(300.0, None)
    assert np.all(half.value > drop.value)
    cold = [run(0.0, z) for z in (None, 0.0, zero_term)]
    assert all(np.array_equal(r.value, cold[0].value)
               and np.array_equal(r.error_estimate, cold[0].error_estimate)
               and r.evaluations == cold[0].evaluations for r in cold)


def test_non_finite_value_names_the_abscissa_of_its_row():
    # A NaN band in q at one frequency of a double integral: the error names
    # the q abscissa (v = q d) inside the band.
    d = 1e-6

    def integrand(xi, q):
        v = q * d
        bad = (np.abs(xi * d / c - 1.0) < 0.5) & (np.abs(v - 0.5) < 0.2)
        return np.where(bad, np.nan, np.exp(-xi * d / c - v))

    with pytest.raises(ValueError, match=r"non-finite value at x = 0\.[3-6]"):
        double_semi_infinite(integrand, SPEC, d)


_BAD_ARGUMENTS = [
    ("d_ref", 0.0), ("d_ref", -1e-6), ("d_ref", np.nan), ("d_ref", np.inf),
    ("index", 0.0), ("index", -1.0), ("index", np.nan), ("index", np.inf),
    ("prefactor", np.nan), ("prefactor", np.inf), ("prefactor", -np.inf),
    ("temperature", -1.0), ("temperature", np.inf), ("temperature", np.nan),
]


@pytest.mark.parametrize("temperature", [0.0, 300.0])
@pytest.mark.parametrize("name,bad", _BAD_ARGUMENTS,
                         ids=[f"{n}={v}" for n, v in _BAD_ARGUMENTS])
def test_bad_double_integral_arguments_are_refused(name, bad, temperature):
    # Each is refused by name before the integrand runs: a NaN must not
    # pass as a length, nor reach the integrand as a NaN abscissa. A bad
    # temperature replaces the given one.
    calls = []

    def integrand(xi, q):
        calls.append(xi)
        return np.exp(-xi * 1e-6 / c - q * 1e-6)

    args = {"d_ref": 1e-6, "prefactor": 1.0, "index": 1.0,
            "temperature": temperature, name: bad}
    with pytest.raises(ValueError, match=name):
        double_semi_infinite(integrand, SPEC, **args)
    assert not calls


def test_double_integral_replays_bit_for_bit():
    d = 2.5e-6

    def integrand(xi, q):
        u, v = xi * d / c, q * d
        return np.stack([np.exp(-u - v), np.exp(-2.0 * u - v) * v])

    spec = QuadratureSpec(rel_tol=1e-9)
    for temperature in (0.0, 300.0):
        a = double_semi_infinite(integrand, spec, d, temperature=temperature,
                                 columns=(2,))
        b = double_semi_infinite(integrand, spec, d, temperature=temperature,
                                 columns=(2,))
        assert a.converged and b.converged
        assert np.array_equal(a.value, b.value)
        assert np.array_equal(a.error_estimate, b.error_estimate)
        assert a.evaluations == b.evaluations


def _grouped(scales, d=1e-6):
    """An integrand of columns ``scales``, each a multiple of one function,
    whose q integral has a square-root edge at q = 0."""
    def integrand(xi, q):
        f = np.exp(-xi * d / c - q * d) * (1.0 + np.sqrt(q * d))
        return scales.reshape(scales.shape + (1, 1)) * f

    return integrand


@pytest.mark.parametrize("temperature", [0.0, 300.0])
def test_a_group_whose_sum_cancels_leaves_a_joint_rule_unconverged(
        temperature):
    # Two groups (2, 2) in one rule. In the second, s and p nearly cancel:
    # every column and the first group meet their targets, the second
    # group's sum misses its own, and so the rule is not converged. The same
    # four numbers as independent columns (4,) converge.
    d, spec = 1e-6, QuadratureSpec(rel_tol=1e-8)
    scales = np.array([[1.0, 1.0], [1.0, -(1.0 - 1e-6)]])
    joint, columns = (
        double_semi_infinite(_grouped(s), spec, d, 1e-21, temperature,
                             columns=s.shape)
        for s in (scales, scales.ravel()))
    assert columns.converged and not joint.converged
    first = double_semi_infinite(_grouped(scales[:1]), spec, d, 1e-21,
                                 temperature, columns=(1, 2))
    assert first.converged


@pytest.mark.parametrize("temperature", [0.0, 300.0])
def test_two_groups_that_stop_together_are_two_one_group_rules(
        monkeypatch, temperature):
    # Two groups of the same function stop at the same level (at 0 K the
    # second), so the joint rule (2, 2) is, bit for bit, each group's own
    # rule (1, 2). Every block takes one call, so that both rules add up the
    # same partial sums.
    monkeypatch.setattr(quadrature, "_CHUNK", 2**40)
    d, spec = 1e-6, QuadratureSpec(rel_tol=1e-12)
    scales = np.array([[1.0, 1.0], [1.0, 0.5]])
    joint = double_semi_infinite(_grouped(scales), spec, d, 1e-21,
                                 temperature, columns=(2, 2))
    assert joint.converged
    for g in range(2):
        alone = double_semi_infinite(_grouped(scales[g:g + 1]), spec, d,
                                     1e-21, temperature, columns=(1, 2))
        assert alone.converged and alone.evaluations == joint.evaluations
        assert alone.value.tobytes() == joint.value[g].tobytes()
        assert (alone.error_estimate.tobytes()
                == joint.error_estimate[g].tobytes())


def test_the_q_rules_of_a_thermal_sum_judge_columns_alone():
    # The sums of a fixed outer axis are the terms of a thermal sum, which
    # judges each group itself (``_thermal_sum``). So the q rule of a group
    # whose s and p cancel stops where its two columns do, with their bits.
    d, spacing = 1e-6, float(matsubara_frequency(1, 300.0))
    x, w = quadrature._rows(0, 19, None)
    scales = np.array([[1.0, -(1.0 - 1e-6)]])
    grouped, alone = (quadrature._nested(
        lambda xi, v: _grouped(s)(xi, v / d),
        quadrature._fixed(x * spacing, w), quadrature._MOMENTUM,
        quadrature._TERM_LEVELS, 1e-9, 0.0, s.shape)
        for s in (scales, scales[0]))
    assert alone[3] == [True] and grouped[2:4] == alone[2:4]
    last = quadrature._axis(quadrature._MOMENTUM, quadrature._TERM_LEVELS[1])
    assert alone[2] < len(x) * last[0].size  # it stops below the last level
    for got, want in zip(grouped[:2] + grouped[4:6], alone[:2] + alone[4:6]):
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_a_fixed_axis_is_judged_on_its_first_row_alone():
    # Rows after the first (a term, a difference) are read, not judged:
    # a row of one term of a slowly converging q integral leaves the level
    # where the sum alone stops.
    d, spacing = 1e-6, float(matsubara_frequency(1, 300.0))
    x, w = quadrature._rows(0, 19, None)

    def integrand(xi, v):
        return np.exp(-xi * d / c - v) * (1.0 + np.where(
            xi > 17.5 * spacing, np.sqrt(v), 0.0))

    rows, first = (quadrature._nested(
        integrand, quadrature._fixed(x * spacing, weights),
        quadrature._MOMENTUM, quadrature._TERM_LEVELS, 1e-9, 0.0, ())
        for weights in (w, w[:1]))
    assert rows[3] == first[3] == [True] and rows[2] == first[2]
    # The one column's R sums.
    assert len(rows[0]) == 3 and len(first[0]) == 1


@pytest.mark.parametrize("temperature", [0.0, 300.0])
@pytest.mark.parametrize("declared,returned", [
    ((1, 2), (2, 1)), ((1, 2), (2,)), ((2,), ()), ((), (1,))],
    ids=["regrouped", "ungrouped", "fewer", "more"])
def test_columns_of_another_shape_are_refused_by_name(
        temperature, declared, returned):
    # The columns lead the rows and abscissas. A (2, 1) output where (1, 2)
    # was declared holds as many columns, but would silently regroup them;
    # it is refused, naming both shapes.
    def rows_of(columns):
        return r"\(" + "".join(f"{k}, " for k in columns) + r"\d+, \d+\)"

    with pytest.raises(ValueError, match=(
            rf"^integrand shape {rows_of(returned)}, not {rows_of(declared)}:"
            " one row per abscissa")):
        double_semi_infinite(_grouped(np.ones(returned)), SPEC, 1e-6,
                             temperature=temperature, columns=declared)


@pytest.mark.parametrize("temperature", [0.0, 300.0])
@pytest.mark.parametrize("columns", [(1, 3), (2, 1), (2, 2, 2), (0,), (0, 2)])
def test_columns_other_than_pairs_are_refused_before_a_call(
        temperature, columns):
    # Column groups are a force's (s, p) pairs, (G, 2); any other group, a
    # third axis, or no columns at all, is refused by its shape before the
    # integrand runs.
    calls = []

    def integrand(xi, q):
        calls.append(xi)
        return np.ones(columns + np.broadcast_shapes(xi.shape, q.shape))

    with pytest.raises(ValueError, match=re.escape(f"columns {columns} ")):
        double_semi_infinite(integrand, SPEC, 1e-6, temperature=temperature,
                             columns=columns)
    assert not calls


@pytest.mark.parametrize("temperature", [0.0, 300.0])
@pytest.mark.parametrize("abs_floor", [1e-3, 0.0])
@pytest.mark.parametrize("prefactor", [0.0, -0.0])
def test_zero_prefactor_is_refused_by_name(prefactor, abs_floor, temperature):
    # A zero prefactor scales every result to 0: with a floor it would
    # divide the floor by it, without one spend the whole budget on a 0.
    calls = []

    def integrand(xi, q):
        calls.append(xi)
        return np.exp(-xi * 1e-6 / c - q * 1e-6)

    spec = QuadratureSpec(abs_floor=abs_floor)
    with pytest.raises(ValueError, match="prefactor must be finite and"
                                         " nonzero"):
        double_semi_infinite(integrand, spec, 1e-6, prefactor,
                             temperature)
    assert not calls


def _captured_integrands(replace_the_core):
    """Every integrand the public observables hand to the double integral."""
    seen = replace_the_core()
    gold = drude_lorentz(1.37e16, 0.0, 5.3e13)
    glass = drude_lorentz(1.5e16, 1.2e16, 2e14, mu_model=(3e15, 5e15, 1e13))
    medium = drude_lorentz(1.2e16, 2.0e16, 1e14)
    cavity = CavityConfig(
        left_wall=Wall.stack([Layer(glass, 3e-8), Layer(gold, 5e-8)], gold),
        medium=medium, d1=4e-7, plate=Layer(gold, 1e-7), d3=9e-7,
        right_wall=Wall.stack([Layer(glass, 2e-8)], MIRROR))
    view = direct_difference.cavity_interspaces(cavity)[0]
    engine.stress_zz(view, 1.3e-7)
    engine.minkowski_stress_zz(view)
    engine.plate_force(cavity)
    direct_difference.plate_force(cavity)
    engine.minkowski_plate_force(cavity)
    return [integrand for integrand, _ in seen]


def test_integrands_broadcast_frequency_rows(replace_the_core):
    # The row core calls integrands with xi of shape (A, 1) against a q row
    # (1, m); given q of shape (A, m), each row must equal that row
    # evaluated alone, xi (1, 1) against q (1, m).
    integrands = _captured_integrands(replace_the_core)
    assert len(integrands) == 5
    rng = np.random.default_rng(5)
    xi = np.geomspace(1e12, 3e16, 7)
    q = rng.uniform(1e4, 3e7, size=(xi.size, 11))
    for integrand in integrands:
        rows = integrand(xi[:, None], q)
        assert rows.shape[-2:] == q.shape
        assert np.all(np.isfinite(rows))
        for i, x in enumerate(xi):
            one = integrand(np.full((1, 1), x), q[i][None])[..., 0, :]
            np.testing.assert_allclose(rows[..., i, :], one, rtol=1e-14,
                                       atol=1e-14 * np.abs(one).max())


def test_rows_are_read_only_and_cached():
    for args in [(0, 19, None), (1, 40, None), (0, 19, 8), (1, 27, 16)]:
        first, again = quadrature._rows(*args), quadrature._rows(*args)
        assert all(a is b for a, b in zip(first, again))
        for array in first:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1.0


def _exponential_sum(h, head, fast):
    """(sum, integrand, 0 K rule) of h Sum_m g(m h), m = 0 at half weight
    under ``head`` and left out otherwise, for g(x) = e^{-2x} + 0.01
    e^{-2 fast x} (its second part, if ``fast``, falling within a few
    spacings, as a wider gap does): the sum is h/2 coth(h b) per part of
    rate 2b, less h/2 g(0) without the head. The q integral of the
    integrand is g; the 0 K rule from x on gives the integral exactly."""
    parts = [(1.0, 1.0)] + ([(0.01, fast)] if fast else [])

    def integrand(x, v):
        return sum(a * np.exp(-2.0 * b * x) for a, b in parts) * np.exp(-v)

    def tensor(x):
        rest = sum(a * math.exp(-2.0 * b * x) / (2.0 * b) for a, b in parts)
        return [rest], [0.0], 0, True, None, None, ()

    exact = sum(a * (0.5 * h / math.tanh(h * b) - (0.0 if head else 0.5 * h))
                for a, b in parts)
    return exact, integrand, tensor


@pytest.mark.parametrize("fast", [None, 10.0, 200.0])
@pytest.mark.parametrize("head", [True, False])
@pytest.mark.parametrize("h,tails", [(0.002, [8]), (0.01, [8]), (0.05, [8]),
                                     (0.12, [8, 16]), (0.3, []), (1.0, []),
                                     (3.0, [])])
def test_thermal_rule_meets_the_exponential_sum(h, tails, head, fast):
    # Terms that fall like e^{-2 m h} sum to h/2 coth(h). Below about 110
    # terms (at rel_tol 1e-10) they are summed, beyond it the 0 K rule from
    # xi_M on, with Gregory's correction, takes the rest, M = 8 first. At
    # h = 0.12 the booked rest of the differences misses there, so M
    # doubles and the 0 K rule runs again from xi_16. A part that falls
    # within a few spacings is summed in the head, so that booked rest
    # still holds the sum.
    exact, integrand, tensor = _exponential_sum(h, head, fast)
    starts = []
    value, error, points, converged = quadrature._thermal_sum(
        lambda x: starts.append(x) or tensor(x), integrand, (),
        quadrature._MOMENTUM, 4, h, h, SPEC, 0.0, None if head else [0.0])
    assert converged == [True] and error[0] <= SPEC.rel_tol * abs(value[0])
    assert abs(value[0] - exact) <= error[0]
    assert starts == [m * h for m in tails]


@pytest.mark.parametrize("temperature", [1.0, 300.0])
def test_thermal_sum_at_an_unreachable_target_stops_at_once(temperature):
    # Below double rounding no rule can meet the target: once the q errors
    # alone exceed it, and the rest it books is within them, the sum stops,
    # flagged, after its first rule of terms (at 300 K, all of them) or its
    # first 0 K tail and head (at 1 K), with a bar that still holds the
    # closed form spacing/d (1/2 + r/(1 - r)), r = exp(-spacing d/c).
    d = 1e-6
    res = double_semi_infinite(lambda xi, q: np.exp(-xi * d / c - q * d),
                               QuadratureSpec(rel_tol=1e-17), d,
                               temperature=temperature)
    spacing = float(matsubara_frequency(1, temperature))
    exact = spacing / d * (0.5 + 1.0 / np.expm1(spacing * d / c))
    assert not res.converged
    assert abs(res.value - exact) <= res.error_estimate
    q_nodes = quadrature._axis(quadrature._MOMENTUM,
                               quadrature._TERM_LEVELS[1])[0].size
    tensor = (quadrature._axis(quadrature._FREQUENCY, 6)[0].size
              * quadrature._axis(quadrature._MOMENTUM, 6)[0].size)
    terms = 2 + math.ceil(0.75 * math.log(1e17) * c / (spacing * d))
    assert res.evaluations <= (
        tensor + (quadrature._HEAD + len(quadrature._GREGORY)) * q_nodes
        if temperature < 300.0 else terms * q_nodes)


@pytest.mark.parametrize("start,M", [(0, 0), (0, 1), (1, 1), (0, 8), (1, 8),
                                     (0, 16), (1, 16)])
def test_gregory_rows_rebuild_the_trapezoid_sum(start, M):
    # Row 0 of a head, plus the integral from xi_M on, is the trapezoid sum
    # from m = start on (m = 0 at half weight), up to the rest of Gregory's
    # series: on e^{-a m} that rest is below the booked c_11 times the
    # last difference taken, over 1 - the ratio of the last two.
    K = len(quadrature._GREGORY) - 1
    m, w = quadrature._rows(start, M + K + 1, M)
    assert m.tolist() == list(range(start, M + K + 1))
    for a in (0.05, 0.2, 0.5):
        g = np.exp(-a * m)
        total = 0.5 / math.tanh(0.5 * a) - (0.5 if start else 0.0)
        head = float(w[0] @ g) + math.exp(-a * M) / a
        last, before = abs(float(w[1] @ g)), abs(float(w[2] @ g))
        assert last == pytest.approx((-math.expm1(-a)) ** K * math.exp(-a * M),
                                     rel=1e-5)
        rest = (abs(quadrature._GREGORY[-1]) * max(last, before)
                / (1.0 - last / before))
        assert abs(head - total) <= rest + 1e-15 * total


# ---------------------------------------------------------------------------
# thermal summation


def test_matsubara_frequency_values():
    T = 300.0
    xi1 = 2.0 * np.pi * Boltzmann * T / hbar
    assert matsubara_frequency(1, T) == pytest.approx(xi1, rel=1e-15)
    assert matsubara_frequency(0, T) == 0.0
    np.testing.assert_allclose(matsubara_frequency(np.array([2, 3]), T),
                               [2.0 * xi1, 3.0 * xi1], rtol=1e-15)


def _geometric_expected(T, xi_c, policy="half-weight"):
    # g = exp(-xi/xi_c) sums in closed form: prefactor*(1/2 + r/(1-r)),
    # with r/(1 - r) = 1/expm1(xi_1/xi_c) free of cancellation.
    prefactor = 2.0 * np.pi * Boltzmann * T / hbar
    tail = 1.0 / np.expm1(float(matsubara_frequency(1, T)) / xi_c)
    w0 = 0.5 if policy == "half-weight" else 0.0
    return prefactor * (w0 + tail)


@pytest.mark.parametrize("T", [3.0, 30.0, 300.0, 3000.0])
def test_matsubara_geometric_closed_form(T):
    # At 3 K the sum needs about 4,700 terms.
    xi_c = 5e14
    g = lambda xi: np.exp(-xi / xi_c)
    res = matsubara_sum(g, T, QuadratureSpec(rel_tol=1e-10))
    expected = _geometric_expected(T, xi_c)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-9)
    assert abs(res.value - expected) <= res.error_estimate


def test_matsubara_zero_term_policies():
    T = 300.0
    xi_c = 5e14
    g = lambda xi: np.exp(-xi / xi_c)
    spec = QuadratureSpec(rel_tol=1e-10)
    half = matsubara_sum(g, T, spec)
    drop = matsubara_sum(g, T, spec, zero_term=0.0)
    prefactor = 2.0 * np.pi * Boltzmann * T / hbar
    assert half.value - drop.value == pytest.approx(0.5 * prefactor, rel=1e-12)
    assert drop.value == pytest.approx(_geometric_expected(T, xi_c, "drop"),
                                       rel=1e-9)
    # A value in place of m = 0 joins the sum, and g(0) is never asked for.
    custom = matsubara_sum(lambda xi: np.nan if xi == 0.0 else g(xi), T,
                           spec, zero_term=-2.0 * prefactor)
    assert custom.converged
    assert abs(custom.value - (drop.value - 2.0 * prefactor)) <= (
        custom.error_estimate + drop.error_estimate)


def test_matsubara_two_columns_equal_two_scalar_sums():
    T = 300.0
    slow, fast = 5e14, 1e14
    spec = QuadratureSpec(rel_tol=1e-10)
    both = matsubara_sum(lambda xi: np.array([np.exp(-xi / slow),
                                              2.0 * np.exp(-xi / fast)]),
                         T, spec)
    s_slow = matsubara_sum(lambda xi: np.exp(-xi / slow), T, spec)
    s_fast = matsubara_sum(lambda xi: 2.0 * np.exp(-xi / fast), T, spec)
    assert both.converged and s_slow.converged and s_fast.converged
    # The slower column sets the stopping point, so it equals its scalar
    # sum exactly; the faster one only gains negligible extra terms.
    assert both.value[0] == s_slow.value
    assert both.evaluations == s_slow.evaluations
    assert both.value[1] == pytest.approx(s_fast.value, rel=spec.rel_tol)
    assert both.error_estimate[0] == s_slow.error_estimate


def test_matsubara_policy_validation():
    g = lambda xi: np.exp(-xi / 5e14)
    for bad in (np.inf, np.nan, np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="zero_term must be finite"):
            matsubara_sum(g, 300.0, SPEC, zero_term=bad)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="finite temperature > 0"):
            matsubara_sum(g, bad, SPEC)


def test_matsubara_divergent_zero_term_instructs():
    def g(xi):
        return 1.0 / xi if xi > 0.0 else np.inf

    with pytest.raises(ValueError, match="pass zero_term"):
        matsubara_sum(g, 300.0, SPEC)
    # A later non-finite term names its frequency.
    xi1 = float(matsubara_frequency(1, 300.0))
    with pytest.raises(ValueError, match=f"xi = {xi1} rad/s is not finite"):
        matsubara_sum(lambda xi: np.array([1.0, np.nan if xi else 1.0]),
                      300.0, SPEC)


def test_matsubara_single_term_regime():
    # g supported well below the first nonzero frequency: only m = 0 counts.
    T = 300.0
    xi1 = float(matsubara_frequency(1, T))
    g = lambda xi: np.exp(-((xi / (1e-3 * xi1)) ** 2))
    res = matsubara_sum(g, T, QuadratureSpec(rel_tol=1e-10))
    prefactor = 2.0 * np.pi * Boltzmann * T / hbar
    assert res.value == pytest.approx(0.5 * prefactor, rel=1e-12)


def test_matsubara_low_temperature_approaches_integral():
    xi_c = 5e14
    g = lambda xi: np.exp(-xi / xi_c) * xi_c / (xi_c + xi)
    # Reference in the scaled variable u = xi/xi_c so the integrand is O(1).
    unit = integrate_semi_infinite(lambda u: np.exp(-u) / (1.0 + u),
                                   QuadratureSpec(rel_tol=1e-12))
    assert unit.converged
    reference = xi_c * unit.value
    devs = []
    for T in (600.0, 60.0, 6.0):
        res = matsubara_sum(g, T, QuadratureSpec(rel_tol=1e-10))
        assert res.converged
        devs.append(abs(res.value - reference) / abs(reference))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-4


def test_matsubara_term_cap_flags_truncation():
    # Terms that fall like 1/m**2 leave a tail of about 1/m, far above
    # 1e-10 of the sum after the last block: m = 0 and 16,380 nonzero terms.
    g = lambda xi: 1.0 / (1.0 + xi / 1e13) ** 2
    res = matsubara_sum(g, 300.0, QuadratureSpec(rel_tol=1e-10))
    assert res.evaluations == 16381
    assert not res.converged
    assert res.error_estimate > 0.0


def test_matsubara_determinism():
    g = lambda xi: np.exp(-xi / 3e14)
    a = matsubara_sum(g, 77.0, QuadratureSpec(rel_tol=1e-9))
    b = matsubara_sum(g, 77.0, QuadratureSpec(rel_tol=1e-9))
    assert a == b
