import numpy as np
import pytest
from scipy.constants import Boltzmann, c, hbar

from planarcasimir import engine
from planarcasimir.layers import CavityConfig, Layer, Wall
from planarcasimir.materials import MIRROR, constant, drude_lorentz
from planarcasimir.quadrature import (
    IntegralResult,
    QuadratureSpec,
    _adaptive_rows,
    double_semi_infinite,
    integrate_semi_infinite,
    matsubara_frequency,
    matsubara_sum,
)

from oracles import INTEGRAND_SUITE

SPEC = QuadratureSpec(rel_tol=1e-10)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_floor=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=4)
    with pytest.raises(ValueError):
        QuadratureSpec(q_cutoff=0.0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="q_cutoff"):
            QuadratureSpec(q_cutoff=bad)
    with pytest.raises(ValueError, match="abs_floor"):
        QuadratureSpec(abs_floor=np.nan)
    with pytest.raises(ValueError):
        QuadratureSpec(matsubara_max_terms=0)
    with pytest.raises(ValueError):
        QuadratureSpec(matsubara_tail="extrapolate")


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
    value = _adaptive_rows(lambda rows, x: np.exp(-x), 1, 3.0, SPEC,
                           _no_floor)[0]
    assert value[0] == pytest.approx(1.0 - np.exp(-3.0), rel=1e-12)


def test_non_finite_evaluation_is_reported_with_abscissa():
    def bad(x):
        return np.where(np.abs(x - 0.5) < 0.2, np.nan, np.exp(-x))

    with pytest.raises(ValueError, match=r"non-finite value at x = 0\.3"):
        integrate_semi_infinite(bad, SPEC)


def test_pathological_scale_is_reported():
    # Decay scale 1e15 exhausts double precision near the transformed upper
    # limit; the integrator must say "rescale", not return garbage.
    f = lambda x: np.exp(-x / 1e15)
    with pytest.raises(ValueError, match="rescale"):
        integrate_semi_infinite(f, QuadratureSpec(rel_tol=1e-12))


def test_budget_exhaustion_flags_not_converged():
    # A hard endpoint singularity under a tiny subdivision budget cannot
    # reach 1e-10; the flag must say so instead of lying.
    tight = QuadratureSpec(rel_tol=1e-12, max_subdivisions=8)
    res = integrate_semi_infinite(lambda x: np.exp(-x) / np.sqrt(x), tight)
    assert not res.converged
    assert abs(res.value - np.sqrt(np.pi)) <= 10.0 * res.error_estimate


def test_error_channel_adds_auxiliary_error():
    def f_plain(x):
        return np.exp(-x)

    def f_channel(x):
        out = np.empty((x.size, 2))
        out[:, 0] = np.exp(-x)
        out[:, 1] = np.exp(-x)
        return out

    plain = integrate_semi_infinite(f_plain, SPEC)
    chan = integrate_semi_infinite(f_channel, SPEC, error_channel=True)
    assert chan.value == pytest.approx(plain.value, rel=1e-14)
    # The channel integrates to 1, which lands in the error estimate.
    assert chan.error_estimate == pytest.approx(1.0, rel=1e-6)
    assert plain.error_estimate < 1e-9


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


def test_two_column_error_channel():
    def f(x):
        col = np.exp(-x)
        # column 0 carries no auxiliary error, column 1 an error density
        return np.stack([np.stack([col, 0.0 * col], axis=-1),
                         np.stack([col, col], axis=-1)], axis=1)

    res = integrate_semi_infinite(f, SPEC, error_channel=True)
    assert res.value == pytest.approx([1.0, 1.0], rel=1e-12)
    assert res.error_estimate[0] < 1e-9
    assert res.error_estimate[1] == pytest.approx(1.0, rel=1e-6)


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


# ---------------------------------------------------------------------------
# the row core: many independent integrals, one integrand call per round

def _no_floor(first):
    return 0.0


def _decays(rates, singular=()):
    """Row r: columns exp(-a_r x) and 3 exp(-a_r x), over sqrt(x) if singular."""
    rates = np.asarray(rates, dtype=float)
    weak = np.isin(np.arange(rates.size), singular)

    def f(rows, x):
        col = np.exp(-rates[rows, None] * x)
        col = np.where(weak[rows, None], col / np.sqrt(x), col)
        return np.stack([col, 3.0 * col], axis=-1)

    return f


def test_batched_rows_match_one_row_runs():
    # With no floor every row's relative target binds, so a row's panels,
    # value and flag cannot depend on the rows it is batched with.
    rates = [0.05, 0.7, 1.0, 4.0, 30.0]
    spec = QuadratureSpec(rel_tol=1e-11)
    f = _decays(rates)
    value, error, evals, ok = _adaptive_rows(f, len(rates), None, spec,
                                             _no_floor)
    assert value.shape == error.shape == (len(rates), 2)
    assert ok.all()
    np.testing.assert_allclose(value[:, 0], 1.0 / np.array(rates), rtol=1e-10)
    for r, rate in enumerate(rates):
        one = _adaptive_rows(_decays([rate]), 1, None, spec, _no_floor)
        np.testing.assert_allclose(value[r], one[0][0], rtol=1e-14, atol=0.0)
        assert evals[r] == one[2][0]
        assert ok[r] == one[3][0]
    # Rows converge after different numbers of rounds.
    assert len(set(evals)) > 1


def test_row_out_of_budget_is_flagged_alone():
    spec = QuadratureSpec(rel_tol=1e-12, max_subdivisions=8)
    value, error, evals, ok = _adaptive_rows(
        _decays([1.0, 1.0, 2.0], singular=[1]), 3, None, spec, _no_floor)
    assert ok.tolist() == [True, False, True]
    assert evals[1] == 15 * (8 + 2 * 8)
    assert abs(value[1, 0] - np.sqrt(np.pi)) <= 10.0 * error[1, 0]


def test_double_integral_reports_an_inner_budget_miss():
    # The outer integrand exp(-u) (1 + u sqrt(pi)) is smooth, but every q
    # integral has a 1/sqrt(q) endpoint singularity that 8 subdivisions
    # cannot resolve; the miss must reach the flag.
    d = 1e-6

    def integrand(xi, q):
        u, v = xi * d / c, q * d
        return np.exp(-u - v) * (1.0 + u / np.sqrt(v))

    exact = c / d ** 2 * (1.0 + np.sqrt(np.pi))
    loose = double_semi_infinite(integrand, QuadratureSpec(rel_tol=1e-6), d)
    assert loose.converged
    assert abs(loose.value - exact) <= loose.error_estimate
    tight = double_semi_infinite(
        integrand, QuadratureSpec(rel_tol=1e-6, max_subdivisions=8), d)
    assert not tight.converged
    assert abs(tight.value - exact) <= tight.error_estimate


def test_non_finite_value_names_the_abscissa_of_its_row():
    def f(rows, x):
        bad = (rows[:, None] == 1) & (np.abs(x - 0.5) < 0.2)
        return np.where(bad, np.nan, np.exp(-x))

    with pytest.raises(ValueError, match=r"non-finite value at x = 0\.3"):
        _adaptive_rows(f, 3, None, SPEC, _no_floor)


def test_double_integral_replays_bit_for_bit():
    d = 2.5e-6

    def integrand(xi, q):
        u, v = xi * d / c, q * d
        return np.stack([np.exp(-u - v), np.exp(-2.0 * u - v) * v], axis=-1)

    spec = QuadratureSpec(rel_tol=1e-9)
    for temperature in (0.0, 300.0):
        a = double_semi_infinite(integrand, spec, d, temperature=temperature)
        b = double_semi_infinite(integrand, spec, d, temperature=temperature)
        assert a.converged and b.converged
        assert np.array_equal(a.value, b.value)
        assert np.array_equal(a.error_estimate, b.error_estimate)
        assert a.evaluations == b.evaluations


def _captured_integrands(monkeypatch):
    """Every integrand the public observables hand to the double integral."""
    seen = []

    def capture(integrand, *args, **kwargs):
        seen.append(integrand)
        return IntegralResult(np.zeros(2), np.zeros(2), 0, True)

    monkeypatch.setattr(engine, "double_semi_infinite", capture)
    gold = drude_lorentz(1.37e16, 0.0, 5.3e13)
    glass = drude_lorentz(1.5e16, 1.2e16, 2e14, mu_model=(3e15, 5e15, 1e13))
    medium = drude_lorentz(1.2e16, 2.0e16, 1e14)
    cavity = CavityConfig(
        left_wall=Wall.stack([Layer(glass, 3e-8), Layer(gold, 5e-8)], gold),
        medium=medium, d1=4e-7, plate=Layer(gold, 1e-7), d3=9e-7,
        right_wall=Wall.stack([Layer(glass, 2e-8)], MIRROR))
    view = engine.cavity_interspaces(cavity)[0]
    engine.stress_zz(view, 1.3e-7)
    engine.minkowski_stress_zz(view)
    for method in ("exact-difference", "direct-difference"):
        engine.plate_force(cavity, method=method)
    engine.minkowski_plate_force(cavity)
    return seen


def test_integrands_broadcast_frequency_rows(monkeypatch):
    # The row core calls integrands with xi of shape (A, 1) against q of
    # shape (A, m); each row must equal the scalar-xi evaluation.
    integrands = _captured_integrands(monkeypatch)
    assert len(integrands) == 5
    rng = np.random.default_rng(5)
    xi = np.geomspace(1e12, 3e16, 7)
    q = rng.uniform(1e4, 3e7, size=(xi.size, 11))
    for integrand in integrands:
        rows = integrand(xi[:, None], q)
        assert rows.shape[:2] == q.shape
        assert np.all(np.isfinite(rows))
        for i, x in enumerate(xi):
            one = integrand(float(x), q[i])
            np.testing.assert_allclose(rows[i], one, rtol=1e-14,
                                       atol=1e-14 * np.abs(one).max())


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
    # g = exp(-xi/xi_c) sums in closed form: prefactor*(1/2 + r/(1-r)).
    prefactor = 2.0 * np.pi * Boltzmann * T / hbar
    r = np.exp(-float(matsubara_frequency(1, T)) / xi_c)
    tail = r / (1.0 - r)
    w0 = 0.5 if policy == "half-weight" else 0.0
    return prefactor * (w0 + tail)


@pytest.mark.parametrize("T", [30.0, 300.0, 3000.0])
def test_matsubara_geometric_closed_form(T):
    xi_c = 5e14
    g = lambda xi: np.exp(-xi / xi_c)
    res = matsubara_sum(g, T, QuadratureSpec(rel_tol=1e-10))
    assert res.converged
    assert res.value == pytest.approx(_geometric_expected(T, xi_c), rel=1e-9)


def test_matsubara_zero_term_policies():
    T = 300.0
    xi_c = 5e14
    g = lambda xi: np.exp(-xi / xi_c)
    spec = QuadratureSpec(rel_tol=1e-10)
    half = matsubara_sum(g, T, spec, zero_term_policy="half-weight")
    drop = matsubara_sum(g, T, spec, zero_term_policy="drop")
    prefactor = 2.0 * np.pi * Boltzmann * T / hbar
    assert half.value - drop.value == pytest.approx(0.5 * prefactor, rel=1e-12)
    assert drop.value == pytest.approx(_geometric_expected(T, xi_c, "drop"),
                                       rel=1e-9)


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


def _two_rates(n_cols):
    """A decaying thermal summand of one column, or two of different rates."""
    def g(xi):
        both = np.array([np.exp(-xi / 5e14), 2.0 * np.exp(-xi / 1e14)])
        return both if n_cols == 2 else both[0]

    return g


@pytest.mark.parametrize("n_cols", [1, 2])
@pytest.mark.parametrize("tail", ["none", "integral-tail-estimate"])
@pytest.mark.parametrize("policy", ["half-weight", "drop"])
def test_matsubara_error_channel_is_weighted_and_never_judged(policy, tail,
                                                              n_cols):
    T = 300.0
    spec = QuadratureSpec(rel_tol=1e-10, matsubara_tail=tail)
    g = _two_rates(n_cols)

    def density(xi):
        return 1e-6 / (1.0 + xi / 1e14) ** 2 * np.ones_like(g(xi))

    plain = matsubara_sum(g, T, spec, policy)
    both = matsubara_sum(lambda xi: np.stack([g(xi), density(xi)], -1), T,
                         spec, policy, error_channel=True)
    assert np.array_equal(both.value, plain.value)
    assert (both.evaluations, both.converged) == (plain.evaluations,
                                                  plain.converged)
    assert isinstance(both.error_estimate, float) == (n_cols == 1)
    # Same weights as the values: 1/2 on m = 0 under half-weight, 1 after.
    head = policy == "half-weight"
    terms = range(1, plain.evaluations - head + 1)
    weighted = sum(density(float(matsubara_frequency(m, T))) for m in terms)
    if head:
        weighted = weighted + 0.5 * density(0.0)
    spacing = float(matsubara_frequency(1, T))
    np.testing.assert_allclose(both.error_estimate,
                               plain.error_estimate + spacing * weighted,
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("policy", ["half-weight", "drop"])
def test_matsubara_large_error_channel_adds_no_term(policy):
    g = _two_rates(2)
    spec = QuadratureSpec(rel_tol=1e-10)
    plain = matsubara_sum(g, 300.0, spec, policy)
    loud = matsubara_sum(lambda xi: np.stack([g(xi), 1e6 * g(xi)], -1),
                         300.0, spec, policy, error_channel=True)
    assert plain.converged and loud.converged
    assert loud.evaluations == plain.evaluations
    assert np.array_equal(loud.value, plain.value)
    assert np.all(loud.error_estimate > 1e5 * np.abs(loud.value))


def test_matsubara_error_channel_needs_a_trailing_pair():
    with pytest.raises(ValueError, match="error-channel"):
        matsubara_sum(_two_rates(1), 300.0, SPEC, error_channel=True)
    with pytest.raises(ValueError, match="error-channel"):
        matsubara_sum(lambda xi: np.ones(3), 300.0, SPEC, error_channel=True)


def test_matsubara_policy_validation():
    g = lambda xi: np.exp(-xi / 5e14)
    with pytest.raises(ValueError):
        matsubara_sum(g, 300.0, SPEC, zero_term_policy="skip")
    # custom-value belongs to double_semi_infinite, which sums under "drop".
    with pytest.raises(ValueError, match="unknown"):
        matsubara_sum(g, 300.0, SPEC, zero_term_policy="custom-value")
    with pytest.raises(ValueError):
        matsubara_sum(g, 0.0, SPEC)
    with pytest.raises(ValueError):
        matsubara_sum(g, -1.0, SPEC)


def test_matsubara_divergent_zero_term_instructs():
    def g(xi):
        return 1.0 / xi if xi > 0.0 else np.inf

    with pytest.raises(ValueError, match="drop"):
        matsubara_sum(g, 300.0, SPEC)


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
    g = lambda xi: 1.0 / (1.0 + xi / 1e13) ** 2
    res = matsubara_sum(g, 300.0, QuadratureSpec(rel_tol=1e-10,
                                                 matsubara_max_terms=5))
    assert not res.converged
    assert res.error_estimate > 0.0


def test_matsubara_tail_estimate_policy():
    T = 300.0
    xi_c = 2e14
    g = lambda xi: np.exp(-xi / xi_c)
    none = matsubara_sum(g, T, QuadratureSpec(rel_tol=1e-10, matsubara_tail="none"))
    added = matsubara_sum(g, T, QuadratureSpec(
        rel_tol=1e-10, matsubara_tail="integral-tail-estimate"))
    exact = _geometric_expected(T, xi_c)
    # Adding the estimated geometric tail must not hurt, and the booked
    # error shrinks to half the discarded bound.
    assert abs(added.value - exact) <= abs(none.value - exact) + 1e-15 * exact
    assert added.error_estimate <= none.error_estimate
    assert added.error_estimate > 0.0


def test_matsubara_determinism():
    g = lambda xi: np.exp(-xi / 3e14)
    a = matsubara_sum(g, 77.0, QuadratureSpec(rel_tol=1e-9))
    b = matsubara_sum(g, 77.0, QuadratureSpec(rel_tol=1e-9))
    assert a == b
