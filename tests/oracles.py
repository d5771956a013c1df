"""Independent reference implementations used to cross-check the library.

Everything here is deliberately built from first principles with no imports
from the package under test: a brute-force 2x2 characteristic-matrix solver
for layered reflection/transmission, a table of semi-infinite integrals
with known closed forms, the textbook distance limits of the pressure
between plasma half-spaces, and the classical (high-temperature) limit of
the ideal-mirror plate forces, the ideal-mirror thermal pressure at any
temperature, the Lifshitz pressure between magnetodielectric half-spaces
as polylogarithm series at 0 K and in the classical limit, and the Lifshitz
free energy of a gap between layered dispersive walls.
"""

import math

import numpy as np
from scipy.constants import Boltzmann, c, hbar
from scipy.integrate import quad
from scipy.special import erf, zeta

DELTA = {"s": -1.0, "p": 1.0}


def kappa_of(eps, mu, xi, q):
    """Imaginary-axis normal decay constant sqrt(q^2 + eps*mu*xi^2/c^2)."""
    return np.sqrt(q * q + eps * mu * xi * xi / c ** 2)


def interface_r(pol, eps_a, mu_a, kappa_a, eps_b, mu_b, kappa_b):
    """Single-interface reflection from medium a onto medium b."""
    if pol == "s":
        num = mu_b * kappa_a - mu_a * kappa_b
        den = mu_b * kappa_a + mu_a * kappa_b
    else:
        num = eps_b * kappa_a - eps_a * kappa_b
        den = eps_b * kappa_a + eps_a * kappa_b
    return num / den


def _interface_matrix(r):
    t = 1.0 + r
    return np.array([[1.0, r], [r, 1.0]]) / t


def _propagation_matrix(kappa, d):
    return np.array([[np.exp(kappa * d), 0.0], [0.0, np.exp(-kappa * d)]])


def stack_reflection(ambient, layers, terminator, xi, q, pol):
    """Reflection of a layered wall via the characteristic-matrix product.

    ambient: (eps, mu) of the half-space the wave arrives from.
    layers: [(eps, mu, thickness)] ordered nearest to the ambient first.
    terminator: ("mirror",) or ("medium", eps, mu).

    Amplitude pairs (forward, backward) on the left of each element are the
    matrix times the pair on its right; a mirror forces backward = Delta *
    forward at its face, a semi-infinite medium forces backward = 0.
    """
    media = [ambient] + [(eps, mu) for eps, mu, _ in layers]
    kappas = [kappa_of(eps, mu, xi, q) for eps, mu in media]
    matrix = np.eye(2)
    for i, (eps, mu, d) in enumerate(layers):
        r = interface_r(pol, *media[i], kappas[i], eps, mu, kappas[i + 1])
        matrix = matrix @ _interface_matrix(r) @ _propagation_matrix(kappas[i + 1], d)
    if terminator[0] == "mirror":
        vec = matrix @ np.array([1.0, DELTA[pol]])
        return vec[1] / vec[0]
    eps_t, mu_t = terminator[1], terminator[2]
    kappa_t = kappa_of(eps_t, mu_t, xi, q)
    r = interface_r(pol, *media[-1], kappas[-1], eps_t, mu_t, kappa_t)
    matrix = matrix @ _interface_matrix(r)
    return matrix[1, 0] / matrix[0, 0]


def slab_rt(ambient, slab, d, xi, q, pol):
    """(reflection, transmission) of one slab with identical surroundings."""
    eps_a, mu_a = ambient
    eps_b, mu_b = slab
    kappa_a = kappa_of(eps_a, mu_a, xi, q)
    kappa_b = kappa_of(eps_b, mu_b, xi, q)
    r1 = interface_r(pol, eps_a, mu_a, kappa_a, eps_b, mu_b, kappa_b)
    matrix = (_interface_matrix(r1)
              @ _propagation_matrix(kappa_b, d)
              @ _interface_matrix(-r1))
    return matrix[1, 0] / matrix[0, 0], 1.0 / matrix[0, 0]


# ---------------------------------------------------------------------------
# Semi-infinite integrals with hand-checked closed forms. Each entry is
# (name, integrand, exact value). Integrands are vectorized and finite for
# x > 0; values at huge x underflow cleanly to zero.

def _calm(f):
    def wrapped(x):
        with np.errstate(over="ignore"):
            return f(x)
    return wrapped


_EULER_GAMMA = float(np.euler_gamma)

INTEGRAND_SUITE = [
    ("unit_exponential", _calm(lambda x: np.exp(-x)), 1.0),
    ("scaled_exponential", _calm(lambda x: np.exp(-2.0 * x)), 0.5),
    ("linear_exponential", _calm(lambda x: x * np.exp(-3.0 * x)), 1.0 / 9.0),
    ("quadratic_exponential", _calm(lambda x: x ** 2 * np.exp(-x)), 2.0),
    ("cubic_exponential", _calm(lambda x: x ** 3 * np.exp(-x)), 6.0),
    ("planck_cubic", _calm(lambda x: x ** 3 / np.expm1(x)), np.pi ** 4 / 15.0),
    ("planck_linear", _calm(lambda x: x / np.expm1(x)), np.pi ** 2 / 6.0),
    ("gaussian", _calm(lambda x: np.exp(-x ** 2)), np.sqrt(np.pi) / 2.0),
    ("gaussian_moment", _calm(lambda x: x ** 2 * np.exp(-x ** 2)),
     np.sqrt(np.pi) / 4.0),
    ("displaced_gaussian", _calm(lambda x: np.exp(-((x - 5.0) ** 2))),
     np.sqrt(np.pi) / 2.0 * (1.0 + erf(5.0))),
    ("damped_cosine", _calm(lambda x: np.exp(-x) * np.cos(x)), 0.5),
    ("damped_sine", _calm(lambda x: np.exp(-x) * np.sin(x)), 0.5),
    ("slow_oscillation", _calm(lambda x: np.exp(-x / 10.0) * np.cos(3.0 * x)),
     0.1 / 9.01),
    ("algebraic_decay", _calm(lambda x: 1.0 / (1.0 + x) ** 2), 1.0),
    ("lorentzian", _calm(lambda x: 1.0 / (1.0 + x ** 2)), np.pi / 2.0),
    ("log_exponential", _calm(lambda x: np.log(x) * np.exp(-x)), -_EULER_GAMMA),
    ("sqrt_exponential", _calm(lambda x: np.exp(-np.sqrt(x))), 2.0),
    ("softplus_tail", _calm(lambda x: np.log1p(np.exp(-x))), np.pi ** 2 / 12.0),
    ("sech_squared", _calm(lambda x: 1.0 / np.cosh(np.minimum(x, 350.0)) ** 2),
     1.0),
    ("mode_envelope", _calm(lambda x: x * np.exp(-2.0 * np.sqrt(x ** 2 + 1.0))),
     0.75 * np.exp(-2.0)),
]


# ---------------------------------------------------------------------------
# Two plasma half-spaces across a vacuum gap d, with delta = c/omega_p, in
# both distance limits (Bordag, Mohideen & Mostepanenko, Phys. Rep. 353, 1
# (2001), and Advances in the Casimir Effect (2009)).

def plasma_retarded_ratio(d_over_delta):
    """P/P_mirror = 1 - (16/3)(delta/d) + 24 (delta/d)^2, to O((delta/d)^3)."""
    x = 1.0 / d_over_delta
    return 1.0 - 16.0 / 3.0 * x + 24.0 * x * x


def _nonretarded_sum(terms=20000):
    """S = sum_n n^-3 sqrt(pi) Gamma(2n - 1/2) / (2 Gamma(2n)) = 0.8721256.

    The n-th term falls like n^-3.5, so the sum stops 5e-12 short.
    """
    return sum(n ** -3.0 * math.sqrt(math.pi) / 2.0
               * math.exp(math.lgamma(2 * n - 0.5) - math.lgamma(2 * n))
               for n in range(1, terms + 1))


def plasma_nonretarded_pressure(plasma_freq, d):
    """P_nr = hbar omega_s S / (8 pi^2 d^3), omega_s = omega_p / sqrt(2)."""
    surface = plasma_freq / math.sqrt(2.0)
    return hbar * surface * _nonretarded_sum() / (8.0 * math.pi ** 2 * d ** 3)


# ---------------------------------------------------------------------------
# Ideal mirrors | d1 | mirror plate | d3 | mirrors with a static (eps, mu) in
# both gaps, at temperatures where only the m = 0 Matsubara term counts. At
# xi = 0 the field stress of one gap is (zeta(3) k_B T/(8 pi d^3)) in units
# of (mu + 1/eps): mu from s (r_s = -1 on both faces of the magnetic gap),
# 1/eps from p; the Minkowski stress has no such factor.

def classical_plate_force(eps, mu, temperature, d1, d3):
    """(s, p) shares of F_cl = (zeta(3) k_B T/8 pi)(mu + 1/eps)(d3^-3 - d1^-3)."""
    unit = (zeta(3.0) * Boltzmann * temperature / (8.0 * math.pi)
            * (d3 ** -3 - d1 ** -3))
    return mu * unit, unit / eps


def classical_minkowski_plate_force(temperature, d1, d3):
    """F^M_cl = (zeta(3) k_B T/4 pi)(d3^-3 - d1^-3), half from each of s, p."""
    return zeta(3.0) * Boltzmann * temperature / (4.0 * math.pi) * (
        d3 ** -3 - d1 ** -3)


# ---------------------------------------------------------------------------
# Ideal mirrors across a vacuum gap at any temperature, from the geometric
# series of the Bose factor; math only, so it shares no code with the
# engine's quadrature or with numpy.

_ZETA3 = 1.2020569031595942  # Apery's constant


def ideal_mirror_pressure(temperature, d):
    """(k_B T/pi) sum'_m int_{xi_m/c}^inf 2 k^2/(e^{2 k d} - 1) dk at T, gap d.

    The Bose factor is the geometric series 1/(e^x - 1) = sum_n e^{-n x}:
    with b = 2 n d and a = xi_m/c = m a_1,
    int_a^inf 2 k^2 e^{-b k} dk = 2 e^{-a b} (a^2/b + 2a/b^2 + 2/b^3).
    The sum over m >= 1 is taken first, in closed form with r = e^{-a_1 b}
    (sum_m r^m = r/(1 - r), sum_m m r^m = r/(1 - r)^2 and
    sum_m m^2 r^m = r (1 + r)/(1 - r)^3), and n runs until r < e^{-42}.
    The m = 0 term is zeta(3)/(2 d^3), weighted by one half. The plate
    force of a vacuum mirror cavity is P(d3) - P(d1).
    """
    a1 = 2.0 * math.pi * Boltzmann * temperature / (hbar * c)
    terms = [0.25 * _ZETA3 / d ** 3]
    for n in range(1, math.ceil(42.0 / (2.0 * d * a1)) + 2):
        b = 2.0 * d * n
        r, rest = math.exp(-a1 * b), -math.expm1(-a1 * b)
        s0 = r / rest
        s1 = s0 / rest
        s2 = s1 * (1.0 + r) / rest
        terms.append(2.0 * (a1 * a1 * s2 / b + 2.0 * a1 * s1 / b ** 2
                            + 2.0 * s0 / b ** 3))
    return Boltzmann * temperature / math.pi * math.fsum(terms)


# ---------------------------------------------------------------------------
# Nondispersive (eps, mu) half-spaces across a vacuum gap d, each side given
# as an (eps, mu) pair or as None for an ideal mirror, (r_s, r_p) = (-1, +1).
# P is the Lifshitz pressure, negative for attraction, so the engine's T_zz
# is -P. Li_n is summed as its power series; only the p integral of the 0 K
# form is numerical.

def polylog(order, x):
    """Li_order(x) = sum_{n >= 1} x^n / n^order for |x| <= 1."""
    if abs(x) == 1.0:
        # zeta(order), or the alternating eta(order) = (1 - 2^(1-order)) zeta.
        return zeta(order) * (1.0 if x > 0 else 2.0 ** (1 - order) - 1.0)
    if x == 0.0:
        return 0.0
    # The tail after N terms is below |x|^(N+1) / (1 - |x|), and
    # |Li(x)| >= |x| / 2: N holds it under 1e-18 |Li(x)|.
    count = math.ceil(math.log(5e-19 * (1.0 - abs(x))) / math.log(abs(x)))
    n = np.arange(1.0, count + 1.0)
    return float(np.sum(x ** n / n ** order))


def half_space_reflections(side, p):
    """(r_s, r_p) from vacuum at p = c kappa_vacuum/xi >= 1.

    With s = sqrt(p^2 - 1 + eps mu), r_s = (mu p - s)/(mu p + s) and
    r_p = (eps p - s)/(eps p + s).
    """
    if side is None:
        return -1.0, 1.0
    eps, mu = side
    s = math.sqrt(p * p - 1.0 + eps * mu)
    return (mu * p - s) / (mu * p + s), (eps * p - s) / (eps * p + s)


def lifshitz_pressure_0k(left, right, d):
    """(P, error) at 0 K, with the bound quad gives for the p integral.

    P = -(3 hbar c/16 pi^2 d^4) int_1^inf dp/p^2 sum_sigma Li_4(r_1 r_2),
    each r at p for the polarization sigma.
    """
    def integrand(p):
        (s1, p1), (s2, p2) = (half_space_reflections(left, p),
                              half_space_reflections(right, p))
        return (polylog(4, s1 * s2) + polylog(4, p1 * p2)) / (p * p)

    value, error = quad(integrand, 1.0, math.inf, epsabs=0.0, epsrel=1e-13,
                        limit=200)
    unit = 3.0 * hbar * c / (16.0 * math.pi ** 2 * d ** 4)
    return -unit * value, unit * error


def lifshitz_pressure_classical(left, right, temperature, d):
    """P_cl = -(k_B T/8 pi d^3) sum_sigma Li_3(Delta_1sigma Delta_2sigma).

    The m = 0 Matsubara term alone, with Delta_s = (mu - 1)/(mu + 1) and
    Delta_p = (eps - 1)/(eps + 1), the reflections as xi -> 0; the m >= 1
    terms fall like exp(-4 pi k_B T d/hbar c).
    """
    def deltas(side):
        if side is None:
            return -1.0, 1.0
        eps, mu = side
        return (mu - 1.0) / (mu + 1.0), (eps - 1.0) / (eps + 1.0)

    (s1, p1), (s2, p2) = deltas(left), deltas(right)
    return -(Boltzmann * temperature / (8.0 * math.pi * d ** 3)
             * (polylog(3, s1 * s2) + polylog(3, p1 * p2)))


# ---------------------------------------------------------------------------
# Ideal mirrors across a static (eps, mu) gap of width d, n^2 = eps mu: the
# field-only stress at height z is a z-independent pair term plus a surface
# term summed over the images z_k of the two faces, z + k d and d - z + k d
# (k >= 0). The pair term is (mu/n)(1 + 1/n^2)/2 times the vacuum mirror
# pressure at the temperature n T, since xi -> n xi turns the gap's
# Matsubara sum into the vacuum one; at 0 K it is
# (hbar c pi^2 mu/n)(1 + 1/n^2)/(480 d^4).

def filled_mirror_gap_stress(eps, mu, z, d, temperature=0.0):
    """T_zz at the height z of a gap of width d between ideal mirrors,
    attraction positive.

    At 0 K each image sum is a Hurwitz zeta:
    surface = hbar c mu (n^2 - 1)/(32 pi^2 n^3 d^4)
              [zeta(4, z/d) + zeta(4, 1 - z/d)],
    which at mid-gap is pi^4/3 in the bracket. At T > 0 the m = 0 term of
    the surface part vanishes (it carries xi^2), and each image's Matsubara
    sum is geometric, sum_m m^2 x^m = x (1 + x)/(1 - x)^3:
    surface = (k_B T/4 pi)(mu (n^2 - 1)/c^2) D^2
              sum_k x_k (1 + x_k)/((1 - x_k)^3 z_k),
    with D = 2 pi k_B T/hbar and x_k = e^{-2 n D z_k/c}. The images run
    while x_k >= e^{-42}. Past the last one, K, the terms of each sequence
    fall at least by r = e^{-2 n D d/c} per image, so the rest of both is
    below 2 x_K (1 + x_K)/((1 - x_K)^3 z_K (1 - r)) with z_K >= K d; that
    bound is asserted below 1e-17 of the surface sum. The far face's
    distance is d - z, as the engine forms it, since near that face the
    rounding of z / d alone would move the result by far more than an ulp.
    """
    n_sq = eps * mu
    n = math.sqrt(n_sq)
    if temperature == 0.0:
        pair = (hbar * c * math.pi ** 2 * mu / n * (1.0 + 1.0 / n_sq)
                / (480.0 * d ** 4))
        return pair + (hbar * c * mu * (n_sq - 1.0)
                       / (32.0 * math.pi ** 2 * n ** 3 * d ** 4)
                       * (zeta(4.0, z / d) + zeta(4.0, (d - z) / d)))
    pair = (mu / n * (1.0 + 1.0 / n_sq) / 2.0
            * ideal_mirror_pressure(n * temperature, d))
    spacing = 2.0 * math.pi * Boltzmann * temperature / hbar
    rate = 2.0 * n * spacing / c  # per metre of image distance
    count = math.ceil(42.0 / (rate * d)) + 1
    k = np.arange(count)
    images = np.concatenate([z + k * d, d - z + k * d])
    x, rest = np.exp(-rate * images), -np.expm1(-rate * images)
    terms = x * (1.0 + x) / (rest ** 3 * images)
    total = math.fsum(terms.tolist())
    x_k, z_k = math.exp(-rate * count * d), count * d
    tail = 2.0 * x_k * (1.0 + x_k) / ((-math.expm1(-rate * z_k)) ** 3 * z_k
                                      * -math.expm1(-rate * d))
    assert tail <= 1e-17 * total
    return pair + (Boltzmann * temperature / (4.0 * math.pi)
                   * mu * (n_sq - 1.0) / c ** 2 * spacing ** 2 * total)


def casimir_polder_plate_force(d1, w):
    """Summed Casimir-Polder force per area and per unit delta on a dilute
    plate, eps = 1 + delta, of thickness w at d1 from an ideal mirror:
    -(3 hbar c/32 pi^2)(d1^-4 - (d1 + w)^-4), attraction negative (Casimir &
    Polder, Phys. Rev. 73, 360 (1948))."""
    return -3.0 * hbar * c / (32.0 * math.pi ** 2) * (d1 ** -4 - (d1 + w) ** -4)


# ---------------------------------------------------------------------------
# The Lifshitz free energy per area of a gap between two layered walls,
#
#     E(d) = (hbar/4 pi^2) Int_0^inf dxi Int_0^inf dq q
#            sum_sigma ln(1 - r_- r_+ e^{-2 kappa d}),
#
# at 0 K, and (k_B T/2 pi) sum'_m Int dq at T > 0, where the xi integral is
# the sum over xi_m = 2 pi m k_B T/hbar. It is no stress tensor: its central
# difference in d is the Minkowski pressure dE/dd for any gap medium, since
# the r's do not depend on d (Lifshitz; for absorbing magnetodielectric
# multilayers, Tomas, Phys. Rev. A 66, 052103 (2002)).
#
# A medium is (eps, mu), each a record (static, Omega, omega_0, gamma) of
# static + Omega^2/(omega_0^2 + xi^2 + gamma xi), no oscillator where
# Omega = 0. A wall is (layers, terminator): layers [(medium, thickness)]
# nearest the gap first, and a medium or None, an ideal mirror, behind them.

def response(record, xi):
    """static + Omega^2/(omega_0^2 + xi^2 + gamma xi) of one record."""
    static, strength, resonance, damping = record
    if not strength:
        return np.full_like(xi, static)
    return static + strength ** 2 / (resonance ** 2 + xi * xi + damping * xi)


def wall_reflections(gap, wall, xi, q):
    """(r_s, r_p) of a wall seen from the gap medium, at broadcast xi and q.

    The normalized characteristic-matrix product of ``stack_reflection``,
    on arrays: each interface [[1, r], [r, 1]], each slab
    [[1, 0], [0, e^{-2 kappa w}]], the common factors that cancel in the
    ratio left out.
    """
    layers, terminator = wall
    media = [gap] + [medium for medium, _ in layers]
    eps_mu = [(response(e, xi), response(m, xi)) for e, m in media]
    kappas = [kappa_of(eps, mu, xi, q) for eps, mu in eps_mu]
    out = []
    for pol in ("s", "p"):
        a, b, cc, e = 1.0, 0.0, 0.0, 1.0
        for i, (_, width) in enumerate(layers):
            r = interface_r(pol, *eps_mu[i], kappas[i], *eps_mu[i + 1],
                            kappas[i + 1])
            a, b, cc, e = a + b * r, a * r + b, cc + e * r, cc * r + e
            fade = np.exp(-2.0 * kappas[i + 1] * width)
            b, e = b * fade, e * fade
        if terminator is None:
            out.append((cc + e * DELTA[pol]) / (a + b * DELTA[pol]))
        else:
            eps_t, mu_t = (response(terminator[0], xi),
                           response(terminator[1], xi))
            r = interface_r(pol, *eps_mu[-1], kappas[-1], eps_t, mu_t,
                            kappa_of(eps_t, mu_t, xi, q))
            out.append((cc + e * r) / (a + b * r))
    return out


def _exp_exp(step):
    """Nodes and weights of the double-exponential rule for
    Int_0^inf f(x) dx with exponentially decaying f: x = exp(t - e^{-t}),
    t from -3.25 to 6 in steps ``step``, endpoint singularities at 0
    included. x starts at 2.4e-13, above which the round trip of two ideal
    mirrors stays below 1 in floating point; x ends at 400."""
    t = np.arange(-3.25, 6.0 + 0.5 * step, step)
    x = np.exp(t - np.exp(-t))
    return x, step * x * (1.0 + np.exp(-t))


def _log_round_trips(gap, left, right, d, xi, q):
    """sum_sigma ln(1 - r_- r_+ e^{-2 kappa d}) at broadcast xi and q."""
    kappa = kappa_of(response(gap[0], xi), response(gap[1], xi), xi, q)
    fade = np.exp(-2.0 * kappa * d)
    return sum(np.log1p(-r_minus * r_plus * fade) for r_minus, r_plus in zip(
        wall_reflections(gap, left, xi, q),
        wall_reflections(gap, right, xi, q)))


def lifshitz_free_energy(gap, left, right, d, temperature=0.0, drop=False):
    """(E, error) in J/m^2 of a gap of width d between two walls.

    q = s/(2d) and xi = c x/(2d) run on the double-exponential rule of
    step 1/16 each, which resolves the decay e^{-2 kappa d}; the error is
    the change from the rule of twice the step, whose nodes it halves. At
    T > 0 the m = 0 term has weight 1/2, or none with ``drop``, and terms
    are summed in blocks of 64 until a block adds less than 1e-17 of the
    sum. The error adds 1e-14 of the rule on |...|, a bound on rounding.
    """
    s, w = _exp_exp(1.0 / 16.0)
    q, wq = s / (2.0 * d), w / (2.0 * d)

    def per_frequency(xi):
        """Int dq q sum_sigma ln(...) at each xi of a column: both rules,
        and the fine rule on |...|, which sizes its rounding."""
        f = _log_round_trips(gap, left, right, d, xi[:, None], q[None, :]) * (
            q * wq)
        return f.sum(axis=1), 2.0 * f[:, ::2].sum(axis=1), abs(f).sum(axis=1)

    if temperature == 0.0:
        x, wx = _exp_exp(1.0 / 16.0)
        fine, coarse, size = per_frequency(c * x / (2.0 * d))
        totals = wx @ fine, 2.0 * (wx[::2] @ coarse[::2]), wx @ size
        unit = hbar / (4.0 * math.pi ** 2) * c / (2.0 * d)
    else:
        spacing = 2.0 * math.pi * Boltzmann * temperature / hbar
        totals = np.zeros(3)
        for start in range(0, 10 ** 6, 64):
            m = np.arange(max(start, 1 if drop else 0), start + 64)
            block = np.where(m == 0, 0.5, 1.0) @ np.transpose(
                per_frequency(spacing * m))
            totals += block
            if abs(block[0]) <= 1e-17 * abs(totals[0]):
                break
        unit = Boltzmann * temperature / (2.0 * math.pi)
    fine, coarse, size = totals
    return unit * fine, unit * (abs(fine - coarse) + 1e-14 * size)
