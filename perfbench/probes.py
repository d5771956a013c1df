"""Layer probes: public functions called at fixed sizes, timed and checked.

Each probe times one layer in isolation, so a change to that layer shows
here even when a workload's end-to-end time hides it. Every probed value is
compared with an independent computation before its time is reported.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np
from scipy.constants import Boltzmann, c, hbar

# Drude metal and Lorentz dielectric used by the probes (rad/s).
DRUDE = (1.37e16, 0.0, 5.3e13)
LORENTZ = (1.5e16, 1.2e16, 2.0e14)
AMBIENT = (1.2e16, 2.0e16, 1.0e14)
SLAB_THICKNESS = 30e-9


def per_call_seconds(fn, min_batch_s: float = 0.02, batches: int = 7) -> float:
    """Median time of one call, from batches long enough to time reliably."""
    fn()
    reps = 1
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= min_batch_s:
            break
        reps *= 2
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        times.append((perf_counter() - t0) / reps)
    return statistics.median(times)


def _osc(params, xi):
    strength, resonance, damping = params
    return 1.0 + strength**2 / (resonance**2 + xi * xi + damping * xi)


def _reflection_oracle(ambient_eps, slab_eps, terminator_eps, xi, q, pol):
    """Characteristic-matrix reflection of a nonmagnetic stack, per q point.

    slab_eps lists (eps, thickness) nearest to the ambient first; the
    terminator is a half-space. p uses the magnetic-field convention, so the
    interface weights are kappa/eps for p and kappa for s.
    """
    def weight(eps, kappa):
        return kappa / eps if pol == "p" else kappa

    def kappa_of(eps):
        return np.sqrt(q * q + eps * xi * xi / c**2)

    media = [ambient_eps] + [eps for eps, _ in slab_eps] + [terminator_eps]
    r_out = np.empty_like(q)
    for j in range(q.size):
        m = np.eye(2)
        for i in range(len(media) - 1):
            ka, kb = kappa_of(media[i])[j], kappa_of(media[i + 1])[j]
            wa, wb = weight(media[i], ka), weight(media[i + 1], kb)
            r = (wa - wb) / (wa + wb)
            m = m @ (np.array([[1.0, r], [r, 1.0]]) / (1.0 + r))
            if i + 1 < len(media) - 1:
                d = slab_eps[i][1]
                m = m @ np.diag([math.exp(kb * d), math.exp(-kb * d)])
        r_out[j] = m[1, 0] / m[0, 0]
    return r_out


def run_probes(pc) -> tuple[dict[str, float], list[str]]:
    """Return (metrics, failures); an empty failure list means all checks held."""
    metrics: dict[str, float] = {}
    failures: list[str] = []

    def expect(name, ok, detail):
        if not ok:
            failures.append(f"probe {name}: {detail}")

    # materials: eps on the imaginary axis, Drude model.
    drude = pc.drude_lorentz(*DRUDE)
    for n in (15, 1500):
        xi = np.geomspace(1e12, 1e17, n)
        got = pc.materials.eps_imag_axis(drude, xi)
        err = float(np.max(np.abs(got / _osc(DRUDE, xi) - 1.0)))
        name = f"materials.eps_ns_per_point.n{n}"
        expect(name, err <= 1e-13, f"max rel error {err:.2e}")
        t = per_call_seconds(lambda: pc.materials.eps_imag_axis(drude, xi))
        metrics[name] = t / n * 1e9

    # layers: wall reflection against the characteristic-matrix oracle.
    metal, diel = pc.drude_lorentz(*DRUDE), pc.drude_lorentz(*LORENTZ)
    ambient = pc.drude_lorentz(*AMBIENT)
    xi = 2e15
    q = np.geomspace(1e5, 1e8, 15)
    for slabs in (0, 1, 4, 16):
        layers = [pc.Layer(metal if i % 2 else diel, SLAB_THICKNESS)
                  for i in range(slabs)]
        wall = pc.Wall.stack(layers, metal)
        name = f"layers.wall_reflection_us.slabs{slabs}"
        for pol in ("s", "p"):
            got = pc.wall_reflection(wall, ambient,
                                     pc.TransverseMode(xi=xi, q=q, pol=pol))
            want = _reflection_oracle(
                _osc(AMBIENT, xi),
                [(_osc(LORENTZ if i % 2 == 0 else DRUDE, xi), SLAB_THICKNESS)
                 for i in range(slabs)],
                _osc(DRUDE, xi), xi, q, pol)
            err = float(np.max(np.abs(got - want)))
            expect(f"{name}.{pol}", err <= 1e-12, f"max abs error {err:.2e}")
        mode = pc.TransverseMode(xi=xi, q=q, pol="p")
        metrics[name] = per_call_seconds(
            lambda: pc.wall_reflection(wall, ambient, mode)) * 1e6

    # quadrature: one panel of a trivial integrand, exact integral 1.
    spec = pc.QuadratureSpec(rel_tol=1e-10)
    res = pc.integrate_semi_infinite(lambda x: np.exp(-x), spec)
    miss = abs(res.value - 1.0)
    expect("quadrature.panel_us.trivial",
           res.converged and miss <= max(res.error_estimate, 1e-10),
           f"value {res.value!r}, error estimate {res.error_estimate:.2e}")
    panels = res.evaluations / 15
    metrics["quadrature.panel_us.trivial"] = per_call_seconds(
        lambda: pc.integrate_semi_infinite(lambda x: np.exp(-x), spec)
    ) / panels * 1e6

    # quadrature: a thermal sum of a geometric series with a closed form.
    temperature = 300.0
    step = 2.0 * math.pi * Boltzmann * temperature / hbar
    xi0 = step / 0.02
    msum_spec = pc.QuadratureSpec(rel_tol=1e-10)

    def g(xi_m):
        return math.exp(-xi_m / xi0)

    res = pc.matsubara_sum(g, temperature, msum_spec)
    exact = step * (0.5 + 1.0 / math.expm1(step / xi0))
    miss = abs(res.value - exact)
    expect("quadrature.matsubara_us_per_term.trivial",
           res.converged and miss <= max(res.error_estimate, 1e-10 * exact),
           f"value {res.value!r} exact {exact!r}")
    metrics["quadrature.matsubara_us_per_term.trivial"] = per_call_seconds(
        lambda: pc.matsubara_sum(g, temperature, msum_spec)
    ) / res.evaluations * 1e6
    return metrics, failures
