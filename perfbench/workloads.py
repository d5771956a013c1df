"""The three benchmark workloads: seeded inputs, timed operations, references.

Each workload builds, from the run seed, a list of passes. A pass is one
fixed-composition batch of operations (forces, or command-line runs); its
wall time is the benchmark's "time to all of the workload's results". The
composition of a pass is stratified so that its cost hardly depends on the
seed, while the physical parameters inside each stratum do.

Every result is checked against a reference that the library did not
produce in the same run:

* ``mirror-cavity-0K``: the ideal-mirror closed forms of ``limits``;
* ``thermal-mirror-sweep``: an independent Lifshitz sum over Matsubara
  frequencies written here (``thermal_mirror_force``);
* ``stack-cli``: per-sample values recorded in ``refs/stack_cli.json`` at a
  tolerance far tighter than the run's (see ``make_refs.py``).

A result fails when the call raised, reported ``converged=False``, or missed
its reference by more than ``max(error_estimate, rel_tol*|ref|)`` plus the
reference's own recorded error.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.constants import Boltzmann, c, hbar
from scipy.special import zeta

HERE = os.path.dirname(os.path.abspath(__file__))
STACK_REFS = os.path.join(HERE, "refs", "stack_cli.json")

# Passes generated at set-up; far more than a run can use.
MAX_PASSES = 64


@dataclass
class Check:
    """One checked result."""

    label: str
    ok: bool
    detail: str


def gate(label, value, error_estimate, converged, reference, rel_tol,
         ref_error=0.0) -> Check:
    bound = max(error_estimate, rel_tol * abs(reference)) + ref_error
    miss = abs(value - reference)
    ok = bool(converged) and math.isfinite(value) and miss <= bound
    return Check(label, ok, f"value {value:.12e} ref {reference:.12e}"
                            f" miss {miss:.2e} bound {bound:.2e}"
                            f" converged {bool(converged)}")


@dataclass
class Op:
    """One timed call: ``run()`` does the library work, ``check(out)`` judges."""

    label: str
    run: object
    check: object
    results: int
    bytes_out: object = None  # output -> bytes written, for command-line ops


@dataclass
class Workload:
    name: str
    rel_tol: float
    passes: list[list[Op]]
    info: dict = field(default_factory=dict)


# -- mirror-cavity-0K ---------------------------------------------------------

# Permittivity strata of one pass: vacuum exactly, then three log-uniform bands.
_EPS_BANDS = ((1.0, 1.0), (1.0, 2.5), (2.5, 5.0), (5.0, 10.0))


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def mirror_cavity_0k(pc, seed: int, tmpdir: str) -> Workload:
    from planarcasimir.limits import (StaticMedium, casimir_generalized,
                                      minkowski_generalized)

    rel_tol = 1e-8
    spec = pc.QuadratureSpec(rel_tol=rel_tol)
    rng = np.random.default_rng([seed, 1])
    passes = []
    for _ in range(MAX_PASSES):
        ops = []
        for lo, hi in _EPS_BANDS:
            eps = lo if lo == hi else _log_uniform(rng, lo, hi)
            d1 = _log_uniform(rng, 0.2e-6, 5e-6)
            ratio = _log_uniform(rng, 2.0, 50.0)
            d3 = d1 * ratio if rng.random() < 0.5 else d1 / ratio
            cavity = pc.CavityConfig(
                left_wall=pc.Wall.perfect_mirror(), medium=pc.constant(eps=eps),
                d1=d1, plate=pc.PerfectMirrorPlate(), d3=d3,
                right_wall=pc.Wall.perfect_mirror())
            label = f"eps={eps:.4g} d1={d1:.4e} d3={d3:.4e}"

            def run(cavity=cavity):
                return (pc.plate_force(cavity, spec=spec),
                        pc.minkowski_plate_force(cavity, spec=spec))

            def check(out, eps=eps, d1=d1, d3=d3, label=label):
                force, mink = out
                ref = casimir_generalized(StaticMedium(eps=eps), d1, d3)
                ref_m = minkowski_generalized(eps, d1, d3)
                return [
                    gate(f"field {label}", force.force_per_area,
                         force.error_estimate, force.converged, ref, rel_tol),
                    gate(f"minkowski {label}", mink.force_per_area,
                         mink.error_estimate, mink.converged, ref_m, rel_tol),
                ]

            ops.append(Op(label, run, check, 2))
        passes.append(ops)
    return Workload("mirror-cavity-0K", rel_tol, passes)


# -- thermal-mirror-sweep -----------------------------------------------------

# T*d1 (kelvin * metre) of each stratum. The engine's term count scales as
# 1/(T*d1): these give about 3, 20, 170 and 600 Matsubara terms per
# polarization. Fixing T*d1 per stratum, while d1, d3 and so T vary with the
# seed, keeps the cost of a pass nearly independent of the seed.
THERMAL_TD = (1.1e-3, 1.35e-4, 1.7e-5, 5.0e-6)


def _ideal_mirror_pressure(temperature: float, d: float) -> float:
    """(k_B T/pi) sum'_m int_{xi_m/c}^inf 2 kappa^2 / (e^{2 kappa d} - 1) dkappa.

    The kappa integral is taken term by term of the geometric series
    1/(e^x - 1) = sum_n e^{-n x}: with b = 2 n d and a = xi_m/c,
    int_a^inf 2 k^2 e^{-b k} dk = 2 e^{-a b} (a^2/b + 2a/b^2 + 2/b^3).
    The m = 0 term is exact, zeta(3)/(2 d^3), weighted by one half.
    """
    a1 = 2.0 * math.pi * Boltzmann * temperature / (hbar * c)
    total = 0.5 * float(zeta(3.0)) / (2.0 * d**3)
    m = 1
    while True:
        a = a1 * m
        n_max = int(math.ceil(42.0 / (2.0 * d * a))) + 1
        b = 2.0 * d * np.arange(1, n_max + 1, dtype=float)
        term = 2.0 * float(np.sum(np.exp(-a * b) * (a * a / b + 2.0 * a / b**2
                                                    + 2.0 / b**3)))
        total += term
        if term <= 1e-18 * total:
            break
        m += 1
    return Boltzmann * temperature / math.pi * total


def thermal_mirror_force(temperature: float, d1: float, d3: float) -> float:
    """Net force per area on an ideal-mirror plate in a vacuum cavity."""
    return (_ideal_mirror_pressure(temperature, d3)
            - _ideal_mirror_pressure(temperature, d1))


def thermal_mirror_sweep(pc, seed: int, tmpdir: str) -> Workload:
    rel_tol = 1e-8
    spec = pc.QuadratureSpec(rel_tol=rel_tol)
    rng = np.random.default_rng([seed, 2])
    passes = []
    for _ in range(MAX_PASSES):
        ops = []
        for td in THERMAL_TD:
            d1 = _log_uniform(rng, 0.3e-6, 3e-6)
            d3 = d1 * _log_uniform(rng, 1.5, 8.0)
            temperature = td / d1
            cavity = pc.CavityConfig(
                left_wall=pc.Wall.perfect_mirror(), medium=pc.VACUUM, d1=d1,
                plate=pc.PerfectMirrorPlate(), d3=d3,
                right_wall=pc.Wall.perfect_mirror())
            label = f"T={temperature:.4g}K d1={d1:.4e} d3={d3:.4e}"

            def run(cavity=cavity, temperature=temperature):
                return pc.plate_force(cavity, temperature=temperature,
                                      spec=spec)

            def check(force, temperature=temperature, d1=d1, d3=d3,
                      label=label):
                ref = thermal_mirror_force(temperature, d1, d3)
                return [gate(label, force.force_per_area, force.error_estimate,
                             force.converged, ref, rel_tol)]

            ops.append(Op(label, run, check, 1))
        passes.append(ops)
    return Workload("thermal-mirror-sweep", rel_tol, passes)


# -- stack-cli ----------------------------------------------------------------

def load_stack_refs(path: str = STACK_REFS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_op(pc, case_id: str, run_spec: dict, tmpdir: str, rel_tol: float,
            refs: dict) -> Op:
    config = os.path.join(tmpdir, f"{case_id}.ini")
    out = os.path.join(tmpdir, f"{case_id}.json")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(run_spec["ini"])
    argv = [run_spec["command"], "--config", config, *run_spec["args"],
            "--rel-tol", repr(rel_tol), "--format", "json", "--out", out]
    key = run_spec["value_key"]

    def run():
        if os.path.exists(out):
            os.remove(out)
        code = pc.cli.main(argv)
        return code, os.path.getsize(out)

    def check(result):
        code, _ = result
        with open(out, encoding="utf-8") as fh:
            rows = json.load(fh)["results"]
        checks = []
        expected = refs["values"]
        if code != 0 or len(rows) != len(expected):
            checks.append(Check(case_id, False,
                                f"exit code {code}, {len(rows)} rows for"
                                f" {len(expected)} references"))
        for i, (row, ref) in enumerate(zip(rows, expected)):
            checks.append(gate(
                f"{case_id}[{i}]", row[key], row["error_estimate_N_per_m2"],
                row["converged"], ref["value"], rel_tol, ref["error"]))
        return checks

    return Op(f"{run_spec['command']} {case_id}", run, check,
              len(refs["values"]), bytes_out=lambda result: result[1])


def stack_cli(pc, seed: int, tmpdir: str) -> Workload:
    doc = load_stack_refs()
    rel_tol = float(doc["rel_tol"])
    cases = doc["cases"]
    order = np.random.default_rng([seed, 3]).permutation(len(cases))
    ops_by_case = []
    for case in cases:
        ops_by_case.append([
            _cli_op(pc, f"{case['id']}-{kind}", case[kind], tmpdir, rel_tol,
                    case[kind]["reference"])
            for kind in ("profile", "sweep")
        ])
    passes = [ops_by_case[order[k % len(cases)]] for k in range(MAX_PASSES)]
    return Workload("stack-cli", rel_tol, passes,
                    info={"ref_rel_tol": doc["ref_rel_tol"],
                          "pool_cases": len(cases)})


BUILDERS = {
    "mirror-cavity-0K": mirror_cavity_0k,
    "thermal-mirror-sweep": thermal_mirror_sweep,
    "stack-cli": stack_cli,
}
