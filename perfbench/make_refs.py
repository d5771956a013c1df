"""Regenerate ``refs/stack_cli.json``: the stack-cli case pool and its references.

    python3 perfbench/make_refs.py    # about 4 minutes on 2 cores

Each pool case is drawn from its own seed and holds two command-line runs:

* ``stress-profile`` across a dispersive Lorentz-dielectric gap between two
  multilayer walls of alternating Drude / Lorentz slabs on Drude
  half-spaces, ``n`` slabs on the left and ``SLABS_PER_CASE - n`` on the
  right, with ``n`` from 4 to 16 across the pool;
* ``sweep --parameter d`` of a mirror | gap | Drude plate | gap | Drude
  half-space cavity with the same gap medium.

Every profile carries the same total number of slabs, and at the run
tolerance every profile integral stops at the quadrature's initial panels,
so one case costs about the same as any other. The references are the same
command-line runs at ``REF_REL_TOL``, ten thousand times tighter than the
benchmark's ``RUN_REL_TOL``; each sample keeps its own error estimate, which
the gate adds to its bound. Regenerate the file only together with a note in
the changelog: every later comparison depends on it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import planarcasimir.cli  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "refs", "stack_cli.json")

POOL_CASES = 12
SLABS_PER_CASE = 20
MIN_SLABS, MAX_SLABS = 4, 16
RUN_REL_TOL = 1e-4
REF_REL_TOL = 1e-8
PROFILE_SAMPLES = 2
SWEEP_POINTS = 2


def _materials(rng) -> str:
    gap_res = rng.uniform(1.5e16, 2.5e16)
    gap_eps0 = rng.uniform(1.5, 3.0)
    return "\n".join([
        "[material.metal]", "kind = drude-lorentz",
        f"plasma_freq = {rng.uniform(1.2e16, 1.5e16)!r}",
        "resonance_freq = 0",
        f"damping = {rng.uniform(3e13, 8e13)!r}", "",
        "[material.diel]", "kind = drude-lorentz",
        f"plasma_freq = {rng.uniform(0.8e16, 2.0e16)!r}",
        f"resonance_freq = {rng.uniform(0.8e16, 2.0e16)!r}",
        f"damping = {rng.uniform(5e13, 3e14)!r}", "",
        "[material.gap]", "kind = drude-lorentz",
        f"plasma_freq = {gap_res * (gap_eps0 - 1.0) ** 0.5!r}",
        f"resonance_freq = {gap_res!r}",
        f"damping = {rng.uniform(5e13, 2e14)!r}", "",
    ])


def _slabs(rng, n: int) -> list[str]:
    """n alternating metal / dielectric slabs, nearest to the gap first."""
    return [f"wall:{'metal' if i % 2 == 0 else 'diel'}:"
            f"{rng.uniform(10e-9, 60e-9)!r}" for i in range(n)]


def make_case(index: int) -> dict:
    rng = np.random.default_rng([20261017, index])
    n = MIN_SLABS + round(index * (MAX_SLABS - MIN_SLABS) / (POOL_CASES - 1))
    materials = _materials(rng)

    width = rng.uniform(0.5e-6, 2e-6)
    # Reading order is left to right: the left wall lists its slabs
    # outermost first, the right wall nearest first.
    profile_regions = (["wall:metal:semi-infinite"] + _slabs(rng, n)[::-1]
                       + [f"gap:gap:{width!r}"]
                       + _slabs(rng, SLABS_PER_CASE - n)
                       + ["wall:metal:semi-infinite"])

    d1 = rng.uniform(0.3e-6, 1e-6)
    d3 = d1 * rng.uniform(1.5, 3.0)
    plate = rng.uniform(50e-9, 150e-9)
    sweep_regions = ["wall:mirror", f"gap:gap:{d1!r}", f"plate:metal:{plate!r}",
                     f"gap:gap:{d3!r}", "wall:metal:semi-infinite"]

    def ini(regions):
        return materials + "[structure]\nregions = " + ",\n    ".join(regions) + "\n"

    return {
        "id": f"case{index:02d}",
        "left_slabs": n,
        "right_slabs": SLABS_PER_CASE - n,
        "profile": {
            "command": "stress-profile",
            "ini": ini(profile_regions),
            "args": ["--samples", str(PROFILE_SAMPLES)],
            "value_key": "t_zz_N_per_m2",
        },
        "sweep": {
            "command": "sweep",
            "ini": ini(sweep_regions),
            "args": ["--parameter", "d", "--start", repr(d1),
                     "--stop", repr(2.0 * d1), "--points", str(SWEEP_POINTS)],
            "value_key": "force_per_area_N_per_m2",
        },
    }


def reference(run: dict, tmpdir: str) -> dict:
    config = os.path.join(tmpdir, "ref.ini")
    out = os.path.join(tmpdir, "ref.json")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(run["ini"])
    code = planarcasimir.cli.main(
        [run["command"], "--config", config, *run["args"],
         "--rel-tol", repr(REF_REL_TOL), "--format", "json", "--out", out])
    with open(out, encoding="utf-8") as fh:
        rows = json.load(fh)["results"]
    if code != 0 or not all(row["converged"] for row in rows):
        raise SystemExit(f"reference run did not converge: {run['command']}")
    return {"values": [{"value": row[run["value_key"]],
                        "error": row["error_estimate_N_per_m2"]}
                       for row in rows]}


def main() -> int:
    cases = []
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmpdir:
        for index in range(POOL_CASES):
            case = make_case(index)
            for kind in ("profile", "sweep"):
                case[kind]["reference"] = reference(case[kind], tmpdir)
            print(case["id"], case["left_slabs"], case["right_slabs"],
                  flush=True)
            cases.append(case)
    doc = {"rel_tol": RUN_REL_TOL, "ref_rel_tol": REF_REL_TOL, "cases": cases}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
