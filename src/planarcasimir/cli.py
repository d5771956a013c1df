"""Command-line driver for planar Casimir computations.

Commands
--------
force           net force per unit area on the central plate of a cavity
stress-profile  stress samples across a two-wall interspace
compare         field-based force vs Minkowski prediction over a contrast sweep
sweep           force as one parameter varies
limits          idealized-mirror closed forms

Structure and materials come from --config (see the config module for the
format). Command flags override the matching config keys, and the resolved
configuration is embedded in every JSON emission, so a produced JSON file
can itself be passed back as --config to reproduce the run bit for bit.

Exit codes: 0 success, 2 configuration or usage error, 3 result did not
converge to the requested tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .config import (
    METHODS,
    ZERO_TERM_POLICIES,
    ConfigError,
    RunConfig,
    _to_float,
    _to_int,
    build_config,
    load_sections,
)
from .engine import (
    interspace,
    minkowski_plate_force,
    plate_force,
    stress_profile,
)
from .layers import CavityConfig, PerfectMirrorPlate, Wall
from .limits import (
    StaticMedium,
    casimir_generalized,
    force_ratio,
    minkowski_generalized,
)
from .materials import MaterialKind, constant, eps_imag_axis, is_drude_like

__all__ = ["main"]

# Choices of the command flags, shared with the check of stored [command]
# values, which argparse never sees.
_COMPARE_MODES = ("closed", "quadrature")
_SWEEP_UNITS = {"d1": "m", "d3": "m", "d": "m", "eps": "", "T": "K"}
_SPACINGS = ("log", "linear")

_META_KEYS = (
    "temperature_K", "method", "zero_term_policy", "rel_tol", "abs_floor",
    "max_subdivisions", "q_cutoff_rad_per_m", "matsubara_max_terms",
    "matsubara_tail",
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="INI config file, or a JSON file emitted by a"
                             " previous run")
    common.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        help="machine-readable output (default: human summary)")
    common.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
    common.add_argument("--temperature", metavar="K",
                        help="temperature in kelvin (default 0)")
    common.add_argument("--rel-tol", metavar="TOL",
                        help="relative tolerance of all integrals")
    common.add_argument("--q-cutoff", metavar="RAD_PER_M",
                        help="sharp transverse-momentum cutoff")
    common.add_argument("--matsubara-terms", metavar="N",
                        help="cap on nonzero thermal terms")
    common.add_argument("--zero-term-policy", choices=ZERO_TERM_POLICIES,
                        help="handling of the zero-frequency thermal term")
    common.add_argument("--method", choices=METHODS,
                        help="force evaluation route")

    parser = argparse.ArgumentParser(
        prog="planarcasimir",
        description="Casimir stress and force in planar multilayer structures,"
                    " from the field-only (Lorentz-force) stress tensor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("force", parents=[common],
                       help="net force per area on the central plate")
    p.set_defaults(handler=_cmd_force)

    p = sub.add_parser("stress-profile", parents=[common],
                       help="stress on an interior grid of a two-wall interspace")
    p.add_argument("--samples", type=int, metavar="N",
                   help="number of interior samples (>= 2, default 9)")
    p.set_defaults(handler=_cmd_stress_profile)

    p = sub.add_parser("compare", parents=[common],
                       help="field-based force vs Minkowski prediction")
    p.add_argument("--eps", metavar="LIST",
                   help="comma-separated relative permittivities"
                        " (default 1,2,4,10)")
    p.add_argument("--mode", choices=_COMPARE_MODES,
                   help="closed forms (instant) or engine quadrature")
    p.add_argument("--d1", metavar="M", help="near gap width in meters")
    p.add_argument("--d3", metavar="M", help="far gap width in meters")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("sweep", parents=[common],
                       help="force while one parameter varies")
    p.add_argument("--parameter", choices=tuple(_SWEEP_UNITS),
                   help="swept parameter; 'd' scales both gaps proportionally")
    p.add_argument("--start", metavar="X", help="first value (SI units)")
    p.add_argument("--stop", metavar="X", help="last value (SI units)")
    p.add_argument("--points", metavar="N", help="number of points (default 9)")
    p.add_argument("--spacing", choices=_SPACINGS,
                   help="point spacing (default log)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("limits", parents=[common],
                       help="idealized-mirror closed forms")
    p.add_argument("--eps", metavar="X", help="relative permittivity (default 1)")
    p.add_argument("--mu", metavar="X", help="relative permeability (default 1)")
    p.add_argument("--d1", metavar="M", help="near gap width (default 1e-6)")
    p.add_argument("--d3", metavar="M", help="far gap width (default inf)")
    p.set_defaults(handler=_cmd_limits)

    return parser


def _override(sections, section: str, key: str, value) -> None:
    if value is not None:
        sections.setdefault(section, {})[key] = str(value)


def _prepare(args) -> tuple[dict, RunConfig]:
    """Load config sections, fold in CLI overrides, resolve."""
    sections = load_sections(args.config) if args.config else {}
    _override(sections, "run", "temperature", args.temperature)
    _override(sections, "run", "method", args.method)
    _override(sections, "run", "zero_term_policy", args.zero_term_policy)
    _override(sections, "quadrature", "rel_tol", args.rel_tol)
    _override(sections, "quadrature", "q_cutoff", args.q_cutoff)
    _override(sections, "quadrature", "matsubara_max_terms", args.matsubara_terms)
    _override(sections, "output", "format", args.fmt)
    _override(sections, "output", "path", args.out)
    return sections, build_config(sections)


def _stored_args(rc: RunConfig, command: str) -> dict[str, str]:
    # [command] args only apply when re-running the same subcommand.
    stored = rc.command_args
    return stored if stored.get("name") == command else {}


def _resolve(flag_value, stored: dict[str, str], key: str,
             default: str | None, choices=None) -> str | None:
    """The flag's value, else the stored [command] value, else ``default``.

    A stored value must be one of the flag's ``choices``, if it has any.
    """
    if flag_value is not None:
        return str(flag_value)
    value = stored.get(key, default)
    if choices is not None and value is not None and value not in choices:
        raise ConfigError(
            f"[command] {key}: {value!r} is not one of {', '.join(choices)}")
    return value


# ---------------------------------------------------------------------------
# emission

def _meta(rc: RunConfig) -> dict:
    q = rc.quadrature
    return {
        "temperature_K": rc.temperature,
        "method": rc.method,
        "zero_term_policy": rc.zero_term_policy,
        "rel_tol": q.rel_tol,
        "abs_floor": q.abs_floor,
        "max_subdivisions": q.max_subdivisions,
        "q_cutoff_rad_per_m": q.q_cutoff,
        "matsubara_max_terms": q.matsubara_max_terms,
        "matsubara_tail": q.matsubara_tail,
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".16e")
    return str(value)


def _render_csv(rows: list[dict]) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(row[key]) for key in header))
    return "\n".join(lines) + "\n"


def _render_human(rows: list[dict]) -> str:
    if len(rows) == 1:
        width = max(len(k) for k in rows[0])
        return "\n".join(f"{k:<{width}} = {_hcell(v)}"
                         for k, v in rows[0].items()) + "\n"
    columns = [k for k in rows[0] if k not in _META_KEYS]
    table = [[_hcell(row[k]) for k in columns] for row in rows]
    widths = [max(len(name), *(len(line[i]) for line in table))
              for i, name in enumerate(columns)]
    out = ["  ".join(f"{name:>{w}}" for name, w in zip(columns, widths))]
    for line in table:
        out.append("  ".join(f"{cell:>{w}}" for cell, w in zip(line, widths)))
    out.append("(--format csv or json for full reproducibility metadata)")
    return "\n".join(out) + "\n"


def _hcell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".9e")
    return str(value)


def _emit(command: str, sections: dict, rc: RunConfig, rows: list[dict]) -> None:
    fmt = rc.output_format
    path = rc.output_path
    if fmt is None and path is not None:
        fmt = "json" if path.endswith(".json") else "csv"
    if fmt == "csv":
        text = _render_csv(rows)
    elif fmt == "json":
        doc = {"command": command, "config": sections, "results": rows}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = _render_human(rows)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _diverged(what: str, n_bad: int, n_total: int) -> None:
    print(
        f"warning: {what}: {n_bad} of {n_total} result(s) did not reach the"
        " requested tolerance (raise --rel-tol, max_subdivisions or"
        " matsubara_max_terms); error estimates stay honest",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# command handlers

def _need_cavity(rc: RunConfig) -> CavityConfig:
    if rc.cavity is None:
        raise ConfigError(
            "this command needs a wall/gap/plate/gap/wall [structure] in"
            " --config"
        )
    return rc.cavity


def _force_zero_value(rc: RunConfig) -> dict[str, float] | None:
    if rc.zero_term_policy != "custom-value":
        return None
    if rc.zero_term_value_s is None or rc.zero_term_value_p is None:
        raise ConfigError(
            "[run]: custom-value policy on a force needs zero_term_value_s"
            " and zero_term_value_p"
        )
    return {"s": rc.zero_term_value_s, "p": rc.zero_term_value_p}


def _force_row(result, rc: RunConfig) -> dict:
    return {
        "force_per_area_N_per_m2": result.force_per_area,
        "error_estimate_N_per_m2": result.error_estimate,
        "force_s_N_per_m2": result.per_polarization["s"],
        "force_p_N_per_m2": result.per_polarization["p"],
        "converged": result.converged,
        "evaluations": result.evaluations,
        **_meta(rc),
    }


def _cmd_force(args) -> int:
    sections, rc = _prepare(args)
    cavity = _need_cavity(rc)
    sections["command"] = {"name": "force"}
    result = plate_force(
        cavity,
        temperature=rc.temperature,
        spec=rc.quadrature,
        method=rc.method,
        zero_term_policy=rc.zero_term_policy,
        zero_term_value=_force_zero_value(rc),
    )
    _emit("force", sections, rc, [_force_row(result, rc)])
    if not result.converged:
        _diverged("force", 1, 1)
        return 3
    return 0


def _cmd_stress_profile(args) -> int:
    sections, rc = _prepare(args)
    if rc.pair is None:
        raise ConfigError(
            "stress-profile needs a wall/gap/wall [structure] in --config"
        )
    stored = _stored_args(rc, "stress-profile")
    samples = _to_int(_resolve(args.samples, stored, "samples", "9"),
                      "--samples")
    if samples < 2:
        raise ConfigError("--samples: a profile needs at least 2 samples")
    sections["command"] = {"name": "stress-profile", "samples": str(samples)}

    left_wall, medium, width, right_wall = rc.pair
    view = interspace(left_wall, medium, width, right_wall)
    profile = stress_profile(
        view, samples,
        temperature=rc.temperature,
        spec=rc.quadrature,
        zero_term_policy=rc.zero_term_policy,
        zero_term_value=rc.zero_term_value,
    )
    rows = [
        {
            "z_m": float(z),
            "t_zz_N_per_m2": float(t),
            "error_estimate_N_per_m2": float(err),
            "converged": bool(ok),
            **_meta(rc),
        }
        for z, t, err, ok in zip(profile.z, profile.t_zz,
                                 profile.error_estimate, profile.converged)
    ]
    _emit("stress-profile", sections, rc, rows)
    n_bad = int(sum(not bool(ok) for ok in profile.converged))
    if n_bad:
        _diverged("stress-profile", n_bad, samples)
        return 3
    return 0


def _static_eps(model) -> float | None:
    if model.kind is MaterialKind.PERFECT_MIRROR or is_drude_like(model):
        return None
    return float(eps_imag_axis(model, 0.0))


def _cmd_compare(args) -> int:
    sections, rc = _prepare(args)
    stored = _stored_args(rc, "compare")
    eps_text = _resolve(args.eps, stored, "eps", None)
    mode = _resolve(args.mode, stored, "mode", "closed", _COMPARE_MODES)
    d1_text = _resolve(args.d1, stored, "d1", None)
    d3_text = _resolve(args.d3, stored, "d3", None)
    if (d1_text is None) != (d3_text is None):
        raise ConfigError("compare needs both --d1 and --d3 or neither")
    d1 = None if d1_text is None else _to_float(d1_text, "--d1")
    d3 = None if d3_text is None else _to_float(d3_text, "--d3")
    if d1 is None and rc.cavity is not None:
        d1, d3 = rc.cavity.d1, rc.cavity.d3

    if eps_text is None and rc.cavity is not None:
        # Compare the two tensors on the configured cavity itself.
        sections["command"] = {"name": "compare"}
        return _emit_compare(sections, rc, [_quadrature_compare_row(rc, rc.cavity)])

    eps_values = []
    for item in (eps_text or "1,2,4,10").split(","):
        item = item.strip()
        if item:
            eps_values.append(_to_float(item, "--eps"))
    if not eps_values:
        raise ConfigError("--eps: empty permittivity list")

    command = {"name": "compare", "eps": ",".join(repr(e) for e in eps_values),
               "mode": mode}
    if d1 is not None:
        command["d1"] = repr(d1)
        command["d3"] = repr(d3)
    sections["command"] = command

    if mode == "quadrature" and d1 is None:
        raise ConfigError(
            "compare --mode quadrature needs distances: pass --d1/--d3"
            " or configure a cavity"
        )
    rows = []
    for eps in eps_values:
        try:
            medium = StaticMedium(eps=eps)
        except ValueError as exc:
            raise ConfigError(f"--eps: {exc}") from None
        if mode == "quadrature":
            mirror = Wall.perfect_mirror()
            rows.append(_quadrature_compare_row(rc, CavityConfig(
                mirror, constant(eps=eps), d1, PerfectMirrorPlate(), d3, mirror)))
            continue
        row = {"eps": eps, "n": medium.n}
        if d1 is not None:
            row["force_per_area_N_per_m2"] = casimir_generalized(medium, d1, d3)
            row["minkowski_force_N_per_m2"] = minkowski_generalized(eps, d1, d3)
            row["d1_m"] = d1
            row["d3_m"] = d3
        row["ratio_minkowski_over_force"] = force_ratio(eps)
        row["mode"] = mode
        row.update(_meta(rc))
        rows.append(row)
    return _emit_compare(sections, rc, rows)


def _emit_compare(sections: dict, rc: RunConfig, rows: list[dict]) -> int:
    _emit("compare", sections, rc, rows)
    n_bad = sum(1 for r in rows if not r.get("force_converged", True)
                or not r.get("minkowski_converged", True))
    if n_bad:
        _diverged("compare", n_bad, len(rows))
        return 3
    return 0


def _quadrature_compare_row(rc: RunConfig, cavity: CavityConfig) -> dict:
    """Both tensors' plate forces on one cavity; the ratio is None at F = 0."""
    zero_term_value = _force_zero_value(rc)
    force = plate_force(
        cavity, temperature=rc.temperature, spec=rc.quadrature,
        method=rc.method, zero_term_policy=rc.zero_term_policy,
        zero_term_value=zero_term_value,
    )
    mink = minkowski_plate_force(
        cavity, temperature=rc.temperature, spec=rc.quadrature,
        zero_term_policy=rc.zero_term_policy, zero_term_value=zero_term_value,
    )
    eps = _static_eps(cavity.medium)
    ratio = None
    if force.force_per_area != 0.0:
        ratio = mink.force_per_area / force.force_per_area
    return {
        "eps": eps,
        "n": None if eps is None else eps ** 0.5,
        "force_per_area_N_per_m2": force.force_per_area,
        "minkowski_force_N_per_m2": mink.force_per_area,
        "ratio_minkowski_over_force": ratio,
        "d1_m": cavity.d1,
        "d3_m": cavity.d3,
        "force_converged": force.converged,
        "minkowski_converged": mink.converged,
        "mode": "quadrature",
        **_meta(rc),
    }


def _cmd_sweep(args) -> int:
    sections, rc = _prepare(args)
    cavity = _need_cavity(rc)
    stored = _stored_args(rc, "sweep")
    parameter = _resolve(args.parameter, stored, "parameter", None,
                         _SWEEP_UNITS)
    if parameter is None:
        raise ConfigError("sweep needs --parameter (d1, d3, d, eps or T)")
    start_text = _resolve(args.start, stored, "start", None)
    stop_text = _resolve(args.stop, stored, "stop", None)
    if start_text is None or stop_text is None:
        raise ConfigError("sweep needs a range: --start and --stop")
    start = _to_float(start_text, "--start")
    stop = _to_float(stop_text, "--stop")
    points = _to_int(_resolve(args.points, stored, "points", "9"), "--points")
    spacing = _resolve(args.spacing, stored, "spacing", "log", _SPACINGS)
    if points < 1:
        raise ConfigError("--points: need at least 1 point")
    if spacing == "log" and (start <= 0.0 or stop <= 0.0):
        raise ConfigError("log spacing needs positive --start and --stop"
                          " (use --spacing linear)")
    sections["command"] = {
        "name": "sweep", "parameter": parameter, "start": repr(start),
        "stop": repr(stop), "points": str(points), "spacing": spacing,
    }

    if spacing == "log":
        values = np.geomspace(start, stop, points)
    else:
        values = np.linspace(start, stop, points)

    if parameter == "eps" and cavity.medium.kind is not MaterialKind.CONSTANT:
        raise ConfigError(
            "an eps sweep needs a constant-kind gap medium in the structure"
        )

    rows = []
    n_bad = 0
    for value in (float(v) for v in values):
        temperature = rc.temperature
        case = cavity
        try:
            if parameter == "d1":
                case = replace(cavity, d1=value)
            elif parameter == "d3":
                case = replace(cavity, d3=value)
            elif parameter == "d":
                case = replace(cavity, d1=value,
                               d3=value * cavity.d3 / cavity.d1)
            elif parameter == "eps":
                case = replace(cavity, medium=constant(
                    eps=value, mu=cavity.medium.mu_static))
            else:
                temperature = value
        except ValueError as exc:
            raise ConfigError(f"sweep value {value!r}: {exc}") from None
        result = plate_force(
            case, temperature=temperature, spec=rc.quadrature,
            method=rc.method, zero_term_policy=rc.zero_term_policy,
            zero_term_value=_force_zero_value(rc),
        )
        row = {"parameter": parameter, "value": value,
               "unit": _SWEEP_UNITS[parameter]}
        row.update(_force_row(result, rc))
        if parameter == "T":
            row["temperature_K"] = value
        rows.append(row)
        n_bad += 0 if result.converged else 1
    _emit("sweep", sections, rc, rows)
    if n_bad:
        _diverged("sweep", n_bad, len(rows))
        return 3
    return 0


def _cmd_limits(args) -> int:
    sections, rc = _prepare(args)
    stored = _stored_args(rc, "limits")
    eps = _to_float(_resolve(args.eps, stored, "eps", "1"), "--eps")
    mu = _to_float(_resolve(args.mu, stored, "mu", "1"), "--mu")
    d1 = _to_float(_resolve(args.d1, stored, "d1", "1e-6"), "--d1")
    d3 = _to_float(_resolve(args.d3, stored, "d3", "inf"), "--d3")
    sections["command"] = {"name": "limits", "eps": repr(eps), "mu": repr(mu),
                           "d1": repr(d1), "d3": repr(d3)}
    try:
        medium = StaticMedium(eps=eps, mu=mu)
        force = casimir_generalized(medium, d1, d3)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    row = {
        "eps": eps,
        "mu": mu,
        "n": medium.n,
        "d1_m": d1,
        "d3_m": d3,
        "force_per_area_N_per_m2": force,
    }
    if mu == 1.0:
        row["minkowski_force_N_per_m2"] = minkowski_generalized(eps, d1, d3)
        row["ratio_minkowski_over_force"] = force_ratio(eps)
    else:
        row["minkowski_force_N_per_m2"] = None
        row["ratio_minkowski_over_force"] = None
    row.update(_meta(rc))
    _emit("limits", sections, rc, [row])
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Engine and model constructors reject unusable requests with
        # precise messages; surface them as configuration errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
