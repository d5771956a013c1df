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
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (
    SECTION_KEYS,
    ConfigError,
    RunConfig,
    _choice,
    _to_float,
    _to_int,
    build_config,
    load_sections,
)
from .engine import (
    METHODS,
    ZERO_TERM_POLICIES,
    _zero_term,
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

_SWEEP_UNITS = {"d1": "m", "d3": "m", "d": "m", "eps": "", "T": "K"}

# The flags every command takes: flag, the config key it overrides, its
# metavar (a string) or choices (a tuple), help.
_COMMON = (
    ("--format", "format", ("csv", "json"),
     "machine-readable output (default: human summary)"),
    ("--out", "path", "PATH", "write output to PATH instead of stdout"),
    ("--temperature", "temperature", "K", "temperature in kelvin (default 0)"),
    ("--rel-tol", "rel_tol", "TOL", "relative tolerance of all integrals"),
    ("--q-cutoff", "q_cutoff", "RAD_PER_M", "sharp transverse-momentum cutoff"),
    ("--matsubara-terms", "matsubara_max_terms", "N",
     "cap on nonzero thermal terms"),
    ("--zero-term-policy", "zero_term_policy", ZERO_TERM_POLICIES,
     "handling of the zero-frequency thermal term"),
    ("--method", "method", METHODS, "force evaluation route"),
)


def _add(parser, flag: str, shape, help_text: str, **kwargs) -> None:
    kind = "choices" if isinstance(shape, tuple) else "metavar"
    parser.add_argument(flag, help=help_text, **{kind: shape}, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="INI config file, or a JSON file emitted by a"
                             " previous run")
    for flag, key, shape, help_text in _COMMON:
        _add(common, flag, shape, help_text, dest=key)

    parser = argparse.ArgumentParser(
        prog="planarcasimir",
        description="Casimir stress and force in planar multilayer structures,"
                    " from the field-only (Lorentz-force) stress tensor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for name, _, _, shape, help_text in flags:
            _add(p, f"--{name}", shape, help_text)
    return parser


def _prepare(args) -> tuple[dict, RunConfig]:
    """Load config sections, fold in the common flags, resolve.

    Overrides are written in the config's own key order, not in the --help
    order of ``_COMMON``, so emitted sections keep their established order.
    """
    sections = load_sections(args.config) if args.config else {}
    overrides = {key: getattr(args, key) for _, key, _, _ in _COMMON}
    for section, keys in SECTION_KEYS.items():
        for key in keys:
            if overrides.get(key) is not None:
                sections.setdefault(section, {})[key] = overrides[key]
    return sections, build_config(sections)


def _command_values(args, rc: RunConfig) -> dict:
    """Each command flag's value, converted and checked.

    A flag wins; else the [command] value an emission of the same command
    stored; else the flag's default. Stored values never pass through
    argparse, so they are checked against the flag's choices here.
    """
    stored = rc.command_args
    stored = stored if stored.get("name") == args.command else {}
    values = {}
    for name, convert, default, shape, _ in _COMMANDS[args.command][2]:
        text, where = getattr(args, name), f"--{name}"
        if text is None and name in stored:
            text, where = stored[name], f"[command] {name}"
            if isinstance(shape, tuple):
                _choice(text, shape, where)
        if text is None:
            text = default
        values[name] = (text if text is None or convert is None
                        else convert(text, where))
    return values


def _stored(value) -> str:
    # The [command] text of a resolved value: floats as repr, so a replay
    # reads back the very same number.
    if isinstance(value, list):
        return ",".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


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


def _render_human(rows: list[dict], meta: dict) -> str:
    if len(rows) == 1:
        width = max(len(k) for k in rows[0])
        return "\n".join(f"{k:<{width}} = {_hcell(v)}"
                         for k, v in rows[0].items()) + "\n"
    columns = [k for k in rows[0] if k not in meta]
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
        text = _render_human(rows, _meta(rc))
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# command handlers: each takes the run and its resolved command values and
# returns (rows, number of rows that missed the requested tolerance)

def _need_cavity(rc: RunConfig) -> CavityConfig:
    if rc.cavity is None:
        raise ConfigError("this command needs a wall/gap/plate/gap/wall"
                          " [structure] in --config")
    return rc.cavity


def _at_zero_kelvin(rc: RunConfig) -> None:
    # The ideal-mirror closed forms are zero-temperature results.
    if rc.temperature != 0.0:
        raise ConfigError(
            f"[run] temperature: the closed forms hold at 0 K, not at"
            f" {rc.temperature!r} K; use compare --mode quadrature for a"
            " force at finite temperature")


def _force(rc: RunConfig, cavity: CavityConfig, minkowski: bool = False):
    """The run's field-only (or Minkowski) plate force on ``cavity``."""
    kwargs = dict(
        temperature=rc.temperature, spec=rc.quadrature,
        zero_term_policy=rc.zero_term_policy,
        zero_term_value={"s": rc.zero_term_value_s, "p": rc.zero_term_value_p})
    if minkowski:
        return minkowski_plate_force(cavity, **kwargs)
    return plate_force(cavity, method=rc.method, **kwargs)


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


def _cmd_force(rc: RunConfig, values: dict):
    result = _force(rc, _need_cavity(rc))
    return [_force_row(result, rc)], int(not result.converged)


def _cmd_stress_profile(rc: RunConfig, values: dict):
    if rc.pair is None:
        raise ConfigError(
            "stress-profile needs a wall/gap/wall [structure] in --config")
    samples = values["samples"]
    if samples < 2:
        raise ConfigError("--samples: a profile needs at least 2 samples")
    profile = stress_profile(
        interspace(*rc.pair), samples, temperature=rc.temperature,
        spec=rc.quadrature, zero_term_policy=rc.zero_term_policy,
        zero_term_value=rc.zero_term_value)
    rows = [{"z_m": float(z), "t_zz_N_per_m2": float(t),
             "error_estimate_N_per_m2": float(err), "converged": bool(ok),
             **_meta(rc)}
            for z, t, err, ok in zip(profile.z, profile.t_zz,
                                     profile.error_estimate, profile.converged)]
    return rows, sum(not row["converged"] for row in rows)


def _static_eps(model) -> float | None:
    if model.kind is MaterialKind.PERFECT_MIRROR or is_drude_like(model):
        return None
    return float(eps_imag_axis(model, 0.0))


def _eps_list(text: str, where: str) -> list[float]:
    items = (item.strip() for item in text.split(","))
    values = [_to_float(item, where) for item in items if item]
    if not values:
        raise ConfigError(f"{where}: empty permittivity list")
    return values


def _cmd_compare(rc: RunConfig, values: dict):
    """Both tensors on the configured cavity, else over a contrast sweep."""
    d1, d3 = values["d1"], values["d3"]
    if (d1 is None) != (d3 is None):
        raise ConfigError("compare needs both --d1 and --d3 or neither")
    if values["eps"] is None and rc.cavity is not None:
        # Compare the two tensors on the configured cavity itself.
        if d1 is not None:
            raise ConfigError(
                "compare on a configured cavity takes its gaps from"
                " [structure]; --d1/--d3 apply only with --eps")
        if values["mode"] == "closed":
            raise ConfigError(
                "compare on a configured cavity runs quadrature; --mode"
                " closed applies only with --eps")
        rows = [_quadrature_compare_row(rc, rc.cavity)]
    else:
        if d1 is None and rc.cavity is not None:
            d1, d3 = rc.cavity.d1, rc.cavity.d3
        eps_values = values["eps"] or [1.0, 2.0, 4.0, 10.0]
        mode = values["mode"] or "closed"
        # These defaults depend on the branch; store them as [command].
        values.update(eps=eps_values, mode=mode, d1=d1, d3=d3)
        if mode == "quadrature" and d1 is None:
            raise ConfigError(
                "compare --mode quadrature needs distances: pass --d1/--d3"
                " or configure a cavity")
        if mode == "closed":
            _at_zero_kelvin(rc)
        rows = [_contrast_row(rc, eps, mode, d1, d3) for eps in eps_values]
    return rows, sum(False in (row.get("force_converged"),
                               row.get("minkowski_converged")) for row in rows)


def _contrast_row(rc: RunConfig, eps: float, mode: str, d1, d3) -> dict:
    try:
        medium = StaticMedium(eps=eps)
    except ValueError as exc:
        raise ConfigError(f"--eps: {exc}") from None
    if mode == "quadrature":
        mirror = Wall.perfect_mirror()
        return _quadrature_compare_row(rc, CavityConfig(
            mirror, constant(eps=eps), d1, PerfectMirrorPlate(), d3, mirror))
    row = {"eps": eps, "n": medium.n}
    if d1 is not None:
        row.update(force_per_area_N_per_m2=casimir_generalized(medium, d1, d3),
                   minkowski_force_N_per_m2=minkowski_generalized(eps, d1, d3),
                   d1_m=d1, d3_m=d3)
    return {**row, "ratio_minkowski_over_force": force_ratio(eps),
            "mode": mode, **_meta(rc)}


def _quadrature_compare_row(rc: RunConfig, cavity: CavityConfig) -> dict:
    """Both tensors' plate forces on one cavity; the ratio is None at F = 0."""
    force = _force(rc, cavity)
    mink = _force(rc, cavity, minkowski=True)
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


def _cmd_sweep(rc: RunConfig, values: dict):
    cavity = _need_cavity(rc)
    parameter, start, stop = values["parameter"], values["start"], values["stop"]
    if parameter is None:
        raise ConfigError("sweep needs --parameter (d1, d3, d, eps or T)")
    if start is None or stop is None:
        raise ConfigError("sweep needs a range: --start and --stop")
    if not np.isfinite([start, stop]).all():
        raise ConfigError("sweep needs a finite range: --start and --stop")
    points, spacing = values["points"], values["spacing"]
    if points < 1:
        raise ConfigError("--points: need at least 1 point")
    if spacing == "log" and (start <= 0.0 or stop <= 0.0):
        raise ConfigError("log spacing needs positive --start and --stop"
                          " (use --spacing linear)")
    if parameter == "eps" and cavity.medium.kind is not MaterialKind.CONSTANT:
        raise ConfigError(
            "an eps sweep needs a constant-kind gap medium in the structure"
        )

    # Every point is built and checked before the first force is computed.
    grid = np.geomspace if spacing == "log" else np.linspace
    cases = []
    for value in (float(v) for v in grid(start, stop, points)):
        run, case = rc, cavity
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
            elif value < 0.0:
                raise ValueError("temperature must be >= 0")
            else:
                run = replace(rc, temperature=value)
            # The zero-term request of every point, as _force will pass it.
            _zero_term(run.temperature, run.zero_term_policy,
                       {"s": run.zero_term_value_s, "p": run.zero_term_value_p},
                       case.has_drude_like, per_polarization=True)
        except ValueError as exc:
            raise ConfigError(f"sweep value {value!r}: {exc}") from None
        cases.append((value, run, case))
    rows = []
    for value, run, case in cases:
        row = {"parameter": parameter, "value": value,
               "unit": _SWEEP_UNITS[parameter]}
        row.update(_force_row(_force(run, case), run))
        rows.append(row)
    return rows, sum(not row["converged"] for row in rows)


def _cmd_limits(rc: RunConfig, values: dict):
    _at_zero_kelvin(rc)
    eps, mu, d1, d3 = (values[k] for k in ("eps", "mu", "d1", "d3"))
    try:
        medium = StaticMedium(eps=eps, mu=mu)
        force = casimir_generalized(medium, d1, d3)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # The Minkowski closed forms take mu = 1.
    dielectric = mu == 1.0
    row = {
        "eps": eps,
        "mu": mu,
        "n": medium.n,
        "d1_m": d1,
        "d3_m": d3,
        "force_per_area_N_per_m2": force,
        "minkowski_force_N_per_m2":
            minkowski_generalized(eps, d1, d3) if dielectric else None,
        "ratio_minkowski_over_force": force_ratio(eps) if dielectric else None,
        **_meta(rc),
    }
    return [row], 0


# Each command: its handler, its help line and its flags. A flag is (name,
# converter or None for plain text, default text, metavar or choices, help);
# its name is also its [command] key.
_COMMANDS = {
    "force": (_cmd_force, "net force per area on the central plate", ()),
    "stress-profile": (
        _cmd_stress_profile, "stress on an interior grid of a two-wall interspace",
        (("samples", _to_int, "9", "N",
          "number of interior samples (>= 2, default 9)"),)),
    "compare": (_cmd_compare, "field-based force vs Minkowski prediction", (
        ("eps", _eps_list, None, "LIST",
         "comma-separated relative permittivities (default 1,2,4,10)"),
        ("mode", None, None, ("closed", "quadrature"),
         "closed forms (instant) or engine quadrature"),
        ("d1", _to_float, None, "M", "near gap width in meters"),
        ("d3", _to_float, None, "M", "far gap width in meters"),
    )),
    "sweep": (_cmd_sweep, "force while one parameter varies", (
        ("parameter", None, None, tuple(_SWEEP_UNITS),
         "swept parameter; 'd' scales both gaps proportionally"),
        ("start", _to_float, None, "X", "first value (SI units)"),
        ("stop", _to_float, None, "X", "last value (SI units)"),
        ("points", _to_int, "9", "N", "number of points (default 9)"),
        ("spacing", None, "log", ("log", "linear"),
         "point spacing (default log)"),
    )),
    "limits": (_cmd_limits, "idealized-mirror closed forms", (
        ("eps", _to_float, "1", "X", "relative permittivity (default 1)"),
        ("mu", _to_float, "1", "X", "relative permeability (default 1)"),
        ("d1", _to_float, "1e-6", "M", "near gap width (default 1e-6)"),
        ("d3", _to_float, "inf", "M", "far gap width (default inf)"),
    )),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sections, rc = _prepare(args)
        values = _command_values(args, rc)
        path = rc.output_path
        if path is not None and (os.path.isdir(path) or not os.access(
                os.path.dirname(path) or ".", os.W_OK)):
            raise ConfigError(f"[output] path: cannot write a file at {path!r}"
                              " (a directory, or no writable directory)")
        rows, n_bad = _COMMANDS[args.command][0](rc, values)
        sections["command"] = {"name": args.command}
        sections["command"].update((key, _stored(value))
                                   for key, value in values.items()
                                   if value is not None)
        _emit(args.command, sections, rc, rows)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Engine and model constructors reject unusable requests with
        # precise messages; surface them as configuration errors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if n_bad:
        print(f"warning: {args.command}: {n_bad} of {len(rows)} result(s) did"
              " not reach the requested tolerance (raise --rel-tol,"
              " max_subdivisions or matsubara_max_terms); error estimates"
              " stay honest", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
