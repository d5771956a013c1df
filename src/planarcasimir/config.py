"""Run configuration: flat sectioned text parsed into engine-ready objects.

The format is INI-style key-value text. A complete example:

    [material.med]
    kind = constant
    eps_static = 2.0

    [material.gold]
    kind = drude-lorentz
    plasma_freq = 1.37e16
    resonance_freq = 0
    damping = 5.3e13

    [structure]
    regions = wall:mirror, gap:med:1e-6, plate:gold:0.2e-6,
        gap:med:2e-6, wall:mirror

    [run]
    temperature = 300
    method = exact-difference

    [quadrature]
    rel_tol = 1e-8

    [output]
    format = csv
    path = force.csv

Material kinds are ``constant`` (keys eps_static, mu_static),
``drude-lorentz`` (plasma_freq, resonance_freq, damping, optionally the
magnetic triple mu_plasma_freq, mu_resonance_freq, mu_damping) and
``plasma`` (plasma_freq). All values are SI; scientific notation is
accepted everywhere.

Regions are listed in physical order from left to right:

    wall:mirror              idealized perfectly reflecting boundary
    wall:NAME:semi-infinite  half-space of material NAME
    wall:NAME:THICKNESS      finite wall slab (meters)
    gap:NAME:WIDTH           interspace filled with material NAME (meters)
    plate:NAME:THICKNESS     central plate (meters)
    plate:mirror             idealized opaque mirror plate

A wall group begins (left side) or ends (right side) with its terminating
entry, mirror or semi-infinite half-space, so slab entries read in the
same order the physical layers are encountered. Two topologies are
accepted: wall/gap/wall and wall/gap/plate/gap/wall. The cavity form
requires the same gap material on both sides of the plate.

JSON files emitted by the command line (--format json) are accepted
wherever an INI file is; the resolved configuration embedded under their
"config" key is re-ingested verbatim, which reproduces the original run
bit for bit.

A ``[command]`` section holds a run's command arguments: ``name`` (the
command) and one key per command flag, named without its dashes, e.g.
``name = sweep``, ``parameter = d``, ``start = 5e-07``. Every emission
stores every resolved value there, defaults included and floats as their
``repr``. Only a run of the same command reads it back, and a flag given
on the command line wins over the stored value.
"""

from __future__ import annotations

import configparser
import json
import math
import re
from dataclasses import dataclass, field

from .engine import METHODS, ZERO_TERM_POLICIES
from .layers import CavityConfig, Layer, PerfectMirrorPlate, Wall
from .materials import (
    MIRROR,
    DispersionModel,
    constant,
    drude_lorentz,
    plasma,
)
from .quadrature import QuadratureSpec

__all__ = ["ConfigError", "RunConfig", "load_sections", "build_config",
           "load_config"]


class ConfigError(Exception):
    """Invalid or unparsable run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: materials, geometry, physics and output choices.

    Exactly one of ``cavity``/``pair`` is set when the configuration
    declares a structure; both are None otherwise (closed-form commands
    need no geometry).
    """

    cavity: CavityConfig | None
    pair: tuple[Wall, DispersionModel, float, Wall] | None
    temperature: float
    method: str
    zero_term_policy: str | None
    zero_term_value: float | None
    zero_term_value_s: float | None
    zero_term_value_p: float | None
    quadrature: QuadratureSpec
    output_format: str | None
    output_path: str | None
    command_args: dict[str, str] = field(default_factory=dict)


def _to_float(text: str, where: str) -> float:
    """``text`` as a float; NaN is refused, inf is a legal value."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if math.isnan(value):
        raise ConfigError(f"{where}: {text!r} is not a number")
    return value


def _to_int(text: str, where: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: {text!r} is not an integer") from None


def _choice(text: str | None, choices: tuple[str, ...], where: str):
    if text is not None and text not in choices:
        raise ConfigError(
            f"{where}: {text!r} is not one of {', '.join(choices)}")
    return text


# [quadrature] keys with their converters, in the order they are checked;
# an empty or "none" q_cutoff means no cutoff.
_QUAD_KEYS = {
    "rel_tol": _to_float,
    "abs_floor": _to_float,
    "max_subdivisions": _to_int,
    "q_cutoff": lambda text, where: (
        None if text.strip().lower() in ("", "none")
        else _to_float(text.strip(), where)),
    "matsubara_max_terms": _to_int,
    "matsubara_tail": lambda text, where: text.strip(),
}

# The keys of every fixed section, in canonical order.
SECTION_KEYS = {
    "structure": ("regions",),
    "run": ("temperature", "method", "zero_term_policy", "zero_term_value",
            "zero_term_value_s", "zero_term_value_p"),
    "quadrature": tuple(_QUAD_KEYS),
    "output": ("format", "path"),
}


def _check_keys(section: str, body: dict[str, str]) -> None:
    extra = set(body) - set(SECTION_KEYS[section])
    if extra:
        raise ConfigError(
            f"[{section}]: unknown key(s): {', '.join(sorted(extra))}")


def load_sections(path: str) -> dict[str, dict[str, str]]:
    """Read an INI or emitted-JSON config file into a plain section map."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None

    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: top-level JSON value must be an object")
        doc = doc.get("config", doc)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: 'config' must be an object")
        sections: dict[str, dict[str, str]] = {}
        for name, body in doc.items():
            if not isinstance(body, dict):
                raise ConfigError(f"{path}: section {name!r} must be an object")
            sections[str(name)] = {str(k): str(v) for k, v in body.items()}
        return sections

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _build_material(name: str, body: dict[str, str]) -> DispersionModel:
    where = f"[material.{name}]"
    body = dict(body)
    kind = body.pop("kind", None)
    if kind is None:
        raise ConfigError(f"{where}: missing 'kind'")

    def value(key: str, default: str = "0") -> float:
        return _to_float(body.pop(key, default), f"{where} {key}")

    try:
        if kind == "constant":
            model = constant(eps=value("eps_static", "1"),
                             mu=value("mu_static", "1"))
        elif kind == "drude-lorentz":
            if "plasma_freq" not in body:
                raise ConfigError(f"{where}: drude-lorentz needs plasma_freq")
            mu_keys = ("mu_plasma_freq", "mu_resonance_freq", "mu_damping")
            mu_model = None
            if any(k in body for k in mu_keys):
                mu_model = tuple(value(k) for k in mu_keys)
            model = drude_lorentz(
                plasma_freq=value("plasma_freq"),
                resonance_freq=value("resonance_freq"),
                damping=value("damping"),
                mu_model=mu_model,
            )
        elif kind == "plasma":
            if "plasma_freq" not in body:
                raise ConfigError(f"{where}: plasma needs plasma_freq")
            model = plasma(value("plasma_freq"))
        else:
            raise ConfigError(
                f"{where}: unknown kind {kind!r}"
                " (expected constant, drude-lorentz or plasma)"
            )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if body:
        extra = ", ".join(sorted(body))
        raise ConfigError(f"{where}: unknown key(s): {extra}")
    return model


@dataclass(frozen=True)
class _Entry:
    role: str
    fields: tuple[str, ...]
    raw: str


def _parse_entry(raw: str) -> _Entry:
    fields = tuple(f.strip() for f in raw.split(":"))
    if fields[0] not in ("wall", "gap", "plate"):
        raise ConfigError(
            f"region {raw!r}: unknown role {fields[0]!r}"
            " (expected wall, gap or plate)"
        )
    return _Entry(fields[0], fields[1:], raw)


def _lookup(materials: dict[str, DispersionModel], name: str,
            raw: str) -> DispersionModel:
    if name not in materials:
        raise ConfigError(
            f"region {raw!r}: no [material.{name}] section defines {name!r}"
        )
    return materials[name]


def _terminator(entry: _Entry, materials) -> DispersionModel | None:
    # wall:mirror or wall:NAME:semi-infinite, else None (a finite slab).
    if entry.fields == ("mirror",):
        return MIRROR
    if len(entry.fields) == 2 and entry.fields[1] == "semi-infinite":
        return _lookup(materials, entry.fields[0], entry.raw)
    return None


def _layer(entry: _Entry, materials, expected: str) -> Layer:
    # NAME:THICKNESS, a finite wall slab or plate.
    if len(entry.fields) != 2:
        raise ConfigError(f"region {entry.raw!r}: expected {expected}")
    material = _lookup(materials, entry.fields[0], entry.raw)
    thickness = _to_float(entry.fields[1], f"region {entry.raw!r}")
    try:
        return Layer(material, thickness)
    except ValueError as exc:
        raise ConfigError(f"region {entry.raw!r}: {exc}") from None


def _build_wall(group: list[_Entry], side: str, materials) -> Wall:
    if not group:
        raise ConfigError(f"structure: missing {side} wall")
    term_entry = group[0] if side == "left" else group[-1]
    slab_entries = group[1:] if side == "left" else group[:-1]
    terminator = _terminator(term_entry, materials)
    if terminator is None:
        position = "first" if side == "left" else "last"
        raise ConfigError(
            f"region {term_entry.raw!r}: the {position} entry of the {side}"
            " wall must terminate it (wall:mirror or wall:NAME:semi-infinite)"
        )
    layers = []
    for entry in slab_entries:
        if _terminator(entry, materials) is not None:
            raise ConfigError(
                f"region {entry.raw!r}: a wall has exactly one terminating entry"
            )
        layers.append(_layer(
            entry, materials, "wall:mirror, wall:NAME:semi-infinite or"
            " wall:NAME:THICKNESS"))
    if side == "left":
        # Reading order lists the left wall outermost-first; Wall stores
        # layers nearest to the interspace first.
        layers.reverse()
    return Wall(layers=tuple(layers), terminator=terminator)


def _gap_parts(entry: _Entry, materials) -> tuple[str, DispersionModel, float]:
    if len(entry.fields) != 2:
        raise ConfigError(f"region {entry.raw!r}: expected gap:NAME:WIDTH")
    name = entry.fields[0]
    material = _lookup(materials, name, entry.raw)
    width = _to_float(entry.fields[1], f"region {entry.raw!r}")
    if width <= 0.0:
        raise ConfigError(f"region {entry.raw!r}: width must be positive")
    return name, material, width


def _build_structure(body: dict[str, str], materials):
    _check_keys("structure", body)
    if "regions" not in body:
        raise ConfigError("[structure]: missing 'regions'")
    raw_entries = [e.strip() for e in re.split(r"[,\n]+", body["regions"])]
    entries = [_parse_entry(e) for e in raw_entries if e]
    if not entries:
        raise ConfigError("[structure]: empty region list")

    gap_idx = [i for i, e in enumerate(entries) if e.role == "gap"]
    if len(gap_idx) not in (1, 2):
        raise ConfigError(
            "structure: expected one gap (wall/gap/wall) or two gaps around"
            f" a plate, found {len(gap_idx)}"
        )
    for entry in entries[:gap_idx[0]] + entries[gap_idx[-1] + 1:]:
        if entry.role != "wall":
            raise ConfigError(
                f"region {entry.raw!r}: only wall entries may flank the gaps"
            )
    left_wall = _build_wall(entries[:gap_idx[0]], "left", materials)
    right_wall = _build_wall(entries[gap_idx[-1] + 1:], "right", materials)

    if len(gap_idx) == 1:
        _, medium, width = _gap_parts(entries[gap_idx[0]], materials)
        return None, (left_wall, medium, width, right_wall)

    middle = entries[gap_idx[0] + 1:gap_idx[1]]
    if len(middle) != 1 or middle[0].role != "plate":
        raise ConfigError(
            "structure: exactly one plate entry must sit between the two gaps"
        )
    plate = (PerfectMirrorPlate() if middle[0].fields == ("mirror",) else
             _layer(middle[0], materials,
                    "plate:NAME:THICKNESS or plate:mirror"))
    name1, medium1, d1 = _gap_parts(entries[gap_idx[0]], materials)
    name3, _, d3 = _gap_parts(entries[gap_idx[1]], materials)
    if name1 != name3:
        raise ConfigError(
            "structure: both gaps must use the same material"
            f" (got {name1!r} and {name3!r})"
        )
    try:
        cavity = CavityConfig(left_wall=left_wall, medium=medium1, d1=d1,
                              plate=plate, d3=d3, right_wall=right_wall)
    except ValueError as exc:
        raise ConfigError(f"structure: {exc}") from None
    return cavity, None


def _build_quadrature(body: dict[str, str]) -> QuadratureSpec:
    _check_keys("quadrature", body)
    kwargs = {key: convert(body[key], f"[quadrature] {key}")
              for key, convert in _QUAD_KEYS.items() if key in body}
    try:
        return QuadratureSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[quadrature]: {exc}") from None


def build_config(sections: dict[str, dict[str, str]]) -> RunConfig:
    """Resolve a section map into a RunConfig, validating everything."""
    materials: dict[str, DispersionModel] = {}
    for name in sections:
        if name.startswith("material."):
            short = name[len("material."):]
            if not short:
                raise ConfigError("material section needs a name: [material.NAME]")
            materials[short] = _build_material(short, sections[name])
        elif name not in SECTION_KEYS and name != "command":
            raise ConfigError(f"unknown section [{name}]")

    cavity = pair = None
    if "structure" in sections:
        cavity, pair = _build_structure(sections["structure"], materials)

    run = sections.get("run", {})
    _check_keys("run", run)
    temperature = _to_float(run.get("temperature", "0"), "[run] temperature")
    if not 0.0 <= temperature < math.inf:
        raise ConfigError("[run] temperature: must be finite and >= 0 kelvin")
    method = _choice(run.get("method", "exact-difference"), METHODS,
                     "[run] method")
    policy = _choice(run.get("zero_term_policy"), ZERO_TERM_POLICIES,
                     "[run] zero_term_policy")

    def opt_float(key: str) -> float | None:
        # An m = 0 contribution is added to the result, so it must be finite.
        if key not in run:
            return None
        value = _to_float(run[key], f"[run] {key}")
        if not math.isfinite(value):
            raise ConfigError(f"[run] {key}: must be finite")
        return value

    quadrature = _build_quadrature(sections.get("quadrature", {}))

    output = sections.get("output", {})
    _check_keys("output", output)
    output_format = output.get("format")
    if output_format is not None and output_format not in ("csv", "json"):
        raise ConfigError(f"[output] format: {output_format!r} is not csv or json")

    return RunConfig(
        cavity=cavity,
        pair=pair,
        temperature=temperature,
        method=method,
        zero_term_policy=policy,
        zero_term_value=opt_float("zero_term_value"),
        zero_term_value_s=opt_float("zero_term_value_s"),
        zero_term_value_p=opt_float("zero_term_value_p"),
        quadrature=quadrature,
        output_format=output_format,
        output_path=output.get("path"),
        command_args=dict(sections.get("command", {})),
    )


def load_config(path: str) -> RunConfig:
    """Parse and resolve a config file (INI or emitted JSON)."""
    return build_config(load_sections(path))
