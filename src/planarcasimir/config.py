"""Run configuration: flat sectioned text parsed into engine-ready objects.

The format is configparser's INI, keys as written, read in one pass: [section]
headers, ``key = value`` or ``key: value`` lines, full-line # and ; comments,
values continued on deeper-indented lines, blank lines kept. A duplicate
section or key, a key before any section and any other line are refused with
their line; [DEFAULT] is an ordinary, so unknown, section. A complete example:

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
    zero_term_policy = drop

    [quadrature]
    rel_tol = 1e-8

    [output]
    format = csv
    path = force.csv

Material kinds are ``constant`` (keys eps_static, mu_static),
``drude-lorentz`` (plasma_freq, resonance_freq, damping, optionally the
magnetic triple mu_plasma_freq, mu_resonance_freq, mu_damping) and
``plasma`` (plasma_freq). All values are SI; scientific notation is
accepted everywhere. A Drude metal at T > 0 needs a zero_term_policy other
than the default half-weight; the example uses drop. The fixed sections
[structure], [run], [quadrature] and [output] take only the keys listed in
``SECTION_KEYS``, each with its converter or its choices.

Regions are listed in physical order from left to right:

    wall:mirror              idealized perfectly reflecting boundary
    wall:NAME:semi-infinite  half-space of material NAME
    wall:NAME:THICKNESS      finite wall slab (meters)
    gap:NAME:WIDTH           interspace filled with material NAME (meters)
    plate:NAME:THICKNESS     central plate (meters)
    plate:mirror             idealized opaque mirror plate

Each wall is read from its terminator toward the gap: its one terminating
entry, mirror or semi-infinite half-space, opens the left wall's group and
closes the right wall's. Two topologies are accepted: wall/gap/wall and
wall/gap/plate/gap/wall. The cavity form requires the same gap material on
both sides of the plate.

JSON files emitted by the command line (--format json) are accepted
wherever an INI file is; the resolved configuration embedded under their
"config" key is re-ingested verbatim, which reproduces the original run bit
for bit on the same numpy, BLAS build and CPU kernel.

A ``[command]`` section holds a run's command arguments: ``name`` (the
command) and one key per command flag, named without its dashes, e.g.
``name = sweep``, ``parameter = d``, ``start = 5e-07``; any other key is
refused. Every emission stores every resolved value there, defaults
included and floats as their ``repr``. Only a run of the same command
reads it back, and a flag given on the command line wins over it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .engine import ZERO_TERM_POLICIES
from .layers import CavityConfig, Layer, PerfectMirrorPlate, Wall
from .materials import (
    MIRROR,
    DispersionModel,
    constant,
    drude_lorentz,
    plasma,
)
from .quadrature import QuadratureSpec

__all__ = ["ConfigError", "RunConfig", "load_sections", "build_config"]


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


def _temperature(text: str, where: str) -> float:
    value = _to_float(text, where)
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"{where}: must be finite and >= 0 kelvin")
    return value


def _finite(text: str, where: str) -> float:
    # An m = 0 contribution is added to the result, so it must be finite.
    value = _to_float(text, where)
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite")
    return value


def _cutoff(text: str, where: str) -> float | None:
    # An empty or "none" q_cutoff means no cutoff.
    text = text.strip()
    return None if text.lower() in ("", "none") else _to_float(text, where)


# The keys of every fixed section, in canonical order. Each maps to its
# converter, its tuple of choices, or None for plain text. The [run] keys
# are also the names of their RunConfig fields.
SECTION_KEYS = {
    "structure": {"regions": None},
    "run": {"temperature": _temperature,
            "zero_term_policy": ZERO_TERM_POLICIES,
            "zero_term_value": _finite,
            "zero_term_value_s": _finite,
            "zero_term_value_p": _finite},
    "quadrature": {"rel_tol": _to_float, "abs_floor": _to_float,
                   "q_cutoff": _cutoff},
    "output": {"format": ("csv", "json"), "path": None},
}


def _read(sections: dict[str, dict[str, str]], section: str) -> dict:
    """The keys ``section`` sets, converted; it refuses an unknown key."""
    body, rules = sections.get(section, {}), SECTION_KEYS[section]
    if extra := set(body) - set(rules):
        raise ConfigError(
            f"[{section}]: unknown key(s): {', '.join(sorted(extra))}")
    values = {}
    for key, rule in rules.items():
        if key in body:
            text, where = body[key], f"[{section}] {key}"
            values[key] = (text if rule is None else rule(text, where)
                           if callable(rule) else _choice(text, rule, where))
    return values


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
        # Text that starts with "{" parses to an object or not at all.
        doc = doc.get("config", doc)
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: 'config' must be an object")
        sections: dict[str, dict[str, str]] = {}
        for name, body in doc.items():
            if not isinstance(body, dict):
                raise ConfigError(f"{path}: section {name!r} must be an object")
            sections[str(name)] = {str(k): str(v) for k, v in body.items()}
        return sections

    sections, body, key, indent = {}, None, None, 0
    for number, line in enumerate(text.split("\n"), 1):
        value, depth = line.strip(), len(line) - len(line.lstrip())
        if value.startswith(("#", ";")) or not (value or key):
            continue
        if key is not None and (depth > indent or not value):
            body[key].append(value)  # a continuation or a blank line
            continue
        indent, cut = depth, value.rfind("]")
        if value[0] == "[" and cut > 1:
            name, key = value[1:cut], None
            if name in sections:
                raise ConfigError(
                    f"{path}, line {number}: duplicate section [{name}]")
            body = sections[name] = {}
            continue
        cut = value.replace(":", "=").find("=")  # the first delimiter
        key = value[:max(cut, 0)].rstrip()
        if body is None or not key or key in body:
            raise ConfigError(f"{path}, line {number}: " + (
                "a key before the first [section]" if body is None
                else f"not [section] or key = value: {value!r}" if not key
                else f"duplicate key {key!r} in [{name}]"))
        body[key] = [value[cut + 1:].strip()]
    return {name: {key: "\n".join(lines).rstrip()
                   for key, lines in body.items()}
            for name, body in sections.items()}


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


# Each role's entry forms, as a malformed entry's message names them.
_FORMS = {
    "wall": "wall:mirror, wall:NAME:semi-infinite or wall:NAME:THICKNESS",
    "gap": "gap:NAME:WIDTH",
    "plate": "plate:NAME:THICKNESS or plate:mirror",
}


def _region(raw: str, materials) -> tuple:
    """One region entry as (raw, role, name, material, size).

    ``size`` is None for a terminator: wall:mirror, wall:NAME:semi-infinite
    or plate:mirror.
    """
    role, *fields = (f.strip() for f in raw.split(":"))
    if role not in _FORMS:
        raise ConfigError(f"region {raw!r}: unknown role {role!r}"
                          " (expected wall, gap or plate)")
    if fields == ["mirror"] and role != "gap":
        return raw, role, "mirror", MIRROR, None
    if len(fields) != 2:
        raise ConfigError(f"region {raw!r}: expected {_FORMS[role]}")
    name, size = fields
    if name not in materials:
        raise ConfigError(
            f"region {raw!r}: no [material.{name}] section defines {name!r}")
    if role == "wall" and size == "semi-infinite":
        return raw, role, name, materials[name], None
    size = _to_float(size, f"region {raw!r}")
    if role == "gap" and size <= 0.0:
        raise ConfigError(f"region {raw!r}: width must be positive")
    return raw, role, name, materials[name], size


def _layer(raw: str, material: DispersionModel, thickness: float) -> Layer:
    try:
        return Layer(material, thickness)
    except ValueError as exc:
        raise ConfigError(f"region {raw!r}: {exc}") from None


def _build_wall(group: list[tuple], side: str) -> Wall:
    # ``group`` lists the wall from its terminator toward the gap.
    if not group:
        raise ConfigError(f"structure: missing {side} wall")
    (raw, _, _, terminator, size), *slabs = group
    if size is not None:
        position = "first" if side == "left" else "last"
        raise ConfigError(
            f"region {raw!r}: the {position} entry of the {side} wall must"
            " terminate it (wall:mirror or wall:NAME:semi-infinite)")
    for raw, _, _, _, size in slabs:
        if size is None:
            raise ConfigError(
                f"region {raw!r}: a wall has exactly one terminating entry")
    # Wall stores its layers nearest to the gap first.
    layers = [_layer(raw, material, size)
              for raw, _, _, material, size in slabs]
    return Wall(layers=tuple(reversed(layers)), terminator=terminator)


def _build_structure(body: dict[str, str], materials):
    if "regions" not in body:
        raise ConfigError("[structure]: missing 'regions'")
    raw_entries = (e.strip() for e in re.split(r"[,\n]+", body["regions"]))
    entries = [_region(raw, materials) for raw in raw_entries if raw]
    if not entries:
        raise ConfigError("[structure]: empty region list")

    gaps = [i for i, entry in enumerate(entries) if entry[1] == "gap"]
    if len(gaps) not in (1, 2):
        raise ConfigError(
            "structure: expected one gap (wall/gap/wall) or two gaps around"
            f" a plate, found {len(gaps)}"
        )
    left, right = entries[:gaps[0]], entries[gaps[-1] + 1:]
    for raw, role, *_ in left + right:
        if role != "wall":
            raise ConfigError(
                f"region {raw!r}: only wall entries may flank the gaps")
    left_wall = _build_wall(left, "left")
    right_wall = _build_wall(right[::-1], "right")
    _, _, name1, medium, d1 = entries[gaps[0]]
    if len(gaps) == 1:
        return None, (left_wall, medium, d1, right_wall)

    middle = entries[gaps[0] + 1:gaps[1]]
    if len(middle) != 1 or middle[0][1] != "plate":
        raise ConfigError(
            "structure: exactly one plate entry must sit between the two gaps"
        )
    raw, _, _, material, size = middle[0]
    plate = PerfectMirrorPlate() if size is None else _layer(raw, material, size)
    _, _, name3, _, d3 = entries[gaps[1]]
    if name1 != name3:
        raise ConfigError(
            "structure: both gaps must use the same material"
            f" (got {name1!r} and {name3!r})"
        )
    # The checks above leave CavityConfig nothing to refuse.
    return CavityConfig(left_wall=left_wall, medium=medium, d1=d1,
                        plate=plate, d3=d3, right_wall=right_wall), None


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

    structure = _read(sections, "structure")
    cavity, pair = (_build_structure(structure, materials)
                    if "structure" in sections else (None, None))
    run = {**dict.fromkeys(SECTION_KEYS["run"]), "temperature": 0.0,
           **_read(sections, "run")}
    try:
        quadrature = QuadratureSpec(**_read(sections, "quadrature"))
    except ValueError as exc:
        raise ConfigError(f"[quadrature]: {exc}") from None
    output = _read(sections, "output")
    return RunConfig(cavity, pair, **run, quadrature=quadrature,
                     output_format=output.get("format"),
                     output_path=output.get("path"),
                     command_args=dict(sections.get("command", {})))
