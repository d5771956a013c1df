import configparser
import json
import os
import re
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from planarcasimir.config import (
    SECTION_KEYS,
    ConfigError,
    build_config,
    load_sections,
)
from planarcasimir.layers import PerfectMirrorPlate, Wall
from planarcasimir.materials import MaterialKind, constant

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

FULL_INI = """
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
q_cutoff = none

[output]
format = csv
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _load(path):
    return build_config(load_sections(path))


def test_full_cavity_config(tmp_path):
    rc = _load(_write(tmp_path, FULL_INI))
    assert rc.pair is None
    cavity = rc.cavity
    assert cavity.d1 == 1e-6 and cavity.d3 == 2e-6
    assert cavity.medium == constant(eps=2.0)
    assert cavity.plate.material.kind is MaterialKind.DRUDE_LORENTZ
    assert cavity.plate.thickness == 0.2e-6
    assert cavity.left_wall == Wall.perfect_mirror()
    assert rc.temperature == 300.0
    assert rc.zero_term_policy == "drop"
    assert rc.quadrature.rel_tol == 1e-8
    assert rc.quadrature.q_cutoff is None
    assert rc.output_format == "csv"
    assert rc.output_path is None


def test_two_wall_config(tmp_path):
    rc = _load(_write(tmp_path, """
[material.vac]
kind = constant

[material.glass]
kind = constant
eps_static = 2.25

[structure]
regions = wall:glass:semi-infinite, gap:vac:5e-7, wall:mirror
"""))
    assert rc.cavity is None
    left, medium, width, right = rc.pair
    assert left == Wall.semi_infinite(constant(eps=2.25))
    assert medium == constant()
    assert width == 5e-7
    assert right == Wall.perfect_mirror()


def test_wall_slab_ordering(tmp_path):
    # Regions read left to right; Wall stores layers nearest the gap first,
    # so the left wall's list is reversed and the right wall's is not.
    rc = _load(_write(tmp_path, """
[material.vac]
kind = constant

[material.a]
kind = constant
eps_static = 2.0

[material.b]
kind = constant
eps_static = 3.0

[structure]
regions = wall:mirror, wall:a:2e-8, wall:b:1e-8,
    gap:vac:5e-7,
    wall:b:3e-8, wall:a:4e-8, wall:mirror
"""))
    left, _, _, right = rc.pair
    assert [ly.material.eps_static for ly in left.layers] == [3.0, 2.0]
    assert [ly.thickness for ly in left.layers] == [1e-8, 2e-8]
    assert [ly.material.eps_static for ly in right.layers] == [3.0, 2.0]
    assert [ly.thickness for ly in right.layers] == [3e-8, 4e-8]
    assert left.is_mirror_terminated and right.is_mirror_terminated


def test_mirror_plate_and_magnetic_material(tmp_path):
    rc = _load(_write(tmp_path, """
[material.vac]
kind = constant

[material.meta]
kind = drude-lorentz
plasma_freq = 1e16
resonance_freq = 2e15
damping = 1e13
mu_plasma_freq = 5e14
mu_resonance_freq = 8e14
mu_damping = 0

[structure]
regions = wall:meta:semi-infinite, gap:vac:1e-6, plate:mirror,
    gap:vac:2e-6, wall:mirror
"""))
    assert isinstance(rc.cavity.plate, PerfectMirrorPlate)
    term = rc.cavity.left_wall.terminator
    assert term.mu_model == (5e14, 8e14, 0.0)


def test_json_round_trip_of_sections(tmp_path):
    sections = load_sections(_write(tmp_path, FULL_INI))
    doc = {"command": "force", "config": sections, "results": []}
    path = tmp_path / "emitted.json"
    path.write_text(json.dumps(doc))
    again = load_sections(str(path))
    assert again == sections
    rc = build_config(again)
    assert rc.cavity == build_config(sections).cavity


def test_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError, match="JSON"):
        load_sections(str(bad))
    bad.write_text('{"config": 5}')
    with pytest.raises(ConfigError, match="object"):
        load_sections(str(bad))
    bad.write_text('{"structure": "not a map"}')
    with pytest.raises(ConfigError, match="object"):
        load_sections(str(bad))


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_sections("/nonexistent/nowhere.ini")


def test_ini_syntax_error_carries_line_number(tmp_path):
    path = _write(tmp_path, "[material.x]\nkind constant\n")
    with pytest.raises(ConfigError, match="line"):
        load_sections(path)


@pytest.mark.parametrize("text,needle", [
    ("[a]\nk = 1\n\n[a]\n", "line 4: duplicate section [a]"),
    ("[a]\nk = 1\n  more\nk: 2\n", "line 4: duplicate key 'k' in [a]"),
    ("# note\nk = 1\n[a]\n", "line 2: a key before the first [section]"),
    ("[a]\nk = 1\n# note\nkind constant\n",
     "line 4: not [section] or key = value: 'kind constant'"),
    ("[a]\n = 1\n", "line 2: not [section] or key = value: '= 1'"),
], ids=["section", "key", "no-section", "no-delimiter", "no-key"])
def test_ini_faults_are_refused_with_their_line(tmp_path, text, needle):
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError) as info:
        load_sections(path)
    assert str(info.value) == f"{path}, {needle}"


def _configparser_map(path):
    """The section map of configparser, the reference of ``load_sections``:
    None where it refuses the text."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error:
        return None
    return {name: dict(parser.items(name)) for name in parser.sections()}


def _sections_or_none(path):
    try:
        return load_sections(path)
    except ConfigError:
        return None


_INDENT = st.sampled_from(["", " ", "  ", "\t", "    "])
# No "{": text that starts with one is read as JSON.
_TEXT = st.text(st.sampled_from(list("ab01 .=:#;[]\tµé")), max_size=8)
_INI_LINES = st.one_of(
    # Headers, from a few names so that some repeat; [DEFAULT], which
    # configparser merges into every section, is an ordinary one here.
    st.builds("{}[{}]{}".format, _INDENT,
              st.sampled_from(["a", "b", "material.x", "µ-ü", "c]d"]),
              st.sampled_from(["", " ", "x", " ; not a comment"])),
    # Keys with either delimiter, from a few names so that some repeat.
    st.builds("{}{}{}{}{}{}".format, _INDENT,
              st.sampled_from(["k", "key", "K", "clé", "ключ", "a b", "[x"]),
              st.sampled_from(["", " ", "\t"]), st.sampled_from("=:"),
              st.sampled_from(["", " "]), _TEXT),
    # Continuation lines, or malformed ones where they continue nothing.
    st.builds("{}{}".format, _INDENT, _TEXT),
    # Blank lines, which join a value, and full-line comments, which do not.
    st.sampled_from(["", "   ", "\t", "# note", "  ; note", "#", ";k = 1"]),
)


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_INI_LINES, max_size=14),
       newline=st.sampled_from(["\n", "\r\n"]), last=st.booleans())
@example(lines=["[a]", "k = 1", "  two", "", "  four", "", "x: y"],
         newline="\n", last=True)
def test_ini_reader_is_configparser(tmp_path, lines, newline, last):
    # The one-pass reader against configparser on the same file: both refuse
    # the same texts, and read the others to the same section map.
    path = tmp_path / "drawn.ini"
    path.write_bytes((newline.join(lines) + newline * last).encode("utf-8"))
    assert _sections_or_none(str(path)) == _configparser_map(str(path))


def _readme_ini_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```ini\n(.*?)^```$", fh.read(), re.M | re.S)


@pytest.mark.parametrize("block", _readme_ini_blocks())
def test_readme_ini_blocks_read_as_configparser_reads_them(tmp_path, block):
    path = _write(tmp_path, block)
    assert load_sections(path) == _configparser_map(path)


def test_a_default_section_is_an_unknown_one(tmp_path):
    # configparser merged [DEFAULT] into every section; here it is an
    # ordinary section, which no run knows.
    path = _write(tmp_path, FULL_INI + "\n[DEFAULT]\nrel_tol = 1e-4\n")
    assert load_sections(path)["DEFAULT"] == {"rel_tol": "1e-4"}
    with pytest.raises(ConfigError, match=re.escape("unknown section [DEFAULT]")):
        _load(path)


@pytest.mark.parametrize("snippet,match", [
    ("[material.x]\neps_static = 2", "missing 'kind'"),
    ("[material.x]\nkind = metallic", "unknown kind"),
    ("[material.x]\nkind = constant\ncolor = gold", "unknown key"),
    ("[material.x]\nkind = constant\neps_static = soft", "not a number"),
    ("[material.x]\nkind = constant\neps_static = 0.5", "permittivity"),
    ("[material.x]\nkind = plasma", "plasma_freq"),
    ("[material.x]\nkind = drude-lorentz\ndamping = 1e13", "plasma_freq"),
    ("[material.]\nkind = constant", "needs a name"),
    ("[mystery]\nkey = 1", "unknown section"),
    ("[structure]", "missing 'regions'"),
])
def test_material_and_section_errors(tmp_path, snippet, match):
    with pytest.raises(ConfigError, match=match):
        _load(_write(tmp_path, snippet))


_VAC = "[material.vac]\nkind = constant\n"


@pytest.mark.parametrize("regions,match", [
    ("gap:vac:1e-6, wall:mirror", "missing left wall"),
    ("wall:mirror, gap:vac:1e-6", "missing right wall"),
    ("wall:mirror, gap:ghost:1e-6, wall:mirror", "no \\[material.ghost\\]"),
    ("wall:mirror, wall:mirror, gap:vac:1e-6, wall:mirror",
     "exactly one terminating entry"),
    ("wall:vac:1e-8, gap:vac:1e-6, wall:mirror", "must terminate"),
    ("wall:mirror, gap:vac:1e-6, gap:vac:2e-6, wall:mirror",
     "exactly one plate"),
    ("wall:mirror, gap:vac:1e-6, plate:mirror, plate:mirror, gap:vac:2e-6,"
     " wall:mirror", "exactly one plate"),
    ("wall:mirror, wall:mirror", "expected one gap"),
    ("wall:mirror, gap:vac:1e-6, plate:mirror, gap:vac:1e-6, gap:vac:1e-6,"
     " wall:mirror", "expected one gap"),
    ("wall:mirror, gap:vac:0, wall:mirror", "positive"),
    ("wall:mirror, gap:vac:wide, wall:mirror", "not a number"),
    ("wall:mirror, gap:vac, wall:mirror", "gap:NAME:WIDTH"),
    ("wall:mirror, slab:vac:1e-8, gap:vac:1e-6, wall:mirror", "unknown role"),
    ("wall:mirror, gap:vac:1e-6, plate:vac:0, gap:vac:2e-6, wall:mirror",
     "thickness"),
    ("wall:mirror, plate:mirror, gap:vac:1e-6, wall:mirror",
     "only wall entries"),
    ("wall:mirror, gap:vac:1e-6, plate:vac, gap:vac:2e-6, wall:mirror",
     "plate:NAME:THICKNESS or plate:mirror"),
    (" , ", "empty region list"),
])
def test_structure_errors(tmp_path, regions, match):
    text = _VAC + f"[structure]\nregions = {regions}\n"
    with pytest.raises(ConfigError, match=match):
        _load(_write(tmp_path, text))


_PROPERTY_MATERIALS = {
    "material.vac": {"kind": "constant"},
    "material.glass": {"kind": "constant", "eps_static": "2.25"},
    "material.gold": {"kind": "drude-lorentz", "plasma_freq": "1.37e16",
                      "damping": "5.3e13"},
}
_names = st.sampled_from(["vac", "glass", "gold"])
_sizes = st.floats(1e-9, 1e-5).map(repr)
# A wall group from its terminator toward the gap.
_walls = st.builds(
    lambda terminator, slabs: [terminator, *slabs],
    st.just("wall:mirror") | _names.map("wall:{}:semi-infinite".format),
    st.lists(st.builds("wall:{}:{}".format, _names, _sizes), max_size=3))
_plates = st.just("plate:mirror") | st.builds("plate:{}:{}".format,
                                              _names, _sizes)


@st.composite
def _region_lists(draw):
    left, right, medium = draw(_walls), draw(_walls), draw(_names)
    gaps = [f"gap:{medium}:{draw(_sizes)}"
            for _ in range(draw(st.integers(1, 2)))]
    if len(gaps) == 2:
        gaps.insert(1, draw(_plates))
    return left + gaps + right[::-1]


def _structure(regions):
    return build_config({**_PROPERTY_MATERIALS,
                         "structure": {"regions": ", ".join(regions)}})


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(regions=_region_lists())
def test_reversed_regions_parse_to_the_mirror_image(regions):
    # Both walls are read from their terminator toward the gap, so reading
    # the list backwards swaps the walls and the gaps and keeps the plate.
    rc, mirrored = _structure(regions), _structure(regions[::-1])
    first_gap = next(i for i, e in enumerate(regions) if e.startswith("gap"))
    nearest_first = [float(e.split(":")[2])
                     for e in regions[first_gap - 1:0:-1]]
    if rc.pair is not None:
        left, medium, width, right = rc.pair
        assert mirrored.pair == (right, medium, width, left)
    else:
        cavity = rc.cavity
        left = cavity.left_wall
        assert mirrored.cavity == replace(
            cavity, left_wall=cavity.right_wall, right_wall=left,
            d1=cavity.d3, d3=cavity.d1)
    assert [layer.thickness for layer in left.layers] == nearest_first


def test_gap_materials_must_match(tmp_path):
    text = _VAC + """
[material.oil]
kind = constant
eps_static = 2.0

[structure]
regions = wall:mirror, gap:vac:1e-6, plate:mirror, gap:oil:2e-6, wall:mirror
"""
    with pytest.raises(ConfigError, match="same material"):
        _load(_write(tmp_path, text))


@pytest.mark.parametrize("section,match", [
    ("[run]\ntemperature = -4", "kelvin"),
    ("[run]\ntemperature = cold", "not a number"),
    ("[run]\nmethod = exact-difference",
     r"\[run\]: unknown key\(s\): method"),
    ("[run]\nzero_term_policy = skip", "zero_term_policy"),
    ("[run]\nspeed = fast", "unknown key"),
    ("[quadrature]\nrel_tol = 2.0", "rel_tol"),
    ("[quadrature]\nnodes = 7", "unknown key"),
    ("[quadrature]\nabs_floor = inf", "abs_floor must be finite"),
    ("[quadrature]\nmax_subdivisions = 8",
     r"\[quadrature\]: unknown key\(s\): max_subdivisions"),
    ("[quadrature]\nmatsubara_max_terms = 20000",
     r"\[quadrature\]: unknown key\(s\): matsubara_max_terms"),
    ("[quadrature]\nmatsubara_tail = integral-tail-estimate",
     r"\[quadrature\]: unknown key\(s\): matsubara_tail"),
    ("[output]\nformat = yaml", "'yaml' is not one of csv, json"),
    ("[output]\ncompress = yes", "unknown key"),
])
def test_run_quadrature_output_errors(tmp_path, section, match):
    with pytest.raises(ConfigError, match=match):
        _load(_write(tmp_path, _VAC + section + "\n"))


@pytest.mark.parametrize("section", list(SECTION_KEYS))
def test_every_fixed_section_refuses_an_unknown_key_by_name(tmp_path, section):
    with pytest.raises(ConfigError,
                       match=rf"^\[{section}\]: unknown key\(s\): bogus$"):
        _load(_write(tmp_path, f"{_VAC}[{section}]\nbogus = 1\n"))


_CHOICE_KEYS = [(section, key, rule) for section, rules in SECTION_KEYS.items()
                for key, rule in rules.items() if isinstance(rule, tuple)]


@pytest.mark.parametrize("section,key,choices", _CHOICE_KEYS,
                         ids=[key for _, key, _ in _CHOICE_KEYS])
def test_every_choice_key_takes_its_choices_only(tmp_path, section, key,
                                                  choices):
    for choice in choices:
        _load(_write(tmp_path, f"{_VAC}[{section}]\n{key} = {choice}\n"))
    message = (f"[{section}] {key}: 'bogus' is not one of"
               f" {', '.join(choices)}")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        _load(_write(tmp_path, f"{_VAC}[{section}]\n{key} = bogus\n"))


def test_defaults_without_sections(tmp_path):
    rc = _load(_write(tmp_path, _VAC))
    assert rc.cavity is None and rc.pair is None
    assert rc.temperature == 0.0
    assert rc.zero_term_policy is None
    assert rc.quadrature.rel_tol == 1e-8
    assert rc.output_format is None
    assert rc.command_args == {}


def test_quadrature_options_parse(tmp_path):
    rc = _load(_write(tmp_path, _VAC + """
[quadrature]
rel_tol = 1e-6
abs_floor = 1e-20
q_cutoff = 3e7
"""))
    q = rc.quadrature
    assert q.rel_tol == 1e-6
    assert q.abs_floor == 1e-20
    assert q.q_cutoff == 3e7


def test_command_section_is_kept(tmp_path):
    rc = _load(_write(tmp_path, _VAC + """
[command]
name = sweep
parameter = d
"""))
    assert rc.command_args == {"name": "sweep", "parameter": "d"}
