import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.constants import c, hbar

from planarcasimir import cli, engine
from planarcasimir.cli import main
from planarcasimir.config import build_config, load_sections
from planarcasimir.engine import minkowski_plate_force, plate_force
from planarcasimir.layers import CavityConfig, PerfectMirrorPlate, Plan, Wall
from planarcasimir.limits import minkowski_generalized
from planarcasimir.materials import constant

COEF = hbar * c * math.pi ** 2 / 240.0

VACUUM_CAVITY = """
[material.vac]
kind = constant

[structure]
regions = wall:mirror, gap:vac:1e-6, plate:mirror, gap:vac:50e-6, wall:mirror
"""

SYMMETRIC_CAVITY = """
[material.vac]
kind = constant

[structure]
regions = wall:mirror, gap:vac:8e-7, plate:mirror, gap:vac:8e-7, wall:mirror
"""

TWO_WALL = """
[material.vac]
kind = constant

[structure]
regions = wall:mirror, gap:vac:1e-6, wall:mirror
"""

FILLED_TWO_WALL = """
[material.med]
kind = constant
eps_static = 2.0

[material.heavy]
kind = constant
eps_static = 9.0

[material.light]
kind = constant
eps_static = 4.0

[structure]
regions = wall:heavy:semi-infinite, gap:med:6e-7, wall:light:semi-infinite
"""


def _no_integrals(monkeypatch):
    """The calls of the command line's one door to a plate force, replaced
    by a recorder that integrates nothing."""
    calls = []
    monkeypatch.setattr("planarcasimir.cli._plate_force",
                        lambda *args, **kwargs: calls.append(args))
    return calls


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# usage and configuration failures all exit 2

def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["annihilate"])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_one_parser_serves_calls_without_carrying_flags(tmp_path, capsys):
    # The parser is built once per process; a flag of one call does not
    # reach the next, and a usage error still exits 2.
    cfg = _write(tmp_path, TWO_WALL)
    argv = ["stress-profile", "--config", cfg, "--format", "csv"]
    code, out, _ = _run(capsys, argv + ["--samples", "5"])
    assert code == 0 and len(_rows(out)) == 5
    code, out, _ = _run(capsys, argv)
    assert code == 0 and len(_rows(out)) == 9
    with pytest.raises(SystemExit) as err:
        main(["stress-profile", "--samples"])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("argv_tail,needle", [
    (["force"], "structure"),
    (["force", "--temperature", "cold"], "not a number"),
    (["sweep"], "structure"),
    (["limits", "--eps", "0.2"], "eps"),
    (["limits", "--eps", "2,0.5"], "static eps must be >= 1, got 0.5"),
    (["compare", "--d1", "1e-6"], "both"),
    (["compare", "--eps", "2,apple"], "not a number"),
    (["compare"], "distances"),
    (["stress-profile", "--samples", "many"], "not an integer"),
    (["compare", "--eps", ","], "--eps: empty permittivity list"),
    (["compare", "--eps", "0.5"], "--eps: static permittivity must be >= 1"),
])
def test_config_errors_exit_2(capsys, argv_tail, needle):
    code, out, err = _run(capsys, argv_tail)
    assert code == 2
    assert needle in err


def test_bad_material_reference_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, """
[material.vac]
kind = constant

[structure]
regions = wall:mirror, gap:ether:1e-6, wall:mirror
""")
    code, out, err = _run(capsys, ["force", "--config", cfg])
    assert code == 2
    assert "config error" in err and "ether" in err


def test_ini_syntax_error_exits_2_with_line(tmp_path, capsys):
    cfg = _write(tmp_path, "[material.vac\nkind = constant\n")
    code, out, err = _run(capsys, ["force", "--config", cfg])
    assert code == 2
    assert "line" in err


def test_force_needs_a_cavity_not_a_pair(tmp_path, capsys):
    cfg = _write(tmp_path, TWO_WALL)
    code, out, err = _run(capsys, ["force", "--config", cfg])
    assert code == 2
    assert "plate" in err


def test_profile_needs_a_pair_not_a_cavity(tmp_path, capsys):
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, err = _run(capsys, ["stress-profile", "--config", cfg])
    assert code == 2
    assert "wall/gap/wall" in err


def test_profile_rejects_single_sample(tmp_path, capsys):
    cfg = _write(tmp_path, TWO_WALL)
    code, out, err = _run(capsys, ["stress-profile", "--config", cfg,
                                   "--samples", "1"])
    assert code == 2
    assert "at least 2" in err


def test_sweep_range_validation(tmp_path, capsys):
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, _, err = _run(capsys, ["sweep", "--config", cfg])
    assert code == 2 and "--parameter" in err
    code, _, err = _run(capsys, ["sweep", "--config", cfg, "--parameter", "d1"])
    assert code == 2 and "--start" in err
    code, _, err = _run(capsys, ["sweep", "--config", cfg, "--parameter", "d1",
                                 "--start=-1e-6", "--stop", "2e-6"])
    assert code == 2 and "log" in err
    code, _, err = _run(capsys, ["sweep", "--config", cfg, "--parameter", "T",
                                 "--start", "1", "--stop", "300",
                                 "--points", "0"])
    assert code == 2 and "point" in err


def test_eps_sweep_needs_constant_medium(tmp_path, capsys):
    cfg = _write(tmp_path, """
[material.gas]
kind = plasma
plasma_freq = 1e15

[structure]
regions = wall:mirror, gap:gas:1e-6, plate:mirror, gap:gas:2e-6, wall:mirror
""")
    code, _, err = _run(capsys, ["sweep", "--config", cfg, "--parameter", "eps",
                                 "--start", "1", "--stop", "4",
                                 "--zero-term-policy", "drop"])
    assert code == 2
    assert "constant" in err


# ---------------------------------------------------------------------------
# force

def test_vacuum_cavity_force_value(tmp_path, capsys):
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, err = _run(capsys, ["force", "--config", cfg, "--format", "csv"])
    assert code == 0
    row = _rows(out)[0]
    force = float(row["force_per_area_N_per_m2"])
    # One micron vacuum gap against a distant far wall.
    assert force == pytest.approx(-1.3002e-3, rel=1e-3)
    expected = COEF * ((50e-6) ** -4 - (1e-6) ** -4)
    assert force == pytest.approx(expected, rel=1e-7)
    assert row["converged"] == "true"
    assert float(row["error_estimate_N_per_m2"]) < 1e-9
    assert float(row["force_s_N_per_m2"]) + float(row["force_p_N_per_m2"]) \
        == pytest.approx(force, rel=1e-12)


def test_symmetric_cavity_force_is_zero(tmp_path, capsys):
    cfg = _write(tmp_path, SYMMETRIC_CAVITY)
    code, out, _ = _run(capsys, ["force", "--config", cfg, "--format", "csv"])
    assert code == 0
    assert float(_rows(out)[0]["force_per_area_N_per_m2"]) == 0.0


def test_force_human_output(tmp_path, capsys):
    cfg = _write(tmp_path, SYMMETRIC_CAVITY)
    code, out, _ = _run(capsys, ["force", "--config", cfg])
    assert code == 0
    assert "force_per_area_N_per_m2" in out
    assert "=" in out


MAGNETODIELECTRIC_CAVITY = """
[material.vac]
kind = constant

[material.magnet]
kind = constant
mu_static = 100

[material.slab]
kind = constant
eps_static = 2
mu_static = 2

[material.glass]
kind = constant
eps_static = 10

[structure]
regions = wall:magnet:semi-infinite, gap:vac:1e-6, plate:slab:1e-6,
    gap:vac:1e-6, wall:glass:semi-infinite

[run]
temperature = 30
"""


@pytest.mark.parametrize("rel_tol", ["1e-3", "1e-4"])
def test_thermal_force_of_opposed_polarizations_exits_0(tmp_path, capsys,
                                                        rel_tol):
    # s and p pull apart at 30 K: the thermal sum goes on until their sum
    # meets the target, where it used to stop on each alone and exit 3.
    cfg = _write(tmp_path, MAGNETODIELECTRIC_CAVITY)
    code, out, err = _run(capsys, ["force", "--config", cfg, "--format",
                                   "json", "--rel-tol", rel_tol])
    assert code == 0 and not err
    row = json.loads(out)["results"][0]
    assert row["converged"] and row["error_estimate_N_per_m2"] <= float(
        rel_tol) * abs(row["force_per_area_N_per_m2"])


@pytest.mark.parametrize("temperature", ["0.1", "300"])
def test_truncated_thermal_sum_exits_3(tmp_path, capsys, temperature):
    # At rel_tol 1e-17, below double rounding, the 1 um / 50 um sum misses at
    # 0.1 K (its 0 K tail) and at 300 K (its terms), and stops.
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, err = _run(capsys, ["force", "--config", cfg, "--format", "csv",
                                   "--temperature", temperature,
                                   "--rel-tol", "1e-17"])
    assert code == 3
    assert "did not reach" in err
    row = _rows(out)[0]
    assert row["converged"] == "false"
    assert float(row["error_estimate_N_per_m2"]) > 0.0
    assert "matsubara_max_terms" not in row
    # No knob sets the effort, so the warning names the target's only.
    assert ("(a rule stops once rounding alone keeps it out of reach;"
            " raise --rel-tol or [quadrature] abs_floor); error estimates"
            " stay honest") in err
    assert "matsubara" not in err
    # The thermal term cap is gone: its flag is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["force", "--config", cfg, "--matsubara-terms", "2"])
    assert exc.value.code == 2


def test_high_temperature_force_converges(tmp_path, capsys):
    # At 3000 K the m = 1 and 2 terms are about 1e-139 of the m = 0 one;
    # judged on their own size, their q rules miss through the upper end
    # term of the q range, but they meet the sum's target.
    cfg = _write(tmp_path, """
[material.vac]
kind = constant

[structure]
regions = wall:mirror, gap:vac:20e-6, plate:mirror, gap:vac:40e-6, wall:mirror
""")
    code, out, err = _run(capsys, ["force", "--config", cfg, "--format", "csv",
                                   "--temperature", "3000"])
    assert code == 0, err
    assert _rows(out)[0]["converged"] == "true"


def test_force_custom_zero_term_without_values_exits_2(tmp_path, capsys,
                                                       replace_the_core):
    calls = replace_the_core()
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, err = _run(capsys, ["force", "--config", cfg,
                                   "--temperature", "300",
                                   "--zero-term-policy", "custom-value"])
    assert code == 2
    assert "zero_term_value_s" in err and "zero_term_value_p" in err
    assert out == "" and calls == []


# ---------------------------------------------------------------------------
# stress-profile

def test_profile_custom_zero_term_without_value_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, TWO_WALL)
    code, out, err = _run(capsys, ["stress-profile", "--config", cfg,
                                   "--temperature", "300",
                                   "--zero-term-policy", "custom-value"])
    assert code == 2
    assert "zero_term_value" in err
    assert out == ""


def test_profile_rows_and_flatness(tmp_path, capsys):
    cfg = _write(tmp_path, TWO_WALL)
    code, out, err = _run(capsys, ["stress-profile", "--config", cfg,
                                   "--format", "csv", "--samples", "5"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 5
    z = [float(r["z_m"]) for r in rows]
    t = [float(r["t_zz_N_per_m2"]) for r in rows]
    assert all(0.0 < zi < 1e-6 for zi in z)
    assert z == sorted(z)
    # Empty gap: z-independent stress, equal to the ideal mirror value.
    np.testing.assert_allclose(t, COEF / (1e-6) ** 4, rtol=1e-7)
    assert all(r["converged"] == "true" for r in rows)


def test_filled_profile_varies_with_z(tmp_path, capsys):
    cfg = _write(tmp_path, FILLED_TWO_WALL)
    code, out, _ = _run(capsys, ["stress-profile", "--config", cfg,
                                 "--format", "csv", "--samples", "7",
                                 "--rel-tol", "1e-7"])
    assert code == 0
    rows = _rows(out)
    t = np.array([float(r["t_zz_N_per_m2"]) for r in rows])
    errs = np.array([float(r["error_estimate_N_per_m2"]) for r in rows])
    assert t.max() - t.min() > 5.0 * errs.sum()


def test_profile_budget_exhaustion_exits_3(tmp_path, capsys):
    # rel_tol below double rounding cannot be met.
    cfg = _write(tmp_path, TWO_WALL + """
[quadrature]
rel_tol = 1e-17
""")
    code, out, err = _run(capsys, ["stress-profile", "--config", cfg,
                                   "--format", "csv", "--samples", "3"])
    assert code == 3
    assert "did not reach" in err
    rows = _rows(out)
    assert any(r["converged"] == "false" for r in rows)
    # Values are still emitted alongside their honest error estimates.
    assert all(r["t_zz_N_per_m2"] for r in rows)


# ---------------------------------------------------------------------------
# compare

def test_compare_quadrature_matches_closed_forms(capsys):
    code, out, _ = _run(capsys, ["compare", "--format", "csv", "--eps", "1,4",
                                 "--d1", "5e-7", "--d3", "1.5e-6"])
    assert code == 0
    rows = _rows(out)
    sqrt = math.sqrt
    for row, eps in zip(rows, (1.0, 4.0)):
        f = float(row["force_per_area_N_per_m2"])
        closed = COEF * sqrt(1.0 / eps) * (2.0 / 3.0 + 1.0 / (3.0 * eps)) * (
            (1.5e-6) ** -4 - (5e-7) ** -4)
        assert f == pytest.approx(closed, rel=1e-6)
        ratio = float(row["ratio_minkowski_over_force"])
        expected = 1.0 / (2.0 / 3.0 + 1.0 / (3.0 * eps))
        assert ratio == pytest.approx(expected, rel=1e-6)
        assert row["force_converged"] == "true"
        assert row["minkowski_converged"] == "true"


def test_compare_rows_meet_the_limits_rows(capsys):
    # Each compare row is the engine's quadrature on a mirror cavity, and it
    # meets the matching limits row within its own error estimate at 0 K.
    flags = ["--eps", "1,2,4,10", "--d1", "1e-6", "--d3", "5e-6",
             "--format", "json"]
    runs = []
    for command in ("compare", "limits"):
        code, out, _ = _run(capsys, [command, *flags])
        assert code == 0
        runs.append(json.loads(out)["results"])
    keys = {"force_per_area_N_per_m2": plate_force,
            "minkowski_force_N_per_m2": minkowski_plate_force}
    mirror = Wall.perfect_mirror()
    for row, closed in zip(*runs, strict=True):
        assert row["eps"] == closed["eps"] and row["n"] == closed["n"]
        assert row["temperature_K"] == closed["temperature_K"] == 0.0
        cavity = CavityConfig(mirror, constant(eps=row["eps"]), 1e-6,
                              PerfectMirrorPlate(), 5e-6, mirror)
        for key, force in keys.items():
            result = force(cavity)
            assert row[key] == result.force_per_area and result.converged
            assert abs(row[key] - closed[key]) <= result.error_estimate
    # In vacuum the two tensors give one force, by quadrature and closed form.
    for row in (runs[0][0], runs[1][0]):
        assert row["force_per_area_N_per_m2"] == row["minkowski_force_N_per_m2"]


@pytest.mark.parametrize("eps,needle", [
    ("2,0.5", "--eps: static permittivity must be >= 1, got 0.5"),
    ("2,inf", "--eps: eps_static must be finite, got inf"),
], ids=["below-one", "infinite"])
def test_compare_checks_every_eps_before_integrating(capsys,
                                                     replace_the_core, eps,
                                                     needle):
    calls = replace_the_core()
    code, out, err = _run(capsys, ["compare", "--eps", eps, "--d1", "1e-6",
                                   "--d3", "5e-6"])
    assert code == 2 and out == ""
    assert f"config error: {needle}" in err
    assert calls == []


def test_compare_runs_at_a_nonzero_temperature(capsys):
    # Quadrature holds at every temperature. At 300 K the 1 um / 5 um vacuum
    # cavity is pulled harder than at 0 K, and at eps = 2 the ratio F^M/F
    # leaves its 0 K value 1.2 toward its high-T value 2 eps/(1 + eps).
    argv = ["compare", "--eps", "1,2", "--d1", "1e-6", "--d3", "5e-6",
            "--format", "json"]
    runs = {}
    for temperature in (0.0, 300.0):
        code, out, _ = _run(capsys, argv + ["--temperature", str(temperature)])
        assert code == 0
        rows = json.loads(out)["results"]
        assert [r["temperature_K"] for r in rows] == [temperature] * 2
        assert all(r["force_converged"] and r["minkowski_converged"]
                   for r in rows)
        runs[temperature] = rows
    key = "force_per_area_N_per_m2"
    assert runs[300.0][0][key] < runs[0.0][0][key] < 0.0
    ratio = runs[300.0][1]["ratio_minkowski_over_force"]
    assert runs[0.0][1]["ratio_minkowski_over_force"] == pytest.approx(1.2)
    assert 1.2 < ratio < 4.0 / 3.0


def test_compare_on_configured_cavity(tmp_path, capsys):
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, _ = _run(capsys, ["compare", "--config", cfg, "--format", "csv"])
    assert code == 0
    row = _rows(out)[0]
    assert float(row["eps"]) == 1.0
    assert float(row["ratio_minkowski_over_force"]) == pytest.approx(
        1.0, rel=1e-6)
    assert float(row["d1_m"]) == 1e-6


def test_compare_zero_force_has_no_ratio(tmp_path, capsys):
    cfg = _write(tmp_path, SYMMETRIC_CAVITY)
    code, out, _ = _run(capsys, ["compare", "--config", cfg, "--format", "csv"])
    assert code == 0
    row = _rows(out)[0]
    assert float(row["force_per_area_N_per_m2"]) == 0.0
    assert row["ratio_minkowski_over_force"] == ""
    code, out, _ = _run(capsys, ["compare", "--config", cfg])
    assert code == 0
    assert "ratio_minkowski_over_force" in out and "= -" in out
    code, out, _ = _run(capsys, ["compare", "--format", "json", "--eps", "1,2",
                                 "--d1", "8e-7", "--d3", "8e-7"])
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["ratio_minkowski_over_force"] for r in rows] == [None, None]
    assert [r["force_per_area_N_per_m2"] for r in rows] == [0.0, 0.0]


def test_compare_on_a_drude_gap_has_no_static_eps(tmp_path, capsys):
    # A Drude gap has no static permittivity: eps and n are null, the two
    # tensors' forces are still compared.
    cfg = _write(tmp_path, """
[material.gas]
kind = plasma
plasma_freq = 1e15

[structure]
regions = wall:mirror, gap:gas:1e-6, plate:mirror, gap:gas:2e-6, wall:mirror
""")
    code, out, err = _run(capsys, ["compare", "--config", cfg,
                                   "--format", "json"])
    assert code == 0, err
    row = json.loads(out)["results"][0]
    assert row["eps"] is None and row["n"] is None
    assert row["force_converged"] and row["minkowski_converged"]
    assert row["ratio_minkowski_over_force"] == (
        row["minkowski_force_N_per_m2"] / row["force_per_area_N_per_m2"])


def test_multi_row_human_output_is_a_table(capsys):
    # Several rows print as one table of the non-metadata columns.
    code, out, _ = _run(capsys, ["limits", "--eps", "1,4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["eps", "mu", "n", "d1_m", "d3_m",
                                "force_per_area_N_per_m2",
                                "minkowski_force_N_per_m2",
                                "ratio_minkowski_over_force"]
    assert [line.split()[0] for line in lines[1:3]] == [
        "1.000000000e+00", "4.000000000e+00"]
    assert lines[3] == ("(--format csv or json for full reproducibility"
                        " metadata)")
    assert len({len(line) for line in lines[:3]}) == 1


# ---------------------------------------------------------------------------
# sweep

def test_distance_sweep_recovers_quartic_law(tmp_path, capsys):
    cfg = _write(tmp_path, """
[material.vac]
kind = constant

[structure]
regions = wall:mirror, gap:vac:5e-7, plate:mirror, gap:vac:1.5e-6, wall:mirror
""")
    code, out, _ = _run(capsys, ["sweep", "--config", cfg, "--format", "csv",
                                 "--parameter", "d", "--start", "5e-7",
                                 "--stop", "5e-6", "--points", "7"])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 7
    d = np.array([float(r["value"]) for r in rows])
    f = np.array([float(r["force_per_area_N_per_m2"]) for r in rows])
    assert np.all(f < 0.0)
    slope = np.polyfit(np.log(d), np.log(-f), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.01)
    assert rows[0]["unit"] == "m"


def test_far_gap_sweep_moves_only_d3(tmp_path, capsys):
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, _ = _run(capsys, ["sweep", "--config", cfg, "--format", "csv",
                                 "--parameter", "d3", "--start", "2e-6",
                                 "--stop", "8e-6", "--points", "2"])
    assert code == 0
    for row, d3 in zip(_rows(out), (2e-6, 8e-6)):
        assert float(row["value"]) == d3
        assert float(row["force_per_area_N_per_m2"]) == pytest.approx(
            COEF * (d3 ** -4 - (1e-6) ** -4), rel=1e-7)


def test_temperature_sweep_rows(tmp_path, capsys):
    # Wide gaps put the hotter runs in the classical regime, where the
    # attraction grows with temperature by a resolvable margin.
    cfg = _write(tmp_path, """
[material.vac]
kind = constant

[structure]
regions = wall:mirror, gap:vac:5e-6, plate:mirror, gap:vac:15e-6, wall:mirror
""")
    code, out, _ = _run(capsys, ["sweep", "--config", cfg, "--format", "csv",
                                 "--parameter", "T", "--start", "150",
                                 "--stop", "600", "--points", "2"])
    assert code == 0
    rows = _rows(out)
    assert [float(r["temperature_K"]) for r in rows] == [150.0, 600.0]
    assert [r["unit"] for r in rows] == ["K", "K"]
    assert all(r["converged"] == "true" for r in rows)
    f = [float(r["force_per_area_N_per_m2"]) for r in rows]
    assert abs(f[1]) > 1.2 * abs(f[0])  # hotter cavity pulls harder


def test_eps_sweep_screens_the_force(tmp_path, capsys):
    cfg = _write(tmp_path, """
[material.oil]
kind = constant
eps_static = 2.0

[structure]
regions = wall:mirror, gap:oil:6e-7, plate:mirror, gap:oil:1.8e-6, wall:mirror
""")
    code, out, _ = _run(capsys, ["sweep", "--config", cfg, "--format", "csv",
                                 "--parameter", "eps", "--start", "1",
                                 "--stop", "16", "--points", "4",
                                 "--rel-tol", "1e-6"])
    assert code == 0
    f = np.array([float(r["force_per_area_N_per_m2"])
                  for r in _rows(out)])
    # Denser filling screens the attraction monotonically.
    assert np.all(np.diff(np.abs(f)) < 0.0)


# Cavities of 1 and 20 um gaps, with the gap medium "gap" and the walls and
# plate of "solid" or mirrors, for gap sweeps that never cross d1 = d3,
# where the force vanishes.
_SWEPT = """
[material.gap]
{gap}

[material.solid]
{solid}

[structure]
regions = {left}, gap:gap:1e-6, {plate}, gap:gap:2e-5, {right}
"""
_MIRRORS = dict(solid="kind = constant", left="wall:mirror",
                plate="plate:mirror", right="wall:mirror")
_SWEPT_CAVITIES = {
    "vacuum-mirrors": dict(_MIRRORS, gap="kind = constant"),
    "filled-mirrors": dict(_MIRRORS, gap="kind = constant\neps_static = 3"),
    "gold": dict(gap="kind = constant\neps_static = 2",
                 solid="kind = drude-lorentz\nplasma_freq = 1.37e16\n"
                       "resonance_freq = 0\ndamping = 5.32e13",
                 left="wall:solid:semi-infinite", plate="plate:solid:2e-7",
                 right="wall:solid:semi-infinite"),
    "magnetic": dict(gap="kind = constant\neps_static = 2\nmu_static = 3",
                     solid="kind = drude-lorentz\nplasma_freq = 1e16\n"
                           "resonance_freq = 5e15\ndamping = 1e14\n"
                           "mu_plasma_freq = 5e14\nmu_resonance_freq = 8e14\n"
                           "mu_damping = 0",
                     left="wall:mirror", plate="plate:solid:1e-7",
                     right="wall:solid:semi-infinite"),
}


@settings(max_examples=30, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(_SWEPT_CAVITIES)),
       parameter=st.sampled_from(["d1", "d3", "d"]),
       start=st.floats(0.0, 1.3), span=st.floats(1.0, 8.0),
       points=st.integers(2, 6), spacing=st.sampled_from(["log", "linear"]),
       reverse=st.booleans(), temperature=st.sampled_from([0.0, 300.0]))
def test_grouped_sweep_rows_meet_separate_forces(
        tmp_path, capsys, name, parameter, start, span, points, spacing,
        reverse, temperature):
    # A gap sweep runs one rule per octave of min(d1, d3). Each of its rows
    # must meet the force of its own cavity computed alone, within both
    # error bars, in s, p and s + p, with the same flag.
    # From 0.1 to 2 um for d1 and d, from 2 to 40 um for d3.
    start = 10.0 ** (start + (math.log10(2e-6) if parameter == "d3" else -7.0))
    ends = [start, start * span][::-1 if reverse else 1]
    cfg = _write(tmp_path, _SWEPT.format(**_SWEPT_CAVITIES[name]))
    code, out, err = _run(capsys, [
        "sweep", "--config", cfg, "--format", "json", "--parameter",
        parameter, "--start", repr(ends[0]), "--stop", repr(ends[1]),
        "--points", str(points), "--spacing", spacing, "--temperature",
        repr(temperature), "--zero-term-policy", "drop"])
    assert code in (0, 3), err
    rows = json.loads(out)["results"]
    cavity = build_config(load_sections(cfg)).cavity
    flags = []
    for row in rows:
        value = row["value"]
        case = {"d1": replace(cavity, d1=value),
                "d3": replace(cavity, d3=value),
                "d": replace(cavity, d1=value,
                             d3=value * cavity.d3 / cavity.d1)}[parameter]
        alone = plate_force(case, temperature, None, "drop")
        flags.append(alone.converged)
        assert row["converged"] is alone.converged
        bar = row["error_estimate_N_per_m2"] + alone.error_estimate
        for key, want in (("force_per_area_N_per_m2", alone.force_per_area),
                          ("force_s_N_per_m2", alone.per_polarization["s"]),
                          ("force_p_N_per_m2", alone.per_polarization["p"])):
            assert abs(row[key] - want) <= bar
    assert code == (0 if all(flags) else 3), err


def test_a_gap_sweep_runs_one_rule_per_octave(tmp_path, capsys,
                                              monkeypatch):
    # Nine log-spaced d1 from 1 to 10 um against d3 = 5 um: min(d1, d3) is
    # 1, 1.33, 1.78 | 2.37, 3.16, 4.22 | 5, 5, 5 um, three octaves of one
    # rule each, whose evaluations every row of the octave reports. A
    # temperature sweep keeps one rule per point.
    rules, real = [], cli._plate_force

    def counted(*args, widths, **kwargs):
        rules.append(len(widths))
        return real(*args, widths=widths, **kwargs)

    monkeypatch.setattr(cli, "_plate_force", counted)
    cfg = _write(tmp_path, GOLD_PLATE_CAVITY)
    code, out, _ = _run(capsys, ["sweep", "--config", cfg, "--format", "csv",
                                 "--parameter", "d1", "--start", "1e-6",
                                 "--stop", "1e-5"])
    assert code == 0 and rules == [3, 3, 3]
    rows = _rows(out)
    for octave in (rows[:3], rows[3:6], rows[6:]):
        assert len({row["evaluations"] for row in octave}) == 1
    rules.clear()
    code, out, _ = _run(capsys, ["sweep", "--config", cfg, "--parameter",
                                 "T", "--start", "1", "--stop", "2",
                                 "--points", "3", "--zero-term-policy",
                                 "drop"])
    assert code == 0 and rules == [1, 1, 1]


_JSON_LEAVES = st.one_of(
    st.text(), st.integers(), st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e308]))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(doc=st.dictionaries(st.text(), st.recursive(
    _JSON_LEAVES, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(), inner, max_size=4)), max_leaves=24),
    max_size=5))
def test_json_writer_is_json_dumps_with_indent_2(doc):
    assert cli._json(doc) == json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# limits

def test_limits_defaults(capsys):
    code, out, _ = _run(capsys, ["limits", "--format", "csv"])
    assert code == 0
    row = _rows(out)[0]
    assert float(row["force_per_area_N_per_m2"]) == pytest.approx(
        -COEF / (1e-6) ** 4, rel=1e-12)
    assert float(row["ratio_minkowski_over_force"]) == 1.0
    assert row["d3_m"] == "inf"


def test_limits_dielectric_and_magnetic(capsys):
    code, out, _ = _run(capsys, ["limits", "--format", "csv", "--eps", "2"])
    row = _rows(out)[0]
    assert -float(row["force_per_area_N_per_m2"]) * (1e-6) ** 4 / COEF \
        == pytest.approx(0.589255650988790, rel=1e-12)
    code, out, _ = _run(capsys, ["limits", "--format", "csv", "--mu", "2"])
    row = _rows(out)[0]
    assert -float(row["force_per_area_N_per_m2"]) * (1e-6) ** 4 / COEF \
        == pytest.approx(1.1785113019775793, rel=1e-12)
    # The Minkowski force of a magnetic medium: (eps mu)^-1/2 screening,
    # and F^M/F = 1/(2 mu/3 + 1/(3 eps)) = 0.6.
    assert -float(row["minkowski_force_N_per_m2"]) * (1e-6) ** 4 / COEF \
        == pytest.approx(0.5 ** 0.5, rel=1e-12)
    assert float(row["ratio_minkowski_over_force"]) == pytest.approx(
        0.6, rel=1e-12)


def test_limits_ratios_over_an_eps_list(capsys):
    code, out, _ = _run(capsys, ["limits", "--format", "csv",
                                 "--eps", "1,2,4,10"])
    assert code == 0
    rows = _rows(out)
    assert [float(r["eps"]) for r in rows] == [1.0, 2.0, 4.0, 10.0]
    ratios = [float(r["ratio_minkowski_over_force"]) for r in rows]
    assert ratios[0] == pytest.approx(1.0, rel=1e-12)
    assert ratios[1] == pytest.approx(1.2, rel=1e-12)
    assert ratios[2] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert ratios[3] == pytest.approx(10.0 / 7.0, rel=1e-12)


def test_limits_ratio_saturates_below_three_halves(capsys):
    code, out, _ = _run(capsys, ["limits", "--format", "csv",
                                 "--eps", "1e6"])
    assert code == 0
    ratio = float(_rows(out)[0]["ratio_minkowski_over_force"])
    assert ratio == pytest.approx(1.5, rel=1e-5)
    assert ratio < 1.5


def test_limits_with_distances(capsys):
    code, out, _ = _run(capsys, ["limits", "--format", "csv", "--eps", "4",
                                 "--d1", "5e-7", "--d3", "1.5e-6"])
    assert code == 0
    row = _rows(out)[0]
    f = float(row["force_per_area_N_per_m2"])
    fm = float(row["minkowski_force_N_per_m2"])
    assert fm / f == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert f < 0.0


# ---------------------------------------------------------------------------
# emission formats

def test_json_output_and_round_trip(tmp_path, capsys):
    cfg = _write(tmp_path, VACUUM_CAVITY)
    out_path = str(tmp_path / "run.json")
    code, _, _ = _run(capsys, ["force", "--config", cfg, "--format", "json",
                               "--out", out_path])
    assert code == 0
    first = open(out_path).read()
    doc = json.loads(first)
    assert doc["command"] == "force"
    assert doc["results"][0]["converged"] is True
    assert "structure" in doc["config"]
    # Feeding the emission back reproduces it bit for bit.
    code, _, _ = _run(capsys, ["force", "--config", out_path])
    assert code == 0
    assert open(out_path).read() == first


def test_removed_term_cap_in_a_replayed_json_exits_2(tmp_path, capsys):
    # An emission from a version with the thermal term cap stored it under
    # [quadrature]; the key is refused by name rather than ignored.
    cfg = _write(tmp_path, SYMMETRIC_CAVITY)
    path = tmp_path / "old.json"
    code, _, _ = _run(capsys, ["force", "--config", cfg, "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    doc["config"]["quadrature"] = {"matsubara_max_terms": "20000"}
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["force", "--config", str(path)])
    assert code == 2 and out == ""
    assert "[quadrature]: unknown key(s): matsubara_max_terms" in err


def test_removed_method_choice_exits_2(tmp_path, capsys):
    # The plate force has one route; the flag and key that chose it are gone
    # and refused, from an INI file and from a replayed emission alike.
    cfg = _write(tmp_path, SYMMETRIC_CAVITY)
    with pytest.raises(SystemExit) as exc:
        main(["force", "--config", cfg, "--method", "exact-difference"])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err
    old_ini = _write(tmp_path, SYMMETRIC_CAVITY
                     + "\n[run]\nmethod = exact-difference\n", "old.ini")
    path = tmp_path / "old.json"
    code, _, _ = _run(capsys, ["force", "--config", cfg, "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    doc["config"]["run"] = {"method": "exact-difference"}
    path.write_text(json.dumps(doc))
    for old in (old_ini, str(path)):
        code, out, err = _run(capsys, ["force", "--config", old])
        assert code == 2 and out == ""
        assert "[run]: unknown key(s): method" in err


_META_KEYS = ["temperature_K", "zero_term_policy", "rel_tol", "abs_floor",
              "q_cutoff_rad_per_m"]
_FORCE_KEYS = ["force_per_area_N_per_m2", "error_estimate_N_per_m2",
               "force_s_N_per_m2", "force_p_N_per_m2", "converged",
               "evaluations"] + _META_KEYS
# Every compare row, on a configured cavity or on an --eps mirror cavity.
_COMPARE_KEYS = ["eps", "n", "force_per_area_N_per_m2",
                 "minkowski_force_N_per_m2", "ratio_minkowski_over_force",
                 "d1_m", "d3_m", "force_converged", "minkowski_converged"
                 ] + _META_KEYS
_LIMITS_KEYS = ["eps", "mu", "n", "d1_m", "d3_m", "force_per_area_N_per_m2",
                "minkowski_force_N_per_m2", "ratio_minkowski_over_force"
                ] + _META_KEYS


@pytest.mark.parametrize("structure,argv,keys", [
    (VACUUM_CAVITY, ["force"], _FORCE_KEYS),
    (VACUUM_CAVITY, ["sweep", "--parameter", "d", "--start", "1e-6",
                     "--stop", "2e-6", "--points", "2"],
     ["parameter", "value", "unit"] + _FORCE_KEYS),
    (TWO_WALL, ["stress-profile", "--samples", "2"],
     ["z_m", "t_zz_N_per_m2", "error_estimate_N_per_m2", "converged"]
     + _META_KEYS),
    (None, ["compare", "--eps", "1,2", "--d1", "1e-6", "--d3", "5e-6"],
     _COMPARE_KEYS),
    (VACUUM_CAVITY, ["compare"], _COMPARE_KEYS),
    (VACUUM_CAVITY, ["compare", "--eps", "2"], _COMPARE_KEYS),
    (None, ["limits"], _LIMITS_KEYS),
    (None, ["limits", "--eps", "1,2"], _LIMITS_KEYS),
], ids=["force", "sweep", "stress-profile", "compare",
        "compare-configured", "compare-configured-eps", "limits",
        "limits-eps-list"])
def test_json_row_schema(tmp_path, capsys, structure, argv, keys):
    # Every row of an emission carries exactly these columns, in this order.
    if structure is not None:
        argv = argv + ["--config", _write(tmp_path, structure)]
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    rows = json.loads(out)["results"]
    assert rows and [list(row) for row in rows] == [keys] * len(rows)


def _refuse(token):
    raise ValueError(f"{token} is not a JSON value")


@pytest.mark.parametrize("structure,argv", [
    (None, ["limits"]),
    (None, ["limits", "--eps", "2", "--d1", "1e-6"]),
    (None, ["compare", "--eps", "2", "--d1", "1e-6", "--d3", "inf"]),
    (SYMMETRIC_CAVITY.replace("8e-7, wall", "inf, wall"), ["force"]),
], ids=["limits", "limits-eps", "compare", "force"])
def test_json_of_an_infinite_gap_is_strict_json(tmp_path, capsys, structure,
                                                argv):
    # JSON (RFC 8259) has no Infinity token: an infinite width is the string
    # of its csv cell, as the stored [command] value is.
    if structure is not None:
        argv = argv + ["--config", _write(tmp_path, structure)]
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(out, parse_constant=_refuse)
    for row in doc["results"]:
        assert row.get("d3_m", "inf") == "inf"
    assert "inf" in out


@pytest.mark.parametrize("argv,quadrature", [
    (["limits", "--eps", "2"], False),
    (["limits", "--eps", "2,4", "--d1", "1e-6", "--d3", "5e-6"], False),
    (["compare", "--eps", "2", "--d1", "1e-6", "--d3", "5e-6"], True),
], ids=["limits", "limits-eps-list", "compare"])
def test_closed_form_rows_null_the_quadrature_settings(capsys, argv,
                                                       quadrature):
    # No quadrature or thermal sum runs for a closed form, so its rows carry
    # none of their settings, even those given; the temperature (0 K) stays.
    argv = argv + ["--zero-term-policy", "drop", "--rel-tol", "1e-6"]
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    row = json.loads(out)["results"][0]
    settings = [row[key] for key in _META_KEYS[1:]]
    assert row["temperature_K"] == 0.0
    if quadrature:
        assert settings == ["drop", 1e-6, 0.0, None]
    else:
        assert settings == [None] * 4
    converged = [row.get(key) for key in ("force_converged",
                                          "minkowski_converged")]
    assert converged == ([True, True] if quadrature else [None, None])
    # A CSV header is the same for every flag of a command.
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    header = out.splitlines()[0].split(",")
    assert header == (_COMPARE_KEYS if argv[0] == "compare" else list(row))


def test_format_inferred_from_suffix(tmp_path, capsys):
    cfg = _write(tmp_path, SYMMETRIC_CAVITY)
    json_path = str(tmp_path / "f.json")
    csv_path = str(tmp_path / "f.csv")
    _run(capsys, ["force", "--config", cfg, "--out", json_path])
    _run(capsys, ["force", "--config", cfg, "--out", csv_path])
    assert open(json_path).read().lstrip().startswith("{")
    assert open(csv_path).read().splitlines()[0].startswith(
        "force_per_area_N_per_m2")


@pytest.mark.parametrize("structure,argv,stored", [
    (VACUUM_CAVITY, ["force"], {}),
    (TWO_WALL, ["stress-profile", "--samples", "3"], {"samples": "3"}),
    (None, ["compare", "--eps", "2,4", "--d1", "7e-7", "--d3", "2.1e-6"],
     {"eps": "2.0,4.0", "d1": "7e-07", "d3": "2.1e-06"}),
    # --eps on a configured cavity takes the distances from it.
    (VACUUM_CAVITY, ["compare", "--eps", "2"],
     {"eps": "2.0", "d1": "1e-06", "d3": "5e-05"}),
    (VACUUM_CAVITY, ["sweep", "--parameter", "d1", "--start", "8e-7",
                     "--stop", "2e-6", "--points", "3"],
     {"parameter": "d1", "start": "8e-07", "points": "3", "spacing": "log"}),
    (None, ["limits", "--eps", "2,4", "--mu", "1.5"],
     {"eps": "2.0,4.0", "mu": "1.5", "d1": "1e-06", "d3": "inf"}),
], ids=["force", "stress-profile", "compare", "compare-configured-eps",
        "sweep", "limits"])
def test_command_args_replay_from_json(tmp_path, capsys, structure, argv,
                                       stored):
    config = [] if structure is None else ["--config",
                                           _write(tmp_path, structure)]
    out_path = str(tmp_path / "run.json")
    code, _, _ = _run(capsys, argv + config + ["--format", "json",
                                               "--out", out_path])
    assert code == 0
    first = open(out_path).read()
    command = json.loads(first)["config"]["command"]
    assert command == {**command, "name": argv[0], **stored}
    # Replaying the emission needs no flags: the command args are embedded.
    code, _, _ = _run(capsys, [argv[0], "--config", out_path])
    assert code == 0
    assert open(out_path).read() == first


def test_stored_args_do_not_leak_across_commands(tmp_path, capsys):
    out_path = str(tmp_path / "cmp.json")
    code, _, _ = _run(capsys, ["compare", "--format", "json",
                               "--out", out_path, "--eps", "2",
                               "--d1", "7e-7", "--d3", "2.1e-6"])
    assert code == 0
    stored = json.loads(open(out_path).read())["config"]["command"]
    assert stored["d1"] == "7e-07"
    # limits also understands eps/d1/d3 arguments, but a compare emission
    # must not feed it any; it falls back to its own defaults.
    code, _, _ = _run(capsys, ["limits", "--config", out_path])
    assert code == 0
    doc = json.loads(open(out_path).read())
    assert doc["command"] == "limits"
    row = doc["results"][0]
    assert row["eps"] == 1.0
    assert row["d1_m"] == 1e-6


def test_csv_cells_use_full_precision(tmp_path, capsys):
    cfg = _write(tmp_path, SYMMETRIC_CAVITY)
    code, out, _ = _run(capsys, ["force", "--config", cfg, "--format", "csv"])
    row = _rows(out)[0]
    assert row["rel_tol"] == format(1e-8, ".16e")


@pytest.mark.parametrize("command,stored,needle", [
    ("sweep", "name = sweep\nparameter = x\nstart = 8e-7\nstop = 2e-6",
     "[command] parameter: 'x' is not one of"),
    ("sweep", "name = sweep\nparameter = d1\nstart = 8e-7\nstop = 2e-6"
     "\nspacing = bogus", "[command] spacing: 'bogus' is not one of"),
    # A key that is no flag of its command, as an older compare stored,
    # also where another command ignores the stored values.
    ("compare", "name = compare\neps = 2\nmode = quadrature",
     "[command]: unknown key(s) of compare: mode"),
    ("force", "name = compare\neps = 2\nmode = closed",
     "[command]: unknown key(s) of compare: mode"),
    # A section that names no command, or a misspelt one, for any command
    # that reads the config.
    ("compare", "eps = 2", "[command]: missing 'name'"),
    ("compare", "name = comapre\neps = 2",
     "[command] name: 'comapre' is not one of force, stress-profile,"
     " compare, sweep, limits"),
    ("force", "name = comapre\neps = 2", "[command] name: 'comapre'"),
], ids=["parameter", "spacing", "unknown-key", "unknown-key-other-command",
        "missing-name", "unknown-name", "unknown-name-other-command"])
def test_stored_command_values_are_checked_before_integrating(
        tmp_path, capsys, monkeypatch, command, stored, needle):
    # Values replayed from [command] never pass through argparse, so they
    # get the same choices as their flags, and only the keys of those
    # flags, before any force is computed.
    calls = _no_integrals(monkeypatch)
    cfg = _write(tmp_path, VACUUM_CAVITY + f"\n[command]\n{stored}\n")
    code, _, err = _run(capsys, [command, "--config", cfg,
                                 "--temperature", "1"])
    assert code == 2
    assert needle in err
    assert calls == []


def test_stored_number_is_checked_before_integrating(tmp_path, capsys,
                                                     monkeypatch):
    calls = _no_integrals(monkeypatch)
    cfg = _write(tmp_path, VACUUM_CAVITY + "\n[command]\nname = sweep\n"
                 "parameter = d1\nstart = apple\nstop = 2e-6\n")
    code, _, err = _run(capsys, ["sweep", "--config", cfg])
    assert code == 2
    assert "[command] start: 'apple' is not a number" in err
    assert calls == []


# Output paths that cannot take a file: under a missing directory, a
# directory, under a regular file, and empty.
_UNWRITABLE = pytest.mark.parametrize(
    "target", ["nodir/x.json", "adir", "plain.txt/out.csv", ""],
    ids=["nodir/x.json", "adir", "under-a-file", "empty"])


def _unwritable_path(tmp_path, target):
    (tmp_path / "adir").mkdir()
    (tmp_path / "plain.txt").write_text("a regular file\n")
    return str(tmp_path / target) if target else ""


@_UNWRITABLE
def test_unwritable_output_exits_2_before_integrating(tmp_path, capsys,
                                                      monkeypatch, target):
    calls = _no_integrals(monkeypatch)
    cfg = _write(tmp_path, VACUUM_CAVITY)
    out_path = _unwritable_path(tmp_path, target)
    code, _, err = _run(capsys, ["force", "--config", cfg, "--out", out_path])
    assert code == 2
    assert f"[output] path: cannot write a file at {out_path!r}" in err
    assert calls == []


@_UNWRITABLE
def test_unwritable_config_output_path_exits_2_before_integrating(
        tmp_path, capsys, monkeypatch, target):
    calls = _no_integrals(monkeypatch)
    out_path = _unwritable_path(tmp_path, target)
    cfg = _write(tmp_path,
                 VACUUM_CAVITY + f"\n[output]\npath = {out_path}\n")
    code, out, err = _run(capsys, ["force", "--config", cfg])
    assert code == 2
    assert f"[output] path: cannot write a file at {out_path!r}" in err
    assert calls == [] and out == ""


def test_compare_on_configured_cavity_rejects_ignored_flags(tmp_path, capsys):
    # Without --eps, compare runs on the cavity's own gaps, so --d1/--d3
    # would silently do nothing.
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, err = _run(capsys, ["compare", "--config", cfg,
                                   "--d1", "2e-6", "--d3", "3e-6"])
    assert code == 2
    assert "--d1/--d3" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["limits"],
    ["limits", "--eps", "1,2,4,10", "--d1", "1e-6", "--d3", "5e-6"],
], ids=["limits", "limits-eps-list"])
def test_closed_forms_refuse_a_nonzero_temperature(capsys, argv):
    # The closed forms are 0 K results; labelling them 300 K would be wrong.
    code, out, err = _run(capsys, argv + ["--temperature", "300"])
    assert code == 2
    assert "0 K" in err and "use compare --eps" in err
    assert out == ""
    code, _, _ = _run(capsys, argv + ["--temperature", "0"])
    assert code == 0


@pytest.mark.parametrize("argv,config,needle", [
    (["limits", "--d1", "nan"], None, "--d1: 'nan'"),
    (["compare", "--eps", "nan", "--d1", "1e-6", "--d3", "2e-6"], None,
     "--eps: 'nan'"),
    (["force", "--temperature", "nan"], VACUUM_CAVITY, "[run] temperature"),
    (["force", "--temperature", "inf"], VACUUM_CAVITY, "[run] temperature"),
    (["force", "--q-cutoff", "inf"], VACUUM_CAVITY, "q_cutoff"),
    (["force"], VACUUM_CAVITY + "\n[quadrature]\nabs_floor = nan\n",
     "[quadrature] abs_floor"),
    (["force", "--temperature", "0.4"],
     VACUUM_CAVITY + "\n[quadrature]\nabs_floor = inf\n",
     "[quadrature]: abs_floor must be finite"),
    (["force"], VACUUM_CAVITY.replace("constant", "constant\neps_static = nan"),
     "[material.vac] eps_static"),
    (["force"], VACUUM_CAVITY.replace("gap:vac:1e-6", "gap:vac:nan"),
     "'gap:vac:nan'"),
    (["force", "--temperature", "300"], VACUUM_CAVITY
     + "\n[run]\nzero_term_policy = custom-value\nzero_term_value_s = inf"
     "\nzero_term_value_p = 0\n", "[run] zero_term_value_s"),
    (["sweep", "--parameter", "T", "--start", "1", "--stop", "inf"],
     VACUUM_CAVITY, "finite range"),
    (["stress-profile"], TWO_WALL.replace("gap:vac:1e-6", "gap:vac:inf"),
     "a profile needs a finite interspace width, got inf"),
    (["limits", "--eps", "inf", "--mu", "inf"], None,
     "static mu must be finite and > 0, got inf"),
], ids=["limits-d1", "compare-eps", "temperature-nan", "temperature-inf",
        "q-cutoff-inf", "abs-floor", "abs-floor-inf", "eps-static", "gap-width",
        "zero-term-value-inf", "sweep-stop-inf", "profile-gap-inf",
        "limits-mu-inf"])
def test_non_finite_inputs_exit_2_before_integrating(
        tmp_path, capsys, monkeypatch, argv, config, needle):
    calls = _no_integrals(monkeypatch)
    if config is not None:
        argv = argv + ["--config", _write(tmp_path, config)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert needle in err and out == ""
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["force"], ["compare"],
    ["sweep", "--parameter", "T", "--start", "1", "--stop", "10"],
], ids=["force", "compare", "sweep"])
def test_two_infinite_gaps_exit_2_before_integrating(tmp_path, capsys,
                                                     replace_the_core, argv):
    calls = replace_the_core()
    cfg = _write(tmp_path, VACUUM_CAVITY.replace("1e-6", "inf")
                 .replace("50e-6", "inf"))
    code, out, err = _run(capsys, argv + ["--config", cfg])
    assert code == 2
    assert err == ("error: a plate force needs at least one finite gap, got"
                   " d1 = inf and d3 = inf\n")
    assert out == "" and calls == []


MAGNETIC_CAVITY = """
[material.mag]
kind = constant
eps_static = 2
mu_static = 3

[structure]
regions = wall:mirror, gap:mag:1e-6, plate:mirror, gap:mag:3e-6, wall:mirror
"""


def test_compare_on_a_magnetic_gap_screens_by_its_index(tmp_path, capsys):
    # An (eps, mu) = (2, 3) gap between mirrors: n = sqrt(6), the Minkowski
    # force is 6^-1/2 times the vacuum one, and the ratio is
    # 1/(2 mu/3 + 1/(3 eps)) = 6/13.
    cfg = _write(tmp_path, MAGNETIC_CAVITY)
    code, out, err = _run(capsys, ["compare", "--config", cfg,
                                   "--format", "json"])
    assert code == 0, err
    row = json.loads(out)["results"][0]
    assert row["eps"] == 2.0 and row["n"] == 6.0 ** 0.5
    assert row["force_converged"] and row["minkowski_converged"]
    assert row["minkowski_force_N_per_m2"] == pytest.approx(
        6.0 ** -0.5 * minkowski_generalized(1.0, 1e-6, 3e-6), rel=1e-12)
    assert row["ratio_minkowski_over_force"] == pytest.approx(6.0 / 13.0,
                                                              rel=1e-12)


def test_overflowing_oscillator_exits_2_before_integrating(
        tmp_path, capsys, monkeypatch):
    # plasma_freq**2 overflows a float; it used to crash the integral.
    calls = _no_integrals(monkeypatch)
    cfg = _write(tmp_path, VACUUM_CAVITY.replace(
        "wall:mirror, gap", "wall:hard:semi-infinite, gap")
        + "\n[material.hard]\nkind = plasma\nplasma_freq = 1e160\n")
    code, out, err = _run(capsys, ["force", "--config", cfg])
    assert code == 2
    assert ("config error: [material.hard]: plasma_freq squared must be"
            " finite") in err
    assert out == "" and calls == []


# The README cavity: Drude gold plate between mirrors, no [run] section.
GOLD_PLATE_CAVITY = """
[material.oil]
kind = constant
eps_static = 2.0

[material.gold]
kind = drude-lorentz
plasma_freq = 1.4e16
damping = 5.3e13

[structure]
regions = wall:mirror, gap:oil:1e-6, plate:gold:2e-7, gap:oil:5e-6, wall:mirror
"""


# Drude-gold half-spaces around a 1 um vacuum gap.
GOLD_TWO_WALL = """
[material.vac]
kind = constant

[material.gold]
kind = drude-lorentz
plasma_freq = 1.4e16
damping = 5.3e13

[structure]
regions = wall:gold:semi-infinite, gap:vac:1e-6, wall:gold:semi-infinite
"""


@pytest.mark.parametrize("command,config,values", [
    ("force", GOLD_PLATE_CAVITY,
     {"force_s_N_per_m2": ("zero_term_value_s", -2.5e-4),
      "force_p_N_per_m2": ("zero_term_value_p", 1.25e-4)}),
    ("stress-profile", GOLD_TWO_WALL,
     {"t_zz_N_per_m2": ("zero_term_value", 3e-4)}),
], ids=["force", "stress-profile"])
def test_configured_zero_term_values_add_to_the_drop_result(
        tmp_path, capsys, command, config, values):
    # custom-value at T > 0 is the drop sum plus the configured m = 0
    # contribution, per polarization for a force, and a replay of its JSON
    # emission reproduces it.
    run = "\n[run]\ntemperature = 300\nzero_term_policy = {}\n"
    drop = _write(tmp_path, config + run.format("drop"), "drop.ini")
    custom = _write(tmp_path, config + run.format("custom-value") + "".join(
        f"{key} = {value!r}\n" for key, value in values.values()),
        "custom.ini")
    code, out, err = _run(capsys, [command, "--config", drop,
                                   "--format", "json"])
    assert code == 0, err
    base = json.loads(out)["results"]
    out_path = str(tmp_path / "custom.json")
    code, _, err = _run(capsys, [command, "--config", custom,
                                 "--out", out_path])
    assert code == 0, err
    first = open(out_path).read()
    rows = json.loads(first)["results"]
    assert len(rows) == len(base)
    for row, ref in zip(rows, base):
        assert row["converged"] and row["zero_term_policy"] == "custom-value"
        for column, (_, value) in values.items():
            assert row[column] - ref[column] == pytest.approx(value,
                                                              rel=1e-12)
    code, _, err = _run(capsys, [command, "--config", out_path])
    assert code == 0, err
    assert open(out_path).read() == first


def test_sweep_refuses_a_zero_term_request_before_integrating(
        tmp_path, capsys, replace_the_core):
    # 0 K is valid, the default half-weight is not at 150 K and 300 K.
    calls = replace_the_core()
    code, out, err = _run(capsys, [
        "sweep", "--config", _write(tmp_path, GOLD_PLATE_CAVITY),
        "--parameter", "T", "--start", "0", "--stop", "300", "--points", "3",
        "--spacing", "linear"])
    assert code == 2 and out == ""
    assert "sweep value 150.0" in err and "m = 0 thermal term is ambiguous" in err
    assert calls == []


def test_an_eps_sweep_compiles_one_plan_per_point(tmp_path, capsys,
                                                 monkeypatch):
    # The m = 0 pre-check reads the structure's plan once, so a sweep of
    # more points than engine._plan holds compiles each point's plan once,
    # plus the structure's; its rows are those of a cache that never evicts.
    argv = ["sweep", "--config", _write(tmp_path, GOLD_PLATE_CAVITY),
            "--parameter", "eps", "--start", "1.5", "--stop", "4",
            "--points", "20", "--temperature", "300",
            "--zero-term-policy", "drop", "--format", "csv"]
    engine._plan.cache_clear()
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    assert engine._plan.cache_info().misses <= 21
    keep = functools.lru_cache(maxsize=None)(Plan)
    monkeypatch.setattr(engine, "_plan", keep)
    monkeypatch.setattr(cli, "_plan", keep)
    assert _run(capsys, argv) == (0, out, err)
    assert keep.cache_info().misses == 21


@pytest.mark.parametrize("argv,needle", [
    (["--parameter", "T", "--start", "10", "--stop=-1"],
     "sweep value -1.0: temperature must be >= 0"),
    (["--parameter", "d1", "--start", "1e-6", "--stop=-1e-6"],
     "sweep value -1e-06: gap widths must be positive"),
], ids=["temperature", "gap"])
def test_sweep_checks_every_point_before_integrating(tmp_path, capsys,
                                                     monkeypatch, argv,
                                                     needle):
    # The first point is valid, the last is not: nothing may be integrated.
    calls = _no_integrals(monkeypatch)
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, err = _run(capsys, ["sweep", "--config", cfg, *argv,
                                   "--points", "2", "--spacing", "linear"])
    assert code == 2
    assert needle in err and out == ""
    assert calls == []


# A d sweep scales d1 and keeps d3/d1; here one gap is infinite.
HALF_OPEN_CAVITY = """
[material.vac]
kind = constant

[structure]
regions = wall:mirror, gap:vac:{d1}, plate:mirror, gap:vac:{d3}, wall:mirror
"""


def test_distance_sweep_refuses_an_infinite_d1(tmp_path, capsys,
                                               monkeypatch):
    # d3/d1 = 0 would make every point's d3 zero: refused before any point.
    calls = _no_integrals(monkeypatch)
    cfg = _write(tmp_path, HALF_OPEN_CAVITY.format(d1="inf", d3="1e-6"))
    code, out, err = _run(capsys, ["sweep", "--config", cfg, "--parameter",
                                   "d", "--start", "1e-6", "--stop", "2e-6",
                                   "--points", "2"])
    assert code == 2 and out == "" and calls == []
    assert "d1 is infinite" in err and "scales both gaps by d3/d1" in err
    assert "--parameter d1 or d3" in err


def test_distance_sweep_keeps_an_infinite_d3(tmp_path, capsys):
    # d3 = inf stays infinite: each point is the lone d1 gap's force.
    cfg = _write(tmp_path, HALF_OPEN_CAVITY.format(d1="1e-6", d3="inf"))
    code, out, err = _run(capsys, ["sweep", "--config", cfg, "--format",
                                   "csv", "--parameter", "d", "--start",
                                   "1e-6", "--stop", "2e-6", "--points", "2"])
    assert code == 0, err
    for row, d1 in zip(_rows(out), (1e-6, 2e-6), strict=True):
        assert float(row["value"]) == d1
        assert float(row["force_per_area_N_per_m2"]) == pytest.approx(
            -COEF / d1 ** 4, rel=1e-7)


# A half-space wall of material "hard" opposite a mirror plate and wall.
HARD_WALL_CAVITY = """
[material.vac]
kind = constant

[material.hard]
{hard}

[structure]
regions = wall:hard:semi-infinite, gap:vac:1e-6, plate:mirror, gap:vac:2e-6,
    wall:mirror

[run]
temperature = 300
"""


@pytest.mark.parametrize("hard", [
    "kind = plasma\nplasma_freq = 0",
    "kind = drude-lorentz\nplasma_freq = 0\nresonance_freq = 0",
], ids=["plasma", "drude-lorentz"])
def test_zero_strength_wall_gives_the_constant_wall_force(tmp_path, capsys,
                                                          hard):
    rows = []
    for text in (hard, "kind = constant"):
        cfg = _write(tmp_path, HARD_WALL_CAVITY.format(hard=text))
        code, out, err = _run(capsys, ["force", "--config", cfg,
                                       "--format", "csv"])
        assert code == 0 and err == ""
        rows.append(_rows(out))
    assert rows[0] == rows[1]


def test_infinite_material_parameter_exits_2_before_integrating(
        tmp_path, capsys, monkeypatch):
    calls = _no_integrals(monkeypatch)
    cfg = _write(tmp_path, HARD_WALL_CAVITY.format(
        hard="kind = constant\neps_static = inf"))
    code, out, err = _run(capsys, ["force", "--config", cfg])
    assert code == 2 and out == ""
    assert "config error: [material.hard]: eps_static" in err
    assert calls == []
