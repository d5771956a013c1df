import json
import math

import numpy as np
import pytest
from scipy.constants import c, hbar

from planarcasimir.cli import main

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


@pytest.mark.parametrize("argv_tail,needle", [
    (["force"], "structure"),
    (["force", "--temperature", "cold"], "not a number"),
    (["sweep"], "structure"),
    (["limits", "--eps", "0.2"], "eps"),
    (["compare", "--d1", "1e-6"], "both"),
    (["compare", "--eps", "2,apple"], "not a number"),
    (["compare", "--mode", "quadrature"], "distances"),
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
    assert row["method"] == "exact-difference"
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


def test_force_method_override(tmp_path, capsys):
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, _ = _run(capsys, ["force", "--config", cfg, "--format", "csv",
                                 "--method", "direct-difference",
                                 "--rel-tol", "1e-7"])
    assert code == 0
    row = _rows(out)[0]
    assert row["method"] == "direct-difference"
    expected = COEF * ((50e-6) ** -4 - (1e-6) ** -4)
    assert float(row["force_per_area_N_per_m2"]) == pytest.approx(
        expected, rel=1e-6)


def test_truncated_thermal_sum_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, err = _run(capsys, ["force", "--config", cfg, "--format", "csv",
                                   "--temperature", "300",
                                   "--matsubara-terms", "2"])
    assert code == 3
    assert "did not reach" in err
    assert _rows(out)[0]["converged"] == "false"


def test_force_custom_zero_term_without_values_exits_2(tmp_path, capsys,
                                                       monkeypatch):
    calls = []
    monkeypatch.setattr("planarcasimir.engine.double_semi_infinite",
                        lambda *args, **kwargs: calls.append(args))
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
    # rel_tol below the noise floor of the inner integrals cannot be met.
    cfg = _write(tmp_path, TWO_WALL + """
[quadrature]
rel_tol = 1e-15
max_subdivisions = 8
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

def test_compare_closed_default_ratios(capsys):
    code, out, _ = _run(capsys, ["compare", "--format", "csv"])
    assert code == 0
    rows = _rows(out)
    assert [float(r["eps"]) for r in rows] == [1.0, 2.0, 4.0, 10.0]
    ratios = [float(r["ratio_minkowski_over_force"]) for r in rows]
    assert ratios[0] == pytest.approx(1.0, rel=1e-12)
    assert ratios[1] == pytest.approx(1.2, rel=1e-12)
    assert ratios[2] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert ratios[3] == pytest.approx(10.0 / 7.0, rel=1e-12)


def test_compare_ratio_saturates_below_three_halves(capsys):
    code, out, _ = _run(capsys, ["compare", "--format", "csv",
                                 "--eps", "1e6"])
    assert code == 0
    ratio = float(_rows(out)[0]["ratio_minkowski_over_force"])
    assert ratio == pytest.approx(1.5, rel=1e-5)
    assert ratio < 1.5


def test_compare_closed_with_distances(capsys):
    code, out, _ = _run(capsys, ["compare", "--format", "csv", "--eps", "4",
                                 "--d1", "5e-7", "--d3", "1.5e-6"])
    assert code == 0
    row = _rows(out)[0]
    f = float(row["force_per_area_N_per_m2"])
    fm = float(row["minkowski_force_N_per_m2"])
    assert fm / f == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert f < 0.0


def test_compare_quadrature_matches_closed_forms(capsys):
    code, out, _ = _run(capsys, ["compare", "--format", "csv", "--eps", "1,4",
                                 "--mode", "quadrature",
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
                                 "--mode", "quadrature",
                                 "--d1", "8e-7", "--d3", "8e-7"])
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["ratio_minkowski_over_force"] for r in rows] == [None, None]
    assert [r["force_per_area_N_per_m2"] for r in rows] == [0.0, 0.0]


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
    # No Minkowski column for magnetic media: the cell is empty, not fake.
    assert row["minkowski_force_N_per_m2"] == ""
    assert row["ratio_minkowski_over_force"] == ""


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
     {"eps": "2.0,4.0", "mode": "closed", "d1": "7e-07", "d3": "2.1e-06"}),
    (None, ["compare", "--eps", "2", "--mode", "quadrature", "--d1", "1e-6",
            "--d3", "3e-6"], {"eps": "2.0", "mode": "quadrature"}),
    (VACUUM_CAVITY, ["sweep", "--parameter", "d1", "--start", "8e-7",
                     "--stop", "2e-6", "--points", "3"],
     {"parameter": "d1", "start": "8e-07", "points": "3", "spacing": "log"}),
    (None, ["limits", "--eps", "2", "--mu", "1.5"],
     {"eps": "2.0", "mu": "1.5", "d1": "1e-06", "d3": "inf"}),
], ids=["force", "stress-profile", "compare-closed", "compare-quadrature",
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


@pytest.mark.parametrize("command,stored,key", [
    ("sweep", "parameter = x\nstart = 8e-7\nstop = 2e-6", "parameter"),
    ("sweep", "parameter = d1\nstart = 8e-7\nstop = 2e-6\nspacing = bogus",
     "spacing"),
    ("compare", "eps = 2\nmode = bogus", "mode"),
])
def test_stored_command_values_are_checked_before_integrating(
        tmp_path, capsys, monkeypatch, command, stored, key):
    # Values replayed from [command] never pass through argparse, so they
    # get the same choices as their flags, before any force is computed.
    calls = []
    monkeypatch.setattr("planarcasimir.cli.plate_force",
                        lambda *args, **kwargs: calls.append(args))
    cfg = _write(tmp_path, VACUUM_CAVITY
                 + f"\n[command]\nname = {command}\n{stored}\n")
    code, _, err = _run(capsys, [command, "--config", cfg,
                                 "--temperature", "1"])
    assert code == 2
    assert f"[command] {key}:" in err and "is not one of" in err
    assert calls == []


def test_stored_number_is_checked_before_integrating(tmp_path, capsys,
                                                     monkeypatch):
    calls = []
    monkeypatch.setattr("planarcasimir.cli.plate_force",
                        lambda *args, **kwargs: calls.append(args))
    cfg = _write(tmp_path, VACUUM_CAVITY + "\n[command]\nname = sweep\n"
                 "parameter = d1\nstart = apple\nstop = 2e-6\n")
    code, _, err = _run(capsys, ["sweep", "--config", cfg])
    assert code == 2
    assert "[command] start: 'apple' is not a number" in err
    assert calls == []


@pytest.mark.parametrize("target", ["nodir/x.json", "adir"])
def test_unwritable_output_exits_2_before_integrating(tmp_path, capsys,
                                                      monkeypatch, target):
    calls = []
    monkeypatch.setattr("planarcasimir.cli.plate_force",
                        lambda *args, **kwargs: calls.append(args))
    cfg = _write(tmp_path, VACUUM_CAVITY)
    (tmp_path / "adir").mkdir()
    out_path = str(tmp_path / target)
    code, _, err = _run(capsys, ["force", "--config", cfg, "--out", out_path])
    assert code == 2
    assert f"[output] path: cannot write a file at {out_path!r}" in err
    assert calls == []


@pytest.mark.parametrize("flags,named", [
    (["--d1", "2e-6", "--d3", "3e-6"], "--d1/--d3"),
    (["--mode", "closed"], "--mode closed"),
], ids=["d1-d3", "mode-closed"])
def test_compare_on_configured_cavity_rejects_ignored_flags(
        tmp_path, capsys, flags, named):
    # Without --eps, compare runs quadrature on the cavity's own gaps, so
    # these flags would silently do nothing.
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, err = _run(capsys, ["compare", "--config", cfg, *flags])
    assert code == 2
    assert named in err and out == ""


@pytest.mark.parametrize("argv", [
    ["compare", "--eps", "2"],
    ["compare", "--eps", "2", "--d1", "1e-6", "--d3", "5e-6"],
    ["limits"],
], ids=["compare", "compare-distances", "limits"])
def test_closed_forms_refuse_a_nonzero_temperature(capsys, argv):
    # The closed forms are 0 K results; labelling them 300 K would be wrong.
    code, out, err = _run(capsys, argv + ["--temperature", "300"])
    assert code == 2
    assert "0 K" in err and "compare --mode quadrature" in err
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
    (["force"], VACUUM_CAVITY.replace("constant", "constant\neps_static = nan"),
     "[material.vac] eps_static"),
    (["force"], VACUUM_CAVITY.replace("gap:vac:1e-6", "gap:vac:nan"),
     "'gap:vac:nan'"),
    (["force", "--temperature", "300"], VACUUM_CAVITY
     + "\n[run]\nzero_term_policy = custom-value\nzero_term_value_s = inf"
     "\nzero_term_value_p = 0\n", "[run] zero_term_value_s"),
    (["sweep", "--parameter", "T", "--start", "1", "--stop", "inf"],
     VACUUM_CAVITY, "finite range"),
], ids=["limits-d1", "compare-eps", "temperature-nan", "temperature-inf",
        "q-cutoff-inf", "abs-floor", "eps-static", "gap-width",
        "zero-term-value-inf", "sweep-stop-inf"])
def test_non_finite_inputs_exit_2_before_integrating(
        tmp_path, capsys, monkeypatch, argv, config, needle):
    calls = []
    monkeypatch.setattr("planarcasimir.cli.plate_force",
                        lambda *args, **kwargs: calls.append(args))
    if config is not None:
        argv = argv + ["--config", _write(tmp_path, config)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert needle in err and out == ""
    assert calls == []


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


def test_sweep_refuses_a_zero_term_request_before_integrating(
        tmp_path, capsys, monkeypatch):
    # 0 K is valid, the default half-weight is not at 150 K and 300 K.
    calls = []
    monkeypatch.setattr("planarcasimir.engine.double_semi_infinite",
                        lambda *args, **kwargs: calls.append(args))
    code, out, err = _run(capsys, [
        "sweep", "--config", _write(tmp_path, GOLD_PLATE_CAVITY),
        "--parameter", "T", "--start", "0", "--stop", "300", "--points", "3",
        "--spacing", "linear"])
    assert code == 2 and out == ""
    assert "sweep value 150.0" in err and "m = 0 thermal term is ambiguous" in err
    assert calls == []


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
    calls = []
    monkeypatch.setattr("planarcasimir.cli.plate_force",
                        lambda *args, **kwargs: calls.append(args))
    cfg = _write(tmp_path, VACUUM_CAVITY)
    code, out, err = _run(capsys, ["sweep", "--config", cfg, *argv,
                                   "--points", "2", "--spacing", "linear"])
    assert code == 2
    assert needle in err and out == ""
    assert calls == []


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
    calls = []
    monkeypatch.setattr("planarcasimir.cli.plate_force",
                        lambda *args, **kwargs: calls.append(args))
    cfg = _write(tmp_path, HARD_WALL_CAVITY.format(
        hard="kind = constant\neps_static = inf"))
    code, out, err = _run(capsys, ["force", "--config", cfg])
    assert code == 2 and out == ""
    assert "config error: [material.hard]: eps_static" in err
    assert calls == []
