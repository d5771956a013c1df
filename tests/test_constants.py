import os
import subprocess
import sys

import pytest
import scipy.constants

import planarcasimir
from planarcasimir import constants

SRC = os.path.dirname(os.path.dirname(os.path.abspath(planarcasimir.__file__)))

MIRROR_CAVITY = """
[material.vac]
kind = constant

[structure]
regions = wall:mirror, gap:vac:1e-6, plate:mirror, gap:vac:3e-6, wall:mirror
"""


@pytest.mark.parametrize("name", ["c", "hbar", "Boltzmann"])
def test_constants_equal_scipy_bit_for_bit(name):
    assert getattr(constants, name).hex() == getattr(scipy.constants, name).hex()


@pytest.mark.parametrize("argv", [
    ["limits", "--eps", "2", "--d1", "1e-6"],
    ["force", "--config", "cavity.ini", "--rel-tol", "1e-6"],
], ids=["limits", "force"])
def test_command_line_runs_with_scipy_blocked(tmp_path, argv):
    (tmp_path / "cavity.ini").write_text(MIRROR_CAVITY)
    # A None entry in sys.modules makes every scipy import fail.
    script = ("import sys; sys.modules['scipy'] = None;"
              " from planarcasimir.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", script, *argv],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "force_per_area_N_per_m2" in done.stdout
