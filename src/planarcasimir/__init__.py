"""Casimir stress and force in planar magnetodielectric multilayers.

The stress inside filled interspaces is computed from the field-only
(Lorentz-force) form of the electromagnetic stress tensor, evaluated on the
imaginary frequency axis, with finite temperature available through the
standard bosonic frequency sum. The Minkowski-tensor prediction is kept
side by side so the two can be compared configuration by configuration.
"""

from .materials import (
    MIRROR,
    VACUUM,
    DispersionModel,
    MaterialKind,
    constant,
    drude_lorentz,
    is_drude_like,
    plasma,
)
from .layers import (
    CavityConfig,
    Layer,
    PerfectMirrorPlate,
    TransverseMode,
    Wall,
    wall_reflection,
)
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    integrate_semi_infinite,
    matsubara_sum,
)
from .engine import (
    ForceResult,
    InterspaceView,
    StressProfile,
    interspace,
    minkowski_plate_force,
    minkowski_stress_zz,
    plate_force,
    stress_profile,
    stress_zz,
)
from .limits import (
    StaticMedium,
    casimir_generalized,
    force_ratio,
    minkowski_generalized,
)
from .config import ConfigError, RunConfig, build_config, load_sections

__version__ = "0.1.0"

__all__ = [
    "MIRROR", "VACUUM", "DispersionModel", "MaterialKind", "constant",
    "drude_lorentz", "is_drude_like", "plasma",
    "CavityConfig", "Layer", "PerfectMirrorPlate", "TransverseMode",
    "Wall", "wall_reflection",
    "IntegralResult", "QuadratureSpec", "integrate_semi_infinite",
    "matsubara_sum",
    "ForceResult", "InterspaceView", "StressProfile", "interspace",
    "minkowski_plate_force", "minkowski_stress_zz", "plate_force",
    "stress_profile", "stress_zz",
    "StaticMedium", "casimir_generalized", "force_ratio",
    "minkowski_generalized",
    "ConfigError", "RunConfig", "build_config", "load_sections",
]
