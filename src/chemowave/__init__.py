"""Travelling waves of a discrete-velocity kinetic chemotaxis model.

The library constructs stationary wave profiles as Case-mode expansions,
solves the coupled chemoattractant/nutrient fields, locates admissible wave
speeds as downward zero crossings of the matching function Upsilon(c), and
simulates the full time-dependent problem with a conservative splitting
scheme.
"""

__version__ = "0.1.0"

from .cauchy_sim import (
    FrontDiagnostics,
    InitialDensity,
    SimConfig,
    SimState,
    Snapshot,
    initial_state,
    measure_front_speed,
    run,
    step,
    total_mass,
)
from .chemo_fields import (
    ChemParams,
    NField,
    locate_maximum,
    s_slope_at_zero,
    slope_sign_changes,
    solve_N,
    solve_S,
)
from .dispersion import (
    DispersionRoots,
    dispersion_residual,
    singular_values,
    solve_roots,
)
from .velocity_model import (
    SpeedInterval,
    TumblingRates,
    VelocityModel,
    admissible_speed_interval,
    build_model,
    cutting_index,
    expand_half_set,
    mean_run_length,
)
from .wave_profile import (
    PiecewiseExponential,
    WaveProfile,
    b_via_orthogonality,
    duhamel_f,
    evaluate_f_matrix,
    evaluate_I,
    evaluate_I_derivative,
    per_mode_mass,
    solve_modes,
    verification_grid,
)
from .wave_speed import (
    UpsilonCurve,
    refine_roots,
    scan,
    upsilon,
    verify_root,
)

__all__ = [
    "ChemParams",
    "DispersionRoots",
    "FrontDiagnostics",
    "InitialDensity",
    "NField",
    "PiecewiseExponential",
    "SimConfig",
    "SimState",
    "Snapshot",
    "SpeedInterval",
    "TumblingRates",
    "UpsilonCurve",
    "VelocityModel",
    "WaveProfile",
    "__version__",
    "admissible_speed_interval",
    "b_via_orthogonality",
    "build_model",
    "cutting_index",
    "dispersion_residual",
    "duhamel_f",
    "evaluate_I",
    "evaluate_I_derivative",
    "evaluate_f_matrix",
    "expand_half_set",
    "initial_state",
    "locate_maximum",
    "mean_run_length",
    "measure_front_speed",
    "per_mode_mass",
    "refine_roots",
    "run",
    "s_slope_at_zero",
    "scan",
    "singular_values",
    "slope_sign_changes",
    "solve_N",
    "solve_S",
    "solve_modes",
    "solve_roots",
    "step",
    "total_mass",
    "upsilon",
    "verification_grid",
    "verify_root",
]
