"""Pseudospectral simulator for volume-constrained curvature flows of radial graphs."""

__version__ = "0.1.0"

from .errors import (
    AdmissibilityError,
    ConfigError,
    ConstraintDegenerateError,
    DecayFitError,
    DegreeOverflowError,
    FitConvergenceError,
    GridError,
    MixedFlowError,
    SnapshotError,
    SpectrumRangeError,
    SpeedError,
    StepRejectedError,
)
from .harmonics import (
    Grid,
    RadialField,
    build_grid,
    harmonic_multiplicity,
    total_coefficients,
)
from .geometry import CurvatureBundle, bundle_from_coeffs
from .speeds import SpeedSpec, eval_speed, reference_speed, umbilic_derivative
from .flow import (
    DiagnosticsRecord,
    FlowConfig,
    FlowProblem,
    FlowRun,
    FlowState,
    SpectrumReport,
    cfl_timestep,
    default_timestep,
    numerical_jacobian,
    run,
    stable_decay_rate,
)
from .analysis import (
    fit_decay_rate,
    fit_sphere,
    mixed_volume,
    project_center_coords,
    sphere_from_coords,
)
from .io import (
    InitSpec,
    ParsedConfig,
    parse_config,
    parse_config_text,
    random_band_field,
    read_snapshot,
    run_to_files,
    spectrum_to_file,
    write_snapshot,
)
from .presets import ExperimentResult, run_experiment
