"""Exception types shared across the package."""


class MixedFlowError(Exception):
    """Base class for all package-specific errors."""


class GridError(MixedFlowError):
    """Unsupported dimension, band limit, or oversampling request."""


class DegreeOverflowError(MixedFlowError):
    """Coefficient vector is not the grid's one layout: one-dimensional, of length Grid.size."""


class AdmissibilityError(MixedFlowError):
    """Radial graph leaves the admissible cone (R + rho must stay positive)."""


class ConstraintDegenerateError(MixedFlowError):
    """Denominator of the nonlocal constraint term is not positive."""


class SpeedError(MixedFlowError):
    """Speed function is malformed or fails the ellipticity check at the reference sphere."""


class StepRejectedError(MixedFlowError):
    """Time step failed; carries a suggested smaller step."""

    def __init__(self, message: str, suggested_dt: float | None = None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class FitConvergenceError(MixedFlowError):
    """Gauss-Newton sphere fit did not converge within the iteration cap."""


class DecayFitError(MixedFlowError):
    """Decay-rate fit window holds too few samples or a non-positive value."""


class SpectrumRangeError(MixedFlowError):
    """Requested Jacobian block lies outside the band limit or the supported size."""


class ConfigError(MixedFlowError):
    """Malformed experiment configuration; message names its source: line, override or preset."""


class SnapshotError(MixedFlowError):
    """Malformed snapshot file; message carries the offending line number."""
