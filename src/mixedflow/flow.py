"""Volume-constrained curvature flow of radial graphs.

The evolution moves the height field rho at the rate

    G(rho) = graph_factor * (h - F(kappa)),

where F is the configured speed and h is the spatial constant that keeps
one mixed volume fixed: the ratio of the E_{k+1}-weighted surface integrals
of F and 1.  The constant-h structure makes round spheres stationary points
of every admissible flow, and the linearization at the reference sphere is
diagonal in the harmonic basis with per-degree rate

    -F'(kappa_0) (l - 1)(l + n) / R^2   (degree l >= 2),

and 0 on degrees 0 and 1, the n + 2 neutral centre modes.  That table is
`FlowProblem.linear_diag`, built from `stable_decay_rate` alone.

`FlowProblem.step` takes one step of classical fourth-order Runge-Kutta
(rk4), whose step the stiffest of those rates bounds: that parabolic
bound, `cfl_timestep`, is a run's step unless the config sets dt.  A config
may name `imex` instead, a first-order scheme that treats the diagonal
implicitly and the remainder explicitly; it remains only for the two
benchmark workloads that name it with their own dt, until ROADMAP item 1
retargets them to rk4.  Every velocity evaluation re-truncates to the band
limit, so quadratic interactions that the oversampled grid resolves are
projected back exactly.  `run` analyses a record's velocity only for a step
from it.  `numerical_jacobian` checks that linearization by a
fourth-order difference stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .errors import (AdmissibilityError, ConstraintDegenerateError, MixedFlowError,
                     SpectrumRangeError, SpeedError, StepRejectedError)
from .geometry import BundleWorkspace, CurvatureBundle, bundle_from_coeffs, principal_curvatures
from .harmonics import L_MAX_MAX, L_MAX_MIN, RadialField, build_grid, total_coefficients
from .speeds import SpeedSpec, eval_speed, is_number, umbilic_derivative

_INTEGRATORS = ("imex", "rk4")
# Fraction of the parabolic stability limit that the explicit integrator may use.
_C_CFL = 0.5
_CFL_SLACK = 1e-12  # relative slack of every check of an rk4 dt against that limit
_SUP_G_CONVERGED = 1e-10  # a record with sup |G| at most this ends the run as converged
# Failures of a velocity evaluation that `step` reports as a rejected step.
_STAGE_ERRORS = (AdmissibilityError, ConstraintDegenerateError, SpeedError)
_JACOBIAN_STEP = 1e-5  # relative to R
_JACOBIAN_MAX_DIM = 400


@dataclass(frozen=True)
class FlowConfig:
    """Everything that determines one flow problem and how it is stepped."""

    n: int = 2
    R: float = 1.0
    k: int = -1
    speed: SpeedSpec | None = None
    integrator: str = "rk4"
    dt: float | None = None
    T: float = 1.0
    L_max: int = 16
    cadence: int = 10

    def __post_init__(self):
        for name in ("n", "k", "L_max", "cadence"):
            if not is_number(value := getattr(self, name), int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("R", "T") if self.dt is None else ("R", "T", "dt"):
            if not is_number(value := getattr(self, name), float):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")
        if not L_MAX_MIN <= self.L_max <= L_MAX_MAX:
            raise ValueError(f"L_max must lie in [{L_MAX_MIN}, {L_MAX_MAX}], got {self.L_max}")
        if not -1 <= self.k <= self.n - 1:
            raise ValueError(f"k = {self.k} is outside [-1, {self.n - 1}] for n = {self.n}")
        if self.integrator not in _INTEGRATORS:
            raise ValueError(f"integrator must be one of {_INTEGRATORS}, got {self.integrator!r}")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.cadence < 1:
            raise ValueError("cadence must be a positive step count")
        if self.speed is None:
            object.__setattr__(self, "speed", SpeedSpec("mean", n=self.n, R=self.R))
        if self.speed.n != self.n or self.speed.R != self.R:
            raise ValueError("speed was built for a different dimension or radius")
        try:
            bound = cfl_timestep(self)
        except OverflowError:  # R ** 2 is beyond the float range
            bound = math.inf
        if not 0.0 < bound < math.inf:
            raise ValueError(f"R={self.R!r} gives no positive finite step bound")
        if self.integrator == "rk4" and (self.dt or 0.0) > bound * (1.0 + _CFL_SLACK):
            raise ValueError(f"rk4 dt={self.dt:.3e} exceeds the parabolic bound {bound:.3e}")
        if not math.isfinite(self.T / (dt := default_timestep(self))):
            raise ValueError(f"T={self.T!r} over dt={dt!r} is not a finite number of steps")


@dataclass(frozen=True)
class FlowState:
    """Flow time and height field; a run's diagnostics live in its records."""

    t: float
    rho: RadialField


@dataclass(frozen=True, slots=True)
class DiagnosticsRecord:
    """Figures of one recorded state: scalars and the (L_max + 1) degree energies.

    Its fields, in order, are the columns of run.csv, which `io.csv_lines`
    writes: a field added here is a column there.  mode_energy is written
    at degrees 2..8, one column each.  center_norm is the norm of the
    degree-0 and degree-1 coefficients, the neutral centre modes, taken as
    the root of those two mode energies, and kappa_min, kappa_max bound
    the principal curvatures over the nodes.
    A record keeps no coefficients; a run's only coefficient state is its
    `FlowRun.final`, so a record costs O(L_max) memory, not O(L_max^2).
    """

    t: float
    h_k: float
    V: float
    sup_G: float
    sup_rho: float
    sphere_residual_sup: float
    mode_energy: np.ndarray
    center_norm: float
    kappa_min: float
    kappa_max: float


@dataclass(frozen=True)
class FlowRun:
    """Outcome of `run`: status is reached_T, converged or failed.

    `final` is the state of the last record and the run's only coefficient
    state; the records hold figures only.
    """

    status: str
    records: list[DiagnosticsRecord]
    final: FlowState
    error: MixedFlowError | None = None  # what ended a failed run


def stable_decay_rate(speed: SpeedSpec, l: int | np.ndarray) -> float | np.ndarray:
    """Linear-theory decay rate of a degree-l perturbation: F'(l - 1)(l + n) / R^2
    for l >= 2, and 0 on degrees 0 and 1, the centre spanned by the nearby
    spheres (a change of radius and the n + 1 translations).

    For an array of degrees the rate is taken elementwise.
    """
    return umbilic_derivative(speed) * (l > 1) * (l - 1.0) * (l + speed.n) / speed.R ** 2


def cfl_timestep(config: FlowConfig) -> float:
    """Parabolic step bound of rk4, 0.5 R^2 / (F' L (L + n - 1)); every run's default step."""
    L = config.L_max
    return _C_CFL * config.R ** 2 / (umbilic_derivative(config.speed) * L * (L + config.n - 1))


def default_timestep(config: FlowConfig) -> float:
    """The configured dt, or the parabolic bound when dt is unset, whatever the integrator."""
    return cfl_timestep(config) if config.dt is None else config.dt


class FlowProblem:
    """Precomputed engine for one configuration: grid, tables, linear rates.

    `linear_diag` is the linearization's diagonal in the flat layout,
    -stable_decay_rate of each slot's degree: 0 on degrees 0 and 1.  imex
    steps with it and `numerical_jacobian` reports it as the analytic
    spectrum.

    `step` advances coefficients with the configured integrator, and `run`
    drives it.  Every evaluation, of a stage or a record, goes through
    velocity_values, and nothing is kept from one to the next.  Its bundle
    is computed into one workspace built here, so a bundle's arrays hold
    only until the next evaluation on the same problem.  A diagnostics
    record reuses the workspace once its bundle is consumed (G, h and V
    taken): the curvature range and then the sphere fit write into the
    bundle's arrays.  The G that velocity_values returns, and so the one
    that diagnostics returns, is a fresh array and keeps its values.
    """

    def __init__(self, config: FlowConfig):
        self.config = config
        self.grid = build_grid(config.n, config.L_max)
        self._rk4_bound = cfl_timestep(config)
        # 0.0 - keeps +0.0, not -0.0, on the neutral degrees 0 and 1.
        diag = 0.0 - stable_decay_rate(config.speed, self.grid.degrees)
        diag.flags.writeable = False
        self.linear_diag = diag
        self._work = BundleWorkspace(self.grid)

    # -- velocity -----------------------------------------------------------

    def velocity_values(self, coeffs: np.ndarray) -> tuple[np.ndarray, float, CurvatureBundle]:
        """Grid values of G, the constraint constant h and the bundle they come from.

        The constraint weight and F * weight go into the workspace's scratch
        array, which the bundle leaves free; G is fresh.
        """
        bundle = bundle_from_coeffs(self.grid, self.config.R, coeffs, self._work)
        F = eval_speed(self.config.speed, bundle.E)
        weight = np.multiply(bundle.E[self.config.k + 1], bundle.mu, out=self._work.scratch)
        den = self.grid.integrate(weight)
        if not den > 0.0:
            raise ConstraintDegenerateError(
                f"constraint weight integral is not positive ({den:.3e})")
        h = self.grid.integrate(np.multiply(F, weight, out=weight)) / den
        G = np.subtract(h, F)
        G *= bundle.graph_factor
        if not np.all(np.isfinite(G)):
            raise AdmissibilityError("velocity field contains non-finite values")
        return G, h, bundle

    def g_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Velocity in coefficient space, truncated to the band limit."""
        return self.grid.analyze(self.velocity_values(coeffs)[0])

    # -- stepping -------------------------------------------------------------

    def step(self, coeffs: np.ndarray, dt: float, g0: np.ndarray | None = None) -> np.ndarray:
        """Coefficients one step of length dt later, under the configured integrator.

        coeffs is a full-length vector (Grid.size): one of another length or
        shape is a DegreeOverflowError, raised before any arithmetic whether
        or not g0 is given.  g0, the velocity at coeffs in coefficient space
        if known, replaces the first stage's evaluation; it is checked the
        same way, so it is never broadcast.  A dt that is not
        positive and finite is a ValueError, raised before any evaluation.
        No smaller dt cures either fault, so neither is a StepRejectedError.
        rk4 then checks dt against the parabolic bound.  A dt above it, a
        failed velocity evaluation or a non-finite result raises
        StepRejectedError with a suggested smaller dt.
        """
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        coeffs = self.grid._checked(coeffs)
        rk4 = self.config.integrator == "rk4"
        bound = self._rk4_bound
        if rk4 and dt > bound * (1.0 + _CFL_SLACK):
            raise StepRejectedError(
                f"dt={dt:.3e} exceeds the parabolic bound {bound:.3e}", suggested_dt=bound)
        try:
            g = self.g_coeffs(coeffs) if g0 is None else self.grid._checked(g0)
            if rk4:
                k2 = self.g_coeffs(coeffs + 0.5 * dt * g)
                k3 = self.g_coeffs(coeffs + 0.5 * dt * k2)
                k4 = self.g_coeffs(coeffs + dt * k3)
                out = coeffs + (dt / 6.0) * (g + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                d = self.linear_diag
                out = (coeffs + dt * (g - d * coeffs)) / (1.0 - dt * d)
        except _STAGE_ERRORS as exc:
            raise StepRejectedError(f"stage failed: {exc}", suggested_dt=0.5 * dt) from exc
        if not np.all(np.isfinite(out)):
            raise StepRejectedError("step produced non-finite coefficients", suggested_dt=0.5 * dt)
        return out

    # -- diagnostics ------------------------------------------------------------

    def diagnostics(self, t: float, coeffs: np.ndarray) -> tuple[DiagnosticsRecord, np.ndarray]:
        """The record of the state coeffs at time t, and the grid values G of its velocity.

        One velocity evaluation serves both.  The record's field is r - R from the bundle's
        radius r, exact (Sterbenz) wherever the sphere fit runs, so the fit reads r itself.
        The record keeps no reference to coeffs: its mode energies are read from them here,
        and its center norm from those energies.
        """
        R = self.config.R
        G, h, bundle = self.velocity_values(coeffs)
        rho = RadialField(self.grid, R, values=np.subtract(bundle.radius, R,
                                                           out=self._work.scratch))
        V = analysis.mixed_volume(rho, self.config.k, bundle=bundle)
        # With G, h and V taken, the bundle is consumed: its curvature range
        # and then the sphere fit reuse the workspace.  kappa is largest first.
        kappa = principal_curvatures(bundle, self._work.kappa_buffers)
        kmin = float(np.min(kappa[-1]))
        kmax = float(np.max(kappa[0]))
        try:
            _, residual = analysis.fit_sphere(rho, self._work)
            res_sup = float(np.max(np.abs(residual, out=residual)))
        except MixedFlowError:
            res_sup = float("nan")
        energy = self.grid.mode_energies(coeffs)
        record = DiagnosticsRecord(
            t=t,
            h_k=h,
            V=V,
            sup_G=float(np.max(np.abs(G))),
            sup_rho=rho.sup_abs(),
            sphere_residual_sup=res_sup,
            mode_energy=energy,
            center_norm=math.sqrt(energy[0] + energy[1]),
            kappa_min=kmin,
            kappa_max=kmax,
        )
        return record, G


def run(config: FlowConfig, rho0: RadialField, problem: FlowProblem) -> FlowRun:
    """Evolve rho0 under `problem` until time T or until sup |G| of a record drops to 1e-10.

    `problem` must be built from `config`, and rho0 must live on its grid
    over the sphere of radius config.R; anything else is a ValueError.  The
    run takes ceil(T/dt) steps; when T is not a whole number of steps (to a
    relative 1e-9 of a step), the last one is shortened to end at T.
    Diagnostics are recorded at t = 0, every `cadence` steps, and at the
    final state.  Each record evaluates the curvature and velocity of its
    state once and returns the velocity's grid values; when a step starts
    from that state, it is analysed into that step's first stage.
    An initial field whose band-limited state is not a graph, or on which
    the velocity cannot be evaluated, is rejected with AdmissibilityError
    by its t = 0 record, before any step.
    A rejected step, or a later state whose record cannot be evaluated,
    ends the run with status "failed": it keeps the records so far, its
    final state is the last recorded one and `error` holds the cause.
    Records keep no coefficients: the run holds the coefficients of its
    latest record, which `step` never writes to, and `final` is built
    from them.
    """
    if problem.config != config:
        raise ValueError("problem was built for a different configuration")
    if rho0.grid is not problem.grid:
        raise ValueError("initial field lives on a different grid")
    if rho0.R != config.R:
        raise ValueError(f"initial field lives over radius {rho0.R!r}, not R={config.R!r}")
    dt = default_timestep(config)
    n_steps = max(1, math.ceil(config.T / dt - 1e-9))
    whole = n_steps - config.T / dt <= 1e-9
    coeffs = rho0.coeffs.copy()
    try:
        rec, G = problem.diagnostics(0.0, coeffs)
    except _STAGE_ERRORS as exc:
        raise AdmissibilityError(f"initial field is outside the flow's domain: {exc}") from exc
    records, recorded = [rec], coeffs
    status, error = "reached_T", None
    if rec.sup_G <= _SUP_G_CONVERGED:
        status = "converged"
        n_steps = 0
    try:
        for step_no in range(1, n_steps + 1):
            step_dt = dt if step_no < n_steps or whole else config.T - (n_steps - 1) * dt
            g0 = None if G is None else problem.grid.analyze(G)
            G = None
            coeffs = problem.step(coeffs, step_dt, g0=g0)
            # The last step ends at T, also when n_steps * dt is T only to 1e-9.
            t = config.T if step_no == n_steps else step_no * dt
            if step_no % config.cadence == 0 or step_no == n_steps:
                rec, G = problem.diagnostics(t, coeffs)
                records.append(rec)
                recorded = coeffs
                if rec.sup_G <= _SUP_G_CONVERGED:
                    status = "converged"
                    break
    except (StepRejectedError, *_STAGE_ERRORS) as exc:
        status, error = "failed", exc
    final = FlowState(t=records[-1].t, rho=RadialField(problem.grid, config.R, coeffs=recorded))
    return FlowRun(status=status, records=records, final=final, error=error)


@dataclass(frozen=True, kw_only=True)
class SpectrumRow:
    """One degree of a spectrum report; its fields, in order, are the columns of spectrum.csv."""

    l: int
    lambda_analytic: float
    lambda_numeric: float
    multiplicity: int
    offdiag_max: float


@dataclass(frozen=True)
class SpectrumReport:
    rows: list[SpectrumRow]
    center_dimension: int
    lambda_max_abs: float
    zero_multiplicity_numeric: int
    symmetry_defect: float
    max_offdiagonal: float


def numerical_jacobian(config: FlowConfig, l_max: int) -> tuple[np.ndarray, SpectrumReport]:
    """Fourth-order difference Jacobian of the velocity map at the round sphere.

    Column j is (8 (g(h e_j) - g(-h e_j)) - (g(2h e_j) - g(-2h e_j))) / (12 h)
    at h = 1e-5 R, an O(h^4) stencil: the O(h^2) error of a central
    difference alone exceeds the 1e-7 symmetry gate at L_max = 16.  The matrix is
    restricted to degrees <= l_max (1 <= l_max <= L_max, at most 400 columns),
    which occupy the leading block of the flat layout.  Each report row puts a
    degree's analytic eigenvalue, its `FlowProblem.linear_diag` entry, beside
    the mean of its Jacobian diagonal entries and its worst off-diagonal
    entry; its multiplicity is the degree's slot count in the layout.  The
    report adds the near-null dimension.
    """
    if not 1 <= l_max <= config.L_max:
        raise SpectrumRangeError(
            f"l_max={l_max} is outside [1, {config.L_max}], the configured band limit")
    D = total_coefficients(l_max, config.n)
    if D > _JACOBIAN_MAX_DIM:
        raise SpectrumRangeError(
            f"Jacobian dimension {D} at l_max={l_max} is above the supported {_JACOBIAN_MAX_DIM}")
    prob = FlowProblem(config)
    h = _JACOBIAN_STEP * config.R
    J = np.empty((D, D))
    e = np.zeros(prob.grid.size)
    for j in range(D):
        e[j] = 1.0
        g = [prob.g_coeffs(step * e)[:D] for step in (h, -h, 2.0 * h, -2.0 * h)]
        e[j] = 0.0
        J[:, j] = (8.0 * (g[0] - g[1]) - (g[2] - g[3])) / (12.0 * h)

    degrees = prob.grid.degrees[:D]
    offmask = ~np.eye(D, dtype=bool)
    rows = []
    for l in range(l_max + 1):
        sel = degrees == l
        rows.append(SpectrumRow(
            l=l, lambda_analytic=float(prob.linear_diag[prob.grid.flat_index(l, 1)]),
            multiplicity=int(np.count_nonzero(sel)),
            lambda_numeric=float(np.mean(np.diag(J)[sel])),
            offdiag_max=float(np.max(np.abs(J[:, sel][offmask[:, sel]])))))
    lam_max = max(abs(row.lambda_analytic) for row in rows)
    sym = float(np.max(np.abs(J - J.T)))
    eigs = np.linalg.eigvalsh(0.5 * (J + J.T))
    zero_mult = int(np.sum(np.abs(eigs) <= 1e-6 * max(lam_max, 1.0)))
    report = SpectrumReport(rows=rows, center_dimension=config.n + 2,
                            lambda_max_abs=lam_max,
                            zero_multiplicity_numeric=zero_mult,
                            symmetry_defect=sym,
                            max_offdiagonal=float(np.max(np.abs(J[offmask]))))
    return J, report
