"""Named experiments with built-in pass/fail expectations.

Each preset fixes a full flow configuration, deterministic initial data,
and the checks its summary reports.  Settings use the same key = value
grammar as config files, so command-line overrides go through the same
validation; the zero-modes preset builds its initial data directly (a small
constant plus degree-1 combination is not a single grammar item).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import fit_decay_rate, fit_sphere
from .errors import ConfigError, DecayFitError, FitConvergenceError
from .flow import FlowRun, numerical_jacobian, stable_decay_rate
from .harmonics import SPHERE_AREA, Grid, RadialField
from .io import (
    ParsedConfig,
    config_echo,
    parse_config_text,
    resolve_out_dir,
    run_to_files,
    write_lines,
)
from .speeds import reference_speed


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"check {self.name}: value={self.value!r} "
                f"<= threshold={self.threshold!r} -> {status}")


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    passed: bool
    checks: list[CheckResult]
    out_dir: str
    files: tuple[str, ...]
    status: str


def _check_le(name: str, value: float, threshold: float) -> CheckResult:
    ok = bool(np.isfinite(value)) and value <= threshold
    return CheckResult(name, float(value), float(threshold), ok)


def _zero_mode_init(grid: Grid, R: float) -> RadialField:
    omega = grid.directions()
    combo = 0.4 * np.ones(grid.shape) + 0.5 * omega[0] - 0.3 * omega[1]
    if grid.n == 2:
        combo = combo + 0.2 * omega[2]
    return RadialField(grid, R, values=1e-3 * R * combo)


_PRESET_SETTINGS: dict[str, str] = {
    "stationarity": "n = 2\nR = 1\nk = -1\nspeed = mean\nintegrator = imex\n"
                    "T = 0.05\nL_max = 16\ninit = const:0.2\ncadence = 1",
    "linear-decay": "n = 2\nR = 1\nk = -1\nspeed = mean\nintegrator = imex\n"
                    "dt = 1e-4\nT = 1\nL_max = 8\ninit = harmonic:2,1,1e-4\ncadence = 10",
    "zero-modes": "n = 2\nR = 1\nk = -1\nspeed = mean\nintegrator = imex\n"
                  "dt = 1e-3\nT = 2\nL_max = 8\ncadence = 10",
    "conservation": "n = 2\nR = 1\nk = 0\nspeed = mean\nintegrator = rk4\n"
                    "dt = 1e-4\nT = 0.5\nL_max = 24\ninit = random:0.05,6,42\ncadence = 50",
    "nonlinear-convergence": "n = 2\nR = 1\nk = -1\nspeed = mean\nintegrator = rk4\n"
                             "dt = 1e-3\nT = 3\nL_max = 16\ninit = random:0.05,6,42\ncadence = 10",
    "spectrum": "n = 2\nR = 1\nk = -1\nspeed = mean\nL_max = 8",
}

# Presets whose initial data is built directly, unless init is overridden:
# (builder, summary label).
_INIT_OVERRIDES = {"zero-modes": (_zero_mode_init, "zero-mode combination, amplitude 1e-3")}

PRESET_NAMES = tuple(_PRESET_SETTINGS)


def _preset_config(name: str, overrides: dict[str, str]) -> ParsedConfig:
    """A preset's settings with the overrides applied, parsed and validated."""
    if name not in _PRESET_SETTINGS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    pairs: dict[str, str] = {}
    for line in _PRESET_SETTINGS[name].splitlines():
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()
    pairs.update(overrides)
    return parse_config_text("\n".join(f"{k} = {v}" for k, v in pairs.items()))


# -- expectations ---------------------------------------------------------------


def _checks_stationarity(parsed: ParsedConfig, out: FlowRun) -> list[CheckResult]:
    tol = 1e-10 * reference_speed(out.config.speed)
    sup = max(r.sup_G for r in out.records)
    return [_check_le("sup_G_on_sphere", sup, tol)]


def _decay_degree(parsed: ParsedConfig) -> int:
    """The degree linear-decay fits: a harmonic init's, else 2; 0 and 1 do not decay."""
    l = parsed.init.params[0] if parsed.init.kind == "harmonic" else 2
    if l < 2:
        raise ConfigError(f"linear-decay needs an init degree of at least 2, got {l}")
    return l


def _checks_linear_decay(parsed: ParsedConfig, out: FlowRun) -> list[CheckResult]:
    l = _decay_degree(parsed)
    target = stable_decay_rate(out.config.speed, l)
    ts = [r.t for r in out.records]
    amps = [math.sqrt(r.mode_energy[l]) for r in out.records]
    rate = -fit_decay_rate(ts, amps)
    return [_check_le("decay_rate_relative_error", abs(rate - target) / target, 1e-2)]


def _checks_zero_modes(parsed: ParsedConfig, out: FlowRun) -> list[CheckResult]:
    cfg = out.config
    ts = [r.t for r in out.records]
    amps = [r.center_norm for r in out.records]
    rate = abs(fit_decay_rate(ts, amps))
    tol = 1e-3 * (cfg.n + 2) / cfg.R ** 2
    final_res = out.records[-1].sphere_residual_sup
    return [_check_le("zero_mode_rate", rate, tol),
            _check_le("final_sphere_residual", final_res, 1e-8)]


def _checks_conservation(parsed: ParsedConfig, out: FlowRun) -> list[CheckResult]:
    V0 = out.records[0].V
    drift = max(abs(r.V - V0) for r in out.records) / abs(V0)
    return [_check_le("relative_V_drift", drift, 1e-6)]


def _checks_nonlinear(parsed: ParsedConfig, out: FlowRun) -> list[CheckResult]:
    cfg = out.config
    res = np.array([r.sphere_residual_sup for r in out.records])
    ts = np.array([r.t for r in out.records])
    peak = int(np.argmax(res))
    tail = res[peak:]
    # Allow roundoff-sized upticks once the residual reaches its floor.
    floor = 1e-12 * cfg.R
    bumps = np.diff(tail) - 1e-6 * tail[:-1] - floor
    monotone = float(np.max(bumps)) if bumps.size else 0.0
    rate = -fit_decay_rate(ts, res)
    target = stable_decay_rate(cfg.speed, 2)
    zfit, _ = fit_sphere(out.final.rho)
    r_fit = cfg.R + float(zfit[0])
    V_fit = SPHERE_AREA[cfg.n] * r_fit ** (cfg.n - cfg.k) / (cfg.n + 1)
    V0 = out.records[0].V
    return [
        _check_le("residual_monotone_defect", monotone, 0.0),
        _check_le("tail_rate_relative_error", abs(rate - target) / target, 0.10),
        _check_le("fitted_sphere_V_relative_error", abs(V_fit - V0) / abs(V0), 1e-4),
    ]


def _spectrum_files(parsed: ParsedConfig, out_dir: str) -> tuple[list[CheckResult], tuple[str, ...], list[str]]:
    cfg = parsed.config
    J, report = numerical_jacobian(cfg, l_max=cfg.L_max)
    lam = report.lambda_max_abs
    diag_err = 0.0
    for row in report.rows:
        if row.l >= 2:
            diag_err = max(diag_err, abs(row.lambda_numeric - row.lambda_analytic)
                           / abs(row.lambda_analytic))
        else:
            diag_err = max(diag_err, abs(row.lambda_numeric) / lam)
    checks = [
        _check_le("max_offdiagonal_over_lambda_max", report.max_offdiagonal / lam, 1e-6),
        _check_le("symmetry_defect_over_lambda_max", report.symmetry_defect / lam, 1e-7),
        _check_le("diagonal_relative_error", diag_err, 1e-6),
        _check_le("zero_multiplicity_error",
                  abs(report.zero_multiplicity_numeric - (cfg.n + 2)), 0.0),
    ]
    path = f"{resolve_out_dir(out_dir)}/spectrum.csv"
    write_lines(path, report.csv_lines())
    lines = [f"lambda_max_abs = {lam!r}",
             f"zero_multiplicity = {report.zero_multiplicity_numeric}"]
    return checks, (path,), lines


_CHECKS: dict[str, Callable[[ParsedConfig, FlowRun], list[CheckResult]]] = {
    "stationarity": _checks_stationarity,
    "linear-decay": _checks_linear_decay,
    "zero-modes": _checks_zero_modes,
    "conservation": _checks_conservation,
    "nonlinear-convergence": _checks_nonlinear,
}


def run_experiment(name: str, overrides: dict[str, str] | None = None,
                   out_dir: str | None = None) -> ExperimentResult:
    """Run a preset, write its artifacts, and evaluate its checks.

    Writes run.csv (or spectrum.csv for the spectrum preset), a final-state
    snapshot for flow presets, and summary.txt.  Output is deterministic:
    rerunning a preset reproduces every file byte for byte.  A flow preset
    whose run failed writes its files, skips its checks and does not pass.
    One whose checks cannot be evaluated, because a decay-rate or sphere fit
    fails on the run's records, writes a failed `checks_evaluated` check and
    the fit's error instead of them.
    """
    overrides = {k.strip(): v.strip() for k, v in (overrides or {}).items()}
    parsed = _preset_config(name, overrides)
    if name == "linear-decay":
        _decay_degree(parsed)  # refused before anything is written
    build_init, init_label = _INIT_OVERRIDES.get(name, (None, None))
    if "init" in overrides:
        build_init = init_label = None
    label_lines = () if init_label is None else (f"init_override = {init_label}",)
    requested = out_dir if out_dir is not None else parsed.out_dir
    extra_lines: list[str] = []
    if name == "spectrum":
        checks, files, extra_lines = _spectrum_files(parsed, requested)
        status = "spectrum"
    else:
        out, files = run_to_files(parsed, requested, build_init,
                                  head=(f"preset = {name}",), tail=label_lines)
        status = out.status
        if out.error is None:
            try:
                checks = _CHECKS[name](parsed, out)
            except (DecayFitError, FitConvergenceError) as exc:
                checks = [_check_le("checks_evaluated", math.nan, 0.0)]
                extra_lines = [f"error = {exc}"]
        else:
            checks, extra_lines = [], [f"error = {out.error}"]
    target_dir = resolve_out_dir(requested)
    passed = status != "failed" and all(c.passed for c in checks)
    summary = [f"preset = {name}", *config_echo(parsed), *label_lines,
               f"status = {status}", *extra_lines, *(c.line() for c in checks),
               f"overall = {'PASS' if passed else 'FAIL'}"]
    summary_path = f"{target_dir}/summary.txt"
    write_lines(summary_path, summary)
    return ExperimentResult(name=name, passed=passed, checks=checks, out_dir=target_dir,
                            files=(*files, summary_path), status=status)
