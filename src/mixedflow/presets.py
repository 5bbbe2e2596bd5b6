"""Named experiments with built-in pass/fail expectations.

Each preset is one `_PRESETS` entry: its full flow configuration, as
settings in the key = value grammar of config files, so command-line
overrides go through the same validation; the checks its summary reports;
and, for zero-modes, initial data built directly (a small constant plus
degree-1 combination is not a single grammar item).  The spectrum preset
runs no flow: it writes spectrum.csv through `io.spectrum_to_file`, the
routine behind `mixedflow spectrum`, at its own L_max, and checks the
returned report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import fit_decay_rate, fit_sphere
from .errors import ConfigError, DecayFitError, FitConvergenceError
from .flow import FlowRun, SpectrumReport, stable_decay_rate
from .harmonics import SPHERE_AREA, Grid, RadialField
from .io import (
    ParsedConfig,
    config_echo,
    parse_config_text,
    resolve_out_dir,
    run_to_files,
    spectrum_to_file,
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


def _checks_spectrum(report: SpectrumReport) -> list[CheckResult]:
    lam = report.lambda_max_abs
    diag_err = max(0.0, *(abs(row.lambda_numeric - row.lambda_analytic) / abs(row.lambda_analytic)
                          if row.l >= 2 else abs(row.lambda_numeric) / lam for row in report.rows))
    return [
        _check_le("max_offdiagonal_over_lambda_max", report.max_offdiagonal / lam, 1e-6),
        _check_le("symmetry_defect_over_lambda_max", report.symmetry_defect / lam, 1e-7),
        _check_le("diagonal_relative_error", diag_err, 1e-6),
        _check_le("zero_multiplicity_error",
                  abs(report.zero_multiplicity_numeric - report.center_dimension), 0.0),
    ]


@dataclass(frozen=True)
class _Preset:
    """One named experiment: its settings text, the checks of its run (None
    for the spectrum preset, which checks its report) and, unless init is
    overridden, a direct builder of its initial data with its summary label."""

    settings: str
    checks: Callable[[ParsedConfig, FlowRun], list[CheckResult]] | None
    init: tuple[Callable[[Grid, float], RadialField], str] | None = None

    def config(self, overrides: dict[str, str]) -> ParsedConfig:
        """The settings with the overrides applied, parsed and validated."""
        pairs: dict[str, str] = {}
        for line in self.settings.splitlines():
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
        pairs.update(overrides)
        return parse_config_text("\n".join(f"{k} = {v}" for k, v in pairs.items()))


_PRESETS = {
    "stationarity": _Preset(
        "n = 2\nR = 1\nk = -1\nspeed = mean\nintegrator = imex\n"
        "T = 0.05\nL_max = 16\ninit = const:0.2\ncadence = 1", _checks_stationarity),
    "linear-decay": _Preset(
        "n = 2\nR = 1\nk = -1\nspeed = mean\nintegrator = imex\n"
        "dt = 1e-4\nT = 1\nL_max = 8\ninit = harmonic:2,1,1e-4\ncadence = 10",
        _checks_linear_decay),
    "zero-modes": _Preset(
        "n = 2\nR = 1\nk = -1\nspeed = mean\nintegrator = imex\n"
        "dt = 1e-3\nT = 2\nL_max = 8\ncadence = 10", _checks_zero_modes,
        (_zero_mode_init, "zero-mode combination, amplitude 1e-3")),
    "conservation": _Preset(
        "n = 2\nR = 1\nk = 0\nspeed = mean\nintegrator = rk4\n"
        "dt = 1e-4\nT = 0.5\nL_max = 24\ninit = random:0.05,6,42\ncadence = 50",
        _checks_conservation),
    "nonlinear-convergence": _Preset(
        "n = 2\nR = 1\nk = -1\nspeed = mean\nintegrator = rk4\n"
        "dt = 1e-3\nT = 3\nL_max = 16\ninit = random:0.05,6,42\ncadence = 10",
        _checks_nonlinear),
    "spectrum": _Preset("n = 2\nR = 1\nk = -1\nspeed = mean\nL_max = 8", None),
}

PRESET_NAMES = tuple(_PRESETS)


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
    preset = _PRESETS.get(name)
    if preset is None:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    parsed = preset.config(overrides)
    if name == "linear-decay":
        _decay_degree(parsed)  # refused before anything is written
    build_init, init_label = (preset.init if preset.init and "init" not in overrides
                              else (None, None))
    label_lines = () if init_label is None else (f"init_override = {init_label}",)
    requested = out_dir if out_dir is not None else parsed.out_dir
    extra_lines: list[str] = []
    if preset.checks is None:
        report, path = spectrum_to_file(parsed, parsed.config.L_max, requested)
        checks, files, status = _checks_spectrum(report), (path,), "spectrum"
        extra_lines = [f"lambda_max_abs = {report.lambda_max_abs!r}",
                       f"zero_multiplicity = {report.zero_multiplicity_numeric}"]
    else:
        out, files = run_to_files(parsed, requested, build_init,
                                  head=(f"preset = {name}",), tail=label_lines)
        status = out.status
        if out.error is None:
            try:
                checks = preset.checks(parsed, out)
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
