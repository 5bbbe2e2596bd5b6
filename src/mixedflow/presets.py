"""Named experiments with built-in pass/fail expectations.

Each preset is one `_PRESETS` entry: its full flow configuration, as
key -> value settings that `io.parse_config_items` reads with the
command-line overrides, so both pass the checks of a config file's lines
and an error names its source (`preset` or `override KEY`); and the checks
its summary reports.  Every preset's initial data is its `init` setting, so
the config echo in its headers reruns it.  No preset sets dt: each flow
preset steps at the parabolic bound of its L_max and speed, overrides of
either included.  The spectrum preset runs no flow: it writes spectrum.csv
through `io.spectrum_to_file`, the routine behind `mixedflow spectrum`, at
its own L_max, and checks the returned report.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import fit_decay_rate, fit_sphere
from .errors import AdmissibilityError, ConfigError, DecayFitError, FitConvergenceError
from .flow import FlowRun, SpectrumReport, stable_decay_rate
from .harmonics import SPHERE_AREA
from .io import (
    ParsedConfig,
    config_echo,
    parse_config_items,
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


# -- expectations ---------------------------------------------------------------


def _checks_stationarity(parsed: ParsedConfig, out: FlowRun) -> list[CheckResult]:
    tol = 1e-10 * reference_speed(parsed.config.speed)
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
    target = stable_decay_rate(parsed.config.speed, l)
    ts = [r.t for r in out.records]
    amps = [math.sqrt(r.mode_energy[l]) for r in out.records]
    rate = -fit_decay_rate(ts, amps)
    return [_check_le("decay_rate_relative_error", abs(rate - target) / target, 1e-2)]


def _checks_zero_modes(parsed: ParsedConfig, out: FlowRun) -> list[CheckResult]:
    cfg = parsed.config
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
    cfg = parsed.config
    # The final state's fit goes first: where it fails, the records' residuals are
    # NaN too, and its error names the cause, not the rate fit's NaN.
    zfit, _ = fit_sphere(out.final.rho)
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
    r_fit = cfg.R + float(zfit[0])
    V_fit = SPHERE_AREA[cfg.n] * r_fit ** (cfg.n - cfg.k) / (cfg.n + 1)
    V0 = out.records[0].V
    # The flow keeps V_k, so it converges to the sphere whose V_k is V0, of radius
    # r_inf, and decays at the rate of that sphere.  No sphere has V_k <= 0.
    limit_error = math.nan
    if V0 > 0.0:
        r_inf = ((cfg.n + 1) * V0 / SPHERE_AREA[cfg.n]) ** (1.0 / (cfg.n - cfg.k))
        target_inf = stable_decay_rate(dataclasses.replace(cfg.speed, R=r_inf), 2)
        limit_error = abs(rate - target_inf) / target_inf
    return [
        _check_le("residual_monotone_defect", monotone, 0.0),
        _check_le("tail_rate_relative_error", abs(rate - target) / target, 0.10),
        _check_le("fitted_sphere_V_relative_error", abs(V_fit - V0) / abs(V0), 1e-4),
        _check_le("tail_rate_error_at_limit", limit_error, 1e-4),
    ]


def _checks_spectrum(report: SpectrumReport) -> list[CheckResult]:
    lam = report.lambda_max_abs
    diag_err = max(0.0, *(abs(row.lambda_numeric - row.lambda_analytic) / abs(row.lambda_analytic)
                          if row.lambda_analytic else abs(row.lambda_numeric) / lam
                          for row in report.rows))
    return [
        _check_le("max_offdiagonal_over_lambda_max", report.max_offdiagonal / lam, 1e-6),
        _check_le("symmetry_defect_over_lambda_max", report.symmetry_defect / lam, 1e-7),
        _check_le("diagonal_relative_error", diag_err, 1e-6),
        _check_le("zero_multiplicity_error",
                  abs(report.zero_multiplicity_numeric - report.center_dimension), 0.0),
    ]


@dataclass(frozen=True)
class _Preset:
    """One named experiment: its settings (key -> value text) and the checks of its run
    (None for the spectrum preset, which checks its report)."""

    settings: dict[str, str]
    checks: Callable[[ParsedConfig, FlowRun], list[CheckResult]] | None

    def config(self, overrides: dict[str, str]) -> ParsedConfig:
        """The settings with the overrides applied, parsed and validated.

        ConfigError for an override whose key or value holds a line break,
        which no config file line can hold."""
        for key, value in overrides.items():
            if "".join((key + value).splitlines()) != key + value:
                raise ConfigError(f"override {key!r} holds a line break")
        return parse_config_items({**{k: (v, "preset") for k, v in self.settings.items()},
                                   **{k: (v, f"override {k}") for k, v in overrides.items()}})


_PRESETS = {
    "stationarity": _Preset(
        dict(n="2", R="1", k="-1", speed="mean", integrator="rk4", T="0.05", L_max="16",
             init="const:0.2", cadence="1"), _checks_stationarity),
    "linear-decay": _Preset(
        dict(n="2", R="1", k="-1", speed="mean", integrator="rk4", T="1",
             L_max="8", init="harmonic:2,1,1e-4", cadence="2"), _checks_linear_decay),
    "zero-modes": _Preset(
        dict(n="2", R="1", k="-1", speed="mean", integrator="rk4", T="2",
             L_max="8", init="zero_modes:0.001", cadence="10"), _checks_zero_modes),
    "conservation": _Preset(
        dict(n="2", R="1", k="0", speed="mean", integrator="rk4", T="0.5",
             L_max="24", init="random:0.05,6,42", cadence="50"), _checks_conservation),
    "nonlinear-convergence": _Preset(
        dict(n="2", R="1", k="-1", speed="mean", integrator="rk4", T="3",
             L_max="16", init="random:0.05,6,42", cadence="10"), _checks_nonlinear),
    "spectrum": _Preset(dict(n="2", R="1", k="-1", speed="mean", L_max="8"), None),
}

PRESET_NAMES = tuple(_PRESETS)


def run_experiment(name: str, overrides: dict[str, str] | None = None) -> ExperimentResult:
    """Run a preset, write its artifacts, and evaluate its checks.

    Writes run.csv (or spectrum.csv for the spectrum preset), a final-state
    snapshot for flow presets, and summary.txt into `resolve_out_dir` of
    the parsed out_dir, which an `out_dir` override sets like any other
    setting (the working directory by default).  Output is deterministic:
    rerunning a preset reproduces every file byte for byte.  A flow preset
    whose run failed writes its files, skips its checks and does not pass.
    One whose checks cannot be evaluated, because a decay-rate or sphere fit
    fails on the run's records or final state (a sphere fit also refuses a
    field too far from the reference sphere), writes a failed
    `checks_evaluated` check and the fit's error instead of them.
    """
    overrides = {k.strip(): v.strip() for k, v in (overrides or {}).items()}
    preset = _PRESETS.get(name)
    if preset is None:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    parsed = preset.config(overrides)
    if name == "linear-decay":
        _decay_degree(parsed)  # refused before anything is written
    extra_lines: list[str] = []
    if preset.checks is None:
        report, path = spectrum_to_file(parsed, parsed.config.L_max)
        checks, files, status = _checks_spectrum(report), (path,), "spectrum"
        extra_lines = [f"lambda_max_abs = {report.lambda_max_abs!r}",
                       f"zero_multiplicity = {report.zero_multiplicity_numeric}"]
    else:
        out, files = run_to_files(parsed, head=(f"preset = {name}",))
        status = out.status
        if out.error is None:
            try:
                checks = preset.checks(parsed, out)
            except (AdmissibilityError, DecayFitError, FitConvergenceError) as exc:
                checks = [_check_le("checks_evaluated", math.nan, 0.0)]
                extra_lines = [f"error = {exc}"]
        else:
            checks, extra_lines = [], [f"error = {out.error}"]
    target_dir = resolve_out_dir(parsed.out_dir)
    passed = status != "failed" and all(c.passed for c in checks)
    summary = [f"preset = {name}", *config_echo(parsed),
               f"status = {status}", *extra_lines, *(c.line() for c in checks),
               f"overall = {'PASS' if passed else 'FAIL'}"]
    summary_path = f"{target_dir}/summary.txt"
    write_lines(summary_path, summary)
    return ExperimentResult(name=name, passed=passed, checks=checks, out_dir=target_dir,
                            files=(*files, summary_path), status=status)
