"""Command-line front end.

Subcommands:
  run         integrate a config file, write run.csv and a final snapshot
  preset      run a named experiment and its pass/fail checks
  spectrum    numerical Jacobian at the round sphere, written as spectrum.csv
              by io.spectrum_to_file, the routine the spectrum preset runs
  fit-sphere  nearest-sphere coordinates of a snapshot

MIXEDFLOW_OUT overrides the configured output directory.  Exit codes:
0 success / all checks passed, 1 failed checks, a failed or an unfinished
run, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import fit_sphere
from .errors import MixedFlowError
from .io import parse_config, read_snapshot, run_to_files, spectrum_to_file
from .presets import PRESET_NAMES, run_experiment


def _parse_overrides(items: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in items:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise MixedFlowError(f"--set expects key=value, got {item!r}")
        if key in out:
            raise MixedFlowError(f"--set key {key!r} given twice")
        out[key] = value.strip()
    return out


def _cmd_run(args) -> int:
    parsed = parse_config(args.config)
    out, (csv_path, snap_path) = run_to_files(parsed, parsed.out_dir)
    last = out.records[-1]
    print(f"status = {out.status}")
    print(f"t = {last.t!r}  sup_G = {last.sup_G!r}  V = {last.V!r}")
    print(f"wrote {csv_path} and {snap_path}")
    if out.error is not None:
        print(f"error: {out.error}", file=sys.stderr)
    return 0 if out.status in ("reached_T", "converged") else 1


def _cmd_preset(args) -> int:
    overrides = _parse_overrides(args.set or [])
    result = run_experiment(args.name, overrides)
    for check in result.checks:
        print(check.line())
    print(f"overall = {'PASS' if result.passed else 'FAIL'}")
    print("wrote " + ", ".join(result.files))
    if not result.passed:
        failed = ", ".join(c.name for c in result.checks if not c.passed)
        print(f"failed checks: {failed}" if failed else f"status = {result.status}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_spectrum(args) -> int:
    parsed = parse_config(args.config)
    report, path = spectrum_to_file(parsed, args.lmax, parsed.out_dir)
    print(f"lambda_max_abs = {report.lambda_max_abs!r}")
    print(f"max_offdiagonal = {report.max_offdiagonal!r}")
    print(f"symmetry_defect = {report.symmetry_defect!r}")
    print(f"zero_multiplicity = {report.zero_multiplicity_numeric} "
          f"(expected {report.center_dimension})")
    print(f"wrote {path}")
    if report.zero_multiplicity_numeric != report.center_dimension:
        print("zero-eigenvalue multiplicity does not match n + 2", file=sys.stderr)
        return 1
    return 0


def _cmd_fit_sphere(args) -> int:
    state = read_snapshot(args.snapshot)
    z, residual = fit_sphere(state.rho)
    print(f"t = {state.t!r}")
    for i, zi in enumerate(z):
        print(f"z{i} = {float(zi)!r}")
    print(f"residual_sup = {float(np.max(np.abs(residual)))!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedflow",
        description="Mixed-volume-preserving curvature flow on radial graphs over a sphere.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a config file")
    p_run.add_argument("--config", required=True, help="path to a key = value config file")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named experiment with checks")
    p_preset.add_argument("name", choices=list(PRESET_NAMES))
    p_preset.add_argument("--set", action="append", metavar="key=value",
                          help="override a config entry (repeatable)")
    p_preset.set_defaults(func=_cmd_preset)

    p_spec = sub.add_parser("spectrum", help="numerical Jacobian at the round sphere")
    p_spec.add_argument("--config", required=True)
    p_spec.add_argument("--lmax", type=int, required=True,
                        help="largest harmonic degree in the Jacobian block")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_fit = sub.add_parser("fit-sphere", help="nearest-sphere coordinates of a snapshot")
    p_fit.add_argument("--snapshot", required=True)
    p_fit.set_defaults(func=_cmd_fit_sphere)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MixedFlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
