#!/usr/bin/env python3
"""Fitted vs analytic decay rates across modes, speeds, and constraint indices.

Each row starts the flow at a single small harmonic, runs the default
integrator (rk4) at its default step (the parabolic bound), and fits the
amplitude decay of that degree against F'(kappa_0) (l-1)(l+n) / R^2.

Usage: python scripts/decay_rate_sweep.py [csv_path]
"""

import math
import sys

import numpy as np

from mixedflow.analysis import fit_decay_rate
from mixedflow.flow import FlowConfig, FlowProblem, run, stable_decay_rate
from mixedflow.harmonics import RadialField
from mixedflow.speeds import SpeedSpec


def fitted_rate(cfg: FlowConfig, l: int) -> float:
    prob = FlowProblem(cfg)
    coeffs = np.zeros(prob.grid.size)
    coeffs[prob.grid.flat_index(l, 1)] = 1e-4 * cfg.R
    out = run(cfg, RadialField(prob.grid, cfg.R, coeffs=coeffs), problem=prob)
    ts = [r.t for r in out.records]
    amps = [math.sqrt(r.mode_energy[l]) for r in out.records]
    return -fit_decay_rate(ts, amps)


def main() -> int:
    csv_path = sys.argv[1] if len(sys.argv) > 1 else None
    cases = []
    for n, modes in ((2, (2, 3, 4)), (1, (2, 3, 4, 5))):
        speeds = [("mean", {}), ("power_mean", dict(m=1, beta=2.0))]
        if n == 2:
            speeds.append(("elementary", dict(l=2)))
        for kind, params in speeds:
            for k in range(-1, n):
                cases.append((n, kind, params, k, modes))

    lines = ["n,speed,k,l,rate_fit,rate_analytic,rel_err"]
    worst = 0.0
    for n, kind, params, k, modes in cases:
        for l in modes:
            speed = SpeedSpec(kind, n=n, R=1.0, **params)
            cfg = FlowConfig(n=n, R=1.0, k=k, speed=speed, T=1.0,
                             L_max=8 if n == 2 else 16, cadence=2)
            target = stable_decay_rate(cfg.speed, l)
            rate = fitted_rate(cfg, l)
            rel = abs(rate - target) / target
            worst = max(worst, rel)
            lines.append(f"{n},{cfg.speed.describe()},{k},{l},{rate!r},{target!r},{rel:.2e}")
            print(lines[-1])
    print(f"worst relative error: {worst:.2e}")
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {csv_path}")
    return 0 if worst < 1e-2 else 1


if __name__ == "__main__":
    sys.exit(main())
